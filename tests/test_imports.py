"""What a run imports: scipy is loaded only where a Schur form, ``expm`` or
the Hamiltonian oracle is taken.  Each check runs in a fresh interpreter,
since this test process may have imported scipy already."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from riccati_place import GaussianActuators, certify_stability, solve_are
from riccati_place.riccati import solve_are_hamiltonian

from conftest import convdiff1d

ROOT = Path(__file__).resolve().parents[1]

README_CONFIG = {
    "model": {"kind": "heat1d", "n": 16, "diffusivity": 1.0, "domain_length": 1.0},
    "device": {"kind": "gaussian_actuator", "sigma": 0.12},
    "problem": {"variant": 2, "beta": 10.0, "gamma": 2.6, "W": "rank1:4", "Q": "identity"},
    "solver": {"tol": 1e-6, "max_iter": 500, "quadrature": {"nodes": 200}, "seed": 0,
               "damping": 1.0},
}

# the refused-basis solve below (convdiff c = 40, n = 32, p = 0.3): Newton
# steps, Schur forms and traces of X and of the Hamiltonian oracle's X
REFUSED_ITERS = [3, 3]
REFUSED_TRACES = [0.03911968021875052, 0.039119680218756864]

REFUSED_SOLVE = """
import hashlib
import numpy as np
from riccati_place import GaussianActuators, certify_stability, solve_are
from riccati_place.riccati import solve_are_hamiltonian
from conftest import convdiff1d
A, grid = convdiff1d(32, c=40.0)
G = GaussianActuators(grid=grid, sigma=0.12).G([0.3])
before = "scipy" in sys.modules
sol = solve_are(A, G, np.eye(32), cert=certify_stability(A))
H = solve_are_hamiltonian(A, G, np.eye(32))
print(json.dumps({"scipy_before": before, "scipy_after": "scipy" in sys.modules,
                  "iters": [sol.newton_iters, sol.schur_steps],
                  "X": sol.X.tobytes().hex(), "H": H.tobytes().hex()}))
"""


def run_fresh(code, cwd):
    """Run ``code`` in a fresh interpreter that writes no bytecode, with the
    package and the test helpers on its path; returns its last stdout line
    as JSON."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    done = subprocess.run([sys.executable, "-c", "import json, sys\n" + code], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_optimize_and_batches_load_no_scipy(tmp_path):
    (tmp_path / "readme.json").write_text(json.dumps(README_CONFIG))
    out = run_fresh("""
import numpy as np
import riccati_place, riccati_place.cli
from riccati_place import cli, optimize
code = cli.main(["optimize", "--config", "readme.json", "--out", "out"])
cfg = cli.build_problem(cli.parse_config(json.load(open("readme.json"))))[0]
pairs = list(optimize.solve_state_pairs(cfg, [np.array([p]) for p in np.linspace(0.1, 0.9, 20)]))
print(json.dumps({"code": code, "pairs": len(pairs),
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
""", tmp_path)
    assert out == {"code": 0, "pairs": 20, "scipy": []}
    assert (tmp_path / "out" / "report.json").exists()


def test_schur_path_and_oracle_import_scipy_where_they_run(tmp_path):
    out = run_fresh(REFUSED_SOLVE, tmp_path)
    assert (out["scipy_before"], out["scipy_after"]) == (False, True)
    assert out["iters"] == REFUSED_ITERS
    A, grid = convdiff1d(32, c=40.0)
    G = GaussianActuators(grid=grid, sigma=0.12).G([0.3])
    X = solve_are(A, G, np.eye(32), cert=certify_stability(A)).X
    H = solve_are_hamiltonian(A, G, np.eye(32))
    assert (out["X"], out["H"]) == (X.tobytes().hex(), H.tobytes().hex())
    traces = [float(np.trace(X)), float(np.trace(H))]
    assert np.allclose(traces, REFUSED_TRACES, rtol=1e-12, atol=0.0)
