"""End-to-end checks with several actuators (param_dim >= 2)."""

import json

import numpy as np
import pytest

from riccati_place.cli import main as cli_main
from riccati_place.devices import GaussianActuators, estimate_constants
from riccati_place.optimize import (
    Problem1Config,
    Problem2Config,
    beta_sweep,
    contraction_constant_p1,
    cost_p2,
    critical_cone_basis,
    gradient_p2,
    solve_p1,
    solve_p2,
    solve_state_pair,
)

from conftest import heat1d
from test_optimize_p1 import heat_like


@pytest.fixture(scope="module")
def pair_family():
    A, grid = heat_like(8, nu=0.05)
    fam = GaussianActuators(grid=grid, sigma=0.15, param_dim=2)
    return A, grid, fam


def test_p1_two_actuators_converges(pair_family):
    A, grid, fam = pair_family
    n = len(grid)
    cfg = Problem1Config(A=A, Q=np.eye(n), W=np.eye(n), family=fam,
                         beta=50.0, tol=1e-10, max_iter=300)
    tri = solve_p1(cfg, [0.3, 0.7])
    assert tri.converged
    assert tri.p.shape == (2,)
    assert tri.residual_stationarity <= cfg.tol


def test_p2_two_actuators_meets_constraint(pair_family):
    A, grid, fam = pair_family
    n = len(grid)
    W = np.zeros((n, n))
    W[2, 2] = 1.0
    # interior plateau of tr G_p is ~2x the single-actuator value
    gamma = 0.9 * fam.trace_G([0.35, 0.65])
    cfg = Problem2Config(A=A, Q=np.eye(n), W=W, family=fam, beta=200.0,
                         gamma=gamma, tol=1e-7, max_iter=500)
    # start inside the basin where both actuators serve the weighted node;
    # the landscape is multimodal and this beta is far below the certified
    # contraction threshold, so basin choice is on the caller
    tri = solve_p2(cfg, [0.3, 0.35])
    assert tri.residual_stationarity <= cfg.tol
    assert abs(tri.trace_gap) <= 1e-3  # gap is O(||XLX||/beta)

    # the weak gradient vanishes coordinate-wise
    g = gradient_p2(cfg, tri.p)
    assert np.linalg.norm(g) <= cfg.tol


def test_two_actuator_ledger_and_cone(pair_family):
    A, grid, fam = pair_family
    n = len(grid)
    cfg = Problem2Config(A=A, Q=np.eye(n), W=np.eye(n), family=fam, beta=10.0, gamma=1.0)
    led = estimate_constants(fam, fam.domain(), 80, seed=3, cfg=cfg)
    assert led.K > 0 and led.mu > 0
    rep = contraction_constant_p1(led)
    assert np.isfinite(rep.k) and rep.beta_threshold > 0

    from riccati_place.riccati import solve_are
    p = np.array([0.3, 0.6])
    X = solve_are(A, fam.G(p), np.eye(n)).X
    assert critical_cone_basis(fam, p, X) == []  # both columns independent


def test_cli_multi_gaussian(tmp_path):
    raw = {
        "model": {"kind": "heat1d", "n": 8, "diffusivity": 0.05,
                  "domain_length": 1.0},
        "device": {"kind": "multi_gaussian", "param_dim": 2, "sigma": 0.15,
                   "p0": [0.3, 0.7]},
        "problem": {"variant": 1, "beta": 50.0, "W": "identity", "Q": "identity"},
        "solver": {"tol": 1e-8, "max_iter": 300, "seed": 0, "damping": 1.0},
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    code = cli_main(["optimize", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    payload = json.loads((tmp_path / "out" / "report.json").read_text())
    assert len(payload["p"]) == 2 and payload["converged"]


def test_p2_from_handed_state_at_coincident_actuators():
    # dG*dG is singular where two actuators coincide; only the map start
    # reads its inverse, and it falls back to p0 there
    A, grid = heat1d(16)
    W = np.zeros((16, 16))
    W[3, 3] = 1.0
    fam = GaussianActuators(grid=grid, sigma=0.12, param_dim=2)
    cfg = Problem2Config(A=A, Q=np.eye(16), W=W, family=fam, beta=10.0,
                         gamma=5.2, tol=1e-6, max_iter=500)
    p = np.array([0.45, 0.45])
    tri = solve_p2(cfg, p, state=solve_state_pair(cfg, p))
    assert tri.converged


def test_p2_sweep_continues_from_coincident_actuators():
    # the first row ends with three of four actuators coincident; each
    # later row starts from that state pair.  Whether the first row itself
    # converges is not at issue here.
    n, d = 32, 4
    A, grid = heat1d(n)
    W = np.zeros((n, n))
    W[n // 4, n // 4] = W[3 * n // 4, 3 * n // 4] = 1.0
    fam = GaussianActuators(grid=grid, sigma=0.12, param_dim=d)
    p0 = np.linspace(0.2, 0.8, d) + 0.01
    cfg = Problem2Config(A=A, Q=np.eye(n), W=W, family=fam, beta=10.0,
                         gamma=fam.trace_G(p0), tol=1e-6, max_iter=200)
    report = beta_sweep(cfg, [10.0, 1e2, 1e3, 1e4], p0)
    assert not any(r.failed for r in report.rows)
    assert all(r.converged and r.iterations == 1 for r in report.rows[1:])
