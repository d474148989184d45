"""The benchmark's workloads: inputs built from a seed, one timed unit, and the
correctness check of that unit's outputs.

Each workload is a class with

* ``__init__(seed, scratch)``: the set-up (builds every input; the library
  sees only these generated inputs, never the seed itself, except the
  ``--seed`` argument that ``verify-bounds`` takes on its command line);
* ``run_unit(index)``: the timed unit, returning its raw outputs;
* ``check(index, out)``: a list of failed checks (empty when correct) and a
  dict of reported, ungated outputs.

The three workloads stress different layers; see README.md.
"""

import json
from pathlib import Path

import numpy as np

import riccati_place as rp
from riccati_place import cli

SYMMETRY_RTOL = 1e-12
PSD_RTOL = 1e-10


def heat1d(n):
    """Dirichlet second differences on (0, 1): A and the interior grid."""
    h = 1.0 / (n + 1)
    A = (np.diag(np.ones(n - 1), -1) + np.diag(-2.0 * np.ones(n))
         + np.diag(np.ones(n - 1), 1)) / h**2
    return A, h * np.arange(1, n + 1)


def convection_diffusion(n, nu, c):
    """Central differences of u_t = nu u_xx - c u_x on (0, 1), Dirichlet ends."""
    A, grid = heat1d(n)
    h = grid[0]
    A = nu * A + (c / (2.0 * h)) * (np.diag(np.ones(n - 1), -1)
                                    - np.diag(np.ones(n - 1), 1))
    return A, grid


def _is_symmetric_psd(X):
    norm = float(np.linalg.norm(X, 2))
    if float(np.max(np.abs(X - X.T))) > SYMMETRY_RTOL * (1.0 + norm):
        return False
    return float(np.linalg.eigvalsh(X)[0]) >= -PSD_RTOL * (1.0 + norm)


class SweepHeat16:
    """beta_sweep on the README model, warm-started along the beta schedule."""

    name = "sweep-heat16"
    n = 16
    BETAS = (10.0, 100.0, 1000.0, 10000.0)
    # Placement at each beta from the library as first benchmarked (seed 0);
    # every p0 in [0.2, 0.4] lands on it well within the check tolerance.
    P_REF = {10.0: 0.07762478638576775, 100.0: 0.0776247689722777,
             1000.0: 0.07762476724899608, 10000.0: 0.07762476708074664}
    P_TOL = 1e-6

    def __init__(self, seed, scratch):
        rng = np.random.default_rng(seed)
        self.p0 = float(rng.uniform(0.2, 0.4))
        A, grid = heat1d(self.n)
        W = np.zeros((self.n, self.n))
        W[3, 3] = 1.0
        self.cfg = rp.Problem2Config(
            A=A, Q=np.eye(self.n), W=W,
            family=rp.GaussianActuators(grid=grid, sigma=0.12),
            beta=self.BETAS[0], gamma=2.6, tol=1e-6, max_iter=500)

    def run_unit(self, index):
        return rp.beta_sweep(self.cfg, self.BETAS, p0=[self.p0])

    def check(self, index, report):
        errors = []
        for row, law in zip(report.rows, report.gap_law_holds):
            if row.failed or not row.converged:
                errors.append(f"beta={row.beta:g}: failed={row.failed} "
                              f"converged={row.converged} {row.error}")
                continue
            if not law:
                errors.append(f"beta={row.beta:g}: gap law violated")
            dp = abs(float(row.p[0]) - self.P_REF[row.beta])
            if dp > self.P_TOL:
                errors.append(f"beta={row.beta:g}: p off the reference by {dp:.3e}")
        if len(report.rows) != len(self.BETAS):
            errors.append(f"{len(report.rows)} rows for {len(self.BETAS)} betas")
        return errors, {"p0": self.p0}


class AREPathHeat256:
    """Newton-Kleinman along a placement path at n = 256, warm-started."""

    name = "are-path-heat256"
    n = 256
    PLACEMENTS = 8
    JITTER = 0.01
    ARE_TOL = 1e-12
    QUAD_NODES = 200

    def __init__(self, seed, scratch):
        rng = np.random.default_rng(seed)
        self.A, grid = heat1d(self.n)
        self.Q = np.eye(self.n)
        self.cert = rp.certify_stability(self.A)
        self.family = rp.GaussianActuators(grid=grid, sigma=0.12)
        self.placements = (np.linspace(0.1, 0.9, self.PLACEMENTS)
                           + rng.uniform(-self.JITTER, self.JITTER, self.PLACEMENTS))

    def run_unit(self, index):
        sols, X = [], None
        for p in self.placements:
            G = self.family.G([p])
            sol = rp.solve_are(self.A, G, self.Q, tol=self.ARE_TOL,
                               cert=self.cert, X0=X)
            sols.append((G, sol))
            X = sol.X
        G, sol = sols[-1]
        ver = rp.verify_are(self.A, G, self.Q, sol, self.cert,
                            horizon=20.0 / self.cert.alpha, nodes=self.QUAD_NODES)
        return sols, ver

    def check(self, index, out):
        sols, ver = out
        errors = []
        res_tol = 1e-10 * (1.0 + float(np.linalg.norm(self.Q, 2)))
        bound = self.cert.M**2 / (2.0 * self.cert.alpha) * float(np.trace(self.Q))
        for k, (G, sol) in enumerate(sols):
            X = sol.X
            res = float(np.linalg.norm(
                self.A @ X + X @ self.A.T - X @ G @ X + self.Q, 2))
            if res > res_tol:
                errors.append(f"placement {k}: strong residual {res:.3e} > {res_tol:.3e}")
            if not _is_symmetric_psd(X):
                errors.append(f"placement {k}: X is not symmetric PSD")
            if float(np.trace(X)) > bound + 1e-9:
                errors.append(f"placement {k}: tr X above the trace bound")
        if not (ver.trace_bound_holds and ver.symmetric and ver.psd):
            errors.append(f"verify_are flags: {ver}")
        if ver.strong_residual > res_tol:
            errors.append(f"verify_are strong residual {ver.strong_residual:.3e}")
        return errors, {
            "newton_steps": [sol.newton_iters for _, sol in sols],
            # Reported, not gated: see README.md, "Quadrature residual".
            "bochner_residual_rel": ver.bochner_residual_rel,
        }


class VerifyConvDiff16:
    """One in-process ``riccati-place verify-bounds`` on a non-normal model."""

    name = "verify-convdiff16"
    n = 16

    def __init__(self, seed, scratch):
        self.seed = seed
        self.dir = Path(scratch)
        A, grid = convection_diffusion(self.n, nu=1.0, c=10.0)
        model = self.dir / "convdiff16.txt"
        model.write_text(f"{self.n}\n" + "".join(
            " ".join(format(x, ".17g") for x in row) + "\n" for row in A))
        self.config = self.dir / "config.json"
        self.config.write_text(json.dumps({
            "model": {"kind": "matrix_file", "file_path": str(model)},
            "device": {"kind": "gaussian_actuator", "sigma": 0.12,
                       "grid": grid.tolist()},
            "problem": {"variant": 2, "beta": 10.0, "gamma": 2.6,
                        "W": "rank1:4", "Q": "identity"},
            "solver": {"tol": 1e-6, "max_iter": 500},
        }, indent=2))
        self.cert = rp.certify_stability(A)
        self.first_report = None

    def run_unit(self, index):
        out = self.dir / f"unit{index}"
        code = cli.main(["verify-bounds", "--config", str(self.config),
                         "--out", str(out), "--seed", str(self.seed)])
        return code, out / "report.json"

    def check(self, index, out):
        code, path = out
        if code != 0:
            return [f"exit code {code}"], {}
        raw = path.read_bytes()
        report = json.loads(raw)
        errors = []
        flags = {"are_trace_bound_pass": report["are_trace_bound_pass"],
                 "dual_norm_bound_pass": report["dual_norm_bound_pass"]}
        for key in ("x_lipschitz_pass", "lambda_lipschitz_pass"):
            flags.update({f"{key}.{r}": v for r, v in report[key].items()})
        errors += [f"{flag} is false" for flag, ok in flags.items() if ok is not True]
        ledger = report["ledger"]
        if ledger["M"] != self.cert.M or ledger["alpha"] != self.cert.alpha:
            errors.append(f"ledger (M, alpha) = ({ledger['M']}, {ledger['alpha']}) "
                          f"differs from certify_stability(A) = "
                          f"({self.cert.M}, {self.cert.alpha})")
        if self.first_report is None:
            self.first_report = raw
        elif raw != self.first_report:
            errors.append("report.json differs from the run's first invocation")
        return errors, {"ledger_M": ledger["M"]}


WORKLOADS = {w.name: w for w in (SweepHeat16, AREPathHeat256, VerifyConvDiff16)}
