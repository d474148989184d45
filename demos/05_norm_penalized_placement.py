"""Problem 1: norm-penalized placement and its contraction certificate.

The optimality condition is the fixed point p = (1/beta) dG_p*(X L X); the
explicit constant k bounds the map's Lipschitz modulus, and for beta above
the threshold the map has one fixed point.  solve_p1 finds it by projected
Newton on the penalized cost, the method that solves problem 2, so every
start reaches the same placement.
"""

import numpy as np

from riccati_place import (
    GaussianActuators,
    Problem1Config,
    contraction_constant_p1,
    estimate_constants,
    solve_p1,
)

n, length = 16, 1.0
h = length / (n + 1)
A = (1.0 / h**2) * (np.diag(np.ones(n - 1), -1)
                    + np.diag(-2.0 * np.ones(n))
                    + np.diag(np.ones(n - 1), 1))
grid = h * np.arange(1, n + 1)
fam = GaussianActuators(grid=grid, sigma=0.12)
W = np.zeros((n, n))
W[3, 3] = 1.0  # cost focuses on the initial condition at node 4

ledger = estimate_constants(fam, fam.domain(), 100, seed=0,
                            cfg=Problem1Config(A=A, Q=np.eye(n), W=W, family=fam, beta=10.0))
report = contraction_constant_p1(ledger)
print(f"k at beta=10: {report.k:.3f}  (threshold beta = {report.beta_threshold:.1f})")
for label, value in report.term_breakdown:
    print(f"  {label:18s} {value:.4f}")

beta = 2.0 * report.beta_threshold
cfg = Problem1Config(A=A, Q=np.eye(n), W=W, family=fam, beta=beta,
                     tol=1e-11, max_iter=200)
print(f"\nsolving at beta = {beta:.1f} (certified k = 0.5) from three starts:")
for p0 in (0.2, 0.5, 0.8):
    tri = solve_p1(cfg, [p0])
    print(f"  p0 = {p0:.1f} -> p* = {tri.p[0]:.10f} "
          f"({tri.iterations} iterations, converged={tri.converged})")
