"""The Lagrange multiplier of the Riccati constraint and its decay bound.

Lambda solves (A.T - GX) L + L (A - XG) = -W.  It is PSD whenever W is, it
equals the integral of the closed-loop semigroup squeezing W, and its norm
obeys M^2/(2 alpha) ||W|| with *closed-loop* constants (not inherited from
A).  solve_dual does not certify the closed loop; the solution does so on
the first read of its bound slack and reuses that certificate afterwards.
"""

import numpy as np

from riccati_place import solve_are, solve_dual, verify_dual

rng = np.random.default_rng(4)
n = 6
Qo = np.linalg.qr(rng.standard_normal((n, n)))[0]
A = Qo @ np.diag(rng.uniform(-3.0, -0.4, n)) @ Qo.T
G = rng.standard_normal((n, 2))
G = G @ G.T / 2.0
Q = np.eye(n)

X = solve_are(A, G, Q).X
z0 = rng.standard_normal(n)
W = np.outer(z0, z0)  # uncertainty concentrated on one initial condition

dsol = solve_dual(A, G, X, W)
print(f"dual residual: {dsol.residual:.2e}")
print(f"||Lambda|| = {np.linalg.norm(dsol.Lambda, 2):.4f}, "
      f"bound slack = {dsol.norm_bound_slack:.4f}")

cert_cl = dsol.closed_loop_cert  # cached by the slack read above
rep = verify_dual(dsol)
print(f"closed-loop certificate: alpha = {cert_cl.alpha:.3f}, M = {cert_cl.M:.3f}")
print(f"integral representation residual: {rep.quadrature_residual_rel:.2e} relative")
print(f"Lambda PSD: {rep.psd}; norm bound holds: {rep.norm_bound_holds}")
