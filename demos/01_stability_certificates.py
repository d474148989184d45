"""Certify exponential stability of a heat-equation surrogate.

Builds the Dirichlet second-difference generator on 16 interior nodes,
manufactures the decay certificate ||exp(At)|| <= M exp(-alpha t), shows
how a PSD perturbation (feedback-like term) shifts the certificate, and
contrasts it with a non-normal convection-diffusion generator, whose M must be
sampled on a time grid instead of proved by the log-norm test.
"""

import numpy as np

from riccati_place import certify_stability, matrix_exponential, perturbed_certificate

n, length = 16, 1.0
h = length / (n + 1)
A = (1.0 / h**2) * (np.diag(np.ones(n - 1), -1)
                    + np.diag(-2.0 * np.ones(n))
                    + np.diag(np.ones(n - 1), 1))

cert = certify_stability(A)
print(f"heat1d n={n}: alpha = {cert.alpha:.4f}, M = {cert.M:.4f} ({cert.method})")
print(f"slowest mode decays like exp({-cert.alpha / 0.95:.4f} t); "
      f"the certificate keeps a 5% safety margin")
print("A is symmetric, so its log-norm lambda_max((A + A')/2) equals its spectral\n"
      "abscissa and proves the bound for every t >= 0: no time grid is sampled")

for t in (0.0, 0.05, 0.2, 0.5):
    nrm = np.linalg.norm(matrix_exponential(A, t), 2)
    print(f"  t = {t:4.2f}: ||exp(At)|| = {nrm:.6f} <= "
          f"{cert.M * np.exp(-cert.alpha * t):.6f}")

# a PSD perturbation A - K generates a faster-decaying semigroup; the claim
# that the *old* constants still bound it is checked, not assumed
K = 5.0 * np.eye(n)
pert = perturbed_certificate(cert, A, K)
print(f"\nafter A - 5I: alpha = {pert.alpha:.4f} ({pert.method}) "
      f"(old constants still valid: {pert.unperturbed_bound_holds})")

# a non-normal generator (convection-dominated transport) fails the log-norm
# test; its M is the sup of ||exp(At)|| exp(alpha t) over a sampled grid
C = A + (10.0 / (2.0 * h)) * (np.diag(np.ones(n - 1), -1) - np.diag(np.ones(n - 1), 1))
conv = certify_stability(C)
print(f"\nconvection-diffusion n={n}: alpha = {conv.alpha:.4f}, M = {conv.M:.4f} "
      f"({conv.method})")
