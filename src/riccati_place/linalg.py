"""Dense matrix kernels: exponential, Schur-based Sylvester solve, quadrature
oracle, and the norms used throughout the package.

Operators are plain square float64 ndarrays on a fixed Galerkin basis.  Two
conventions hold everywhere:

* "symmetric" means ``max|T - T.T| <= 1e-12 * (1 + ||T||)`` in the operator
  norm, checked by :func:`check_symmetric`;
* "PSD" additionally means the smallest eigenvalue is ``>= -1e-10 * (1 +
  ||T||)``, checked by :func:`check_psd`.

All functions are pure and never mutate their arguments.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as spla

from .errors import HorizonTooShort, SingularSystem, UnstableGenerator

SYMMETRY_RTOL = 1e-12
PSD_RTOL = 1e-10


def ensure_operator(T, name="operator"):
    """Validate and return a square float matrix with finite entries."""
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError(f"{name} must be square, got shape {T.shape}")
    if not np.isfinite(T).all():
        raise ValueError(f"{name} has non-finite entries")
    return T


def operator_norm(T):
    """Largest singular value of T (the L(H) norm on the truncation)."""
    if T.size == 0:
        return 0.0
    if T.size == 1:
        return abs(float(T[0, 0]))
    return float(np.linalg.norm(T, 2))


def check_symmetric(T, name="operator"):
    """Raise unless T is symmetric within the package-wide tolerance."""
    skew = float(np.max(np.abs(T - T.T))) if T.size else 0.0
    tol = SYMMETRY_RTOL * (1.0 + operator_norm(T))
    if skew > tol:
        raise ValueError(f"{name} is not symmetric: max|T - T.T| = {skew:.3e} > {tol:.3e}")


def check_psd(T, name="operator"):
    """Raise unless the symmetric matrix T is PSD within tolerance."""
    check_symmetric(T, name)
    lam_min = float(np.linalg.eigvalsh(T)[0]) if T.size else 0.0
    tol = PSD_RTOL * (1.0 + operator_norm(T))
    if lam_min < -tol:
        raise ValueError(f"{name} is not PSD: lambda_min = {lam_min:.3e} < -{tol:.3e}")


def symmetrize(T):
    return 0.5 * (T + T.T)


def spectral_abscissa(A):
    """max Re(lambda) over the spectrum of A."""
    if A.size == 1:
        return float(A[0, 0])
    return float(np.max(np.linalg.eigvals(A).real))


@dataclass(frozen=True)
class NormReport:
    """The four scalar functionals reported for an operator.

    ``abs_trace`` is ``|tr T|``; ``trace_norm_schatten`` is the sum of
    singular values.  The two coincide on PSD matrices and split on
    indefinite ones, which is why both are always carried.
    """

    op_norm: float
    trace: float
    trace_norm_schatten: float
    abs_trace: float


def norms(T):
    """Compute the NormReport of a square matrix."""
    T = ensure_operator(T)
    if T.size == 0:
        return NormReport(0.0, 0.0, 0.0, 0.0)
    sv = np.linalg.svd(T, compute_uv=False)
    tr = float(np.trace(T))
    return NormReport(
        op_norm=float(sv[0]),
        trace=tr,
        trace_norm_schatten=float(sv.sum()),
        abs_trace=abs(tr),
    )


def matrix_exponential(A, t):
    """exp(A*t) for a finite square matrix A and finite t >= 0."""
    A = ensure_operator(A, "A")
    t = float(t)
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0.0:
        return np.eye(A.shape[0])
    return spla.expm(A * t)


def _stability_spectra(A1, A2):
    lam1 = A1.ravel() if A1.size == 1 else np.linalg.eigvals(A1)
    lam2 = A2.ravel() if A2.size == 1 else np.linalg.eigvals(A2)
    if lam1.real.max() >= 0.0:
        raise UnstableGenerator(
            f"A1 has spectral abscissa {lam1.real.max():.3e} >= 0")
    if lam2.real.max() >= 0.0:
        raise UnstableGenerator(
            f"A2 has spectral abscissa {lam2.real.max():.3e} >= 0")
    return lam1, lam2


def solve_sylvester(A1, A2, P):
    """Solve A1 T + T A2.T = P for stable A1, A2 via Schur reduction.

    Both spectra must lie strictly in the open left half-plane; the residual
    of the returned T satisfies ``||A1 T + T A2.T - P|| <= 1e-10 (1 + ||P||)``
    in the operator norm (one refinement pass is applied if the first solve
    misses it).
    """
    A1 = ensure_operator(A1, "A1")
    A2 = ensure_operator(A2, "A2")
    P = ensure_operator(P, "P")
    lam1, lam2 = _stability_spectra(A1, A2)

    # Conditioning guard: the solve degenerates when eigenvalue sums cancel.
    sums = np.abs(lam1[:, None] + lam2[None, :])
    sep_tol = 1e-12 * (operator_norm(A1) + operator_norm(A2))
    if sums.min() < sep_tol:
        raise SingularSystem(
            f"min |lambda_i(A1) + lambda_j(A2)| = {sums.min():.3e} < {sep_tol:.3e}")

    if A1.size == 1:
        return P / (A1[0, 0] + A2[0, 0])

    T = spla.solve_sylvester(A1, A2.T, P)
    res_tol = 1e-10 * (1.0 + operator_norm(P))
    for _ in range(2):
        R = P - (A1 @ T + T @ A2.T)
        if operator_norm(R) <= res_tol:
            return T
        T = T + spla.solve_sylvester(A1, A2.T, R)
    R = P - (A1 @ T + T @ A2.T)
    if operator_norm(R) > res_tol:
        raise SingularSystem(
            f"Sylvester residual {operator_norm(R):.3e} exceeds {res_tol:.3e} "
            "after refinement; system too ill-conditioned")
    return T


def _gauss_legendre_panel(width, npts=16):
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * width * (x + 1.0), 0.5 * width * w


def bochner_quadrature(A1, A2, P, horizon, nodes):
    """Quadrature oracle for the integral form of the Sylvester solution.

    Returns ``-int_0^horizon exp(A1 t) P exp(A2.T t) dt`` by composite
    16-point Gauss-Legendre with panel width at most ``1/(2 alpha)``, where
    alpha is the weaker certified decay rate of the two generators (equal
    generators are certified once).  ``nodes`` is a minimum node budget;
    more panels are used when the decay rate demands them.

    Raises HorizonTooShort when the analytic truncation tail
    ``M^2 ||P|| exp(-2 alpha horizon) / (2 alpha)`` exceeds 1e-8.
    """
    from .semigroup import certify_stability  # deferred: semigroup builds on linalg

    A1 = ensure_operator(A1, "A1")
    A2 = ensure_operator(A2, "A2")
    P = ensure_operator(P, "P")
    horizon = float(horizon)
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    nodes = int(nodes)
    if nodes <= 0:
        raise ValueError("nodes must be positive")

    cert1 = certify_stability(A1)
    cert2 = cert1 if np.array_equal(A1, A2) else certify_stability(A2)
    m_star = max(cert1.M, cert2.M)
    alpha_star = min(cert1.alpha, cert2.alpha)

    tail = m_star**2 * operator_norm(P) * np.exp(-2.0 * alpha_star * horizon) / (2.0 * alpha_star)
    if tail > 1e-8:
        raise HorizonTooShort(
            f"tail bound {tail:.3e} > 1e-8; need horizon >= "
            f"{np.log(m_star**2 * max(operator_norm(P), 1e-300) / (2e-8 * alpha_star)) / (2 * alpha_star):.3g}")

    panels = max(int(np.ceil(nodes / 16)), int(np.ceil(2.0 * alpha_star * horizon)), 1)
    width = horizon / panels
    offsets, weights = _gauss_legendre_panel(width)

    # exp(A (m*width + s)) = expm(A width)^m @ expm(A s): only 17 expm calls
    # per generator, the rest is the semigroup property.
    left_offsets = [matrix_exponential(A1, s) for s in offsets]
    right_offsets = [matrix_exponential(A2.T, s) for s in offsets]
    left_step = matrix_exponential(A1, width)
    right_step = matrix_exponential(A2.T, width)

    n = A1.shape[0]
    acc = np.zeros((n, P.shape[1]))
    left_panel = np.eye(n)
    right_panel = np.eye(A2.shape[0])
    for _ in range(panels):
        for w, El, Er in zip(weights, left_offsets, right_offsets):
            acc += w * (left_panel @ El) @ P @ (right_panel @ Er)
        left_panel = left_panel @ left_step
        right_panel = right_panel @ right_step
    return -acc
