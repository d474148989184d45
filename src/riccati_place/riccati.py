"""Newton-Kleinman solver for the algebraic Riccati equation

    A X + X A.T - X G X + Q = 0,   G, Q symmetric PSD, A stable,

plus residual / trace-bound verification against the quadrature oracle and a
Hamiltonian stable-subspace cross-check.

Note the operator ordering: A multiplies X from the *left* (the transposed
form A.T X + X A of classical LQR is obtained by transposing everything).
"""

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
import scipy.linalg as spla

from .errors import ClosedLoopUnstable, NewtonStall, UnstableGenerator
from .linalg import (
    _exceeds,
    _norm_bounds,
    bochner_quadrature,
    check_psd,
    ensure_operator,
    norm_within,
    operator_norm,
    psd_flags,
    solve_sylvester,
    symmetrize,
)
from .semigroup import certify_stability

DEFAULT_STEP_TOL = 1e-11
RESIDUAL_RTOL = 1e-10
TRACE_SLACK = 1e-9
MAX_NEWTON_ITERS = 100


@dataclass
class RiccatiSolution:
    X: np.ndarray
    newton_iters: int
    strong_residual: float
    trace_bound_slack: float
    bochner_residual: Optional[float] = None  # filled by verify_are
    history: Optional[List[np.ndarray]] = None


@dataclass(frozen=True)
class AREVerification:
    strong_residual: float
    bochner_residual: float
    bochner_residual_rel: float
    trace_X: float
    trace_bound: float
    trace_bound_holds: bool
    symmetric: bool
    psd: bool


def riccati_residual(A, G, Q, X):
    """Operator norm of A X + X A.T - X G X + Q."""
    return operator_norm(A @ X + X @ A.T - X @ G @ X + Q)


def solve_are(A, G, Q, tol=DEFAULT_STEP_TOL, cert=None, keep_history=False, X0=None):
    """Solve the Riccati equation by Newton-Kleinman from X0 (default 0).

    Each step solves the Sylvester equation

        (A - Xk G) X_{k+1} + X_{k+1} (A - Xk G).T = -(Xk G Xk + Q)

    from one real Schur factorization of the closed loop ``A - Xk G``, which
    also certifies its spectrum: ClosedLoopUnstable is raised when that
    spectrum leaves the open left half-plane.  Iteration stops once the step
    norm is <= tol *and* the strong residual is within ``1e-10 (1 + ||Q||)``,
    with ``||Q||`` taken from Frobenius bounds (an SVD only when they leave
    that test open).
    X0 = 0 is admissible because A itself is required to be stable
    (certified on entry); any other X0 must keep A - X0 G stable (e.g. a warm
    start from a nearby instance).

    Parameters
    ----------
    cert : StabilityCertificate, optional
        Reuse a certificate for A instead of recomputing one.  The trace
        bound slack ``M^2/(2 alpha) tr(Q) - tr(X)`` is evaluated with it.
    keep_history : bool
        Record the iterate sequence (X1, X2, ...) on the solution.
    """
    A = ensure_operator(A, "A")
    G = ensure_operator(G, "G")
    Q = ensure_operator(Q, "Q")
    check_psd(G, "G")
    check_psd(Q, "Q")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if cert is None:
        cert = certify_stability(A)  # raises UnstableGenerator
    Q_bounds = _norm_bounds(Q)

    n = A.shape[0]
    X = np.zeros((n, n)) if X0 is None else symmetrize(ensure_operator(X0, "X0"))
    history = [] if keep_history else None
    for k in range(1, MAX_NEWTON_ITERS + 1):
        Acl = A - X @ G
        rhs = -symmetrize(X @ G @ X + Q)
        try:
            X_next = symmetrize(solve_sylvester(Acl, Acl, rhs))
        except UnstableGenerator as err:
            # unreachable from X0 = 0 with stable A; surfaced defensively
            raise ClosedLoopUnstable(f"A - X_{k - 1} G lost stability: {err}") from err
        step = X_next - X
        X = X_next
        if history is not None:
            history.append(X.copy())
        if norm_within(step, tol):
            residual = riccati_residual(A, G, Q, X)
            if not _exceeds(residual, RESIDUAL_RTOL, Q, Q_bounds):
                break
    else:
        raise NewtonStall(
            f"step norm {operator_norm(step):.3e} after {MAX_NEWTON_ITERS} "
            f"iterations (tol={tol:.1e})")

    return RiccatiSolution(
        X=X,
        newton_iters=k,
        strong_residual=residual,
        trace_bound_slack=cert.M**2 / (2.0 * cert.alpha) * float(np.trace(Q)) - float(np.trace(X)),
        history=history,
    )


def verify_are(A, G, Q, sol, cert, horizon, nodes):
    """Re-verify a Riccati solution against its defining identities.

    Checks (i) the strong residual, (ii) the integral-form residual
    ``||X - int_0^h exp(At)(Q - XGX)exp(A.T t) dt||`` via the quadrature
    oracle, (iii) the trace bound ``tr X <= M^2/(2 alpha) tr Q``, and
    (iv) symmetry / PSD of X.  ``cert`` is A's certificate; the quadrature
    reuses it, so nothing is certified here.  Fills ``sol.bochner_residual`` as a side
    effect and returns the full report.
    """
    A = ensure_operator(A, "A")
    X = sol.X
    integrand = symmetrize(Q - X @ G @ X)
    X_quad = bochner_quadrature(A, A, -integrand, horizon, nodes, cert=cert)
    bochner_abs = operator_norm(X - X_quad)
    sol.bochner_residual = bochner_abs

    tr_X = float(np.trace(X))
    tr_bound = cert.M**2 / (2.0 * cert.alpha) * float(np.trace(Q))
    sym_ok, psd_ok = psd_flags(X)
    return AREVerification(
        strong_residual=riccati_residual(A, G, Q, X),
        bochner_residual=bochner_abs,
        bochner_residual_rel=bochner_abs / (1.0 + operator_norm(X)),
        trace_X=tr_X,
        trace_bound=tr_bound,
        trace_bound_holds=tr_X <= tr_bound + TRACE_SLACK,
        symmetric=sym_ok,
        psd=psd_ok,
    )


def solve_are_hamiltonian(A, G, Q):
    """Stable-invariant-subspace oracle for the same equation.

    Orders the real Schur form of ``[[A.T, -G], [-Q, -A]]`` so the stable
    eigenvalues lead, and reads X off the spanning block columns.  Intended
    as an independent cross-check for small n, not as the production solver.
    """
    A = ensure_operator(A, "A")
    G = ensure_operator(G, "G")
    Q = ensure_operator(Q, "Q")
    n = A.shape[0]
    H = np.block([[A.T, -G], [-Q, -A]])
    _, Z, sdim = spla.schur(H, output="real", sort="lhp")
    if sdim != n:
        raise UnstableGenerator(
            f"Hamiltonian has {sdim} stable eigenvalues, expected {n}")
    U1 = Z[:n, :n]
    U2 = Z[n:, :n]
    return symmetrize(np.linalg.solve(U1.T, U2.T).T)
