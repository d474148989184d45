"""Lagrange-multiplier (dual) equation attached to the Riccati constraint:

    (A.T - G X) L + L (A - X G) = -W,

a Sylvester equation in the closed-loop generator A.T - G X.  Its solution
inherits symmetry and positive semi-definiteness from W and obeys the decay
bound ||L|| <= M^2/(2 alpha) ||W|| with closed-loop constants.  Those
constants belong to the well-posedness analysis, not to the optimality
system, so the closed loop is certified lazily: only when the bound is read.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ClosedLoopUnstable, UnstableGenerator
from .linalg import (
    bochner_quadrature,
    check_psd,
    ensure_operator,
    operator_norm,
    psd_flags,
    solve_sylvester,
    symmetrize,
)
from .semigroup import certify_stability

NORM_BOUND_SLACK = 1e-9


def _closed_loop_unstable(err):
    return ClosedLoopUnstable(f"A.T - G X is not stable: {err}")


@dataclass
class DualSolution:
    """Multiplier of the Riccati constraint.

    ``norm_W``, ``closed_loop_cert`` and ``norm_bound_slack`` are computed
    on first read and cached; the first read of either of the last two raises
    ClosedLoopUnstable when the closed loop cannot be certified.
    """

    Lambda: np.ndarray
    residual: float
    closed_loop: np.ndarray  # A.T - G X
    W: np.ndarray

    @cached_property
    def norm_W(self):
        """Operator norm of W."""
        return operator_norm(self.W)

    @cached_property
    def closed_loop_cert(self):
        """Stability certificate (M, alpha) of the closed-loop generator."""
        try:
            return certify_stability(self.closed_loop)
        except UnstableGenerator as err:
            raise _closed_loop_unstable(err) from err

    @cached_property
    def norm_bound_slack(self):
        """``M^2/(2 alpha) ||W|| - ||Lambda||`` with closed-loop constants."""
        cert = self.closed_loop_cert
        bound = cert.M**2 / (2.0 * cert.alpha) * self.norm_W
        return bound - operator_norm(self.Lambda)


def dual_residual(closed_loop, Lam, W):
    return operator_norm(closed_loop @ Lam + Lam @ closed_loop.T + W)


def solve_dual(A, G, X, W):
    """Solve the dual equation for the multiplier Lambda.

    X must be the Riccati solution for (A, G, Q); W symmetric PSD.  Raises
    ClosedLoopUnstable when the closed loop ``A.T - G X`` has spectrum off
    the open left half-plane.  Its decay certificate is not built here: the
    solution certifies the closed loop on the first read of
    ``closed_loop_cert`` or ``norm_bound_slack``.
    """
    A = ensure_operator(A, "A")
    G = ensure_operator(G, "G")
    X = ensure_operator(X, "X")
    W = ensure_operator(W, "W")
    check_psd(W, "W")
    closed_loop = A.T - G @ X
    try:
        Lam = symmetrize(solve_sylvester(closed_loop, closed_loop, -W))
    except UnstableGenerator as err:
        raise _closed_loop_unstable(err) from err
    return DualSolution(
        Lambda=Lam,
        residual=dual_residual(closed_loop, Lam, W),
        closed_loop=closed_loop,
        W=W,
    )


@dataclass(frozen=True)
class DualVerification:
    residual: float
    norm_bound: float
    norm_bound_holds: bool
    symmetric: bool
    psd: bool
    quadrature_residual: float
    quadrature_residual_rel: float


def verify_dual(sol, cert_closed_loop, W, horizon=None, nodes=200):
    """Check the multiplier bound, PSD-ness, and the integral representation.

    The integral cross-check evaluates ``int_0^h T(t) W T*(t) dt`` with
    T(t) the closed-loop semigroup, via the quadrature oracle, which reuses
    ``cert_closed_loop``: nothing is certified here.  horizon defaults to
    20/alpha of the closed-loop certificate.
    """
    W = ensure_operator(W, "W")
    Lam = sol.Lambda
    if horizon is None:
        horizon = 20.0 / cert_closed_loop.alpha
    quad = bochner_quadrature(sol.closed_loop, sol.closed_loop, -W, horizon, nodes,
                              cert=cert_closed_loop)
    qres = operator_norm(Lam - quad)

    sym_ok, psd_ok = psd_flags(Lam)
    bound = cert_closed_loop.M**2 / (2.0 * cert_closed_loop.alpha) * operator_norm(W)
    return DualVerification(
        residual=dual_residual(sol.closed_loop, Lam, W),
        norm_bound=bound,
        norm_bound_holds=operator_norm(Lam) <= bound + NORM_BOUND_SLACK,
        symmetric=sym_ok,
        psd=psd_ok,
        quadrature_residual=qres,
        quadrature_residual_rel=qres / (1.0 + operator_norm(Lam)),
    )
