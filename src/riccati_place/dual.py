"""Lagrange-multiplier (dual) equation attached to the Riccati constraint:

    (A.T - G X) L + L (A - X G) = -W,

a Sylvester equation in the closed-loop generator A.T - G X.  Its solution
inherits symmetry and positive semi-definiteness from W and obeys the decay
bound ||L|| <= M^2/(2 alpha) ||W|| with closed-loop constants.  Those
constants belong to the well-posedness analysis, not to the optimality
system, so the closed loop is certified lazily: only when the bound is read.

Whether the bound holds is decided without the certificate where it can be.
Every certificate has M >= 1 (at t = 0, ``e^{alpha t} ||e^{A t}|| = 1``), so
``||L|| <= ||W||/(2 alpha)``, with alpha from one eigendecomposition, passes
the bound for every M the certificate could find; only a check that this
floor leaves open builds the certificate.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ClosedLoopUnstable, UnstableGenerator
from .linalg import (
    SylvesterFactor,
    bochner_quadrature,
    check_psd,
    ensure_operator,
    norm_within,
    operator_norm,
    psd_flags,
    symmetrize,
)
from .riccati import RiccatiSolution, closed_loop_capacitance
from .semigroup import certify_stability, decay_rate

NORM_BOUND_SLACK = 1e-9


def _closed_loop_unstable(err):
    return ClosedLoopUnstable(f"A.T - G X is not stable: {err}")


def _schur_factor(closed_loop):
    """The Schur factor of the closed loop ``A' - G X``; ClosedLoopUnstable
    when its spectrum leaves the open left half-plane."""
    try:
        return SylvesterFactor(closed_loop, closed_loop)
    except UnstableGenerator as err:
        raise _closed_loop_unstable(err) from err


@dataclass
class DualSolution:
    """Multiplier of the Riccati constraint, and the factored closed loop
    it was solved on.

    ``residual``, ``norm_W``, ``closed_loop_cert``, ``norm_bound``,
    ``norm_bound_slack`` and ``norm_bound_holds`` are computed on first read
    and cached; the first read of any of the last four raises
    ClosedLoopUnstable when the closed loop cannot be certified
    (``norm_bound_holds`` certifies it only when ``||Lambda||`` exceeds the
    bound's floor ``||W||/(2 alpha)``).  :meth:`solve_closed_loop` solves further
    Lyapunov equations on the closed loop from the same factor:
    ``capacitance``, the closed loop proved stable and factored in A's real
    eigenbasis, or ``schur``, its real Schur form (built on first need when
    the capacitance declines).
    """

    Lambda: np.ndarray
    closed_loop: np.ndarray  # A.T - G X
    W: np.ndarray
    capacitance: Optional[object] = field(default=None, repr=False, compare=False)
    schur: Optional[SylvesterFactor] = field(default=None, repr=False, compare=False)

    @cached_property
    def residual(self):
        """Operator norm of the dual equation's residual at Lambda."""
        return dual_residual(self.closed_loop, self.Lambda, self.W)

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
    def norm_bound(self):
        """The decay bound ``M^2/(2 alpha) ||W||`` on ||Lambda||, with closed-loop constants."""
        cert = self.closed_loop_cert
        return cert.M**2 / (2.0 * cert.alpha) * self.norm_W

    @cached_property
    def norm_bound_slack(self):
        """``norm_bound - ||Lambda||``."""
        return self.norm_bound - operator_norm(self.Lambda)

    @cached_property
    def norm_bound_holds(self):
        """``norm_bound_slack >= -NORM_BOUND_SLACK``, without the certificate
        when ``||Lambda|| <= ||W||/(2 alpha)``.

        That floor is ``norm_bound``'s own expression at ``M = 1``, with
        alpha from :func:`~riccati_place.semigroup.decay_rate`, the
        certificate's own, bit for bit.  Every certificate has ``M >= 1``
        and rounding is monotone, so ``norm_bound >= floor`` and the slack
        would be >= 0.  The comparison is the SVD's (see ``norm_within``).
        A check the floor leaves open reads ``norm_bound_slack``, which
        certifies the closed loop; one it decides skips the certificate and
        so its fresh-grid validation too."""
        try:
            alpha = decay_rate(self.closed_loop)[0]
        except UnstableGenerator as err:
            raise _closed_loop_unstable(err) from err
        if norm_within(self.Lambda, 1.0 / (2.0 * alpha) * self.norm_W):
            return True
        return self.norm_bound_slack >= -NORM_BOUND_SLACK

    def solve_closed_loop(self, P):
        """The symmetric Y with ``(A - X G) Y + Y (A - X G)' = P`` for
        symmetric P, e.g. a state sensitivity ``P = X dG X``.  It is solved
        on the capacitance when that passes its gates, and otherwise on the
        Schur form by ``trsyl`` with both transpose flags flipped (the
        closed loop held is ``A' - G X``)."""
        Y, solved = (None, False) if self.capacitance is None else self.capacitance.solve(P)
        if not solved:
            if self.schur is None:
                self.schur = _schur_factor(self.closed_loop)
            Y = self.schur.solve(P, transpose=True)
        return symmetrize(Y)


def dual_residual(closed_loop, Lam, W):
    return operator_norm(closed_loop @ Lam + Lam @ closed_loop.T + W)


def solve_dual(A, G, X, W, W_spectrum=None):
    """Solve the dual equation for the multiplier Lambda.

    X is the Riccati solution for (A, G, Q): an array, or the
    :class:`RiccatiSolution` that ``solve_are`` returned; W symmetric PSD.
    A caller that has already run ``check_psd(W, "W")`` hands the
    ``W_spectrum`` it returned, and W is not tested again.

    A solution whose solve ran in A's real eigenbasis
    ``A = V diag(d) V^{-1}`` (symmetric or not) lets the closed loop be
    proved stable by Lyapunov's theorem and factored through the rank-r
    capacitance system of the Newton steps, whose transpose is the dual
    operator's (see :func:`closed_loop_capacitance`): no Schur form.  The
    dual equation is solved there for the right side ``-V' W V`` and its
    solution Lb mapped back as ``V^{-T} Lb V^{-1}``.  The
    multiplier is taken from it when it passes the Sylvester gate in the
    original basis: for an orthonormal V the capacitance's own gate (up to
    two refinements on the same LU), with G's dropped part moving the
    residual by at most 1 % of the gate; for any other V its residual on
    ``A.T - G X`` itself.  Otherwise, and always for an array X, the
    closed loop ``A.T - G X`` is factored into real Schur form (bit for bit
    as ``solve_sylvester`` solves it), which raises ClosedLoopUnstable when
    its spectrum leaves the open left half-plane.  Either factor stays on
    the solution for :meth:`DualSolution.solve_closed_loop`.

    The closed loop's decay certificate is not built here: the solution
    certifies it on the first read of ``closed_loop_cert``, ``norm_bound``
    or ``norm_bound_slack``, and on a read of ``norm_bound_holds`` that the
    floor ``||W||/(2 alpha)`` leaves open.
    """
    solution = X if isinstance(X, RiccatiSolution) else None
    A = ensure_operator(A, "A")
    G = ensure_operator(G, "G")
    X = ensure_operator(X if solution is None else solution.X, "X")
    W = ensure_operator(W, "W")
    if W_spectrum is None:
        check_psd(W, "W")
    closed_loop = A.T - G @ X
    capacitance = solution and closed_loop_capacitance(solution, A, G)
    Lam, solved = (None, False) if not capacitance else capacitance.solve(-W, adjoint=True)
    schur = None
    if not solved:
        capacitance, schur = None, _schur_factor(closed_loop)
        Lam = schur.solve(-W)
    return DualSolution(
        Lambda=symmetrize(Lam),
        closed_loop=closed_loop,
        W=W,
        capacitance=capacitance,
        schur=schur,
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


def verify_dual(sol, horizon=None, nodes=200):
    """Check the multiplier bound, PSD-ness, and the integral representation.

    The residual, bound, closed-loop certificate and ``norm_bound_holds``
    (the slack's decision, taken from the floor ``||W||/(2 alpha)`` where
    that decides it) are the ones ``sol`` caches.  The integral cross-check
    evaluates ``int_0^h T(t) W T*(t) dt`` with T(t) the closed-loop
    semigroup, via the quadrature oracle, which reuses that certificate.
    horizon defaults to 20/alpha of it.
    """
    Lam = sol.Lambda
    cert = sol.closed_loop_cert
    if horizon is None:
        horizon = 20.0 / cert.alpha
    quad = bochner_quadrature(sol.closed_loop, sol.closed_loop, -sol.W, horizon, nodes,
                              cert=cert)
    qres = operator_norm(Lam - quad)

    sym_ok, psd_ok = psd_flags(Lam)
    return DualVerification(
        residual=sol.residual,
        norm_bound=sol.norm_bound,
        norm_bound_holds=sol.norm_bound_holds,
        symmetric=sym_ok,
        psd=psd_ok,
        quadrature_residual=qres,
        quadrature_residual_rel=qres / (1.0 + operator_norm(Lam)),
    )
