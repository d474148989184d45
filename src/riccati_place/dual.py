"""Lagrange-multiplier (dual) equation attached to the Riccati constraint:

    (A.T - G X) L + L (A - X G) = -W,

a Lyapunov equation of the one closed-loop generator A.T - G X.  It is solved
on the state pair's one :class:`~riccati_place.riccati.ClosedLoop`, which
the solution keeps: the state sensitivities of the reduced Hessian are
solved on the same loop, its capacitance or its Schur form.  The solution
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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    bochner_quadrature,
    check_psd,
    ensure_operator,
    norm_within,
    operator_norm,
    psd_flags,
    symmetrize,
)
from .riccati import ClosedLoop, RiccatiSolution, closed_loop
from .semigroup import certify_stability, decay_rate

NORM_BOUND_SLACK = 1e-9


@dataclass
class DualSolution:
    """Multiplier of the Riccati constraint, and the closed loop
    (:class:`~riccati_place.riccati.ClosedLoop`) it was solved on.

    ``residual``, ``norm_W``, ``closed_loop_cert``, ``norm_bound``,
    ``norm_bound_slack`` and ``norm_bound_holds`` are computed on first read
    and cached; the first read of any of the last four raises
    ClosedLoopUnstable when the closed loop cannot be certified
    (``norm_bound_holds`` certifies it only when ``||Lambda||`` exceeds the
    bound's floor ``||W||/(2 alpha)``).  :meth:`solve_closed_loop` solves
    further Lyapunov equations on the same loop.
    """

    Lambda: np.ndarray
    loop: ClosedLoop
    W: np.ndarray

    @property
    def closed_loop(self):
        """``A.T - G X``, the loop's matrix."""
        return self.loop.matrix

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
        return self.loop.stable(certify_stability)

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
        alpha = self.loop.stable(decay_rate)[0]
        if norm_within(self.Lambda, 1.0 / (2.0 * alpha) * self.norm_W):
            return True
        return self.norm_bound_slack >= -NORM_BOUND_SLACK

    def solve_closed_loop(self, P):
        """The symmetric Y with ``(A - X G) Y + Y (A - X G)' = P`` for
        symmetric P, e.g. a state sensitivity ``P = X dG X``, solved on the
        loop (see :meth:`ClosedLoop.solve <riccati_place.riccati.ClosedLoop.solve>`)."""
        return symmetrize(self.loop.solve(P))


def dual_residual(closed_loop, Lam, W):
    return operator_norm(closed_loop @ Lam + Lam @ closed_loop.T + W)


def solve_dual(A, G, X, W, W_spectrum=None):
    """Solve the dual equation for the multiplier Lambda.

    X is the Riccati solution for (A, G, Q): an array, or the
    :class:`RiccatiSolution` that ``solve_are`` returned; W symmetric PSD.
    A caller that has already run ``check_psd(W, "W")`` hands the
    ``W_spectrum`` it returned, and W is not tested again.

    The closed loop ``A.T - G X`` is built by
    :func:`~riccati_place.riccati.closed_loop`, which proves it stable and
    builds its capacitance in A's eigenbasis when the solution's solve ran
    there and A and G are its operands; the multiplier is the loop's solve
    for ``-W`` (:meth:`~riccati_place.riccati.ClosedLoop.solve`): on that
    capacitance when its gate passes, otherwise on the one real Schur form of
    ``loop.matrix``, bit for bit ``solve_sylvester(loop.matrix, -W)``,
    which raises ClosedLoopUnstable when that spectrum leaves the open left
    half-plane.

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
    facts = None
    if solution is not None and all(T is U or np.array_equal(T, U)
                                    for T, U in zip((A, G), solution.operands)):
        facts = solution.eigenbasis
    loop = closed_loop(A, G, X, facts)[0]
    return DualSolution(Lambda=symmetrize(loop.solve(-W, adjoint=True)), loop=loop, W=W)


def solve_dual_batch(A, Gs, sols, W):
    """For each G of Gs and its solution in ``sols``, one
    :func:`~riccati_place.riccati.solve_are_batch`'s for A, the multiplier
    that ``solve_dual(A, G, sol, W)`` returns for a validated W, or None
    where the solution is None or the member's proof or gate fails.  The
    closed loops are built and proved by one
    :func:`~riccati_place.riccati.closed_loop` over the batch, and the
    multipliers solved on their capacitance matrices in one stacked call."""
    duals = [None] * len(sols)
    members = [k for k, sol in enumerate(sols) if sol is not None]
    if not members:
        return duals
    # a member that fails a gate may carry non-finite values
    with np.errstate(all="ignore"):
        loop, proved = closed_loop(A, np.stack([Gs[k] for k in members]),
                                   np.stack([sols[k].X for k in members]),
                                   [sols[k].eigenbasis for k in members])
        if loop.capacitance is None:
            return duals
        Lam, solved = loop.factored(-W, adjoint=True)
    for j in np.flatnonzero(proved & solved):
        duals[members[j]] = DualSolution(Lambda=symmetrize(Lam[j]), loop=loop.member(j), W=W)
    return duals


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
    quad = bochner_quadrature(sol.closed_loop, -sol.W, horizon, nodes, cert=cert)
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
