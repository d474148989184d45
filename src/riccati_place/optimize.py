"""The two penalized trace-minimization problems over device parameters.

Problem 1 (norm penalty):     minimize tr(X(p) W) + beta/2 ||p||^2
Problem 2 (trace constraint): minimize tr(X(p) W) + beta/2 (tr G_p - gamma)^2

both constrained by A X + X A.T - X G_p X + Q = 0.  First-order optimality
couples the Riccati solution X(p), the multiplier Lambda(p), and a
fixed-point equation in p; one projected Newton method solves both, each
config supplying its penalty.  This module also provides the explicit
contraction-constant ledgers that certify uniqueness, cone-restricted
second-order checks, and the beta-continuation sweep that drives
tr G_p -> gamma.
"""

import copy
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from .devices import gram_invertible, sample_box
from .dual import DualSolution, solve_dual, solve_dual_batch
from .errors import (ClosedLoopUnstable, DegenerateFamily, DimensionMismatch, MaxIterExceeded,
                     RiccatiPlaceError)
from .linalg import (_require_count, _require_finite_positive, check_psd,
                     ensure_operator, norms, operator_norm, stack_slices, symmetrize)
from .riccati import Plant, RiccatiSolution, solve_are, solve_are_batch
from .semigroup import certify_stability


# ---------------------------------------------------------------------------
# configs and result records
# ---------------------------------------------------------------------------

@dataclass
class Problem1Config:
    A: np.ndarray
    Q: np.ndarray
    W: np.ndarray
    family: object
    beta: float
    tol: float = 1e-9
    max_iter: int = 500

    def __post_init__(self):
        _require_finite_positive("beta", self.beta)
        _require_finite_positive("tol", self.tol)
        _require_count("max_iter", self.max_iter, 1)
        self.A = ensure_operator(self.A, "A", (self.family.state_dim,) * 2)
        self.Q, self.W = ensure_operator(self.Q, "Q", self.A), ensure_operator(self.W, "W", self.A)
        spectrum_Q = check_psd(self.Q, "Q")
        self.W_spectrum = check_psd(self.W, "W")  # the duals read W's test from here
        self.cert = certify_stability(self.A)
        self.plant = Plant.of(self.cert, self.A, self.Q, spectrum_Q)  # kept on the certificate

    @cached_property
    def norm_W(self):
        """``operator_norm(W)``, taken on first read: the ledger's ``normW``,
        and the ``norm_W`` of every multiplier that :func:`solve_state_pairs`
        yields."""
        return operator_norm(self.W)

    # What _newton reads of the problem at a StatePair: the penalty
    # beta/2 ||p||^2, its gradient, and its Hessian with the coefficient of
    # tr d2G_kj (see _reduced_hessian); no bounds (lo, hi) on p; the paper's
    # map p -> dG_p*(X Lambda X) / beta; no trace gap or trace residual.

    def penalty(self, state):
        return 0.5 * self.beta * float(state.p @ state.p)

    def penalty_gradient(self, state):
        return self.beta * state.p

    def penalty_hessian(self, state, dG):
        return self.beta * np.eye(state.p.size), 0.0

    def box(self, d):
        return _unbounded(d)

    def fixed_point_map(self, state):
        return state.adjoint_xlx / self.beta

    def trace_residuals(self, state):
        return None, None


@dataclass
class Problem2Config(Problem1Config):
    gamma: float = 1.0

    def __post_init__(self):
        _require_finite_positive("gamma", self.gamma)
        super().__post_init__()

    # the same for the penalty beta/2 (tr G_p - gamma)^2 in the family's domain

    def penalty(self, state):
        return 0.5 * self.beta * (state.trace_G - self.gamma)**2

    def penalty_gradient(self, state):
        return self.beta * (state.trace_G - self.gamma) * state.adjoint_identity

    def penalty_hessian(self, state, dG):
        tr_dG = np.array([np.trace(D) for D in dG])
        return self.beta * np.outer(tr_dG, tr_dG), self.beta * (state.trace_G - self.gamma)

    def box(self, d):
        return _domain(self.family, d)

    def fixed_point_map(self, state):
        return state.map_image

    def trace_residuals(self, state):
        trace_gap = state.trace_G - self.gamma
        return trace_gap, abs(trace_gap - state.xlx_norm / self.beta)


def _unbounded(d):
    return np.full(d, -np.inf), np.full(d, np.inf)


def _domain(family, d):
    """The bounds (lo, hi) of the family's domain, unbounded when it has none."""
    if hasattr(family, "domain"):
        return np.atleast_2d(np.asarray(family.domain(), dtype=float)).T
    return _unbounded(d)


def _beta_schedule(betas):
    """``betas`` as a list of floats; raises ValueError unless there is at
    least one, and they are finite, positive and strictly ascending."""
    betas = [float(b) for b in betas]
    if not betas or not all(a < b for a, b in zip([0.0] + betas, betas + [math.inf])):
        raise ValueError(f"betas must be finite, positive and strictly ascending, got {betas}")
    return betas


@dataclass
class OptimalityTriple:
    """An optimizer's result, for the config ``cfg``; X, Lambda, p and their
    residuals are read off ``state``.  ``fixed_point_residual``, ``||p -
    f(p)||`` for the config's fixed-point map f (NaN where f is undefined),
    is computed on first read."""
    state: "StatePair" = field(repr=False)
    cfg: Problem1Config = field(repr=False, compare=False)
    residual_stationarity: float
    iterations: int
    converged: bool
    history: List[np.ndarray]
    trace_gap: Optional[float]  # None for problem 1, as is the next
    trace_constraint_residual: Optional[float]
    in_domain: bool  # p lies in family.domain(); True when the family has none

    @cached_property
    def fixed_point_residual(self):
        try:
            return float(np.linalg.norm(self.p - self.cfg.fixed_point_map(self.state)))
        except DegenerateFamily:
            return math.nan

    @property
    def X(self):
        return self.state.sol.X

    @property
    def Lambda(self):
        return self.state.dsol.Lambda

    @property
    def p(self):
        return self.state.p


@dataclass(frozen=True)
class ContractionReport:
    k: float
    is_contraction: bool
    term_breakdown: List[Tuple[str, float]]
    beta_threshold: float


@dataclass(frozen=True, eq=False)
class StatePair:
    """The state at a placement p: G_p, the Riccati solution X(p), the
    multiplier Lambda(p) and the beta-free facts derived from them, each
    computed on first read and kept: among them problem 2's map image at p
    (map_image), which a beta-sweep's next row reads again for its map
    start.  gram_inverse and map_image raise DegenerateFamily when dG*dG is
    singular at p.  The cost, its gradient and problem 2's map in any
    direction are methods; the cost and gradient take the config, whose
    penalty they add."""
    p: np.ndarray
    G: np.ndarray
    sol: RiccatiSolution
    dsol: DualSolution
    family: object = field(repr=False)

    @cached_property
    def xlx(self):
        return symmetrize(self.sol.X @ self.dsol.Lambda @ self.sol.X)

    @cached_property
    def xlx_norm(self):
        return operator_norm(self.xlx)

    @cached_property
    def trace_G(self):
        return self.family.trace_G(self.p)

    @cached_property
    def adjoint_identity(self):
        return self.family.dG_adjoint(self.p, np.eye(self.G.shape[0]))

    @cached_property
    def adjoint_xlx(self):
        return self.family.dG_adjoint(self.p, self.xlx)

    @cached_property
    def gram_inverse(self):
        return _gram_inverse(self.family, self.p)

    @cached_property
    def map_image(self):
        return self.map_p2()

    def cost(self, cfg):
        """The cost tr(X W) plus the config's penalty at p."""
        return float(np.tensordot(self.sol.X, cfg.W)) + cfg.penalty(self)

    def gradient(self, cfg):
        """Adjoint gradient of the reduced cost: the penalty's gradient minus
        dG_p*(X Lambda X), problem 2's weak-form stationarity vector."""
        return cfg.penalty_gradient(self) - self.adjoint_xlx

    def map_p2(self, direction=None):
        """One evaluation of the fixed-point map of the problem-2 optimality condition:

            f(p) = (1 / ||X L X||) (dG*dG)^{-1} dG*( X L X dG_p(direction) )

        with ``direction`` defaulting to p itself.  All operator quantities
        are evaluated at p; the map is linear (hence scale-invariant in
        direction).
        """
        direction = self.p if direction is None else np.array(direction, dtype=float, ndmin=1)
        if self.xlx_norm == 0.0:
            raise DegenerateFamily("X Lambda X vanishes (W = 0?); the map is undefined")
        T = symmetrize(self.xlx @ self.family.dG(self.p, direction))
        return self.gram_inverse @ self.family.dG_adjoint(self.p, T) / self.xlx_norm


def solve_state_pair(cfg, p, X0=None):
    """Primal and dual solves at parameter p, as a StatePair.

    Newton-Kleinman starts from X0 when one is given (X at a nearby p), and
    from X = 0 otherwise.  When the warm solve raises ClosedLoopUnstable, as
    it does at its first step if A - X0 G_p is unstable, the pair is solved
    again from X = 0, which the stability of A always admits.
    """
    p = np.array(p, dtype=float, ndmin=1)
    G = cfg.family.G(p)
    sol = None
    if X0 is not None:
        try:
            sol = solve_are(cfg.A, G, cfg.Q, cert=cfg.cert, X0=X0)
        except ClosedLoopUnstable:
            pass
    if sol is None:
        sol = solve_are(cfg.A, G, cfg.Q, cert=cfg.cert)
    return StatePair(p, G, sol, solve_dual(cfg.A, G, sol, cfg.W, cfg.W_spectrum), cfg.family)


def solve_state_pairs(cfg, points):
    """The cold StatePair at each placement of ``points``, in order, each
    bit for bit the one ``solve_state_pair(cfg, p)`` solves.

    Each stack of placements (``linalg.stack_slices``) builds its G_p in
    one stacked call (``family.G_stack``, each member the matrix
    ``family.G(p)`` returns), then solves its Riccati equations in one
    batch (``riccati.solve_are_batch``, on the config's plant) and its
    multipliers in another (``dual.solve_dual_batch``); a placement that
    leaves either is solved by ``solve_are`` or ``solve_dual`` alone.  The
    pairs are yielded a stack at a time, so a caller that reads each and
    lets it go holds at most a stack of them.
    """
    points = [np.array(p, dtype=float, ndmin=1) for p in points]
    for part in stack_slices(len(points), cfg.A.shape[0]):
        chunk = points[part]
        Gs = cfg.family.G_stack(chunk)
        sols = solve_are_batch(cfg.plant, Gs)
        duals = solve_dual_batch(cfg.A, Gs, sols, cfg.W)
        for k, (p, G) in enumerate(zip(chunk, Gs)):
            sol = sols[k] or solve_are(cfg.A, G, cfg.Q, cert=cfg.cert)
            dsol = duals[k] or solve_dual(cfg.A, G, sol, cfg.W, cfg.W_spectrum)
            vars(dsol)["norm_W"] = cfg.norm_W  # seeds the cached_property: one SVD of W per config
            sols[k] = duals[k] = None  # the pair is the caller's alone
            yield StatePair(p, G, sol, dsol, cfg.family)


def cost(cfg, p):
    """tr(X(p) W) plus the config's penalty (one state pair)."""
    return solve_state_pair(cfg, p).cost(cfg)


def gradient(cfg, p):
    """Adjoint gradient of the reduced cost (one state pair)."""
    return solve_state_pair(cfg, p).gradient(cfg)


def stationarity_residual(cfg, triple):
    """Norm of the gradient evaluated on the triple's own state pair."""
    return float(np.linalg.norm(triple.state.gradient(cfg)))


cost_p1 = cost_p2 = cost
gradient_p1 = gradient_p2 = gradient
stationarity_residual_p1 = stationarity_residual_p2 = stationarity_residual


# ---------------------------------------------------------------------------
# problem 1
# ---------------------------------------------------------------------------

def solve_p1(cfg, p0):
    """Solve the problem-1 optimality system by solve_p2's projected Newton
    method (see _newton), on no box.  A converged triple meets cfg.tol in
    ||beta p - dG_p*(X Lambda X)|| and the primal and dual residuals.  The
    paper's map p -> dG_p*(X Lambda X) / beta, which contraction_constant_p1
    certifies, gives Newton its start and the reported fixed_point_residual.
    Raises MaxIterExceeded (best iterate attached) as solve_p2 does.  The
    triple's in_domain says whether p lies in the family's domain, which
    this unbounded problem does not impose.
    """
    return _newton(cfg, solve_state_pair(cfg, p0), {})


def contraction_constant_p1(ledger):
    """Assemble the problem-1 contraction constant from the ledger.

    k = (1/beta) [ L_dG M^6/(16 a^3) trQ^2 nW
                 + L_dG C_dG M^10/(16 a^5) trQ^3 nW
                 + L_G C_dG M^4/(2 a^2) trQ^2 ( M^10 g/(16 a^5) trQ^2
                                              + M^6/(4 a^3) trQ ) ]

    The three summands bound, in order, the effect of the derivative map
    changing (dG-difference), the primal solution changing (X-difference),
    and the multiplier changing (Lambda-difference) between two parameters;
    each is listed separately in term_breakdown so alternative constant
    choices are one-line patches.  k scales as 1/beta, hence
    beta_threshold = beta * k.
    """
    ledger.require_model("M", "alpha", "trQ", "normW", "beta")
    M, a = ledger.M, ledger.alpha
    trQ, nW, beta = ledger.trQ, ledger.normW, ledger.beta
    t1 = ledger.L_dG * M**6 / (16 * a**3) * trQ**2 * nW / beta
    t2 = ledger.L_dG * ledger.C_dG * M**10 / (16 * a**5) * trQ**3 * nW / beta
    t3 = (ledger.L_G * ledger.C_dG * M**4 / (2 * a**2) * trQ**2
          * (M**10 * ledger.g / (16 * a**5) * trQ**2 + M**6 / (4 * a**3) * trQ)
          / beta)
    breakdown = [("dG-difference", t1), ("X-difference", t2), ("Lambda-difference", t3)]
    k = t1 + t2 + t3
    return ContractionReport(k=k, is_contraction=k < 1.0,
                             term_breakdown=breakdown, beta_threshold=beta * k)


def hessian_p1(cfg, triple, q, r):
    """Cone-restricted second variation: beta (q . r) - tr(Lambda X d2G(q, r) X)."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    D2 = cfg.family.d2G(triple.p, q, r)
    return cfg.beta * float(q @ r) - float(np.tensordot(triple.state.xlx, D2))


def hessian_p1_full(cfg, triple, Phi, q, Psi, r):
    """The full second variation of the problem-1 Lagrangian.

    Beyond the cone-restricted form, the matrix directions (Phi, Psi)
    contribute the mixed gain and derivative terms of the bilinear form;
    with Phi = Psi = 0 this reduces to hessian_p1.  ValueError first
    unless Phi and Psi are admitted operators of A's shape.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    r = np.atleast_1d(np.asarray(r, dtype=float))
    Phi, Psi = ensure_operator(Phi, "Phi", cfg.A), ensure_operator(Psi, "Psi", cfg.A)
    Lam, X, p = triple.Lambda, triple.X, triple.p
    G = triple.state.G
    dGr = cfg.family.dG(p, r)
    dGq = cfg.family.dG(p, q)
    D2 = cfg.family.d2G(p, q, r)
    val = -float(np.tensordot(Lam, Phi @ G @ Psi + Psi @ G @ Phi))
    val -= float(np.tensordot(Lam, Phi @ dGr @ X + X @ dGr @ Phi))
    val -= float(np.tensordot(Lam, Psi @ dGq @ X + X @ dGq @ Psi))
    val += cfg.beta * float(q @ r)
    val -= float(np.tensordot(Lam, X @ D2 @ X))
    return val


def critical_cone_basis(family, p, X):
    """Orthonormal basis of {q : X dG_p(q) X = 0} by singular-value thresholding.

    The linear map q -> X dG_p(q) X is stacked column-by-column and its
    numerically-null right singular directions are returned, each re-checked
    against the operator-norm criterion ||X dG_p(q) X|| <= 1e-10 (1 + ||X||^2).
    ValueError first unless X is admitted at the family's state shape.
    """
    X = ensure_operator(X, "X", (family.state_dim,) * 2)
    p = np.atleast_1d(np.asarray(p, dtype=float))
    d = family.param_dim
    cols = []
    for k in range(d):
        e = np.zeros(d)
        e[k] = 1.0
        cols.append((X @ family.dG(p, e) @ X).ravel())
    stacked = np.column_stack(cols)
    tol = 1e-10 * (1.0 + operator_norm(X)**2)
    evals, evecs = np.linalg.eigh(stacked.T @ stacked)
    singular_values = np.sqrt(np.maximum(evals, 0.0))
    basis = []
    for sv, q in zip(singular_values, evecs.T):
        if sv <= tol * math.sqrt(X.shape[0]):
            img = X @ family.dG(p, q) @ X
            if operator_norm(img) <= tol:
                basis.append(q)
    return basis


# ---------------------------------------------------------------------------
# problem 2
# ---------------------------------------------------------------------------

def _gram_inverse(family, p):
    S = family.gram(p)
    sv = np.linalg.svd(S, compute_uv=False)
    if not gram_invertible(sv):
        raise DegenerateFamily(
            f"dG*dG numerically singular at p={np.asarray(p)} "
            f"(singular values {sv})")
    return np.linalg.inv(S)


def fixed_point_map_p2(cfg, p, direction=None):
    """The paper's problem-2 map at p (see StatePair.map_p2)."""
    return solve_state_pair(cfg, p).map_p2(direction)


def solve_p2(cfg, p0, state=None, *, _pairs=None):
    """Solve the problem-2 optimality system by projected Newton on the
    penalized cost with the exact reduced Hessian (see _newton).

    Newton is local: it returns the minimizer of the basin it starts in,
    which is p0's or, when that costs less, that of the image of p0 under
    the paper's map.  The map itself is not iterated: its fixed points are
    weakly stationary only when X Lambda X is a multiple of the identity, so
    it serves the uniqueness proof (contraction_constant_p2) and the
    reported fixed_point_residual.

    A converged triple meets cfg.tol in the weak stationarity residual and
    the primal and dual residuals.  The trace-constraint residual
    |tr G_p - gamma - ||X L X||/beta| is reported, not required: it
    measures the map's identity, which a stationary point need not satisfy.

    ``state`` is the StatePair at p0 when the caller holds it, e.g. a
    previous triple's ``state`` at its ``p``; X and Lambda do not depend on
    beta, so it serves any config of the same model.  Raises ValueError when
    its p is not p0.  Without it, the Gram matrix at p0 is checked and the
    state pair at p0 is solved cold.  The triple carries the final state pair.
    ``_pairs`` is private to beta_sweep, which hands every row its sweep's
    store of box-edge state pairs (see _newton); a lone solve keeps its own.

    Raises MaxIterExceeded (best iterate attached) when Newton stalls or
    runs out of cfg.max_iter iterations away from a weak stationary point.
    """
    p0 = np.atleast_1d(np.asarray(p0, dtype=float))
    if state is None:
        Sinv = _gram_inverse(cfg.family, p0)  # raises before any state solve
        state = solve_state_pair(cfg, p0)
        vars(state)["gram_inverse"] = Sinv  # seeds the cached_property: one inversion at p0
    elif not np.array_equal(state.p, p0):
        raise ValueError("the state pair handed to solve_p2 was not solved at p0")
    return _newton(cfg, state, {} if _pairs is None else _pairs)


ARMIJO_SLOPE = 1e-4
MAX_BACKTRACKS = 40
ACTIVE_BAND = 1e-3      # widest epsilon-active band, relative to the box width
HESSIAN_FLOOR = 1e-8    # eigenvalue floor, relative to 1 + max |H_ij|
COST_ROUNDING = 1e-13   # relative cost decrease that rounding can swallow


def _newton(cfg, state, pairs):
    """Projected Newton on the config's cost from state.p (Bertsekas, SIAM
    J. Control Optim. 20, 1982), within the config's box.

    A coordinate within the epsilon band of a bound whose gradient points
    out of the box is active: it takes a gradient step scaled by its Hessian
    diagonal and is clipped at the bound.  The free coordinates take the
    Newton step of their Hessian block, with every eigenvalue replaced by
    its absolute value and floored, so the step descends where the cost is
    not convex too.  Trial points are projected onto the box and halved
    back until the Armijo condition holds.  Near the optimum the predicted
    decrease can sink below the rounding of the cost before the gradient
    meets cfg.tol; such a step is also accepted when it halves the gradient
    norm.  The method is local, so it first moves to the image of the
    config's fixed-point map at p, clipped to the box, when that costs less
    (heat16 has a minimum near each end).

    Every trial point, the map image's too, costs at most one
    solve_state_pair (see _trial_pair): the map image's is warm-started
    from X(p), a backtracking trial's from the tangent prediction of
    _backtrack.  X(p) and Lambda(p) do not depend on beta, so ``pairs``, a
    dict keyed by p's bytes, keeps the state pairs solved at points with a
    coordinate on a bound of the box for the rest of the store's scope (one
    solve, or a whole beta-sweep): the clipped map image and the projected
    arc land on such points bit for bit, interior trial points do not.

    Returns _finish's triple at the last iterate, its history the iterates;
    raises MaxIterExceeded with it attached when its residual misses cfg.tol.
    """
    history = [state.p.copy()]
    lo, hi = cfg.box(state.p.size)
    value = state.cost(cfg)
    try:
        image = np.clip(cfg.fixed_point_map(state), lo, hi)
    except DegenerateFamily:
        image = state.p
    it = 0
    if np.isfinite(image).all() and not np.array_equal(image, state.p):
        image_state = _trial_pair(cfg, pairs, image, lo, hi, state.sol.X)
        image_value = image_state.cost(cfg)
        if image_value < value:
            state, value, it = image_state, image_value, 1
            history.append(state.p.copy())
    grad = state.gradient(cfg)
    while it < cfg.max_iter and not np.linalg.norm(grad) <= cfg.tol:
        p = state.p
        band = np.minimum(ACTIVE_BAND * (hi - lo),
                          np.linalg.norm(p - np.clip(p - grad, lo, hi)))
        active = (((p <= lo + band) & (grad > 0))
                  | ((p >= hi - band) & (grad < 0)))
        H, dX = _reduced_hessian(cfg, state)
        step = _newton_step(H, grad, active)
        trial = _backtrack(cfg, pairs, state, dX, value, grad, step, active, lo, hi)
        it += 1
        if trial is None:
            break
        state, value, grad = trial
        history.append(state.p.copy())
    triple = _finish(cfg, state, grad, it, history)
    if not triple.residual_stationarity <= cfg.tol:
        raise MaxIterExceeded(
            f"projected Newton stopped away from a stationary point after "
            f"{triple.iterations} iterations (residual {triple.residual_stationarity:.3e})",
            best=triple)
    return triple


def _backtrack(cfg, pairs, state, dX, value, grad, step, active, lo, hi):
    """Armijo backtracking along the projected arc p(t) = clip(p - t step)
    from p = state.p; (state, value, grad) at the accepted point, or None
    when the arc does not leave p or no trial is accepted.  Each trial's
    state pair is read from ``pairs`` or warm-started from the first-order
    prediction X(p) + sum_k dX_k (p_try - p)_k, dX the sensitivities
    _reduced_hessian solved at p."""
    t = 1.0
    for _ in range(MAX_BACKTRACKS):
        p_try = np.clip(state.p - t * step, lo, hi)
        if np.array_equal(p_try, state.p):
            return None
        decrease = (t * float(grad[~active] @ step[~active])
                    + float(grad[active] @ (state.p - p_try)[active]))
        X0 = state.sol.X + sum(D * h for D, h in zip(dX, p_try - state.p))
        trial = _trial_pair(cfg, pairs, p_try, lo, hi, X0)
        value_try = trial.cost(cfg)
        grad_try = trial.gradient(cfg)
        if (value_try <= value - ARMIJO_SLOPE * decrease
                or (decrease <= COST_ROUNDING * (1.0 + abs(value))
                    and np.linalg.norm(grad_try) <= 0.5 * np.linalg.norm(grad))):
            return trial, value_try, grad_try
        t *= 0.5
    return None


def _trial_pair(cfg, pairs, p, lo, hi, X0):
    """The state pair at p that ``pairs`` holds, or else the one
    solve_state_pair(cfg, p, X0) solves, kept in ``pairs`` when a coordinate
    of p lies on a bound (lo, hi)."""
    key = p.tobytes()
    state = pairs.get(key)
    if state is None:
        state = solve_state_pair(cfg, p, X0=X0)
        if np.any((p == lo) | (p == hi)):
            pairs[key] = state
    return state


def _newton_step(H, grad, active):
    """Newton step on the free coordinates with |eigenvalues| floored, and a
    diagonally scaled gradient step on the active ones."""
    floor = HESSIAN_FLOOR * (1.0 + float(np.abs(H).max()))
    free = ~active
    w, V = np.linalg.eigh(H[np.ix_(free, free)])
    step = np.empty_like(grad)
    step[free] = V @ ((V.T @ grad[free]) / np.maximum(np.abs(w), floor))
    step[active] = grad[active] / np.maximum(np.abs(np.diag(H)[active]), floor)
    return step


def _reduced_hessian(cfg, state):
    """Exact Hessian H of p -> cost(cfg, p) at p = state.p by second-order
    adjoints (Hinze, Pinnau, Ulbrich & Ulbrich, Optimization with PDE
    Constraints, 2009), returned with the state sensitivities dX, the list
    of X'_k = dX/dp_k, from which _backtrack predicts its trials' X.

    With Acl = A - X G, the state sensitivity X'_k in coordinate direction
    k solves Acl X'_k + X'_k Acl.T = X dG_k X, each on the closed loop the
    multiplier was solved on (DualSolution.solve_closed_loop): on its
    eigenbasis factor, or on its Schur form, built at most once per state
    pair; no factorization per direction.
    Differentiating the gradient g_k - tr(Lambda X dG_k X), g being the
    penalty's gradient, in direction j gives

        H[k, j] = P[k, j] + c tr d2G_kj
                  - tr(Lambda'_j X dG_k X) - 2 tr(Lambda X'_j dG_k X)
                  - tr(Lambda X d2G_kj X),

    where cfg.penalty_hessian supplies (P, c): (beta I, 0) for problem 1,
    (beta tr dG_j tr dG_k, beta (tr G_p - gamma)) for problem 2.

    The multiplier sensitivity Lambda'_j is never solved for: by the
    adjoint identity, tr(Lambda'_j X dG_k X) = 2 <B_j, X'_k> with
    B_j = (G X'_j + dG_j X) Lambda, since X'_k is symmetric.
    """
    X, Lam = state.sol.X, state.dsol.Lambda
    p = state.p
    E = np.eye(p.size)
    dG = [cfg.family.dG(p, e) for e in E]
    dX = [state.dsol.solve_closed_loop(symmetrize(X @ D @ X)) for D in dG]
    H, coefficient = cfg.penalty_hessian(state, dG)
    for j in range(p.size):
        B = (state.G @ dX[j] + dG[j] @ X) @ Lam
        LdX = Lam @ dX[j]
        for k in range(p.size):
            D2 = cfg.family.d2G(p, E[k], E[j])
            H[k, j] += (coefficient * np.trace(D2) - np.tensordot(state.xlx, D2)
                        - 2.0 * (np.vdot(B, dX[k]) + np.vdot(LdX, X @ dG[k])))
    return symmetrize(H), dX


def _finish(cfg, state, grad, iterations, history):
    """The triple at p = state.p, with the stationarity residual read off
    ``grad`` (the gradient at p).  It converged when that residual and the
    primal and dual residuals meet cfg.tol; the config's trace gap and
    trace-constraint residual, the residual of its fixed-point map (computed
    when first read) and whether p lies in the family's domain are reported
    and do not enter ``converged``."""
    stat_res = float(np.linalg.norm(grad))
    trace_gap, trace_res = cfg.trace_residuals(state)
    lo, hi = _domain(cfg.family, state.p.size)
    return OptimalityTriple(
        state=state,
        cfg=cfg,
        residual_stationarity=stat_res,
        iterations=iterations,
        converged=(stat_res <= cfg.tol and state.sol.strong_residual <= cfg.tol
                   and state.dsol.residual <= cfg.tol),
        history=history,
        trace_gap=trace_gap,
        trace_constraint_residual=trace_res,
        in_domain=bool(np.all((lo <= state.p) & (state.p <= hi))),
    )


def contraction_constant_p2(ledger):
    """Assemble the problem-2 contraction constant from its four blocks.

    The map factors as (I)(II)(III) p with (I) = 1/||X L X||,
    (II) = (dG*dG)^{-1}, (III) = dG* X L X dG, and the blocks bound, in
    order: the (I)-difference (weighted by K C_dG^2 M^6/(8 a) trQ^2 nW),
    the (II)-Lipschitz term with the inverse-difference constant
    L = 2 K^2 C_dG L_dG, the (K/mu)-weighted (III)-difference, and the
    product-rule tail K C_dG^2 M^6 / (8 a^3 mu).  gamma_beta means
    gamma + sup ||X L X|| / beta.
    """
    ledger.require_model("M", "alpha", "trQ", "normW", "beta", "gamma", "mu", "sup_xlx")
    M, a = ledger.M, ledger.alpha
    trQ, nW = ledger.trQ, ledger.normW
    K, mu = ledger.K, ledger.mu
    C, Lg, Ldg = ledger.C_dG, ledger.L_G, ledger.L_dG
    gamma_beta = ledger.gamma + ledger.sup_xlx / ledger.beta

    k_I = (Lg * M**10 / (16 * a**5 * mu) * trQ**3 * nW
           + Lg * M**4 / (4 * a**2 * mu**2)
           * (M**10 * gamma_beta / (16 * a**5) * trQ**4 + M**6 / (4 * a**3) * trQ**3))
    # Lipschitz constant of (dG*dG)^{-1} via the inverse-difference identity
    # S1^{-1} - S2^{-1} = S1^{-1} (S2 - S1) S2^{-1}, ||S1 - S2|| <= 2 C_dG L_dG d.
    L_II = 2.0 * K**2 * C * Ldg
    k_III = (C * (Ldg * M**6 / (16 * a**3) * trQ**2 * nW
                  + Ldg * C * M**10 / (16 * a**5) * trQ**3 * nW
                  + Lg * C * M**4 / (2 * a**2) * trQ**2
                  * (M**10 * gamma_beta / (16 * a**5) * trQ**2 + M**6 / (4 * a**3) * trQ))
             + C * Ldg * M**6 / (8 * a**3) * trQ**2 * nW)

    b1 = K * C**2 * M**6 / (8 * a) * trQ**2 * nW * k_I
    b2 = C**2 * M**6 / (8 * a**3 * mu) * trQ**2 * nW * L_II
    b3 = K / mu * k_III
    b4 = K * C**2 * M**6 / (8 * a**3 * mu)
    breakdown = [("I-difference", b1), ("II-lipschitz", b2),
                 ("III-difference", b3), ("product-tail", b4)]
    k = b1 + b2 + b3 + b4

    # k is affine in gamma_beta = gamma + sup_xlx / beta: split into the
    # beta-independent part and the 1/beta coefficient to find the threshold.
    k_I_lin = Lg * M**14 / (64 * a**7 * mu**2) * trQ**4
    k_III_lin = C**2 * Lg * M**14 / (32 * a**7) * trQ**4
    k_lin = (K * C**2 * M**6 / (8 * a) * trQ**2 * nW * k_I_lin + K / mu * k_III_lin)
    k_const = k - k_lin * gamma_beta
    c_inf = k_const + k_lin * ledger.gamma  # limit of k as beta -> infinity
    slope = k_lin * ledger.sup_xlx
    if c_inf >= 1.0:
        threshold = math.inf
    elif slope <= 0.0:
        threshold = 0.0
    else:
        threshold = slope / (1.0 - c_inf)
    return ContractionReport(k=k, is_contraction=k < 1.0,
                             term_breakdown=breakdown, beta_threshold=threshold)


def hessian_p2(cfg, triple, q, coefficient="gain"):
    """Cone-restricted second variation of the problem-2 Lagrangian.

    coefficient="gain" (default) leads with the closed-loop gain norm:

        ||X G_p X|| tr(d2G(q,q)) + beta tr(dG(q))^2 - tr(L X d2G(q,q) X);

    coefficient="trace_gap" leads with beta (tr G_p - gamma) instead, which
    is what differentiating the penalty produces directly and what second
    finite differences of the frozen Lagrangian reproduce.  The two agree
    only where the trace-constraint identity ties the factors together;
    both are exposed so the gap between them stays visible.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    state = triple.state
    D1 = cfg.family.dG(state.p, q)
    D2 = cfg.family.d2G(state.p, q, q)
    if coefficient == "gain":
        lead = operator_norm(triple.X @ state.G @ triple.X)
    elif coefficient == "trace_gap":
        lead = cfg.beta * (state.trace_G - cfg.gamma)
    else:
        raise ValueError(f"unknown coefficient {coefficient!r}")
    return (lead * float(np.trace(D2))
            + cfg.beta * float(np.trace(D1))**2
            - float(np.tensordot(state.xlx, D2)))


# ---------------------------------------------------------------------------
# beta continuation
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    beta: float
    p: Optional[np.ndarray]
    trace_G: float
    trace_gap: float
    cost: float
    trace_term: float
    penalty_term: float
    xlx_norm: float
    k: Optional[float]
    is_contraction: Optional[bool]
    converged: bool
    iterations: int
    stationarity_residual: float
    failed: bool = False
    error: str = ""


@dataclass
class SweepReport:
    rows: List[SweepRow]
    gamma: float
    sup_xlx_recorded: float
    gap_law_holds: List[bool]


def beta_sweep(cfg, betas, p0, ledger=None):
    """Solve problem 2 along an ascending beta schedule, warm-starting each
    solve from the previous optimum, and record the constraint-gap law
    |tr G_p - gamma| <= sup ||X L X|| / beta row by row.

    X(p) and Lambda(p) do not depend on beta, so the sweep solves each
    placement at most once: each row after the first starts from the state
    pair its predecessor ended at (``triple.state``, which holds its p and
    its map image), and every row's trials read the state pairs at the box's
    bounds from one store kept for this sweep alone (see _newton).  Newton
    warm-starts every other state pair; only the first row's state pair at
    p0, and any pair whose warm start does not stabilize the closed loop,
    are solved cold.

    A ledger (device constants + model fields) enables the per-beta
    contraction report; rows carry failure markers instead of raising when a
    single beta fails.  A failed row reports the iterations of the best
    iterate its error carries, and 0 when the error carries none (e.g. a
    degenerate family, rejected before the first iteration).  A schedule
    that is not finite, positive and strictly ascending raises ValueError,
    and a p0 that solve_p2 refuses raises its DimensionMismatch from the
    first row, before any state solve.
    """
    betas = _beta_schedule(betas)
    rows = []
    state = None
    pairs = {}
    for b in betas:
        k = is_k = None
        if ledger is not None:
            rep = contraction_constant_p2(replace(ledger, beta=b))
            k, is_k = rep.k, rep.is_contraction
        failed, error = False, ""
        cfg_b = replace_beta(cfg, b)
        try:
            triple = solve_p2(cfg_b, state.p if state else p0, state=state, _pairs=pairs)
        except MaxIterExceeded as err:
            triple, failed, error = err.best, True, str(err)
        except DimensionMismatch:
            raise  # a p0 that is no placement of the family, not the failure of one beta
        except RiccatiPlaceError as err:
            triple, failed, error = None, True, str(err)
        if triple is None:
            rows.append(SweepRow(beta=b, p=None, trace_G=math.nan,
                                 trace_gap=math.nan, cost=math.nan,
                                 trace_term=math.nan, penalty_term=math.nan,
                                 xlx_norm=math.nan, k=k, is_contraction=is_k,
                                 converged=False, iterations=0,
                                 stationarity_residual=math.nan,
                                 failed=True, error=error))
            continue
        state = triple.state
        trace_term = float(np.tensordot(triple.X, cfg.W))
        penalty = cfg_b.penalty(state)
        rows.append(SweepRow(
            beta=b, p=triple.p.copy(), trace_G=state.trace_G,
            trace_gap=abs(state.trace_G - cfg.gamma),
            cost=state.cost(cfg_b), trace_term=trace_term, penalty_term=penalty,
            xlx_norm=state.xlx_norm, k=k, is_contraction=is_k,
            converged=triple.converged, iterations=triple.iterations,
            stationarity_residual=triple.residual_stationarity,
            failed=failed, error=error,
        ))
    sup = max((r.xlx_norm for r in rows if not r.failed), default=math.nan)
    return SweepReport(
        rows=rows, gamma=cfg.gamma, sup_xlx_recorded=sup,
        gap_law_holds=[(not r.failed) and r.trace_gap <= sup / r.beta + 1e-12
                       for r in rows])


def replace_beta(cfg, beta):
    """Shallow copy of a problem config with a different penalty parameter.

    The copy shares A's certificate, so A is not certified again; beta is not
    validated here (beta_sweep checks its schedule).
    """
    cfg_b = copy.copy(cfg)
    cfg_b.beta = beta
    return cfg_b


# ---------------------------------------------------------------------------
# empirical bound checks (solution Lipschitz bounds on sampled pairs)
# ---------------------------------------------------------------------------

@dataclass
class LipschitzReport:
    pairs: int
    x_pass: dict
    lambda_pass: dict
    x_passing_readings: List[str]
    lambda_passing_readings: List[str]
    worst_x_ratio: dict
    worst_lambda_ratio: dict


def lipschitz_bound_check(cfg, ledger, domain, pairs, seed):
    """Sample parameter pairs and test the two solution-Lipschitz bounds:

        ||X1 - X2||      <= L_G M^6/(8 a^3) trQ^2 ||p1 - p2||
        ||L1 - L2||_op   <= (M^10 g/(16 a^5) trQ^2 + M^6/(4 a^3) trQ) L_G ||p1 - p2||

    Each is evaluated under both trace-class readings ("nuc" uses the
    Schatten-1 norm and the matching L_G; "abs" uses |trace| and its
    L_G), with g always the operator-norm sup as the Lambda bound defines
    it.  Returns per-reading pass booleans and worst observed ratios;
    ValueError unless ``pairs`` is an integer >= 1.
    """
    _require_count("pairs", pairs, 1)
    ledger.require_model("M", "alpha", "trQ")
    rng = np.random.default_rng(seed)
    P1 = sample_box(domain, pairs, rng)
    P2 = sample_box(domain, pairs, rng)
    M, a, trQ = ledger.M, ledger.alpha, ledger.trQ
    lam_const = {
        reading: (M**10 * ledger.g_op / (16 * a**5) * trQ**2
                  + M**6 / (4 * a**3) * trQ) * lg
        for reading, lg in (("nuc", ledger.L_G), ("abs", ledger.L_G_abs))
    }
    x_const = {"nuc": ledger.L_G * M**6 / (8 * a**3) * trQ**2,
               "abs": ledger.L_G_abs * M**6 / (8 * a**3) * trQ**2}

    def ratio(num, bound):
        if bound > 0.0:
            return num / bound
        return 0.0 if num == 0.0 else math.inf

    worst_x = {"nuc": 0.0, "abs": 0.0}
    worst_lam = {"nuc": 0.0, "abs": 0.0}
    apart = [(p1, p2, dist) for p1, p2 in zip(P1, P2)
             if (dist := float(np.linalg.norm(p1 - p2))) >= 1e-12]
    states = solve_state_pairs(cfg, [p for p1, p2, _ in apart for p in (p1, p2)])
    # the pairs' differences (s1, s2: consecutive items of one iterator),
    # a stack at a time, normed by stacked SVDs
    for part in stack_slices(len(apart), cfg.A.shape[0]):
        chunk = apart[part]
        dX, dL = zip(*[(s1.sol.X - s2.sol.X, s1.dsol.Lambda - s2.dsol.Lambda)
                       for _, s1, s2 in zip(chunk, states, states)])
        for (_, _, dist), dX, dL_op in zip(chunk, norms(np.stack(dX)), operator_norm(np.stack(dL))):
            dX_norms = {"nuc": dX.trace_norm_schatten, "abs": dX.abs_trace}
            for reading in ("nuc", "abs"):
                worst_x[reading] = max(
                    worst_x[reading],
                    ratio(dX_norms[reading], x_const[reading] * dist))
                worst_lam[reading] = max(
                    worst_lam[reading], ratio(float(dL_op), lam_const[reading] * dist))
    x_pass = {r: worst_x[r] <= 1.0 for r in worst_x}
    lam_pass = {r: worst_lam[r] <= 1.0 for r in worst_lam}
    return LipschitzReport(
        pairs=pairs,
        x_pass=x_pass,
        lambda_pass=lam_pass,
        x_passing_readings=[r for r, ok in x_pass.items() if ok],
        lambda_passing_readings=[r for r, ok in lam_pass.items() if ok],
        worst_x_ratio=worst_x,
        worst_lambda_ratio=worst_lam,
    )


def cluster_points(points, tol=1e-6):
    """Group nearby vectors; returns list of (representative, count).

    Used to report all distinct multi-start limits instead of fabricating
    uniqueness outside the contraction regime.
    """
    clusters = []
    for p in points:
        p = np.atleast_1d(np.asarray(p, dtype=float))
        for i, (rep, count) in enumerate(clusters):
            if np.linalg.norm(rep - p) <= tol:
                clusters[i] = (rep, count + 1)
                break
        else:
            clusters.append((p, 1))
    return clusters
