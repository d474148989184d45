"""Parametrized control-device families p -> G_p = B(p) R^{-1} B(p).T.

The concrete family is a set of Gaussian actuator profiles on the Galerkin
grid: actuator j centred at p_j contributes b(p_j) b(p_j).T / r with
b_i(c) = exp(-(x_i - c)^2 / (2 sigma^2)).  Profiles are analytic, so first
and second derivatives in p are available in closed form, and
tr G_p = sum_j ||b(p_j)||^2 / r.  G and dG have stacked entry points
(``G_stack``, ``dG_stack``) over a (k, param_dim) stack of placements, each
member the single placement's matrix bit for bit.

Constant and callable families are provided as test doubles (a constant map
violates the nonzero-derivative assumption and must trip DegenerateFamily).

Matrix norms come in two trace-class readings wherever the operand may be
indefinite: "nuc" (Schatten-1, a true norm) and "abs" (|trace|, which
coincides with it on the PSD cone and degenerates off it).  Constants are
recorded under both, plus the plain operator norm, so every bound can be
checked under either reading.
"""

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateFamily, DimensionMismatch
from .linalg import (
    _require_count,
    check_symmetric,
    ensure_operator,
    operator_norm,
    singular_values,
    stack_slices,
    symmetrize,
)


def _raise_sups(sups, T, dist=1.0):
    """Raise each running sup in ``sups`` (keyed by reading) to the norm / dist
    of each matrix of the stack T (``dist`` one number, or one per matrix),
    all readings of a matrix from its one SVD, in stacks of ``stack_slices``:
    the sum of its singular values, |trace| and the largest."""
    dist = np.broadcast_to(np.asarray(dist, dtype=float), len(T))
    for part in stack_slices(len(T), T.shape[-1]):
        sv = singular_values(T[part])
        readings = {"nuc": sv.sum(axis=1), "op": sv[:, 0],
                    "abs": np.abs(np.trace(T[part], axis1=1, axis2=2))}
        for r in sups:
            sups[r] = max(sups[r], float(np.max(readings[r] / dist[part])))


class Family:
    """Shared plumbing for parametrized device families."""

    param_dim: int
    state_dim: int

    def _check_param(self, p, name="p"):
        p = np.atleast_1d(np.asarray(p, dtype=float))
        if p.shape != (self.param_dim,):
            raise DimensionMismatch(
                f"{name} has shape {p.shape}, expected ({self.param_dim},)")
        if not np.isfinite(p).all():
            raise DimensionMismatch(f"{name} has non-finite entries")
        return p

    def _check_stack(self, P):
        """P as a (k, param_dim) array of finite placements, checked once
        for the whole stack; DimensionMismatch worded as
        :meth:`_check_param` words it for a member."""
        P = np.asarray(P, dtype=float)
        if P.ndim != 2 or P.shape[1] != self.param_dim:
            raise DimensionMismatch(f"p has shape {P.shape[1:]}, expected ({self.param_dim},)")
        if not np.isfinite(P).all():
            raise DimensionMismatch("p has non-finite entries")
        return P

    def G(self, p):
        raise NotImplementedError

    def dG(self, p, q):
        raise NotImplementedError

    def G_stack(self, P):
        """G_p of each placement p of the (k, param_dim) stack P, as a
        (k, n, n) array whose members are the matrices ``G(p)`` returns."""
        return self._G(self._check_stack(P))

    def dG_stack(self, P, q):
        """dG_p(q) of each placement p of the stack P in the one direction
        q, as :meth:`G_stack` stacks G_p."""
        return self._dG(self._check_stack(P), self._check_param(q, "q"))

    def _G(self, P):
        """G_stack on checked placements, one G(p) call each; a family with
        a stacked body overrides this."""
        return self._stack([self.G(p) for p in P])

    def _dG(self, P, q):
        """dG_stack on checked arguments, one dG(p, q) call each."""
        return self._stack([self.dG(p, q) for p in P])

    def _stack(self, mats):
        return np.array(mats, dtype=float).reshape((len(mats),) + (self.state_dim,) * 2)

    def d2G(self, p, q, r):
        raise NotImplementedError

    def trace_G(self, p):
        return float(np.trace(self.G(p)))

    def dG_adjoint(self, p, T):
        """Vector v with v . q = tr(T dG_p(q)) for every direction q.

        Realizes the adjoint of dG_p under the trace duality pairing.  T must
        be symmetric; the value comes from :meth:`_adjoint` on the checked
        arguments.
        """
        T = ensure_operator(T, "T")
        if T.shape[0] != self.state_dim:
            raise DimensionMismatch(
                f"T has shape {T.shape}, expected ({self.state_dim}, {self.state_dim})")
        check_symmetric(T, "T")
        return self._adjoint(self._check_param(p), T)

    def _adjoint(self, p, T):
        """dG_adjoint, coordinate by coordinate; a family with a closed form
        overrides this."""
        return np.array([float(np.tensordot(T, self.dG(p, e)))
                         for e in np.eye(self.param_dim)])

    def gram(self, p):
        """The param_dim x param_dim matrix of dG*dG under the trace pairing."""
        P = self._check_param(p)[None]
        return _grams([self._dG(P, e) for e in np.eye(self.param_dim)])[0]


def _grams(axes):
    """Trace-pairing Gram matrices of the axis derivatives, ``axes[j]`` the
    (k, n, n) stack of ``dG_p(e_j)`` over k placements: a (k, d, d) array.
    Each entry is one (k, 1, n^2) @ (k, n^2, 1) product, each member
    ``np.tensordot``'s bit for bit."""
    rows = [D.reshape(len(D), 1, -1) for D in axes]
    S = np.empty((len(rows[0]), len(rows), len(rows)))
    for j, row in enumerate(rows):
        for k in range(j, len(rows)):
            S[:, j, k] = S[:, k, j] = (row @ rows[k].swapaxes(1, 2))[:, 0, 0]
    return S


@dataclass(frozen=True, eq=False)
class GaussianActuators(Family):
    """param_dim Gaussian actuator profiles with common width and weighting.

    kind is 'gaussian_actuator' when param_dim == 1, 'multi_gaussian'
    otherwise.  ValueError unless sigma and r_weight are finite and
    positive and the grid is finite and strictly increasing.
    """

    grid: np.ndarray
    sigma: float
    r_weight: float = 1.0
    param_dim: int = 1

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        if (grid.ndim != 1 or grid.size == 0 or not np.isfinite(grid).all()
                or not (np.diff(grid) > 0).all()):
            raise ValueError("grid must be a finite, strictly increasing 1-D array")
        if not (0 < self.sigma < np.inf and 0 < self.r_weight < np.inf) or self.param_dim < 1:
            raise ValueError("sigma, r_weight must be finite and positive; param_dim >= 1")
        object.__setattr__(self, "grid", grid)

    @property
    def state_dim(self):
        return self.grid.size

    @property
    def kind(self):
        return "gaussian_actuator" if self.param_dim == 1 else "multi_gaussian"

    def domain(self):
        """Default placement box: the grid's convex hull, per actuator."""
        return np.tile([self.grid[0], self.grid[-1]], (self.param_dim, 1))

    def _profile(self, c):
        z = (self.grid - c) / self.sigma
        return np.exp(-0.5 * z**2)

    def _profile_d1(self, c, b):
        # d b_i / dc = b_i (x_i - c) / sigma^2, given b = _profile(c)
        return b * (self.grid - c) / self.sigma**2

    def _profile_d2(self, c, b):
        u = (self.grid - c) / self.sigma**2
        return b * (u**2 - 1.0 / self.sigma**2)

    def G(self, p):
        return self._G(self._check_param(p))

    def dG(self, p, q):
        return self._dG(self._check_param(p), self._check_param(q, "q"))

    # The bodies take placements with leading axes, one (param_dim,) p or a
    # (k, param_dim) stack: the centres c = P[..., j, None] give profiles
    # b of shape (..., n), one exp per actuator, and the outer products are
    # broadcast, so each member is the single placement's matrix bit for bit.
    def _G(self, P):
        # the first outer product is the sum's first term: every profile
        # entry is exp(.) >= +0, so adding it to zeros changes no bit
        b = self._profile(P[..., 0, None])
        out = b[..., :, None] * b[..., None, :]
        for j in range(1, self.param_dim):
            b = self._profile(P[..., j, None])
            out += b[..., :, None] * b[..., None, :]
        out /= self.r_weight
        return out

    def _dG(self, P, q):
        out = np.zeros(P.shape[:-1] + (self.state_dim,) * 2)
        for j, qj in enumerate(q):
            if qj == 0.0:
                continue
            c = P[..., j, None]
            b = self._profile(c)
            db = self._profile_d1(c, b)
            out += qj * (db[..., :, None] * b[..., None, :] + b[..., :, None] * db[..., None, :])
        return out / self.r_weight

    def d2G(self, p, q, r):
        p = self._check_param(p)
        q = self._check_param(q, "q")
        r = self._check_param(r, "r")
        n = self.state_dim
        out = np.zeros((n, n))
        for c, qj, rj in zip(p, q, r):
            w = qj * rj
            if w == 0.0:
                continue
            b = self._profile(c)
            db = self._profile_d1(c, b)
            d2b = self._profile_d2(c, b)
            out += w * (np.outer(d2b, b) + np.outer(b, d2b) + 2.0 * np.outer(db, db))
        return out / self.r_weight

    def trace_G(self, p):
        p = self._check_param(p)
        return float(sum(np.dot(b, b) for b in map(self._profile, p))) / self.r_weight

    def _adjoint(self, p, T):
        # tr(T (db b^T + b db^T)) = 2 b^T T db for symmetric T
        return np.array([
            2.0 * float(b @ T @ self._profile_d1(c, b))
            for c, b in zip(p, map(self._profile, p))
        ]) / self.r_weight


@dataclass(frozen=True, eq=False)
class ConstantFamily(Family):
    """G_p == G0 for every p: a degenerate test double (dG vanishes)."""

    matrix: np.ndarray
    param_dim: int = 1
    kind = "constant"

    def __post_init__(self):
        object.__setattr__(self, "matrix", ensure_operator(self.matrix, "matrix"))

    @property
    def state_dim(self):
        return self.matrix.shape[0]

    def G(self, p):
        self._check_param(p)
        return self.matrix.copy()

    def dG(self, p, q):
        self._check_param(p)
        self._check_param(q, "q")
        return np.zeros_like(self.matrix)

    def d2G(self, p, q, r):
        self._check_param(p)
        return np.zeros_like(self.matrix)


@dataclass(frozen=True, eq=False)
class CallableFamily(Family):
    """Family defined by user callables; derivative hooks default to zero maps.
    Each callable's matrix is admitted at ``(state_dim, state_dim)``."""

    param_dim: int
    state_dim: int
    g_fn: Callable
    dg_fn: Optional[Callable] = None
    d2g_fn: Optional[Callable] = None
    kind = "custom"

    def G(self, p):
        G = self.g_fn(self._check_param(p))
        return symmetrize(ensure_operator(G, "G(p)", (self.state_dim,) * 2))

    def dG(self, p, q):
        p = self._check_param(p)
        q = self._check_param(q, "q")
        if self.dg_fn is None:
            return np.zeros((self.state_dim, self.state_dim))
        return ensure_operator(self.dg_fn(p, q), "dG(p, q)", (self.state_dim,) * 2)

    def d2G(self, p, q, r):
        p = self._check_param(p)
        q = self._check_param(q, "q")
        r = self._check_param(r, "r")
        if self.d2g_fn is None:
            return np.zeros((self.state_dim, self.state_dim))
        return ensure_operator(self.d2g_fn(p, q, r), "d2G(p, q, r)", (self.state_dim,) * 2)


@dataclass
class ConstantLedger:
    """Every constant entering the contraction bounds, plus their provenance.

    The primary fields g, L_G, L_dG, C_dG use the Schatten-1 ("nuc") reading
    of the trace-class norm; the |trace| ("abs") and operator-norm readings
    are recorded alongside since the two trace-class readings split on
    indefinite operands (differences, derivatives).  Fields below ``mu``
    are only populated when a problem config is supplied to
    estimate_constants.
    """

    g: float
    L_G: float
    L_dG: float
    C_dG: float
    K: float
    g_abs: float = 0.0
    g_op: float = 0.0
    L_G_abs: float = 0.0
    L_G_op: float = 0.0
    L_dG_abs: float = 0.0
    C_dG_abs: float = 0.0
    C_dG_op: float = 0.0
    mu: Optional[float] = None
    M: Optional[float] = None
    alpha: Optional[float] = None
    trQ: Optional[float] = None
    normW: Optional[float] = None
    beta: Optional[float] = None
    gamma: Optional[float] = None
    sup_xlx: Optional[float] = None

    def require_model(self, *names):
        """Raise ValueError unless every named field (by default the model
        fields mu, M, alpha, trQ, normW, beta) is filled."""
        names = names or ("mu", "M", "alpha", "trQ", "normW", "beta")
        missing = [name for name in names if getattr(self, name) is None]
        if missing:
            raise ValueError(f"ledger lacks model-coupled fields: {missing}")


def sample_box(domain, count, rng):
    """count points uniformly in the box ``domain`` (shape (d, 2) rows lo,
    hi); ValueError, before any draw from rng, unless the rows are finite
    with lo <= hi."""
    domain = np.atleast_2d(np.asarray(domain, dtype=float))
    if (domain.shape[1] != 2 or not np.isfinite(domain).all()
            or np.any(domain[:, 0] > domain[:, 1])):
        raise ValueError(f"domain must be (d, 2) with finite lo <= hi rows, got {domain.tolist()}")
    lo, hi = domain[:, 0], domain[:, 1]
    return lo + (hi - lo) * rng.random((count, domain.shape[0]))


def _unit_directions(dim, rng, extra=8):
    """The coordinate axes, then ``extra`` random unit vectors, each kept
    once up to sign: dG is linear in its direction, so a repeat of an
    earlier direction or of its negation (for dim = 1 every draw is +-1)
    adds nothing to a sup of norms over directions.  The same ``extra``
    draws are taken from rng either way."""
    dirs = [np.eye(dim)[k] for k in range(dim)]
    for _ in range(extra):
        v = rng.standard_normal(dim)
        v = v / np.linalg.norm(v)
        if not any(np.array_equal(v, u) or np.array_equal(-v, u) for u in dirs):
            dirs.append(v)
    return dirs


LIPSCHITZ_INFLATION = 1.1
GRAM_SINGULAR_RTOL = 1e-12


def gram_invertible(sv):
    """Whether dG*dG with singular values ``sv`` (descending) is invertible:
    ``sv[-1] > GRAM_SINGULAR_RTOL max(sv[0], 1)``."""
    return bool(sv.size) and sv[-1] > GRAM_SINGULAR_RTOL * max(sv[0], 1.0)


def estimate_constants(family, domain, samples, seed, cfg=None):
    """Estimate the constant ledger by seeded sampling over the domain box.

    g is the sampled sup of ||G_p||; L_G and L_dG are maximal difference
    quotients over sampled pairs, inflated by 10%; C_dG the sampled sup of
    the derivative's direction norm; K the sampled sup of ||(dG*dG)^{-1}||
    where that Gram matrix is invertible.  Supplying a problem config
    ``cfg`` of this family additionally fills mu = min ||X(p) L(p) X(p)||
    and sup_xlx = max of the same (one state pair per sample point), plus
    M and alpha from the config's certificate of A, tr Q, ||W||, beta and
    gamma (None for problem 1).

    The family is evaluated a stack of placements at a time: per stack of
    ``linalg.stack_slices`` one ``G_stack`` and one ``dG_stack`` per direction,
    the pairs' quotients from differences of such stacks, each member the
    single call's matrix bit for bit.  The norms come from stacked SVDs,
    the Gram entries from one stacked product per pair of axes (see
    :func:`_grams`).

    Deterministic for a fixed seed.  Raises DegenerateFamily when the
    derivative vanishes on all samples or the Gram matrix is singular
    everywhere (nonzero / invertibility assumptions violated), and
    ValueError unless ``samples`` is an integer >= 2 or when ``cfg`` holds
    another family.
    """
    _require_count("samples", samples, 2)
    if cfg is not None and cfg.family is not family:
        raise ValueError("cfg.family is not the family being sampled")
    rng = np.random.default_rng(seed)
    points = sample_box(domain, samples, rng)
    pairs = (sample_box(domain, samples, rng), sample_box(domain, samples, rng))
    directions = _unit_directions(family.param_dim, rng)

    g = {r: 0.0 for r in ("nuc", "abs", "op")}
    c_dg = {r: 0.0 for r in ("nuc", "abs", "op")}
    K = 0.0
    any_invertible = False
    for part in stack_slices(samples, family.state_dim):
        chunk = points[part]
        _raise_sups(g, family.G_stack(chunk))
        dGs = [family.dG_stack(chunk, q) for q in directions]
        _raise_sups(c_dg, np.concatenate(dGs))
        # the directions start with the axes
        for sv in np.linalg.svd(_grams(dGs[:family.param_dim]), compute_uv=False):
            if gram_invertible(sv):
                any_invertible = True
                K = max(K, 1.0 / float(sv[-1]))
    if c_dg["nuc"] == 0.0:
        raise DegenerateFamily("dG_p vanishes at every sample point")
    if not any_invertible:
        raise DegenerateFamily("dG*dG is singular at every sample point")

    l_g = {r: 0.0 for r in ("nuc", "abs", "op")}
    l_dg = {r: 0.0 for r in ("nuc", "abs")}
    dist = np.array([np.linalg.norm(p1 - p2) for p1, p2 in zip(*pairs)])
    apart = dist >= 1e-12
    P1, P2, dist = pairs[0][apart], pairs[1][apart], dist[apart]
    for part in stack_slices(len(dist), family.state_dim):
        _raise_sups(l_g, family.G_stack(P1[part]) - family.G_stack(P2[part]), dist[part])
        _raise_sups(l_dg, np.concatenate([family.dG_stack(P1[part], q)
                                          - family.dG_stack(P2[part], q) for q in directions]),
                    np.tile(dist[part], len(directions)))
    if l_g["nuc"] == 0.0:
        raise DegenerateFamily("G_p is constant over the sampled pairs")

    ledger = ConstantLedger(
        g=g["nuc"],
        L_G=LIPSCHITZ_INFLATION * l_g["nuc"],
        L_dG=LIPSCHITZ_INFLATION * l_dg["nuc"],
        C_dG=c_dg["nuc"],
        K=K,
        g_abs=g["abs"],
        g_op=g["op"],
        L_G_abs=LIPSCHITZ_INFLATION * l_g["abs"],
        L_G_op=LIPSCHITZ_INFLATION * l_g["op"],
        L_dG_abs=LIPSCHITZ_INFLATION * l_dg["abs"],
        C_dG_abs=c_dg["abs"],
        C_dG_op=c_dg["op"],
    )

    if cfg is not None:
        from .optimize import solve_state_pairs

        # ||X L X|| of each state pair, from a stacked SVD per stack of pairs
        states = solve_state_pairs(cfg, points)
        xlx_norms = np.concatenate([
            operator_norm(np.stack([state.xlx for state in islice(states, part.stop - part.start)]))
            for part in stack_slices(samples, family.state_dim)])
        ledger.mu = float(min(xlx_norms))
        ledger.sup_xlx = float(max(xlx_norms))
        ledger.M = cfg.cert.M
        ledger.alpha = cfg.cert.alpha
        ledger.trQ = float(np.trace(cfg.Q))
        ledger.normW = cfg.norm_W
        ledger.beta = cfg.beta
        ledger.gamma = getattr(cfg, "gamma", None)
    return ledger
