"""Parametrized control-device families p -> G_p = B(p) R^{-1} B(p).T.

The concrete family is a set of Gaussian actuator profiles on the Galerkin
grid: actuator j centred at p_j contributes b(p_j) b(p_j).T / r with
b_i(c) = exp(-(x_i - c)^2 / (2 sigma^2)).  Profiles are analytic, so first
and second derivatives in p are available in closed form, and
tr G_p = sum_j ||b(p_j)||^2 / r.

Constant and callable families are provided as test doubles (a constant map
violates the nonzero-derivative assumption and must trip DegenerateFamily).

Matrix norms come in two trace-class readings wherever the operand may be
indefinite: "nuc" (Schatten-1, a true norm) and "abs" (|trace|, which
coincides with it on the PSD cone and degenerates off it).  Constants are
recorded under both, plus the plain operator norm, so every bound can be
checked under either reading.
"""

import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateFamily, DimensionMismatch
from .linalg import (
    STACK_CHUNK,
    check_symmetric,
    ensure_operator,
    norms,
    operator_norm,
    symmetrize,
)


def _raise_sups(sups, T, dist=1.0):
    """Raise each running sup in ``sups`` (keyed by reading) to the norm / dist
    of each matrix of the list T (``dist`` one number, or one per matrix),
    all readings of a matrix from its one SVD, stacked by :func:`norms` in
    chunks of STACK_CHUNK."""
    dist = np.broadcast_to(np.asarray(dist, dtype=float), len(T)).tolist()
    for start in range(0, len(T), STACK_CHUNK):
        part = slice(start, start + STACK_CHUNK)
        for rep, d in zip(norms(np.stack(T[part])), dist[part]):
            readings = {"nuc": rep.trace_norm_schatten, "abs": rep.abs_trace, "op": rep.op_norm}
            for r in sups:
                sups[r] = max(sups[r], readings[r] / d)


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

    def G(self, p):
        raise NotImplementedError

    def dG(self, p, q):
        raise NotImplementedError

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
        p = self._check_param(p)
        return _gram([self.dG(p, e) for e in np.eye(self.param_dim)])


def _gram(mats):
    """Trace-pairing Gram matrix of the axis derivatives ``dG_p(e_k)``."""
    d = len(mats)
    S = np.empty((d, d))
    for j in range(d):
        for k in range(j, d):
            S[j, k] = S[k, j] = float(np.tensordot(mats[j], mats[k]))
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

    def _profile_d1(self, c):
        # d b_i / dc = b_i (x_i - c) / sigma^2
        return self._profile(c) * (self.grid - c) / self.sigma**2

    def _profile_d2(self, c):
        u = (self.grid - c) / self.sigma**2
        return self._profile(c) * (u**2 - 1.0 / self.sigma**2)

    def G(self, p):
        p = self._check_param(p)
        n = self.state_dim
        out = np.zeros((n, n))
        for c in p:
            b = self._profile(c)
            out += np.outer(b, b)
        return out / self.r_weight

    def dG(self, p, q):
        p = self._check_param(p)
        q = self._check_param(q, "q")
        n = self.state_dim
        out = np.zeros((n, n))
        for c, qj in zip(p, q):
            if qj == 0.0:
                continue
            b = self._profile(c)
            db = self._profile_d1(c)
            out += qj * (np.outer(db, b) + np.outer(b, db))
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
            db = self._profile_d1(c)
            d2b = self._profile_d2(c)
            out += w * (np.outer(d2b, b) + np.outer(b, d2b) + 2.0 * np.outer(db, db))
        return out / self.r_weight

    def trace_G(self, p):
        p = self._check_param(p)
        return float(sum(np.dot(b, b) for b in map(self._profile, p))) / self.r_weight

    def _adjoint(self, p, T):
        # tr(T (db b^T + b db^T)) = 2 b^T T db for symmetric T
        return np.array([
            2.0 * float(self._profile(c) @ T @ self._profile_d1(c))
            for c in p
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
    """Family defined by user callables; derivative hooks default to zero maps."""

    param_dim: int
    state_dim: int
    g_fn: Callable
    dg_fn: Optional[Callable] = None
    d2g_fn: Optional[Callable] = None
    kind = "custom"

    def G(self, p):
        return symmetrize(ensure_operator(self.g_fn(self._check_param(p)), "G(p)"))

    def dG(self, p, q):
        p = self._check_param(p)
        q = self._check_param(q, "q")
        if self.dg_fn is None:
            return np.zeros((self.state_dim, self.state_dim))
        return self.dg_fn(p, q)

    def d2G(self, p, q, r):
        p = self._check_param(p)
        q = self._check_param(q, "q")
        r = self._check_param(r, "r")
        if self.d2g_fn is None:
            return np.zeros((self.state_dim, self.state_dim))
        return self.d2g_fn(p, q, r)


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


def _require_count(name, value, least):
    """Raise ValueError unless ``value`` is an integer of at least ``least``."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def sample_box(domain, count, rng):
    """count points uniformly in the box ``domain`` (shape (d, 2) rows lo, hi)."""
    domain = np.atleast_2d(np.asarray(domain, dtype=float))
    if domain.shape[1] != 2 or np.any(domain[:, 0] > domain[:, 1]):
        raise ValueError("domain must be (d, 2) with lo <= hi rows")
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
    for start in range(0, samples, STACK_CHUNK):
        chunk = points[start:start + STACK_CHUNK]
        _raise_sups(g, [family.G(p) for p in chunk])
        dGs = [[family.dG(p, q) for q in directions] for p in chunk]
        _raise_sups(c_dg, [dG for at_p in dGs for dG in at_p])
        # the directions start with the axes
        for sv in np.linalg.svd(np.stack([_gram(at_p[:family.param_dim]) for at_p in dGs]),
                                compute_uv=False):
            if gram_invertible(sv):
                any_invertible = True
                K = max(K, 1.0 / float(sv[-1]))
    if c_dg["nuc"] == 0.0:
        raise DegenerateFamily("dG_p vanishes at every sample point")
    if not any_invertible:
        raise DegenerateFamily("dG*dG is singular at every sample point")

    l_g = {r: 0.0 for r in ("nuc", "abs", "op")}
    l_dg = {r: 0.0 for r in ("nuc", "abs")}
    apart = [(p1, p2, dist) for p1, p2 in zip(*pairs)
             if (dist := float(np.linalg.norm(p1 - p2))) >= 1e-12]
    for start in range(0, len(apart), STACK_CHUNK):
        chunk = apart[start:start + STACK_CHUNK]
        _raise_sups(l_g, [family.G(p1) - family.G(p2) for p1, p2, _ in chunk],
                    [dist for _, _, dist in chunk])
        _raise_sups(l_dg, [family.dG(p1, q) - family.dG(p2, q)
                           for p1, p2, _ in chunk for q in directions],
                    [dist for _, _, dist in chunk for _ in directions])
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

        # ||X L X|| of each state pair, from stacked SVDs of STACK_CHUNK pairs
        xlx_norms, xlx = [], []
        for state in solve_state_pairs(cfg, points):
            xlx.append(state.xlx)
            if len(xlx) == STACK_CHUNK or len(xlx_norms) + len(xlx) == samples:
                xlx_norms.extend(operator_norm(np.stack(xlx)))
                xlx.clear()
        ledger.mu = float(min(xlx_norms))
        ledger.sup_xlx = float(max(xlx_norms))
        ledger.M = cfg.cert.M
        ledger.alpha = cfg.cert.alpha
        ledger.trQ = float(np.trace(cfg.Q))
        ledger.normW = cfg.norm_W
        ledger.beta = cfg.beta
        ledger.gamma = getattr(cfg, "gamma", None)
    return ledger
