"""Exponential-stability certificates (M, alpha) for matrix generators.

A certificate asserts ``||exp(A t)|| <= M exp(-alpha t)``, either for every
t >= 0 (proved by the log-norm test) or on a sampled time grid.  Every
decay-rate bound in the package is parameterized by these two constants, so
they are manufactured here once and passed around explicitly.
"""

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import UnstableGenerator
from .linalg import (
    _TINY,
    _power_bounds,
    _upper_bound,
    _widening,
    check_psd,
    ensure_operator,
    matrix_exponential,
    norm_within,
    operator_norm,
    symmetrize,
)

ALPHA_SAFETY = 0.95
M_HEADROOM = 1.01
GRID_POINTS = 1000
FRESH_GRID_POINTS = 500
DECAY_SLACK = 1.0 + 1e-9
CHUNK_POINTS = 128  # time points per stack held in memory


@dataclass(frozen=True)
class StabilityCertificate:
    """Constants certifying ||exp(A t)|| <= M exp(-alpha t) on [0, sample_horizon].

    ``method`` says how M was obtained: ``"log_norm"`` when
    ``lambda_max((A + A')/2) <= -alpha`` proves the bound for every t >= 0
    (M is then ``M_HEADROOM``), ``"sampled"`` when M is a grid sup checked
    on a fresh grid.  ``unperturbed_bound_holds`` is only set by
    :func:`perturbed_certificate` and records whether the original
    certificate still bounded the perturbed semigroup on the fresh grid.

    ``eigenbasis`` holds A's eigenbasis ``A = V diag(d) V^{-1}``, d
    ascending, when A has a real spectrum and a well-conditioned eigenbasis:
    ``(A, d, V)`` with the array the certificate was made from (a reference,
    not a copy) and its ``eigh`` when A is exactly symmetric (V
    orthonormal), and ``(A, d, V, W, cond)`` with its ``eig`` otherwise,
    where ``W = V^{-1}`` and cond, the 2-norm condition number of V, are
    those the grid's stacks formed (see :class:`_Stacks`).  So :meth:`eigh`
    hands the basis on instead of decomposing A again.  A complex spectrum
    or ``cond(V) >= 1e8`` keeps no eigenbasis.  It takes no part in equality
    or ``repr`` and is not a reported constant.  The certificate describes A
    as it was certified; an A changed in place afterwards needs a new one.

    The certificate also keeps one model record, the ``riccati.Plant`` of
    the last (A, Q) a Riccati solve or a problem config read through it
    (see :meth:`keep`), so the solves of a path that share A, its
    certificate and Q test and project Q once, and the cold starts among
    them solve the Lyapunov equation of (A, Q) once.
    """

    M: float
    alpha: float
    sample_horizon: float
    sample_count: int
    unperturbed_bound_holds: Optional[bool] = None
    method: str = "sampled"
    eigenbasis: Optional[tuple] = field(default=None, compare=False, repr=False)
    _plant: Optional[object] = field(default=None, init=False, compare=False, repr=False)

    def eigh(self, A):
        """``(d, V, W, cond)`` with ``A = V diag(d) W``, ``W = V^{-1}``, d
        ascending and ``cond = cond(V)``: the kept basis when A is the
        certified array or equal to it; otherwise, for an exactly symmetric
        A, a fresh ``np.linalg.eigh(A)`` with ``W = V'`` and cond 1, and None
        for any other A."""
        if self.eigenbasis is not None:
            certified, d, V, *inverse = self.eigenbasis
            if A is certified or np.array_equal(A, certified):
                return (d, V, *inverse) if inverse else (d, V, V.T, 1.0)
        if not np.array_equal(A, A.T):
            return None
        d, V = np.linalg.eigh(A)
        return d, V, V.T, 1.0

    def keep(self, plant):
        """Keep ``plant`` in place of the last one.  A memo, not a certified
        constant: it takes no part in equality, hash or repr, and a copy
        made by ``dataclasses.replace`` starts without one (``vars`` shows
        it once kept, so copy a certificate with ``replace``)."""
        vars(self)["_plant"] = plant


def _log_norm_proves(A, alpha):
    """Whether ``lambda_max((A + A')/2) <= -alpha``, which gives
    ``||exp(A t)|| <= exp(-alpha t)`` for every t >= 0."""
    return float(np.linalg.eigvalsh(symmetrize(A))[-1]) <= -alpha


class _Stacks:
    """``stacks(ts)`` is the stack ``[exp(A t) for t in ts]``, and
    ``stacks.bound(ts)`` an upper bound on the norm of each of its matrices,
    read without building them (stage 1 of :func:`certify_stability`'s
    cascade).

    With a well-conditioned eigenbasis (``cond(V) < 1e8``) each matrix is
    ``(V e^{lam t}) @ V^{-1}``, one product per t, so a matrix does not
    depend on the batch it is built in, and the bound is the eigen-expansion
    ``sum_i c_i e^{Re lam_i t}`` with ``c_i = ||V e_i|| ||e_i' V^{-1}||``.
    Otherwise each matrix is one expm and the bound is infinite.
    """

    def __init__(self, A, lam, V):
        self.A, self.n = A, A.shape[0]
        self.cond = np.linalg.cond(V)
        self.lam = None if self.cond >= 1e8 else lam
        if self.lam is not None:
            self.V, self.Vinv = V, np.linalg.inv(V)
            self.c = np.linalg.norm(V, axis=0) * np.linalg.norm(self.Vinv, axis=1)

    def eigenbasis(self):
        """The certificate's ``eigenbasis`` ``(A, d, V, V^{-1}, cond(V))``,
        sorted by eigenvalue, for a real spectrum with a well-conditioned
        eigenbasis; None otherwise."""
        if self.lam is None or np.iscomplexobj(self.lam):
            return None
        order = np.argsort(self.lam)
        return self.A, self.lam[order], self.V[:, order], self.Vinv[order], self.cond

    def __call__(self, ts):
        if self.lam is None:
            return np.stack([matrix_exponential(self.A, t) for t in ts])
        return np.matmul(self.V * np.exp(np.multiply.outer(ts, self.lam))[:, None, :],
                         self.Vinv).real

    def bound(self, ts):
        if self.lam is None:
            return np.full(len(ts), np.inf)
        value = np.exp(np.multiply.outer(ts, self.lam.real)) @ self.c
        return value * (1.0 + _widening(self.n)) + self.n**2 * _TINY


def _semigroup(A, eigen=None):
    """The :class:`_Stacks` of A, from ``eigen = (lam, V)`` of A when given
    and from ``np.linalg.eig(A)`` otherwise."""
    return _Stacks(A, *(np.linalg.eig(A) if eigen is None else eigen))


def _chunks(count):
    return (slice(i, i + CHUNK_POINTS) for i in range(0, count, CHUNK_POINTS))


def _grid_sup(stacks, ts, weights):
    """``max_k ||exp(A t_k)|| weights_k``, equal to the max over an SVD of
    every grid point.

    Every point is built once, in chunks of CHUNK_POINTS, for its stage-2
    bound; with no value known yet, stage 1 cannot spare a build here, and
    the smaller of the two bounds is kept.  The first SVD runs at the
    argmax of that bound.  The points whose bound reaches the value found
    there are built again and bracketed by power steps (stage 3), and the
    SVD (stage 4) runs where the bracket reaches both the best value so far
    and the largest lower bound of its chunk.  A point left out has an
    upper bound below a norm that an SVD'd point reaches, so the max is the
    SVD's own, bit for bit.  A point that overflows raises UnstableGenerator
    as a failed validation: no finite M can be sampled.
    """
    hi = stacks.bound(ts)
    for part in _chunks(len(ts)):
        S = stacks(ts[part])
        if not np.isfinite(S).all():  # e.g. a defective A with abscissa within rounding of 0
            raise UnstableGenerator("certificate validation failed: exp(A t) overflows "
                                    "on the sampling grid")
        hi[part] = np.minimum(hi[part], _upper_bound(S))
    hi *= weights
    k = int(np.argmax(hi))
    best = operator_norm(stacks(ts[[k]]))[0] * weights[k]
    open_ = np.flatnonzero(hi >= best)
    open_ = open_[open_ != k]
    for part in _chunks(len(open_)):
        pts = open_[part]
        S, w = stacks(ts[pts]), weights[pts]
        low, high = _power_bounds(S, gram=True)
        keep = high * w >= max(best, float(np.max(low * w)))
        best = max(best, float(np.max(operator_norm(S[keep]) * w[keep], initial=best)))
    return float(best)


def _decay_violation(stacks, ts, bound):
    """None when ``||exp(A t_k)|| <= bound_k`` at every grid point, else the
    largest ratio of the two (from an SVD at every point, to word the
    failure).  A point whose stage-1 bound is within ``bound_k`` passes
    before it is built; the others are decided by ``linalg.norm_within``."""
    pts = np.flatnonzero(stacks.bound(ts) > bound)
    if all(norm_within(stacks(ts[pts[part]]), bound[pts[part]]).all()
           for part in _chunks(len(pts))):
        return None
    return max(float(np.max(operator_norm(stacks(ts[part])) / bound[part]))
               for part in _chunks(len(ts)))


def _log_grid(horizon, count):
    # log-spaced grid with t = 0 prepended (log spacing cannot reach 0)
    return np.concatenate([[0.0], np.geomspace(1e-6 * horizon, horizon, count - 1)])


def decay_rate(A):
    """``(alpha, eigen, symmetric)`` of the square array A: the decay rate
    ``alpha = ALPHA_SAFETY * (-spectral abscissa)`` that
    :func:`certify_stability` certifies, the eigendecomposition it was read
    from (``eigh`` when A is exactly symmetric, ``eig`` otherwise) and
    whether A is.  Raises UnstableGenerator when the spectral abscissa is
    >= 0."""
    # a symmetric A has lambda_max((A + A')/2) = sigma <= -alpha: its
    # certificate is the log-norm proof, from one eigh
    symmetric = np.array_equal(A, A.T)
    eigen = np.linalg.eigh(A) if symmetric else np.linalg.eig(A)
    sigma = float(eigen[0][-1] if symmetric else np.max(eigen[0].real))
    if sigma >= 0.0:
        raise UnstableGenerator(f"spectral abscissa {sigma:.3e} >= 0")
    return ALPHA_SAFETY * (-sigma), eigen, symmetric


def certify_stability(A):
    """Certify exponential stability of A.

    Takes ``alpha = 0.95 * (-spectral abscissa)`` from :func:`decay_rate`
    and ``horizon = 20/alpha``.
    When the log-norm test ``lambda_max((A + A')/2) <= -alpha`` holds,
    ``||exp(A t)|| exp(alpha t) <= 1`` for every t >= 0, with equality at
    t = 0, so the grid sup below would be exactly 1: M is ``M_HEADROOM`` and
    no grid is sampled (``method="log_norm"``).  This covers every stable
    exactly symmetric A, whose spectral abscissa is its largest eigenvalue,
    so the test needs no second eigendecomposition.  Such an A is
    decomposed by one ``eigh``, and the certificate keeps the pair (see
    ``StabilityCertificate.eigenbasis``) for the Riccati kernel and the
    quadrature, which would otherwise decompose A again.  Any other A is
    decomposed by one ``eig``; when its spectrum is real and its eigenbasis
    well-conditioned, the certificate keeps the sorted basis with the
    inverse and condition number formed for the grid, for the Riccati
    kernel.

    Otherwise M is the sup of ``||exp(A t)|| exp(alpha t)`` over a
    1000-point log-spaced grid on ``[0, horizon]``, rounded up by 1%, and the
    certificate is re-checked on a fresh 500-point uniform grid
    (``method="sampled"``).  One eigendecomposition of A gives the spectral
    abscissa and every ``exp(A t)``, built in chunks of CHUNK_POINTS time
    points.  M and the validation are those of an SVD at every grid point,
    but each norm is first bounded by a cascade of cheaper bounds, and a
    stage runs only where those before it leave the grid max or a
    pass/fail open (see :func:`_grid_sup` and :func:`_decay_violation`):

    1. the eigen-expansion ``sum_i c_i e^{Re lam_i t}``, with ``c_i =
       ||V e_i|| ||e_i' V^{-1}||``, O(n) per point and read before the
       point's matrix is built.  Entrywise, the computed
       ``(V e^{lam t}) @ V^{-1}`` is at most ``(1 + d) sum_i |V e_i|
       |e^{lam_i t}| |e_i' V^{-1}|`` with ``d <= sqrt(2) gamma_{n+2}`` for
       the complex products and sums (Higham, *Accuracy and Stability of
       Numerical Algorithms*, 2002, Sec. 3.6), and a matrix dominated
       entrywise by a non-negative one has the smaller norm.  With the
       rounding of ``c_i``, of the exponentials and of the sum, the bound
       is off by less than ``8 (n + 4) u``; it is off on the expm path
       (``cond(V) >= 1e8``);
    2. on the built matrix, ``linalg._upper_bound``: ``min(||S||_F,
       (||S||_1 ||S||_inf)^(1/2))``, O(n^2), no power step;
    3. power steps on ``S'S`` (``linalg._power_bounds``), O(n^3);
    4. the SVD.

    Stage 1 is widened by ``linalg._widening(n)``, NORM_BOUND_MARGIN plus
    ``n^2 eps``, which exceeds its rounding for every n, and by ``n^2``
    times the smallest normal number, which exceeds the absolute error of
    underflowed terms; stages 2 and 3 are widened in ``linalg``.  So a
    comparison any stage settles is the SVD's own, ties included.  The
    validation decides the points that stage 1 leaves open by
    ``linalg.norm_within``, whose cascade (``linalg._settle``) settles each
    comparison as the SVD's own too.

    Raises UnstableGenerator when the spectral abscissa is >= 0 or the
    fresh-grid validation fails.
    """
    A = ensure_operator(A, "A")
    alpha, eigen, symmetric = decay_rate(A)
    horizon = 20.0 / alpha
    stacks = None if symmetric else _semigroup(A, eigen)
    if symmetric or _log_norm_proves(A, alpha):
        return StabilityCertificate(M=M_HEADROOM, alpha=alpha, sample_horizon=horizon,
                                    sample_count=FRESH_GRID_POINTS, method="log_norm",
                                    eigenbasis=(A, *eigen) if symmetric else stacks.eigenbasis())

    ts = _log_grid(horizon, GRID_POINTS)
    M = M_HEADROOM * _grid_sup(stacks, ts, np.exp(alpha * ts))

    fresh = np.linspace(0.0, horizon, FRESH_GRID_POINTS)
    worst = _decay_violation(stacks, fresh, M * np.exp(-alpha * fresh) * DECAY_SLACK)
    if worst is not None:
        raise UnstableGenerator(
            f"certificate validation failed: decay bound violated by factor {worst:.3e}")
    return StabilityCertificate(M=M, alpha=alpha,
                                sample_horizon=horizon,
                                sample_count=FRESH_GRID_POINTS,
                                eigenbasis=stacks.eigenbasis())


def certificate_holds(cert, A, count=100):
    """Check the certificate's decay inequality for A on a fresh uniform grid.

    The log-norm test settles it for every t when ``M >= 1``; otherwise the
    grid is checked as in :func:`certify_stability`'s validation."""
    A = ensure_operator(A, "A")
    if cert.M >= 1.0 and _log_norm_proves(A, cert.alpha):
        return True
    ts = np.linspace(0.0, cert.sample_horizon, count)
    bound = cert.M * np.exp(-cert.alpha * ts) * DECAY_SLACK
    return _decay_violation(_semigroup(A), ts, bound) is None


def perturbed_certificate(cert, A, K):
    """Fresh certificate for A - K, K symmetric PSD and admitted at A's shape.

    Also records (in ``unperturbed_bound_holds``) whether the *unperturbed*
    (M, alpha) still bound ``||exp((A - K) t)||`` on the fresh sample grid.
    That claim is true for commuting normal perturbations but not in
    general, so it is verified per instance instead of assumed.
    """
    A = ensure_operator(A, "A")
    K = ensure_operator(K, "K", A)
    check_psd(K, "K")
    if not certificate_holds(cert, A):
        raise ValueError("cert does not certify A on a fresh grid")
    fresh_cert = certify_stability(A - K)
    claim = certificate_holds(cert, A - K)
    return replace(fresh_cert, unperturbed_bound_holds=claim)
