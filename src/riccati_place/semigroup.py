"""Exponential-stability certificates (M, alpha) for matrix generators.

A certificate asserts ``||exp(A t)|| <= M exp(-alpha t)``, either for every
t >= 0 (proved by the log-norm test) or on a sampled time grid.  Every
decay-rate bound in the package is parameterized by these two constants, so
they are manufactured here once and passed around explicitly.
"""

import hashlib
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import UnstableGenerator
from .linalg import (
    _brackets,
    check_psd,
    ensure_operator,
    matrix_exponential,
    symmetrize,
)

ALPHA_SAFETY = 0.95
M_HEADROOM = 1.01
GRID_POINTS = 1000
FRESH_GRID_POINTS = 500
DECAY_SLACK = 1.0 + 1e-9
CHUNK_POINTS = 128  # time points per stack held in memory


class PsdWeight:
    """A weight Q that passed ``check_psd(Q, "Q")``: ``spectrum`` is the
    ``eigvalsh(Q)`` the test read, :meth:`projection` projects Q onto an
    eigenbasis, and :meth:`lyapunov` keeps the first Newton-Kleinman iterate
    of a cold start.  A weight served by a certificate (see
    :meth:`StabilityCertificate.weight`) carries the ``digest`` of Q's bytes
    and the certificate's eigenbasis ``basis``; it holds no copy of Q.
    """

    def __init__(self, spectrum, digest=None, basis=None):
        self.spectrum, self.digest, self.basis = spectrum, digest, basis
        self._projection = None
        self._lyapunov = None

    def projection(self, Q, V):
        """``symmetrize(V' Q V)`` for the Q this weight was validated from,
        computed once when V is ``basis``."""
        if V is not self.basis:
            return symmetrize(V.T @ Q @ V)
        if self._projection is None:
            self._projection = symmetrize(V.T @ Q @ V)
        return self._projection

    def lyapunov(self, A, solve):
        """A copy of X1, the solution of ``A X + X A' = -Q`` that ``solve()``
        returns for the Q this weight was validated from; ``solve`` runs
        only when the kept X1 was solved for another A.  The weight keeps a
        reference to A, not a copy, and matches it by ``is`` or
        ``np.array_equal``: as for :meth:`StabilityCertificate.eigh`, an A
        changed in place after its solve needs a new certificate."""
        kept = self._lyapunov
        if kept is None or not (A is kept[0] or np.array_equal(A, kept[0])):
            kept = self._lyapunov = (A, solve())
        return kept[1].copy()


@dataclass(frozen=True)
class StabilityCertificate:
    """Constants certifying ||exp(A t)|| <= M exp(-alpha t) on [0, sample_horizon].

    ``method`` says how M was obtained: ``"log_norm"`` when
    ``lambda_max((A + A')/2) <= -alpha`` proves the bound for every t >= 0
    (M is then ``M_HEADROOM``), ``"sampled"`` when M is a grid sup checked
    on a fresh grid.  ``unperturbed_bound_holds`` is only set by
    :func:`perturbed_certificate` and records whether the original
    certificate still bounded the perturbed semigroup on the fresh grid.

    ``eigenbasis`` is ``(A, d, V)`` with ``A = V diag(d) V'`` when A is
    exactly symmetric: the array the certificate was made from (a
    reference, not a copy) and its ``eigh``, so that :meth:`eigh` hands the
    pair on instead of decomposing A again.  It takes no part in equality or
    ``repr`` and is not a reported constant.  The certificate describes A
    as it was certified; an A changed in place afterwards needs a new one.

    The certificate also keeps the last weight Q it validated (see
    :meth:`weight`), so the Riccati solves of a path that share A, its
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

    def eigh(self, A):
        """``(d, V)`` with ``A = V diag(d) V'`` for an exactly symmetric A:
        the kept pair when A is the certified array or equal to it,
        otherwise a fresh ``np.linalg.eigh(A)``."""
        if self.eigenbasis is not None:
            certified, d, V = self.eigenbasis
            if A is certified or np.array_equal(A, certified):
                return d, V
        return np.linalg.eigh(A)

    def weight(self, Q, spectrum=None):
        """Q validated as a PSD weight: the :class:`PsdWeight` of
        ``check_psd(Q, "Q")``, which raises for any other Q.  The last
        weight served is handed on while Q's bytes keep its digest (an equal
        copy of Q hits; a Q changed in place is tested again), and its
        projection onto the kept eigenbasis is computed once.  A caller
        that has already run ``check_psd(Q, "Q")`` hands the ``spectrum`` it
        returned, and Q is not tested again."""
        digest = hashlib.blake2b(np.ascontiguousarray(Q)).digest()
        last = getattr(self, "_weight", None)
        if last is None or last.digest != digest:
            basis = None if self.eigenbasis is None else self.eigenbasis[2]
            if spectrum is None:
                spectrum = check_psd(Q, "Q")
            last = PsdWeight(spectrum, digest, basis)
            # a memo, not a certified constant: no field, so neither
            # equality, hash nor repr sees it
            object.__setattr__(self, "_weight", last)
        return last


def _log_norm_proves(A, alpha):
    """Whether ``lambda_max((A + A')/2) <= -alpha``, which gives
    ``||exp(A t)|| <= exp(-alpha t)`` for every t >= 0."""
    return float(np.linalg.eigvalsh(symmetrize(A))[-1]) <= -alpha


def _semigroup(A, eigen=None):
    """Stack builder ``ts -> [exp(A t) for t in ts]``.

    With a well-conditioned eigenbasis (``eigen = (lam, V)`` of A, computed
    here when not given) each matrix is ``(V e^{lam t}) @ V^{-1}``, one
    product per t, so a matrix does not depend on the batch it is built in;
    otherwise each is one expm.
    """
    lam, V = np.linalg.eig(A) if eigen is None else eigen
    if np.linalg.cond(V) >= 1e8:
        return lambda ts: np.stack([matrix_exponential(A, t) for t in ts])
    Vinv = np.linalg.inv(V)
    return lambda ts: np.matmul(V * np.exp(np.multiply.outer(ts, lam))[:, None, :], Vinv).real


def _chunks(count):
    return (slice(i, i + CHUNK_POINTS) for i in range(0, count, CHUNK_POINTS))


def _opnorms(S):
    """Largest singular value of each matrix of the stack S."""
    return np.linalg.svd(S, compute_uv=False)[:, 0]


def _grid_sup(stacks, ts, weights):
    """``max_k ||exp(A t_k)|| weights_k``, equal to the max over an SVD of
    every grid point.  The SVD runs at the point of the largest lower bound,
    then only where an upper bound reaches the value found there."""
    lo, hi = np.empty_like(ts), np.empty_like(ts)
    for part in _chunks(len(ts)):
        lo[part], hi[part] = _brackets(stacks(ts[part]))
    k = int(np.argmax(lo * weights))
    best = _opnorms(stacks(ts[[k]]))[0] * weights[k]
    open_ = np.flatnonzero(hi * weights >= best)
    open_ = open_[open_ != k]
    for part in _chunks(len(open_)):
        pts = open_[part]
        best = max(best, float(np.max(_opnorms(stacks(ts[pts])) * weights[pts])))
    return float(best)


def _breaks(S, bound):
    """Whether some ``||S_k|| > bound_k``, decided as an SVD of every S_k
    would; the SVD runs only where the brackets straddle the bound."""
    lo, hi = _brackets(S)
    straddle = (lo <= bound) & (hi > bound)
    return bool(np.any(lo > bound) or np.any(_opnorms(S[straddle]) > bound[straddle]))


def _decay_violation(stacks, ts, bound):
    """None when ``||exp(A t_k)|| <= bound_k`` at every grid point, else the
    largest ratio of the two (from an SVD at every point, to word the
    failure)."""
    if not any(_breaks(stacks(ts[part]), bound[part]) for part in _chunks(len(ts))):
        return None
    return max(float(np.max(_opnorms(stacks(ts[part])) / bound[part]))
               for part in _chunks(len(ts)))


def _log_grid(horizon, count):
    # log-spaced grid with t = 0 prepended (log spacing cannot reach 0)
    return np.concatenate([[0.0], np.geomspace(1e-6 * horizon, horizon, count - 1)])


def certify_stability(A):
    """Certify exponential stability of A.

    Takes ``alpha = 0.95 * (-spectral abscissa)`` and ``horizon = 20/alpha``.
    When the log-norm test ``lambda_max((A + A')/2) <= -alpha`` holds,
    ``||exp(A t)|| exp(alpha t) <= 1`` for every t >= 0, with equality at
    t = 0, so the grid sup below would be exactly 1: M is ``M_HEADROOM`` and
    no grid is sampled (``method="log_norm"``).  This covers every stable
    exactly symmetric A, whose spectral abscissa is its largest eigenvalue,
    so the test needs no second eigendecomposition.  Such an A is
    decomposed by one ``eigh``, and the certificate keeps the pair (see
    ``StabilityCertificate.eigenbasis``) for the Riccati kernel and the
    quadrature, which would otherwise decompose A again.

    Otherwise M is the sup of ``||exp(A t)|| exp(alpha t)`` over a
    1000-point log-spaced grid on ``[0, horizon]``, rounded up by 1%, and the
    certificate is re-checked on a fresh 500-point uniform grid
    (``method="sampled"``).  One eigendecomposition of A gives the spectral
    abscissa and every ``exp(A t)``, built in chunks of CHUNK_POINTS time
    points.  Each norm is bracketed without an SVD (see :func:`_brackets`),
    and the SVD runs only where the bracket leaves the grid max or a
    pass/fail open, so M and the validation are those of an SVD at every
    grid point.

    Raises UnstableGenerator when the spectral abscissa is >= 0 or the
    fresh-grid validation fails.
    """
    A = ensure_operator(A, "A")
    # a symmetric A has lambda_max((A + A')/2) = sigma <= -alpha: its
    # certificate is the log-norm proof, from one eigh
    symmetric = np.array_equal(A, A.T)
    eigen = np.linalg.eigh(A) if symmetric else np.linalg.eig(A)
    sigma = float(eigen[0][-1] if symmetric else np.max(eigen[0].real))
    if sigma >= 0.0:
        raise UnstableGenerator(f"spectral abscissa {sigma:.3e} >= 0")
    alpha = ALPHA_SAFETY * (-sigma)
    horizon = 20.0 / alpha
    if symmetric or _log_norm_proves(A, alpha):
        return StabilityCertificate(M=M_HEADROOM, alpha=alpha, sample_horizon=horizon,
                                    sample_count=FRESH_GRID_POINTS, method="log_norm",
                                    eigenbasis=(A, *eigen) if symmetric else None)

    stacks = _semigroup(A, eigen)
    ts = _log_grid(horizon, GRID_POINTS)
    M = M_HEADROOM * _grid_sup(stacks, ts, np.exp(alpha * ts))

    fresh = np.linspace(0.0, horizon, FRESH_GRID_POINTS)
    worst = _decay_violation(stacks, fresh, M * np.exp(-alpha * fresh) * DECAY_SLACK)
    if worst is not None:
        raise UnstableGenerator(
            f"certificate validation failed: decay bound violated by factor {worst:.3e}")
    return StabilityCertificate(M=M, alpha=alpha,
                                sample_horizon=horizon,
                                sample_count=FRESH_GRID_POINTS)


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
    """Fresh certificate for A - K, K symmetric PSD.

    Also records (in ``unperturbed_bound_holds``) whether the *unperturbed*
    (M, alpha) still bound ``||exp((A - K) t)||`` on the fresh sample grid.
    That claim is true for commuting normal perturbations but not in
    general, so it is verified per instance instead of assumed.
    """
    A = ensure_operator(A, "A")
    K = ensure_operator(K, "K")
    if A.shape != K.shape:
        raise ValueError(f"A and K have different shapes {A.shape} vs {K.shape}")
    check_psd(K, "K")
    if not certificate_holds(cert, A):
        raise ValueError("cert does not certify A on a fresh grid")
    fresh_cert = certify_stability(A - K)
    claim = certificate_holds(cert, A - K)
    return replace(fresh_cert, unperturbed_bound_holds=claim)
