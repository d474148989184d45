"""Dense matrix kernels: exponential, the one Lyapunov kernel (a
Bartels-Stewart solve of ``A T + T A' = P`` on a cached real Schur form of
the one generator A) and its quadrature oracle, and the norms used
throughout the package.

Operators are plain square float64 ndarrays on a fixed Galerkin basis.  Two
conventions hold everywhere:

* "symmetric" means ``max|T - T.T| <= 1e-12 * (1 + ||T||)`` in the operator
  norm, checked by :func:`check_symmetric`;
* "PSD" additionally means the smallest eigenvalue is ``>= -1e-10 * (1 +
  ||T||)``, checked by :func:`check_psd`.

All functions are pure and never mutate their arguments.  scipy is
imported only inside the functions that need it (the Schur form, ``trsyl``
and ``expm``): its import takes longer than a whole placement sweep, and
most runs take no Schur form.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import HorizonTooShort, SingularSystem, UnstableGenerator

SYMMETRY_RTOL = 1e-12
PSD_RTOL = 1e-10
NORM_BOUND_MARGIN = 1e-12
POWER_STEPS = 3     # power steps behind each lower norm bound
SYLVESTER_RTOL = 1e-10
# read once, as a Python float: np.finfo costs a call each time, and a numpy
# scalar costs more per arithmetic operation than a float, with the same bits
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)  # smallest normal float: covers underflowed terms
# np.exp returns exactly 0.0 below log(2^-1075) = -745.13...; one unit
# lower leaves room for any last-bit difference of its implementations
EXP_UNDERFLOW = -746.0


def ensure_operator(T, name="operator", like=None):
    """T as a float matrix, admitted as an operand: the one rule each entry
    point applies to the matrices it reads, before other work.  ValueError
    naming T unless it is square, then finite, then of ``like``'s shape:
    the admitted A whose space T lives on, or a shape (both are named)."""
    T = np.asarray(T, dtype=float)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise ValueError(f"{name} must be square, got shape {T.shape}")
    if not np.isfinite(T).all():
        raise ValueError(f"{name} has non-finite entries")
    if like is not None and T.shape != getattr(like, "shape", like):
        against = f"A has shape {like.shape}" if hasattr(like, "shape") else f"expected {like}"
        raise ValueError(f"{name} has shape {T.shape}, {against}")
    return T


def stack_width(n):
    """Matrices of order n per stack of a batch (placements, or the ledger's
    SVDs): ``min(32, 1024 // n)``, at least 1.  Small stacks pay per-call
    overhead, and large ones of large matrices memory and cache misses."""
    return max(1, min(32, 1024 // max(n, 1)))


def stack_slices(count, n):
    """``count`` matrices of order n in the fewest stacks of at most
    :func:`stack_width`, near-equal (100 at n = 16: four of 25)."""
    stacks = -(-count // stack_width(n))
    return [slice(count * i // stacks, count * (i + 1) // stacks) for i in range(stacks)]


def _require_count(name, value, least):
    """Raise ValueError unless ``value`` is an integer of at least ``least``."""
    if not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def _require_finite_positive(name, value):
    if not 0.0 < value < math.inf:  # NaN fails too
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def operator_norm(T):
    """Largest singular value of T (the L(H) norm on the truncation), or of
    each matrix of a stack T: one stacked SVD, whose values are the
    per-matrix SVDs' bit for bit.  That of a 1x1 T is ``|t|`` wherever
    LAPACK does not rescale T, for ``|t|`` in ``[2^-459, 2^459]``."""
    if T.ndim > 2:
        if T.shape[-1] == 0 or T.shape[-2] == 0:
            return np.zeros(T.shape[:-2])
        return np.linalg.svd(T, compute_uv=False)[..., 0]
    if T.size == 0:
        return 0.0
    return float(np.linalg.norm(T, 2))


def _asymmetric(T, bounds):
    """Whether T, or each matrix of a stack T, fails the symmetry test;
    ``bounds`` brackets its norm.  A matrix with a non-finite entry fails
    it, as does one whose skew overflows."""
    skew = _skew(T)
    return ~np.isfinite(skew) | _settle(T, lambda x: skew > SYMMETRY_RTOL * (1.0 + x), bounds)


def _skew(T):
    """``max|T - T.T|`` of T, or of each matrix of a stack T."""
    D = T - T.swapaxes(-1, -2)
    return np.abs(D, out=D).max(axis=(-2, -1), initial=0.0)


def _require_symmetric(T, bounds, name):
    """Raise ValueError, worded with an SVD's ``||T||``, when T (or the first
    matrix of a stack T that does) fails the symmetry test, or as
    :func:`ensure_operator` does when it fails for a non-finite entry;
    ``bounds`` brackets ``||T||``."""
    failing = _asymmetric(T, bounds)
    if _any(failing):
        T = T.reshape((-1,) + T.shape[-2:])[int(np.argmax(failing))]
        if not np.isfinite(T).all():
            raise ValueError(f"{name} has non-finite entries")
        tol = SYMMETRY_RTOL * (1.0 + operator_norm(T))
        raise ValueError(f"{name} is not symmetric: max|T - T.T| = {_skew(T):.3e} > {tol:.3e}")


def _indefinite(T, spectrum, bounds):
    """Whether the symmetric T with ascending eigenvalues ``spectrum`` fails
    the PSD test; ``bounds`` brackets ``||T||``."""
    lam_min = float(spectrum[0]) if T.size else 0.0
    return _settle(T, lambda x: -lam_min > PSD_RTOL * (1.0 + x), bounds)


def check_symmetric(T, name="operator"):
    """Raise unless T is symmetric within the package-wide tolerance.

    The test is settled by the bounds of :func:`_settle`; the SVD runs only
    when they all leave it open, or to word the error."""
    _require_symmetric(T, _norm_bounds(T), name)


def check_psd(T, name="operator"):
    """Raise unless the symmetric matrix T is PSD within tolerance; ``||T||``
    is taken as in :func:`check_symmetric`.

    Returns the spectrum the test read, ``eigvalsh(T)``, so a caller that
    needs it decomposes T only once."""
    bounds = _norm_bounds(T)
    _require_symmetric(T, bounds, name)
    spectrum = np.linalg.eigvalsh(T)
    if _indefinite(T, spectrum, bounds):
        tol = PSD_RTOL * (1.0 + operator_norm(T))
        raise ValueError(f"{name} is not PSD: lambda_min = {spectrum[0]:.3e} < -{tol:.3e}")
    return spectrum


def low_rank_psd(T, max_rank, name="operator"):
    """``(B, e)`` with ``T = B B' + E`` and ``||E|| <= e`` when at most
    ``max_rank`` pivoted Cholesky steps (Higham 1990) prove T PSD, else None;
    :func:`check_psd` then decides T as it always has.  For a stack T, the
    list of each matrix's, bit for bit; raises as :func:`check_psd` does
    when T is not symmetric (for a stack, on the first matrix that is not).
    Each step takes the largest diagonal entry ``E_jj`` of the remainder E
    (at first T) and subtracts the rank-one ``E[:, j] E[:, j]' / E_jj``; the
    steps stop once no diagonal entry exceeds ``n eps max_i T_ii``, and a T
    with more steps to go after ``max_rank`` gets None.  Since
    ``lambda_min(T) >= -||E||``, T is PSD when ``e``, ``||E||_F`` plus the
    rounding of the steps, is within the tolerance ``1e-10 (1 + ||T||)``,
    ``||T||`` taken from its lower Frobenius bound.  A stack's matrices step
    together, each on its own pivots.
    """
    bounds = _norm_bounds(T)
    _require_symmetric(T, bounds, name)
    n = T.shape[-1]
    if n == 0:
        return [None] * len(T) if T.ndim == 3 else None
    E = T.copy()
    diagonal = E.diagonal(0, -2, -1)  # a view, updated with E
    lead = (np.arange(len(T)),) if T.ndim == 3 else ()  # E[lead + (slice(None), j)]: column j
    j = diagonal.argmax(axis=-1)
    pivot = diagonal[lead + (j,)]
    floor = n * _EPS * pivot  # stops a T with no positive diagonal entry at once
    running, rank, columns = np.True_, np.zeros(T.shape[:-2], dtype=np.intp)[()], []
    for step in range(max_rank + 1):
        # a NaN pivot stops the steps: its remainder proves nothing
        running = running & (pivot > floor)
        if step == max_rank or not _any(running):
            break
        if T.ndim == 3:  # a matrix whose steps have stopped subtracts zeros
            pivot = np.where(running, pivot, np.inf)
        b = (E[lead + (slice(None), j)].T / np.sqrt(pivot)).T
        E -= b[..., :, None] * b[..., None, :]
        columns.append(b)
        rank = rank + running
        j = diagonal.argmax(axis=-1)
        pivot = diagonal[lead + (j,)]
    C = np.array(columns).reshape(len(columns), T.size // (n * n), n)  # step, matrix, entry
    stats = (rank, running, _frobenius(E)) + bounds
    results = []
    for m, (r, more, remainder, lo, hi) in enumerate(zip(*(
            stats if T.ndim == 3 else [(x,) for x in stats]))):
        B = C[:r, m].T
        # each of the r subtractions rounds every entry by at most eps times
        # |E_ij| + |b_i b_j|, which sum to at most ||T||_F + 2 ||B||_F^2
        dropped = float(remainder) + int(r) * _EPS * (float(hi) + 2.0 * float(np.vdot(B, B)))
        proved = not more and dropped <= PSD_RTOL * (1.0 + lo)  # a NaN proves nothing either
        results.append((B, dropped) if proved else None)
    return results if T.ndim == 3 else results[0]


def psd_flags(T):
    """``(symmetric, psd)`` of T under the tests of :func:`check_psd`; a
    matrix that is not symmetric is not PSD either."""
    return _psd_spectrum(T)[:2]


def _psd_spectrum(T):
    """``(symmetric, psd, spectrum)``: :func:`psd_flags` and the
    ``eigvalsh(T)`` its PSD test read, None when T is not symmetric."""
    bounds = _norm_bounds(T)
    if _asymmetric(T, bounds):
        return False, False, None
    spectrum = np.linalg.eigvalsh(T)
    return True, not _indefinite(T, spectrum, bounds), spectrum


def _widening(n):
    """Relative widening of norm bounds on matrices of at most n rows and
    columns: NORM_BOUND_MARGIN plus ``n^2 eps``.  A sum of up to ``n^2``
    non-negative terms is off by at most ``gamma_{n^2}`` relative (Higham,
    *Accuracy and Stability of Numerical Algorithms*, Sec. 3.1), a norm
    read off it by about half that, ``n^2 u / 2`` with u = eps/2, and the
    widening exceeds it for every n; so a comparison that bounds widened by
    it settle is the SVD's own, ties included."""
    return NORM_BOUND_MARGIN + n * n * _EPS


def _norm_bounds(T):
    """Bounds ``lo <= operator_norm(T) <= hi`` from the Frobenius norm:
    ``||T||_F / sqrt(r) <= ||T|| <= ||T||_F`` with r the smaller dimension;
    one pair of arrays for a stack T.  Both are widened by
    :func:`_widening`, so a comparison they settle is the SVD's own, ties
    included (rank-1 T has ``||T|| = ||T||_F``)."""
    fro = _frobenius(T)
    r = max(min(T.shape[-2:]), 1)
    widening = _widening(max(T.shape[-2:]))
    return fro / math.sqrt(r) * (1.0 - widening), fro * (1.0 + widening)


def _frobenius(T):
    """``np.linalg.norm(T)``, bit for bit, without its dispatch; for a stack
    T of C-ordered matrices, one array with the norm of each, from a
    stacked product whose sums are ``dot``'s bit for bit."""
    if T.ndim <= 2:
        x = T.ravel(order="K")
        return math.sqrt(x.dot(x))
    x = T.reshape(T.shape[:-2] + (1, -1))
    return np.sqrt(np.matmul(x, x.swapaxes(-1, -2))[..., 0, 0])


def _upper_bound(S):
    """``min(||S||_F, (||S||_1 ||S||_inf)^(1/2)) >= ||S||`` for each matrix
    of the stack S (Golub & Van Loan, *Matrix Computations*, Sec. 2.3), from
    O(n^2) work, widened by :func:`_widening` for the rounding of its sums
    and by ``n^2`` times the smallest normal number for underflowed terms."""
    a = np.abs(S)
    holder2 = (np.ones(S.shape[-2]) @ a).max(axis=1) * (a @ np.ones(S.shape[-1])).max(axis=1)
    square = np.minimum(np.einsum("kij,kij->k", a, a), holder2)
    n = max(S.shape[-2:])
    return np.sqrt(square + n * n * _TINY) * (1.0 + _widening(n))


def _power_bounds(S, gram=False):
    """Bounds ``lo <= ||S_k|| <= hi`` for each matrix of the stack S.

    Each matrix is scaled by a power of two (exactly), so nothing below
    overflows or underflows.  POWER_STEPS power steps run on B = S, O(n^2),
    or with ``gram`` on ``B = S'S``, O(n^3) to form, from B's column of
    largest norm; ``lo = ||B x||`` for the unit x of the last step (its
    square root on ``S'S``), close to ``||S||`` when B has a dominant
    eigenvalue, as a Newton step of small rank does.  ``hi`` is
    :func:`_upper_bound` of S, or ``||S'S||_F^(1/2)``.  Both are widened
    by :func:`_widening`."""
    _, exponent = np.frexp(np.abs(S).max(axis=(1, 2)))
    S = np.ldexp(S, -exponent[:, None, None])
    B = np.matmul(S.transpose(0, 2, 1), S) if gram else S
    columns = np.einsum("kij,kij->kj", B, B)
    x = B[np.arange(len(B)), :, columns.argmax(axis=1)]
    for _ in range(POWER_STEPS):
        size = np.sqrt(np.einsum("ki,ki->k", x, x))
        x = np.matmul(B, (x / np.where(size > 0.0, size, 1.0)[:, None])[:, :, None])[:, :, 0]
    lo = np.sqrt(np.einsum("ki,ki->k", x, x))
    widening = _widening(max(S.shape[-2:]))
    if gram:
        lo, hi = np.sqrt(lo), np.sqrt(np.sqrt(columns.sum(axis=1))) * (1.0 + widening)
    else:
        hi = _upper_bound(S)
    return np.ldexp(lo * (1.0 - widening), exponent), np.ldexp(hi, exponent)


def _any(mask):
    """Whether ``mask``, a bool or an array of them, holds a True."""
    return np.count_nonzero(mask) > 0 if isinstance(mask, np.ndarray) else bool(mask)


def _pick(x, open_):
    """The entries that ``open_`` marks of a value x given per matrix of a
    stack (one axis more than a shared number or matrix), or x shared."""
    return x[open_] if np.ndim(x) in (1, 3) else x


def _settle(T, holds, bounds=None):
    """Decide ``holds(operator_norm(T))`` as the SVD would, for T or for each
    matrix of a stack T.  ``holds`` maps norms (a number, or an array with
    one per matrix) to bools: true up to some norm, false beyond it.

    Bounds ``lo <= ||T_k|| <= hi`` settle a matrix once ``holds(hi)`` or
    ``not holds(lo)``, each stage on the matrices the one before left open:

    1. the Frobenius bounds of :func:`_norm_bounds`, or the caller's
       ``bounds`` of T;
    2. :func:`_power_bounds` on T, O(n^2);
    3. :func:`_power_bounds` on ``T'T``, O(n^3);
    4. the SVD.

    A 2-D T that stage 1 settles is decided without stacking anything.
    Every bound is widened beyond its rounding and the SVD's, so each
    decision is the SVD's own, ties included."""
    lo, hi = _norm_bounds(T) if bounds is None else bounds
    settled = holds(hi)
    open_ = holds(lo) > settled
    if not _any(open_):
        return settled
    S = T if T.ndim == 3 else T[None]
    lo, hi = np.array(lo, ndmin=1), np.array(hi, ndmin=1)  # copies: the stages write in them
    live = np.flatnonzero(open_)
    for stage in (_power_bounds, lambda S: _power_bounds(S, gram=True),
                  lambda S: 2 * (operator_norm(S),)):
        lo[live], hi[live] = stage(S if live.size == len(S) else S[live])
        live = live[(holds(lo) > holds(hi))[live]]
        if not live.size:
            break
    settled = holds(hi)
    return settled if T.ndim == 3 else bool(settled[0])


def norm_within(T, tol):
    """Decide ``operator_norm(T) <= tol`` as the SVD would, for T or for each
    matrix of a stack T (``tol`` a number, or one per matrix), by the
    cascade of :func:`_settle`: Frobenius bounds, power steps on T, power
    steps on ``T'T``, and the SVD only where all of them leave it open."""
    return _settle(T, lambda x: x <= tol)


def symmetrize(T):
    return 0.5 * (T + T.swapaxes(-1, -2))


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


def singular_values(T):
    """The singular values of each matrix of the stack T of square
    matrices, one descending row per matrix (a single 0 for a 0x0 one):
    one stacked SVD, each row the per-matrix SVD's bit for bit.  ValueError
    unless the matrices are square and finite."""
    if T.shape[1] != T.shape[2]:
        raise ValueError(f"operator must be square, got shape {T.shape[1:]}")
    if not np.isfinite(T).all():
        raise ValueError("operator has non-finite entries")
    if T.shape[1] == 0:
        return np.zeros((len(T), 1))
    return np.linalg.svd(T, compute_uv=False)


def norms(T):
    """Compute the NormReport of a square matrix, or the list of them of a
    stack T of square matrices: one stacked SVD, each report the
    per-matrix one bit for bit."""
    if np.ndim(T) != 3:
        return norms(ensure_operator(T)[None])[0]
    T = np.asarray(T, dtype=float)
    return [NormReport(op_norm=float(s[0]), trace=float(tr), trace_norm_schatten=float(s.sum()),
                       abs_trace=abs(float(tr)))
            for s, tr in zip(singular_values(T), np.trace(T, axis1=1, axis2=2))]


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
    import scipy.linalg as spla

    return spla.expm(A * t)


def _real_schur(A):
    """Real Schur form ``A = U T U.T`` with the eigenvalues of A, for a
    validated operator A (:func:`ensure_operator`): T and U are
    ``scipy.linalg.schur(A, output="real")``'s, which raises LinAlgError
    when LAPACK's ``gees`` fails.  This is the one place the package takes
    a Schur form of a generator, of any order, 1x1 included.

    The eigenvalues are read off T's diagonal blocks.  LAPACK standardises
    each 2x2 block to ``[[a, b], [c, a]]`` with ``b c < 0``, whose
    eigenvalues are ``a +- i sqrt(|b| |c|)``.
    """
    import scipy.linalg as spla

    T, U = spla.schur(A, output="real", check_finite=False)
    lam = np.diag(T).astype(complex)
    k = np.flatnonzero(np.diag(T, -1))
    im = np.sqrt(np.abs(T[k, k + 1])) * np.sqrt(np.abs(T[k + 1, k]))
    lam[k] += 1j * im
    lam[k + 1] -= 1j * im
    return T, U, lam


def _min_pair_sum(lam):
    """``min |lambda_i + lambda_j|`` over the spectrum ``lam`` that
    :func:`_real_schur` reads off a real stable A, in O(n): ``-2 max Re
    lambda``.  No pair sums to less, and the rightmost eigenvalue attains
    it with itself, or with its conjugate, whose imaginary part the
    read-off makes exactly opposite."""
    return -2.0 * float(lam.real.max())


class SylvesterFactor:
    """The real Schur form of a stable generator A, factored once for any
    number of solves of the Lyapunov equation ``A T + T A' = P`` and of its
    transpose ``A' T + T A = P``.

    Factoring checks the spectrum (UnstableGenerator unless it lies in the
    open left half-plane) and the separation guard (SingularSystem when
    ``min |lambda_i + lambda_j| < 1e-12 (2 ||A||)``, the minimum taken by
    :func:`_min_pair_sum`).  A must be a validated operator
    (:func:`ensure_operator`); the guard is decided by the cascade of
    :func:`_settle`, with an SVD only where its bounds leave it open.
    """

    def __init__(self, A):
        self.A = A
        self.schur = _real_schur(A)
        lam = self.schur[2]
        if lam.real.max() >= 0.0:
            raise UnstableGenerator(f"A has spectral abscissa {lam.real.max():.3e} >= 0")

        # Conditioning guard: the solve degenerates when eigenvalue sums cancel.
        smin = _min_pair_sum(lam)
        if not _settle(A, lambda x: smin >= 1e-12 * (2.0 * x)):
            sep_tol = 1e-12 * (2.0 * operator_norm(A))
            raise SingularSystem(f"min |lambda_i(A) + lambda_j(A)| = {smin:.3e} < {sep_tol:.3e}")

    def solve(self, P, transpose=False):
        """T with ``A T + T A' = P``, or with ``A' T + T A = P`` when
        ``transpose``, refined up to twice on the Schur form; raises
        SingularSystem unless ``||R|| <= 1e-10 (1 + ||P||)`` for the
        residual R of the returned T, norms decided as in
        :func:`_relative_within`, and first ValueError unless P is admitted
        at A's shape.  The untransposed solve is bit-identical to
        ``scipy.linalg.solve_sylvester(A, A', P)``, and a 1x1 one is
        ``P / (a + a)``, which ``trsyl`` returns there, bit for bit."""
        P = ensure_operator(P, "P", self.A)
        A = self.A.T if transpose else self.A
        T = self._trsyl(P, transpose)
        P_bounds = _norm_bounds(P)
        for refinements in range(3):
            R = P - (A @ T + T @ A.T)
            if _residual_within(R, P, P_bounds):
                return T
            if refinements < 2:
                T = T + self._trsyl(R, transpose)
        res_tol = SYLVESTER_RTOL * (1.0 + operator_norm(P))
        raise SingularSystem(f"Sylvester residual {operator_norm(R):.3e} exceeds {res_tol:.3e} "
                             "after refinement; system too ill-conditioned")

    def _trsyl(self, P, transpose):
        """Bartels-Stewart back end on the Schur form; untransposed it is
        associated exactly as ``scipy.linalg.solve_sylvester(A, A', P)``
        associates it.  With ``A = U S U'`` the transposed equation reads
        ``S' Y + Y S = U' P U`` for ``Y = U' T U``."""
        S, U, _ = self.schur
        F = np.dot(np.dot(U.T, P), U)
        import scipy.linalg as spla

        trsyl, = spla.get_lapack_funcs(("trsyl",), (S, S, F))
        trana, tranb = ("C", "N") if transpose else ("N", "C")
        Y, scale, info = trsyl(S, S, F, trana=trana, tranb=tranb)
        if info < 0:
            raise np.linalg.LinAlgError(f"illegal value in argument {-info} of trsyl")
        return np.dot(np.dot(U, scale * Y), U.T)


def solve_sylvester(A, P):
    """Solve the Lyapunov equation ``A T + T A' = P`` for a stable A by
    Bartels-Stewart: one :class:`SylvesterFactor` of A, then its solve,
    bit-identical to ``scipy.linalg.solve_sylvester(A, A.T, P)``; P need not
    be symmetric.  Raises as the factor and its solve do: UnstableGenerator
    unless the spectrum lies in the open left half-plane, SingularSystem
    when the separation guard fails or the residual of the returned T
    exceeds ``1e-10 (1 + ||P||)`` in the operator norm; ValueError first
    unless A and P are admitted, P at A's shape.  A caller with several
    right-hand sides for one generator keeps the factor instead.
    """
    A = ensure_operator(A, "A")
    P = ensure_operator(P, "P", A)
    return SylvesterFactor(A).solve(P)


def _residual_within(R, P, P_bounds):
    """The Sylvester residual gate: ``_relative_within`` at SYLVESTER_RTOL."""
    return _relative_within(R, SYLVESTER_RTOL, P, P_bounds)


def _relative_within(R, rtol, P, P_bounds, margin=0.0):
    """Decide ``operator_norm(R) <= rtol (1 + operator_norm(P)) - margin``
    as the SVDs would, taking P's SVD only when the Frobenius bounds
    ``P_bounds`` of P and those of R leave the answer open.  For a stack R
    each matrix is decided on its own, and P, ``P_bounds`` and ``margin``
    are either given per matrix or shared by all."""
    lo, hi = _norm_bounds(R)
    inside = hi <= rtol * (1.0 + P_bounds[0]) - margin
    open_ = (lo <= rtol * (1.0 + P_bounds[1]) - margin) > inside
    if not _any(open_):
        return inside
    if R.ndim == 2:
        return norm_within(R, rtol * (1.0 + operator_norm(P)) - margin)
    inside[open_] = norm_within(R[open_], rtol * (1.0 + operator_norm(_pick(P, open_)))
                                - _pick(margin, open_))
    return inside


def _gauss_legendre_panel(width, npts=16):
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * width * (x + 1.0), 0.5 * width * w


def bochner_quadrature(A, P, horizon, nodes, cert=None):
    """Quadrature oracle for the integral form of the Lyapunov solution.

    Returns ``-int_0^horizon exp(A t) P exp(A.T t) dt`` by composite
    16-point Gauss-Legendre with panel width at most ``1/(2 alpha)``, where
    alpha is the certified decay rate of A: that of ``cert`` when given,
    else of one :func:`~riccati_place.semigroup.certify_stability` of A.
    ``nodes`` is a minimum node budget; more panels are used when the decay
    rate demands them.

    The rule is evaluated in factored form.  With panel width h and L =
    exp(A h), panel m equals ``L^m K (L')^m``, where K is the first panel's
    weighted node sum; so K is built once (16 exponentials, each node's
    right factor the left one transposed) and each further panel costs two
    products.  An exactly symmetric A (``np.array_equal(A, A.T)``) takes no
    exponential of a matrix: with ``A = V diag(d) V'`` (the pair kept on the
    certificate, or one ``eigh`` when it holds none for A; see
    ``StabilityCertificate.eigh``), ``exp(A t) = V exp(diag(d) t) V'``, so
    the rule is summed entrywise in the eigenbasis, K as
    ``sum_k w_k exp((d_i + d_j) s_k)`` and each panel step as the entrywise
    factor ``exp((d_i + d_j) h)``.  Either way the result differs from a
    direct node-by-node sum only by rounding.

    Raises HorizonTooShort when the analytic truncation tail
    ``M^2 ||P|| exp(-2 alpha horizon) / (2 alpha)`` exceeds 1e-8, decided
    by the cascade of :func:`_settle`, with an SVD of P only where its
    bounds leave the test open (or to word the error), and ValueError,
    before any other work, unless horizon and nodes are finite and positive
    and A and P are admitted, P at A's shape.
    """
    from .semigroup import certify_stability  # deferred: semigroup builds on linalg

    horizon = float(horizon)
    if not 0.0 < horizon < math.inf:  # NaN fails too
        raise ValueError("horizon must be finite and positive")
    if not 1 <= nodes < math.inf:
        raise ValueError("nodes must be finite and positive")
    nodes = int(nodes)
    A = ensure_operator(A, "A")
    P = ensure_operator(P, "P", A)

    cert = certify_stability(A) if cert is None else cert
    m, alpha = cert.M, cert.alpha

    def tail(norm_P):  # nondecreasing in norm_P, rounding included
        return m**2 * norm_P * np.exp(-2.0 * alpha * horizon) / (2.0 * alpha)

    if not _settle(P, lambda x: tail(x) <= 1e-8):
        norm_P = operator_norm(P)
        raise HorizonTooShort(
            f"tail bound {tail(norm_P):.3e} > 1e-8; need horizon >= "
            f"{np.log(m**2 * max(norm_P, 1e-300) / (2e-8 * alpha)) / (2 * alpha):.3g}")

    panels = max(int(np.ceil(nodes / 16)), int(np.ceil(2.0 * alpha * horizon)), 1)
    width = horizon / panels
    offsets, weights = _gauss_legendre_panel(width)
    if np.array_equal(A, A.T):
        return -_eigenbasis_panel_sum(cert.eigh(A)[:2], P, offsets, weights, width, panels)

    # panel m is L^m K (L')^m (see the docstring)
    step = matrix_exponential(A, width)
    K = np.zeros((A.shape[0], P.shape[1]))
    for s, w in zip(offsets, weights):
        left = matrix_exponential(A, s)
        K += w * (left @ P @ left.T)
    acc = K.copy()
    for _ in range(panels - 1):
        K = step @ K @ step.T
        acc += K
    return -acc


def _eigenbasis_panel_sum(eigen, P, offsets, weights, width, panels):
    """The composite rule of :func:`bochner_quadrature` for an exactly
    symmetric A, summed entrywise in A's eigenbasis ``eigen = (d, V)``.

    With ``A = V diag(d) V'`` and ``S_ij = d_i + d_j``, the integrand at t
    is ``V (exp(S t) o V' P V) V'``; the first panel's weighted node sum
    is ``K = sum_k w_k exp(S s_k)`` and panel m is ``exp(S width)^m o K``.

    On a stiff A most of these exponentials underflow, and ``np.exp``
    takes a slow path on each of them: exp is called only on arguments at
    or above EXP_UNDERFLOW, and every other entry is set to the 0.0 that
    exp returns there.  Since the weights are positive, K >= 0 and an entry
    whose ``exp(S width)`` is 0 adds exactly +0 to every later panel, so
    the panels after the first are summed only where it is not.  The sum is
    the unmasked formula's bit for bit.
    """
    d, V = eigen
    S = d[:, None] + d[None, :]
    acc = np.zeros_like(S)  # K, then the sum over the panels
    E = np.empty_like(S)
    for s, w in zip(offsets, weights):
        _exp_above_underflow(np.multiply(S, s, out=E))
        E *= w
        acc += E
    step = _exp_above_underflow(np.multiply(S, width, out=E)).ravel()
    live = np.flatnonzero(step)
    step = step[live]
    del S, E  # two n x n arrays fewer while the final products run
    K = acc.ravel()[live]
    acc_live = K.copy()
    for _ in range(panels - 1):
        K *= step
        acc_live += K
    acc.ravel()[live] = acc_live
    return V @ (acc * (V.T @ P @ V)) @ V.T


def _exp_above_underflow(T):
    """``np.exp(T)`` in place, bit for bit: exp runs only on the entries
    of T at or above EXP_UNDERFLOW, and the others are set to 0.0."""
    keep = T >= EXP_UNDERFLOW
    np.exp(T, out=T, where=keep)
    np.copyto(T, 0.0, where=~keep)
    return T
