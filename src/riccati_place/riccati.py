"""Newton-Kleinman solver for the algebraic Riccati equation

    A X + X A.T - X G X + Q = 0,   G, Q symmetric PSD, A stable,

plus residual / trace-bound verification against the quadrature oracle and a
Hamiltonian stable-subspace cross-check.

Note the operator ordering: A multiplies X from the *left* (the transposed
form A.T X + X A of classical LQR is obtained by transposing everything).
"""

import copy
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from typing import List, Optional

import numpy as np

from .errors import ClosedLoopUnstable, NewtonStall, UnstableGenerator
from .linalg import (
    SYLVESTER_RTOL,
    _EPS,
    SylvesterFactor,
    _any,
    _frobenius,
    _norm_bounds,
    _psd_spectrum,
    _relative_within,
    _residual_within,
    _widening,
    bochner_quadrature,
    check_psd,
    ensure_operator,
    low_rank_psd,
    norm_within,
    operator_norm,
    solve_sylvester,
    symmetrize,
)
from .semigroup import certify_stability

DEFAULT_STEP_TOL = 1e-12
RESIDUAL_RTOL = 1e-10
TRACE_SLACK = 1e-9
MAX_NEWTON_ITERS = 100
# Largest rank of G whose steps run in the eigenbasis.  The (n r)^3 solve
# grows as r^3: on heat models at n = 16 / 64 / 256 rank 3 still times
# at or below the Schur kernel (1 BLAS thread), rank 4 is slower warm
# at n = 16 and n = 64.
CAPACITANCE_MAX_RANK = 3


@dataclass(frozen=True)
class _EigenbasisFacts:
    """What the eigenbasis kernel knew at a solution X: the :class:`Plant`
    whose eigenbasis ``A = V diag(d) W`` it stepped in (and whose
    ``d_i + d_j``, their inverse and ``lambda_min(Q)`` the closed loop's
    proof reads), G's factor ``B = V' B_G`` in that basis (n x r), where
    ``G = B_G B_G' + E`` and ``dropped`` bounds ``||E||``, and the Frobenius
    norm of the residual at X that the stop test formed: the residual on G's
    factor, ``A X + X A' - X B_G B_G' X + Q`` in the original basis, which
    differs from the strong residual by ``X E X``."""

    plant: "Plant"
    B: np.ndarray
    dropped: float
    residual_fro: float

    def member(self, k):
        """The facts of member k of a batch's facts, whose ``B``, ``dropped``
        and ``residual_fro`` hold one entry per member."""
        return replace(self, B=self.B[k].copy(), dropped=float(self.dropped[k]),
                       residual_fro=float(self.residual_fro[k]))

    @classmethod
    def stack(cls, facts):
        """One batch's facts from the facts of its members, which share a
        plant."""
        return replace(facts[0], B=np.stack([f.B for f in facts]),
                       dropped=np.array([f.dropped for f in facts]),
                       residual_fro=np.array([f.residual_fro for f in facts]))


@dataclass
class RiccatiSolution:
    """A Riccati solution X and what its solve did.

    ``strong_residual`` is ``riccati_residual(A, G, Q, X)``, computed on
    first read and cached; ``operands`` holds references to (A, G, Q) for
    it, so the residual matrix itself is not kept.  ``eigenbasis`` holds
    the eigenbasis kernel's facts when the solve ran on it (G's n x r
    factor, two scalars and a reference to the plant); :func:`closed_loop`
    proves the final closed loop stable from them.
    """

    X: np.ndarray
    newton_iters: int
    trace_bound_slack: float
    operands: tuple = field(repr=False, compare=False)
    schur_steps: int = 0  # Schur forms the solve took (X1 when it formed it); not reported
    history: Optional[List[np.ndarray]] = None
    eigenbasis: Optional[_EigenbasisFacts] = field(default=None, repr=False, compare=False)

    @classmethod
    def of(cls, plant, X, newton_iters, operands, **kwargs):
        """The solution X of the plant's equation for ``operands`` (A, G, Q),
        with its trace slack ``plant.trace_bound - tr X``."""
        return cls(X=X, newton_iters=newton_iters,
                   trace_bound_slack=plant.trace_bound - float(np.trace(X)),
                   operands=operands, **kwargs)

    @cached_property
    def strong_residual(self):
        """Operator norm of the strong residual at X."""
        return riccati_residual(*self.operands, self.X)


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


def trace_bound(cert, Q):
    """The bound ``M^2/(2 alpha) tr Q`` on tr X from A's certificate."""
    return cert.M**2 / (2.0 * cert.alpha) * float(np.trace(Q))


def _residual_matrix(A, G, Q, X, XGX=None):
    """``A X + X A.T - X G X + Q``; ``XGX``, when given, is ``X @ G @ X``
    as the caller formed it."""
    return A @ X + X @ A.T - (X @ G @ X if XGX is None else XGX) + Q


def riccati_residual(A, G, Q, X, XGX=None):
    """Operator norm of A X + X A.T - X G X + Q (see :func:`_residual_matrix`)."""
    return operator_norm(_residual_matrix(A, G, Q, X, XGX))


def _dot(T):
    """The product for T's matrices: np.dot for a single matrix, whose outer
    products ``F F'`` are exactly symmetric and, at r = 1, faster than
    matmul's; np.matmul over the leading axis of a stack, whose products
    are the per-matrix ones bit for bit."""
    return np.dot if T.ndim == 2 else np.matmul


def _positive_definite(T, where=True):
    """Whether T, or each matrix of a stack T, is positive definite, tried
    only where ``where`` holds (False elsewhere).  Both tests below read T's
    upper triangle, as the symmetric matrix it stands for; the strict lower
    triangle is never read.

    The disc test decides first, in O(n^2): a finite diagonal with

        t_ii > (1 + gamma_n) fl(sum_{j != i} |t_ij|)

    in every row puts each Gershgorin disc in the open right half-plane,
    hence every eigenvalue (Varga, *Gersgorin and His Circles*, 2004).  The
    sum is rigorous: n - 1 nonnegative terms summed in any order come out at
    least ``(1 - gamma_{n-2})`` times their exact sum (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 3.1), and ``fl(1 + gamma_n) >= 1 +
    n u`` covers that loss and the product's own rounding for n < 2^26 (a
    sum below the normal range is exact).  A non-finite entry fails it.

    A matrix the discs leave open is positive definite when Cholesky
    factors it with a finite diagonal: one ``np.linalg.cholesky`` over the
    open members of a stack, and one per member when that call raises."""
    mask, ones, widening = _disc_constants(T.shape[-1])
    K = np.where(mask, T, 0.0)
    np.abs(K, out=K)
    dot = _dot(T)
    rows = dot(K, ones)  # row i of the upper triangle's symmetric matrix
    rows += dot(ones, K)
    rows *= widening
    diag = T.diagonal(0, -2, -1)
    decided = (np.less(rows, diag) & np.less(diag, np.inf)).all(axis=-1)
    if T.ndim == 2:
        return bool(where) and bool(decided or _cholesky_succeeds(T))
    pd = decided & where
    open_ = where > pd
    if open_.any():
        pd[open_] = _cholesky_succeeds(T[open_])
    return pd


@cache
def _disc_constants(n):
    """The disc test's constants at order n, shared read-only by every
    caller: the strict upper triangle as a mask, a vector of ones, and
    ``fl(1 + gamma_n)``."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    ones = np.ones(n)
    mask.flags.writeable = ones.flags.writeable = False
    return mask, ones, 1.0 + _gamma(n)


def _cholesky_succeeds(T):
    """Whether Cholesky factors T's upper triangle, or each member's of a
    stack, with a finite diagonal: the lower factor of ``T'`` reads exactly
    that triangle.  A stack whose call raises is retried member by member."""
    try:
        L = np.linalg.cholesky(T.swapaxes(-1, -2))
    except np.linalg.LinAlgError:
        if T.ndim == 2:
            return False
        return np.array([_cholesky_succeeds(M) for M in T], dtype=bool)
    return np.isfinite(L.diagonal(0, -2, -1)).all(axis=-1)


class Plant:
    """The model (A, Q) of the Riccati equation, of which only G moves with
    the placement, and every fact of it that the kernels read, built once
    per (A, Q, certificate).

    ``A`` is a reference (an A changed in place needs a new certificate),
    ``Q`` a copy of the weight, ``spectrum`` the ``check_psd(Q, "Q")`` it
    passed (run here, before A is certified, unless a caller hands it),
    ``Q_bounds`` the Frobenius bounds on ``||Q||``, ``M`` and ``alpha`` the
    certificate's, ``trace_bound`` the bound ``M^2/(2 alpha) tr Q`` on tr X
    and ``basis`` A's eigenbasis ``cert.eigh(A)``.  Q's facts in that basis
    are computed on first read.  A cold start's first iterate X1, the
    solution of ``A X1 + X1 A' = -Q``, is the plant's too: on Schur steps
    the first cold start solves it and keeps it (``_X1``; see
    :meth:`_SchurKernel.enter`), and in the eigenbasis it is read anew as
    :meth:`X1b`.  Every fact is the plant's own A's and Q's, so none is
    keyed, and the plant holds no reference to the certificate.
    """

    def __init__(self, A, Q, cert=None, spectrum=None):
        self.spectrum = check_psd(Q, "Q") if spectrum is None else spectrum
        cert = certify_stability(A) if cert is None else cert  # raises UnstableGenerator
        self.A, self.Q = A, Q.copy()
        self.Q_bounds = _norm_bounds(self.Q)
        self.M, self.alpha = cert.M, cert.alpha
        self.trace_bound = trace_bound(cert, self.Q)
        self.basis = cert.eigh(A)
        self._X1 = None

    @classmethod
    def of(cls, cert, A, Q, spectrum=None):
        """The plant that ``cert`` keeps when it is the plant of A (the
        same array or an equal one) and Q (equal to the plant's copy);
        otherwise a new plant, which ``cert`` keeps instead."""
        plant = cert._plant
        if plant is None or not ((A is plant.A or np.array_equal(A, plant.A))
                                 and np.array_equal(Q, plant.Q)):
            plant = cls(A, Q, cert, spectrum)
            cert.keep(plant)
        return plant

    def X1b(self):
        """X1 in A's eigenbasis ``A = V diag(d) W``: ``W X1 W' = (-Qb) o C``,
        formed in O(n^2) on each call and not kept."""
        return -self.Qb * self.C

    @cached_property
    def Qb(self):
        """Q in A's eigenbasis ``A = V diag(d) W``: ``symmetrize(W Q W')``."""
        W = self.basis[2]
        return symmetrize(W @ self.Q @ W.T)

    @cached_property
    def Dsum(self):
        """``d_i + d_j``."""
        d = self.basis[0]
        return d[:, None] + d[None, :]

    @cached_property
    def C(self):
        """``1 / (d_i + d_j)``."""
        return 1.0 / self.Dsum

    @cached_property
    def round_trip(self):
        """Whether the basis can carry a solution back to the original
        basis within the stop test's gate.

        A cold start's first Newton-Kleinman iterate, mapped back from
        :meth:`X1b` as ``X1 = V X1b V'``, must pass the stop test's gate
        ``1e-10 (1 + ||Q||)`` in the original basis, where rounding in an
        ill-conditioned V is amplified by up to ``cond(V)``; a basis whose
        own X1 fails it is not taken."""
        V = self.basis[1]
        X1 = symmetrize(V @ self.X1b() @ V.T)
        M = self.A @ X1
        R = M + M.T
        R += self.Q
        return bool(_relative_within(R, RESIDUAL_RTOL, self.Q, self.Q_bounds))

    @cached_property
    def lam_min_Qb(self):
        """``lambda_min(Qb)``: ``lambda_min(Q)`` for an orthonormal V (cond
        1), whose ``Qb`` is an orthogonal congruence of Q, and
        ``eigvalsh(Qb)`` otherwise."""
        cond = self.basis[3]
        return float(self.spectrum[0] if cond == 1.0 else np.linalg.eigvalsh(self.Qb)[0])

    @cached_property
    def drift(self):
        """A bound on ``||V^{-1} A V - diag(d)||``: ``||W||_F ||A V - V
        diag(d)||_F``, eig's residual taken to the eigenbasis, where it
        perturbs the diagonal the kernel steps on."""
        d, V, W, _ = self.basis
        return _frobenius(W) * _frobenius(self.A @ V - V * d)

    @cached_property
    def gain_rounding(self):
        """The rounding coefficient of a warm start's gain (see
        :meth:`_EigenbasisKernel._step_floor`).  It reads ``||V W - I||_F``
        for the exact product of the stored V and W, bounded by
        ``||fl(V W) - I||_F + gamma_n ||V||_F ||W||_F`` (Higham's bound
        ``|fl(A B) - A B| <= gamma_n |A| |B|``); an orthonormal V has
        ``W = V'`` and is measured the same way."""
        d, V, W, _ = self.basis
        V_fro, W_fro = _frobenius(V), _frobenius(W)
        P = V @ W
        P.ravel()[::d.size + 1] -= 1.0  # V W - I
        g = _gamma(d.size)
        inverse_error = _frobenius(P) + g * V_fro * W_fro
        return W_fro * (2.0 * g + g * g + inverse_error + g * W_fro * V_fro)

    @cached_property
    def projection_rounding(self):
        """The rounding coefficient of a warm start's projection
        ``fl(fl(W X0) W')`` (see :meth:`_EigenbasisKernel._step_floor`)."""
        W, g = self.basis[2], _gamma(self.A.shape[0])
        return (2.0 * g + g * g) * _frobenius(W)**2  # two products in a chain


class _SchurKernel:
    """Newton-Kleinman steps on a real Schur form of each closed loop, for
    the plant's A and Q; the iterate is held in the original basis."""

    def __init__(self, plant, G):
        self.plant, self.G = plant, G
        self.A, self.Q, self.Q_bounds = plant.A, plant.Q, plant.Q_bounds
        self.schur_steps = 0

    def out(self, Xb):
        """The iterate Xb in the original basis."""
        return Xb

    def step(self, Xb, k):
        return self._solve_step(Xb, k)

    def enter(self, X0, tol):
        """``(Xb, step)``: the first iterate and its step from X0 in the
        iterate's basis, or None for the step when it is proved to exceed
        ``tol``.  From a warm start X0, given in the original basis, the
        first iterate is a Newton step.  From a cold start (X0 None, for 0)
        it is X1, the solution of ``A X1 + X1 A' = -Q``, which depends on
        neither G nor X0: the first cold start on the plant solves it by the
        same step from 0 (``A - 0 G = A`` and ``0 G 0 + Q = Q`` exactly) and
        keeps it there, and the later ones read a copy."""
        if X0 is not None:
            Xb = self._solve_step(X0, 1)
            return Xb, Xb - X0
        plant = self.plant
        if plant._X1 is None:
            plant._X1 = self._solve_step(np.zeros(self.A.shape), 1)
        X1 = plant._X1.copy()
        return X1, X1

    def fallback(self):
        """The kernel a stalled solve carries on with: this one."""
        return self

    def residual(self, X):
        """The residual the stop test reads at an iterate X, which is exactly
        symmetric, so ``A X + X A' = M + M'`` takes one product ``M = A X``;
        on a Schur form it is the strong residual.  Over the leading axis of
        a stack X on the eigenbasis kernel."""
        M = self.A @ X
        R = M + M.swapaxes(-1, -2)
        R -= self._xgx(X)
        R += self.Q
        return R

    def stops(self, X):
        """``(R, stop)``: the stop test's residual R at the iterate X and
        whether it passes the gate ``1e-10 (1 + ||Q||)`` less
        :meth:`residual_margin`, for X or each member of a stack X."""
        R = self.residual(X)
        return R, _relative_within(R, RESIDUAL_RTOL, self.Q, self.Q_bounds,
                                   self.residual_margin(X))

    def residual_margin(self, X):
        """What the stop test takes off its gate for the residual's distance
        from the strong one: none on a Schur form."""
        return 0.0

    def _xgx(self, X):
        return X @ self.G @ X

    def facts(self, residual_fro):
        """What a solution keeps of the kernel: nothing on a Schur form."""
        return None

    def _solve_step(self, X, k):
        """The step from X solved on a Schur form of its closed loop."""
        self.schur_steps += 1
        Acl = self.A - X @ self.G
        rhs = -symmetrize(X @ self.G @ X + self.Q)
        try:
            return symmetrize(solve_sylvester(Acl, rhs))
        except UnstableGenerator as err:
            # unreachable from X0 = 0 with stable A; surfaced defensively
            raise ClosedLoopUnstable(f"A - X_{k - 1} G lost stability: {err}") from err


class _Capacitance:
    """The closed loop ``D - F B'`` of a rank-r G in a real eigenbasis
    ``A = V diag(d) V^{-1}`` of A, solved through its (n r) x (n r)
    capacitance matrix.

    For symmetric S the Lyapunov equation

        (D - F B') Y + Y (D - B F') = S

    has ``Y = C o (S + F Z' + Z F')`` with ``C_ij = 1/(d_i + d_j)`` and
    ``Z = Y B`` the solution of the capacitance system.  Its trace-adjoint,
    the dual equation ``(D - B F') Y + Y (D - F B') = S``, has
    ``Y = C o (S + B U' + U B')`` with ``U = Y F``, and its capacitance
    matrix is the transpose of the first: the one ``matrix`` serves both,
    each solve one ``np.linalg.solve`` on it or on its transpose.

    B and F may carry a leading axis of members, each a closed loop of its
    own with its own capacitance matrix, solved in one stacked call; every
    product is then the per-member one bit for bit, and each member is
    gated on its own.  An exactly singular system leaves its member
    unsolved.
    """

    def __init__(self, Dsum, C, B, F, matrix=None):
        self.Dsum, self.C, self.B, self.F = Dsum, C, B, F
        self.matrix = self._matrix(C, B, F) if matrix is None else matrix

    def member(self, k):
        """The closed loop of member k, holding copies of its arrays only."""
        return _Capacitance(self.Dsum, self.C, self.B[k].copy(), self.F[k].copy(),
                            self.matrix[k].copy(order="F"))

    @staticmethod
    def _matrix(C, B, F):
        """``I - diag(F_b) C diag(B_a) - diag(C (F_b o B_a))`` in block (a, b),
        built in one (n r) x (n r) array in Fortran order, the layout LAPACK
        factors: its transpose, entry (b, j, a, i), is built in C order.
        The entries ``(b, i, a, i)`` of block diagonals and the diagonal are
        updated through strided views, without index arrays."""
        lead, (n, r) = F.shape[:-2], F.shape[-2:]
        if r == 1:  # the same products, bit for bit, on n x n arrays: half the time at n = 16
            Mt = C * F.swapaxes(-1, -2)
            Mt *= -B
            diag = Mt.reshape(lead + (-1,))[..., ::n + 1]
            diag -= np.matmul(C, B * F)[..., 0]
            diag += 1.0
            return Mt.swapaxes(-1, -2)
        Mt = np.empty(lead + (r, n, r, n))
        np.multiply(C[:, None, :], F.swapaxes(-1, -2)[..., None, None, :], out=Mt)  # C is symmetric
        Mt *= -B[..., None, :, :, None]  # = -((C F) B) bit for bit: rounding commutes with negation
        diag = np.matmul(C, (B[..., None] * F[..., None, :]).reshape(lead + (n, r * r)))
        diag = diag.reshape(lead + (n, r, r))
        blocks = Mt.reshape(lead + (r, r * n * n))
        for a in range(r):  # entry (b, i, a, i) sits at a n + i (r n + 1) in row b
            blocks[..., a * n::r * n + 1][..., :n] -= diag[..., a, :].swapaxes(-1, -2)
        Mt = Mt.reshape(lead + (n * r, n * r))
        Mt.reshape(lead + (-1,))[..., ::n * r + 1] += 1.0
        return Mt.swapaxes(-1, -2)

    def solve(self, S, adjoint=False):
        """``(Y, R, solved)``: the solution Y of the equation for symmetric S
        (the dual one with ``adjoint``), its residual R, and whether R passes
        the Sylvester gate, which it fails wherever Y is not finite, since
        no entry of Dsum is 0; for a batch, S is shared or one per member.
        A caller solves what fails the gate again on a Schur form."""
        left, right = (self.B, self.F) if adjoint else (self.F, self.B)
        Y = self._solve(S, adjoint)
        # R = S - Dsum o Y + W + W' with W = left (Y right)'; W' is formed as
        # its own product, not read strided.  Outer products go through
        # np.dot: matmul takes a slower loop at r = 1
        dot = _dot(left)
        P = Y @ right
        R = np.multiply(self.Dsum, Y)
        np.subtract(S, R, out=R)
        W = dot(left, P.swapaxes(-1, -2))
        R += W
        R += dot(P, left.swapaxes(-1, -2), out=W)
        return Y, R, _residual_within(R, S, _norm_bounds(S))

    def _solve(self, S, adjoint):
        n, r = self.B.shape[-2:]
        left, right = (self.B, self.F) if adjoint else (self.F, self.B)
        # each member's right side Z' = ((C o S) right)' as one vector
        Z = np.matmul(self.C * S, right).swapaxes(-1, -2).reshape(self.B.shape[:-2] + (r * n,))
        Z = _solve_members(self.matrix.swapaxes(-1, -2) if adjoint else self.matrix, Z)
        Z = Z.reshape(self.B.shape[:-2] + (r, n))
        # C o (S + T + T') with T = left Z'
        dot = _dot(left)
        Y = dot(left, Z)
        Y += S
        Y += dot(Z.swapaxes(-1, -2), left.swapaxes(-1, -2))
        Y *= self.C
        return Y


def _solve_members(M, b):
    """``M x = b`` for a matrix and a vector, or for each member of a stack
    of them in one stacked call; when it raises, each member is solved on
    its own, and an exactly singular one gets NaN."""
    try:
        return np.linalg.solve(M, b) if M.ndim == 2 else np.linalg.solve(M, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if M.ndim == 2:
            return np.full(b.shape, np.nan)
        return np.stack([_solve_members(Mk, bk) for Mk, bk in zip(M, b)])


def _gamma(n):
    """Higham's ``gamma_n = n u / (1 - n u)``, u the unit roundoff: a dot
    product of length n is computed within ``gamma_n`` times the dot product
    of the absolute values."""
    u = 0.5 * _EPS
    return n * u / (1.0 - n * u)


class _EigenbasisKernel(_SchurKernel):
    """Newton-Kleinman steps in the real eigenbasis ``A = V diag(d) W``,
    ``W = V^{-1}``, of a stable A, with ``G = B_G B_G'`` of rank r; for an
    exactly symmetric A, V is orthonormal and ``W = V'``.

    The iterate is held as ``Xb = W X W'``.  With ``B = V' B_G`` and
    ``F = Xb B`` a step's Lyapunov equation reads

        (D - F B') Y + Y (D - B F') = S,   S = -(F F' + W Q W'),

    solved on the closed loop's :class:`_Capacitance`: one (n r) x (n r)
    linear solve a step instead of a Schur form of the closed loop, which
    is similar to ``D - F B'`` through V.  A step is kept only when its
    residual passes the Sylvester gate, unrefined, and Lyapunov's theorem
    proves its closed loop stable: ``Y`` is positive definite and
    ``||R||_F + 2 drift ||Y||_F < lambda_min(W Q W')``, so the closed loop
    in the eigenbasis, ``D + Delta - F B'`` with eig's residual
    ``||Delta|| <= drift`` (see :attr:`Plant.drift`), satisfies
    ``Acl Y + Y Acl' = -(F F' + W Q W') - R + Delta Y + Y Delta' < 0``.  Any
    other step is solved again on the Schur form, which raises
    ClosedLoopUnstable or SingularSystem as it always has.  ``lam_min_Q`` is
    that proof's ``lambda_min(W Q W')``; the final closed loop's proof
    reads ``lambda_min(Q)`` (see :func:`closed_loop`).
    """

    def __init__(self, plant, G, factor):
        super().__init__(plant, G)
        self.G_factor, self.dropped = factor
        self.d, self.V, self.W, self.cond = plant.basis
        self.B = np.matmul(self.V.T, self.G_factor)
        self.Qb, self.lam_min_Q, self.drift = plant.Qb, plant.lam_min_Qb, plant.drift
        self.Dsum, self.C = plant.Dsum, plant.C

    @classmethod
    def build(cls, plant, G, factor):
        """The kernel for the plant's (A, Q) and G, or None unless A is
        stable with a real eigenbasis, Q positive definite, ``factor`` a
        pair ``(B, e)`` with ``G = B B' + E``, ``||E|| <= e`` and 1 to
        CAPACITANCE_MAX_RANK columns in B, E too small to matter, and the
        basis able to carry a solution back within the stop test's gate
        (see :attr:`Plant.round_trip`).  The eigenbasis is the plant's:
        the basis kept on A's certificate, or a fresh ``eigh`` of an exactly
        symmetric A.  ``factor`` comes from :func:`low_rank_psd`.

        The steps and the stop test's residual (:meth:`residual`) read
        ``B B' = G - E``, so the strong residual, read with G, differs from
        the tested one by ``X E X``; the stop test takes ``e ||X||_F^2`` off
        its gate (:meth:`residual_margin`), so the strong residual passes
        the gate whenever the tested one does.  The exact solution lies
        below the Lyapunov solution of (A, Q), whose norm is at most
        ``||Q||`` times the integral of ``||e^{At}||^2``; with
        ``||e^{At}|| <= cond(V) e^{d_max t}``, and ``<= M e^{-alpha t}`` on
        A's certificate, that integral is at most the smaller of
        ``cond(V)^2 / (2 |d_max|)`` and ``M^2 / (2 alpha)``.  The kernel is
        taken only when that bound keeps the margin within 1 % of the gate.

        For a batch, ``factor`` carries a leading axis of members whose
        factors share one rank r (G, read only by Schur steps, may be None);
        the kernel's ``admitted`` says which members the margin admits, and
        it is None when none is."""
        B, dropped = factor
        lam_Q = plant.spectrum
        if not 0 < B.shape[-1] <= CAPACITANCE_MAX_RANK:
            return None
        if not lam_Q[0] > plant.A.shape[0] * _EPS * lam_Q[-1]:
            return None
        if plant.basis is None or plant.basis[0][-1] >= 0.0:
            return None
        d, _, _, cond = plant.basis
        x_bound = min(cond**2 * lam_Q[-1] / (-2.0 * d[-1]),
                      lam_Q[-1] * plant.M**2 / (2.0 * plant.alpha))
        admitted = dropped * x_bound**2 <= 0.01 * RESIDUAL_RTOL * (1.0 + lam_Q[-1])
        if not (_any(admitted) and plant.round_trip):
            return None
        kernel = cls(plant, G, factor)
        kernel.admitted = admitted
        return kernel

    def into(self, X):
        return self.W @ X @ self.W.T

    def out(self, Xb):
        return symmetrize(self.V @ Xb @ self.V.T)

    def members(self, keep):
        """The kernel of the members of a batch that ``keep`` selects."""
        kernel = copy.copy(self)
        for name in ("G_factor", "dropped", "B"):
            setattr(kernel, name, getattr(self, name)[keep])
        return kernel

    def fallback(self):
        """A Schur kernel that carries on from an iterate in the original
        basis, counting the Schur forms this one took."""
        kernel = _SchurKernel(self.plant, self.G)
        kernel.schur_steps = self.schur_steps
        return kernel

    def residual_margin(self, X):
        """``e ||X||_F^2``, a bound on ``||X E X||`` (see :meth:`build`)."""
        return self.dropped * _frobenius(X) ** 2

    def _xgx(self, X):
        """``X B B' X`` from G's factor in the original basis, O(n^2 r): the
        residual is read on ``B B'`` (see :meth:`build`).  The outer product
        goes through np.dot, which forms it exactly symmetric; matmul takes
        a slower loop at r = 1."""
        F = X @ self.G_factor
        return _dot(F)(F, F.swapaxes(-1, -2))

    def step(self, Xb, k):
        Y, proved = self._capacitance_step(Xb @ self.B)
        return Y if proved else self.into(self._solve_step(self.out(Xb), k))

    def enter(self, X0, tol):
        """A cold start (X0 None) enters at X1 as :meth:`Plant.X1b` forms
        it, ``(-Qb) o C``: the first capacitance step from 0 bit for bit,
        whose capacitance matrix is the identity, and whose Lyapunov proof
        would only prove A stable, which A's certificate does.

        A step reads its iterate only through the gain ``F = Xb B``, and
        ``V W = I`` makes the gain of ``Xb = W X0 W'`` equal to
        ``W (X0 B_G)``: O(n^2 r), with no n^3 projection of X0.  The first
        iterate Y is taken from that gain (a step that is not proved is
        solved again on a Schur form of ``A - X0 G``), and its step test
        ``||Y - W X0 W'|| <= tol`` is decided from :meth:`_step_floor`.  Only
        when the floor leaves the test open is ``W X0 W'`` formed and the
        step ``Y - W X0 W'`` returned, for the test to decide as any other
        step (a warm start from the solution itself takes this path)."""
        if X0 is None:
            X1b = self.plant.X1b()
            return X1b, X1b
        F = self.W @ (X0 @ self.G_factor)
        Y, proved = self._capacitance_step(F)
        if not proved:
            Y = self.into(self._solve_step(X0, 1))
        if self._step_floor(Y, F, X0) > tol:
            return Y, None
        return Y, Y - self.into(X0)

    def _step_floor(self, Y, F, X0):
        """A lower bound on ``||fl(Y - fl(fl(W X0) W'))||``, the norm of the
        step the test would form from the projected warm start, read from
        the gain ``F = fl(W fl(X0 B_G))`` of X0 in O(n^2 r).

        For any M, ``||M B||_F <= ||M|| ||B||_F``.  Take ``M = Y - W X0 W'``
        (exact); with ``V W = I + Delta``,

            M B = (fl(Y B) - F) - E_YB + E_F - W X0 Delta' B_G - W X0 W' E_B,

        and by Higham's bound ``|fl(A B) - A B| <= gamma_n |A| |B|``,
        ``||E_YB||_F <= gamma_n ||Y||_F ||B||_F``, ``||E_F||_F <= (2 gamma_n +
        gamma_n^2) ||W||_F ||X0||_F ||B_G||_F`` and ``||E_B||_F <= gamma_n
        ||V||_F ||B_G||_F`` for ``B = fl(V' B_G)``: the last four terms are
        within ``gain_rounding ||X0||_F ||B_G||_F`` (see
        :attr:`Plant.gain_rounding`).  The projection ``fl(fl(W X0) W')`` is
        within ``projection_rounding ||X0||_F = (2 gamma_n + gamma_n^2)
        ||W||_F^2 ||X0||_F`` of ``W X0 W'``, and the subtraction rounds each
        entry of the step by at most u, so by ``sqrt(n) u`` of its norm.
        Every rounding term is taken at twice its bound, which covers the
        rounding of the norms and of the floor's own arithmetic."""
        plant = self.plant
        x_fro, b_fro = _frobenius(X0), _frobenius(self.B)
        D = Y @ self.B
        D -= F
        margin = (_gamma(self.d.size) * _frobenius(Y) * b_fro
                  + plant.gain_rounding * x_fro * _frobenius(self.G_factor))
        widening = _widening(self.d.size)
        floor = ((_frobenius(D) * (1.0 - widening) - 2.0 * margin)
                 / (b_fro * (1.0 + widening)) - 2.0 * plant.projection_rounding * x_fro)
        return floor * (1.0 - math.sqrt(self.d.size) * _EPS)

    def facts(self, residual_fro):
        """The kernel's facts for a solution whose strong residual has
        Frobenius norm ``residual_fro``."""
        return _EigenbasisFacts(self.plant, self.B, self.dropped, residual_fro)

    def _capacitance_step(self, F):
        """``(Y, proved)``: the next iterate from an iterate whose gain is
        ``F = Xb B``, and whether its step is proved; over the members of a
        batch, each proved on its own (Y is None when no member's is)."""
        S = _dot(F)(F, F.swapaxes(-1, -2))  # exactly symmetric (see _xgx)
        S += self.Qb
        np.negative(S, out=S)
        Y, R, proved = _Capacitance(self.Dsum, self.C, self.B, F).solve(S)
        if _any(proved):
            proved = proved & (_frobenius(R) + 2.0 * self.drift * _frobenius(Y) < self.lam_min_Q)
            proved = proved & _positive_definite(Y, proved)  # tried only where still proved
        return (Y, proved) if _any(proved) else (None, proved)


class ClosedLoop:
    """The closed loop of a Riccati solution X for (A, G), on which the
    multiplier and the state sensitivities are solved, built by
    :func:`closed_loop`.  It holds ``matrix = A' - G X``, formed once; the
    closed loop's capacitance in A's eigenbasis ``A = V diag(d) W`` when its
    stability is proved (``capacitance``, with the kernel's ``facts`` and
    ``x_fro = ||X||_F`` that its gate reads; None otherwise); and
    ``schur``, the real Schur form of ``matrix``, built on first need by
    :meth:`solve`.  For a batch, ``matrix``, the capacitance, the facts and
    ``x_fro`` hold one entry per member."""

    def __init__(self, matrix, capacitance=None, facts=None, x_fro=None):
        self.matrix, self.capacitance = matrix, capacitance
        self.facts, self.x_fro = facts, x_fro
        self.schur = None

    def member(self, k):
        """The closed loop of member k of a batch, holding copies of its
        arrays only."""
        return ClosedLoop(self.matrix[k].copy(), self.capacitance.member(k),
                          self.facts.member(k), float(self.x_fro[k]))

    def stable(self, read):
        """``read(matrix)``, with the UnstableGenerator it raises for a
        closed loop whose spectrum leaves the open left half-plane raised as
        ClosedLoopUnstable."""
        try:
            return read(self.matrix)
        except UnstableGenerator as err:
            raise ClosedLoopUnstable(f"A.T - G X is not stable: {err}") from err

    def solve(self, P, adjoint=False):
        """Y with ``(A - X G) Y + Y (A - X G)' = P`` for symmetric P, or with
        the dual operator ``(A' - G X) Y + Y (A - X G)`` when ``adjoint``.

        Y is taken from the capacitance when its solve passes its gate
        (:meth:`factored`), and otherwise from the Schur form of ``matrix``
        by ``trsyl``, the primal equation with both transpose flags flipped.
        The Schur form is built at most once, on the first right side the
        capacitance declines; it raises ClosedLoopUnstable when the closed
        loop's spectrum leaves the open left half-plane."""
        if self.capacitance is not None:
            Y, solved = self.factored(P, adjoint)
            if solved:
                return Y
        if self.schur is None:
            self.schur = self.stable(SylvesterFactor)
        return self.schur.solve(P, transpose=not adjoint)

    def factored(self, P, adjoint=False):
        """``(Y, solved)``: the solve of :meth:`solve` on the capacitance
        alone, and whether Y passes the Sylvester gate (for a batch, P is
        shared or one per member).

        The equation is solved in the eigenbasis: the primal one on
        ``W P W'`` with ``Y = V Yb V'``, the dual one on ``V' P V`` with
        ``Y = W' Yb W``.  For an orthonormal V those congruences keep every
        norm, so the capacitance solve's own gate is the original one, and
        G's dropped part E, which enters the residual as ``E X Y + Y X E``,
        may move it by at most 1 % of the gate.  Any other V moves norms by
        up to its condition number: the symmetrized Y is then taken only
        when its residual on ``matrix`` itself (transposed for the primal
        equation), with the true G, passes the gate."""
        _, V, W, cond = self.facts.plant.basis
        into, out = (V.T, W.T) if adjoint else (W, V)
        S = symmetrize(into @ P @ into.T)
        Yb, _, solved = self.capacitance.solve(S, adjoint)
        if not _any(solved):
            return None, solved
        if cond == 1.0:
            solved = solved & (2.0 * self.facts.dropped * self.x_fro * _frobenius(Yb)
                               <= 0.01 * SYLVESTER_RTOL * (1.0 + _norm_bounds(S)[0]))
            return out @ Yb @ out.T, solved
        Y = symmetrize(out @ Yb @ out.T)
        M = (self.matrix if adjoint else self.matrix.swapaxes(-1, -2)) @ Y
        R = P - M
        R -= M.swapaxes(-1, -2)
        return Y, solved & _residual_within(R, P, _norm_bounds(P))


def closed_loop(A, G, X, facts=None):
    """``(loop, proved)``: the :class:`ClosedLoop` at a solution X of the
    Riccati equation for (A, G, Q), and whether it is proved stable, and so
    solved in A's eigenbasis.  ``facts`` are the eigenbasis kernel's at X
    (``RiccatiSolution.eigenbasis``, for these A and G); without them
    nothing is proved, and the loop's solves take its Schur form.  Over the
    members of a batch, G and X are stacks on a leading member axis, and
    ``facts``, for a stacked X only, is the list of the members' facts,
    which are stacked here.

    Lyapunov's theorem proves the closed loop stable, in the original
    basis: with ``G = B B' + E``, ``||E|| <= e``, and R_B the residual at X
    on ``B B'`` (the one the stop test formed),

        (A - X G) X + X (A - X G)' = -(Q + X B B' X) + R_B - 2 X E X,

    and ``||X E X||_F <= e ||X||_F^2``, so the right side is negative
    definite when ``||R_B||_F + 2 e ||X||_F^2 < lambda_min(Q)``; with X
    positive definite (:func:`_positive_definite`) the closed loop is
    stable.  A proved loop keeps its capacitance matrix; a solve that the
    matrix declines (an exactly singular system, or a failed gate) takes
    the Schur form instead.  In the eigenbasis the closed loop is
    ``D - F B'`` with ``F = (W X W') B``.  Beyond ``A' - G X``, the work is
    O(n^2 r) plus the positive-definiteness test of X, the capacitance
    matrix and the products that form F; no Schur form is taken.
    """
    matrix = A.T - G @ X
    if facts is None:
        return ClosedLoop(matrix), False
    if X.ndim > 2:
        facts = _EigenbasisFacts.stack(facts)
    plant = facts.plant
    x_fro = _frobenius(X)
    proved = facts.residual_fro + 2.0 * facts.dropped * x_fro**2 < plant.spectrum[0]
    proved = proved & _positive_definite(X, proved)  # tried only where the proof holds
    if not _any(proved):
        return ClosedLoop(matrix), proved
    W = plant.basis[2]
    F = W @ (X @ (W.T @ facts.B))
    return ClosedLoop(matrix, _Capacitance(plant.Dsum, plant.C, facts.B, F), facts, x_fro), proved


def solve_are(A, G, Q, tol=DEFAULT_STEP_TOL, cert=None, keep_history=False, X0=None):
    """Solve the Riccati equation by Newton-Kleinman from X0 (default 0).

    Each step solves the Lyapunov equation

        (A - Xk G) X_{k+1} + X_{k+1} (A - Xk G).T = -(Xk G Xk + Q).

    When A is stable with a real, well-conditioned eigenbasis
    ``A = V diag(d) V^{-1}`` (orthonormal for an exactly symmetric A), Q is
    positive definite and G of numerical rank 1 to CAPACITANCE_MAX_RANK (the
    rest of G too small to move the residual test below), the steps run in
    A's eigenbasis on a rank-r capacitance system, and each is kept only
    when Lyapunov's theorem proves its closed loop stable (see
    :class:`_EigenbasisKernel`); an unproved step is solved again as below.
    The eigenbasis is the one kept on A's certificate (or a fresh ``eigh``
    of a symmetric A), and is taken only when the first iterate of a cold
    start, built in it, passes the residual gate below in the original
    basis (see :attr:`Plant.round_trip`).  G's factor comes from at most
    CAPACITANCE_MAX_RANK pivoted Cholesky steps (:func:`low_rank_psd`),
    which also prove G PSD, and is the only route into the eigenbasis;
    when they give none, ``check_psd(G, "G")`` decides G.
    Otherwise each step is solved from one real Schur factorization of the
    closed loop ``A - Xk G``, which also certifies its spectrum:
    ClosedLoopUnstable is raised when that spectrum leaves the open left
    half-plane.  Iteration stops once the step norm is <= tol *and* the
    residual in the original basis is within ``1e-10 (1 + ||Q||)``.  That
    residual takes one n^3 product, ``M = A X``, since
    ``A X + X A' = M + M'`` for the symmetric iterate; on the eigenbasis
    kernel ``X G X`` is read from G's rank-r factor as ``(X B)(X B)'``, and
    the gate is lowered by a bound on what G's dropped part moves the
    strong residual by (see :meth:`_EigenbasisKernel.build`).  When two
    stop tests in a row pass the step test but fail the residual gate on
    the eigenbasis kernel, its steps no longer move the residual: the solve
    carries on from the iterate in the original basis on Schur steps.  Both tests
    are decided as SVDs would decide them, from norm bounds, with an SVD
    only where the bounds leave a test open; the solution's ``strong_residual``, the operator norm
    of ``A X + X A' - X G X + Q`` with the true G, is computed when first
    read.
    X0 = 0 is admissible because A itself is required to be stable
    (certified on entry); any other X0 must keep A - X0 G stable (e.g. a warm
    start from a nearby instance).  On the eigenbasis kernel a warm start
    enters through its gain ``W (X0 B_G)``, O(n^2 r), and its first step
    test is decided from a lower bound on the step, read from that gain;
    ``W X0 W'`` (two n^3 products) is formed only when the bound leaves the
    test open (see :meth:`_EigenbasisKernel.enter`).  From X0 = 0 the first
    iterate X1 solves ``A X1 + X1 A' = -Q`` whatever G is, so both kernels
    read it off the :class:`Plant` of (A, Q) through ``enter``: in the
    eigenbasis as ``(-Qb) o C``, O(n^2), and on Schur steps as the
    solution that the first cold start on the plant solves and keeps, so
    every cold start that shares A, its certificate and Q takes one Schur
    form of A between them.  X1 still counts in ``newton_iters``;
    ``schur_steps`` on the solution counts the Schur forms the solve
    actually took, X1 included when this solve formed it.  A solve that
    finishes on the eigenbasis kernel keeps its facts on the solution
    (``eigenbasis``), from which :func:`closed_loop` proves the final
    closed loop stable for the multiplier.

    G, Q and X0 must have A's shape and tol must be positive: both are
    checked, with ValueError, before any other work.

    Parameters
    ----------
    cert : StabilityCertificate, optional
        Reuse a certificate for A instead of recomputing one.  The solve
        reads the certificate's :class:`Plant` when it is the plant of A
        and Q, and builds and keeps a new one otherwise (see
        :meth:`Plant.of`), so Q's PSD test, Q's facts in A's eigenbasis and
        a cold start's X1 are taken once per path.
    keep_history : bool
        Record the iterate sequence (X1, X2, ...) on the solution.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    A = ensure_operator(A, "A")
    G, Q = ensure_operator(G, "G", A), ensure_operator(Q, "Q", A)
    X0 = None if X0 is None else ensure_operator(X0, "X0", A)
    factor = _factor(G)
    plant = Plant(A, Q) if cert is None else Plant.of(cert, A, Q)
    kernel = (factor and _EigenbasisKernel.build(plant, G, factor)) or _SchurKernel(plant, G)

    history = [] if keep_history else None
    stalled = False
    for k in range(1, MAX_NEWTON_ITERS + 1):
        if k == 1:  # a warm start's symmetrized copy is let go once it has entered
            Xb, step = kernel.enter(None if X0 is None else symmetrize(X0), tol)
        else:
            Xb_next = kernel.step(Xb, k)
            step = Xb_next - Xb
            Xb = Xb_next
        if history is not None:
            history.append(np.array(kernel.out(Xb)))
        if step is None or not norm_within(step, tol):
            stalled = False
            continue
        X = kernel.out(Xb)
        R, stop = kernel.stops(X)
        if stop:
            break
        if stalled:  # two stop tests in a row failed only the residual gate
            kernel, Xb = kernel.fallback(), X
        stalled = True
    else:
        raise NewtonStall(
            f"step norm {operator_norm(step):.3e} after {MAX_NEWTON_ITERS} "
            f"iterations (tol={tol:.1e})")

    return RiccatiSolution.of(plant, X, k, (A, G, Q), schur_steps=kernel.schur_steps,
                              history=history, eigenbasis=kernel.facts(_frobenius(R)))


def _factor(G):
    """G's factor ``(B, e)`` from :func:`low_rank_psd`, which proves G PSD,
    or None when ``check_psd`` decides G (ValueError unless it is PSD)."""
    factor = low_rank_psd(G, CAPACITANCE_MAX_RANK, "G")
    if not factor:
        check_psd(G, "G")
    return factor


def solve_are_batch(plant, Gs):
    """For each G of the list Gs, the RiccatiSolution that the cold
    ``solve_are(plant.A, G, plant.Q)`` returns on the plant, or None for a G
    whose solve left the batch; a G that solve_are refuses raises its
    ValueError.

    The members, the Gs whose factor has the most common rank and passes
    the eigenbasis kernel's margin, share one kernel with their factors and
    iterates on a leading axis, and step in lockstep from the plant's X1
    through the single solve's steps, stop test and gates, each member on
    its own with its own linear solve, so each solution is the single
    solve's bit for bit.  A member leaves where its single solve would
    leave the eigenbasis: an unproved step, a second stop test in a row
    that fails only the residual gate, or MAX_NEWTON_ITERS steps.
    """
    A, Q = plant.A, plant.Q
    Gs = [ensure_operator(G, "G", A) for G in Gs]
    factors = {m: factor for m, factor in enumerate(map(_factor, Gs)) if factor}
    solutions = [None] * len(Gs)
    if not factors:
        return solutions
    rank = Counter(B.shape[1] for B, _ in factors.values()).most_common(1)[0][0]
    live = np.array([m for m, (B, _) in factors.items() if B.shape[1] == rank])
    # the members' G is read only by Schur steps, which a member leaves for
    kernel = _EigenbasisKernel.build(
        plant, None,
        (np.stack([factors[m][0] for m in live]), np.array([factors[m][1] for m in live])))
    if kernel is None:
        return solutions
    kernel, live = kernel.members(kernel.admitted), live[kernel.admitted]
    # step k = 1 is X1 itself, every member's (see _EigenbasisKernel.enter)
    X1b = plant.X1b()
    Xb = np.broadcast_to(X1b, (live.size,) + A.shape)
    proved = np.ones(live.size, dtype=bool)
    tested = np.full(live.size, norm_within(X1b, DEFAULT_STEP_TOL))
    stalled = np.zeros(live.size, dtype=bool)
    # a member that fails a gate may carry non-finite values until it leaves
    with np.errstate(all="ignore"):
        for k in range(1, MAX_NEWTON_ITERS + 1):
            if k > 1:
                Y, proved = kernel._capacitance_step(np.matmul(Xb, kernel.B))
                if Y is None:
                    break
                tested = proved & norm_within(Y - Xb, DEFAULT_STEP_TOL)
                Xb = Y
            done = np.zeros(live.size, dtype=bool)
            if _any(tested):
                stopping = kernel.members(tested)
                X = stopping.out(Xb[tested])
                R, stop = stopping.stops(X)
                facts = stopping.facts(_frobenius(R))
                for j, m in enumerate(live[tested]):
                    if stop[j]:
                        solutions[m] = RiccatiSolution.of(plant, X[j].copy(), k, (A, Gs[m], Q),
                                                          eigenbasis=facts.member(j))
                done[tested] = stop | stalled[tested]
                stalled[tested] = True
            stalled &= tested
            keep = proved > done
            if not _any(keep):
                break
            if not keep.all():
                kernel, live, Xb, stalled = kernel.members(keep), live[keep], Xb[keep], stalled[keep]
    return solutions


def verify_are(A, G, Q, sol, cert, horizon, nodes):
    """Re-verify a Riccati solution against its defining identities.

    Checks (i) the strong residual, (ii) the integral-form residual
    ``||X - int_0^h exp(At)(Q - XGX)exp(A.T t) dt||`` via the quadrature
    oracle, (iii) the trace bound ``tr X <= M^2/(2 alpha) tr Q``, and
    (iv) symmetry / PSD of X.  ``cert`` is A's certificate; the quadrature
    reuses it, so nothing is certified here.  The strong residual is
    computed on every call, before the quadrature, from the ``X G X`` that
    the integrand reads too, and that product is let go before the
    quadrature runs; on the solution's own operands it is the solution's
    ``strong_residual``.  ``||X||`` in ``bochner_residual_rel`` is
    ``max(|lambda_min|, |lambda_max|)`` of the ``eigvalsh(X)`` that the
    PSD test reads (an SVD only for an X that is not symmetric), so the
    report takes two SVDs: the strong residual's and ``||X - X_quad||``.
    Returns the full report and leaves ``sol`` as it was; ValueError first
    unless A, G and Q are admitted operators of A's shape (``ensure_operator``).
    """
    A = ensure_operator(A, "A")
    G, Q = ensure_operator(G, "G", A), ensure_operator(Q, "Q", A)
    X = sol.X
    XGX = X @ G @ X
    strong = riccati_residual(A, G, Q, X, XGX)
    integrand = symmetrize(Q - XGX)
    del XGX  # negated in place too: the quadrature runs with one n x n array of verify_are's
    X_quad = bochner_quadrature(A, np.negative(integrand, out=integrand), horizon, nodes,
                                cert=cert)
    bochner_abs = operator_norm(X - X_quad)

    tr_X = float(np.trace(X))
    tr_bound = trace_bound(cert, Q)
    sym_ok, psd_ok, spectrum = _psd_spectrum(X)
    x_norm = operator_norm(X) if spectrum is None else float(max(-spectrum[0], spectrum[-1]))
    return AREVerification(
        strong_residual=strong,
        bochner_residual=bochner_abs,
        bochner_residual_rel=bochner_abs / (1.0 + x_norm),
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
    ValueError first unless A, G and Q are admitted operators of A's shape.
    """
    A = ensure_operator(A, "A")
    G, Q = ensure_operator(G, "G", A), ensure_operator(Q, "Q", A)
    n = A.shape[0]
    H = np.block([[A.T, -G], [-Q, -A]])
    import scipy.linalg as spla

    _, Z, sdim = spla.schur(H, output="real", sort="lhp")
    if sdim != n:
        raise UnstableGenerator(
            f"Hamiltonian has {sdim} stable eigenvalues, expected {n}")
    U1 = Z[:n, :n]
    U2 = Z[n:, :n]
    return symmetrize(np.linalg.solve(U1.T, U2.T).T)
