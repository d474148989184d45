from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg as spla
from scipy.linalg import _decomp_schur
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.integrate import quad

from riccati_place import linalg, semigroup
from riccati_place.errors import HorizonTooShort, SingularSystem, UnstableGenerator
from riccati_place.linalg import (
    SylvesterFactor,
    bochner_quadrature,
    check_psd,
    check_symmetric,
    low_rank_psd,
    matrix_exponential,
    norm_within,
    norms,
    operator_norm,
    psd_flags,
    solve_sylvester,
)

from conftest import (
    count_calls,
    gram_members,
    heat1d,
    rand_orthogonal,
    rand_psd,
    rand_stable,
    rand_stable_symmetric,
)


class TestMatrixExponential:
    def test_zero_generator_is_identity(self):
        assert np.array_equal(matrix_exponential(np.zeros((2, 2)), 5.0), np.eye(2))

    def test_scalar_log2(self):
        E = matrix_exponential(np.array([[np.log(2.0)]]), 1.0)
        assert abs(E[0, 0] - 2.0) < 1e-14

    def test_diagonal(self):
        E = matrix_exponential(np.diag([-1.0, -2.0]), 1.0)
        np.testing.assert_allclose(np.diag(E), [np.exp(-1), np.exp(-2)], rtol=1e-14)
        assert abs(E[0, 1]) < 1e-15 and abs(E[1, 0]) < 1e-15

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            matrix_exponential(np.array([[np.nan]]), 1.0)
        with pytest.raises(ValueError):
            matrix_exponential(np.eye(2), np.inf)
        with pytest.raises(ValueError):
            matrix_exponential(np.eye(2), -1.0)

    def test_semigroup_property(self, rng):
        # exp(A(t+s)) == exp(At) exp(As) within 1e-10 relative on sampled t, s
        for _ in range(5):
            A = rand_stable(4, rng)
            for t, s in rng.uniform(0.0, 5.0, (8, 2)):
                lhs = matrix_exponential(A, t + s)
                rhs = matrix_exponential(A, t) @ matrix_exponential(A, s)
                err = operator_norm(lhs - rhs)
                assert err <= 1e-10 * (1.0 + operator_norm(lhs))


class TestSolveSylvester:
    def test_scalar_cross_checked_against_integral(self):
        T = solve_sylvester(np.array([[-1.5]]), np.array([[6.0]]))
        assert abs(T[0, 0] - (-2.0)) < 1e-13
        # independent oracle: -int_0^inf e^{-1.5 t} 6 e^{-1.5 t} dt
        integral, _ = quad(lambda t: np.exp(-1.5 * t) * 6.0 * np.exp(-1.5 * t), 0, np.inf)
        assert abs(T[0, 0] - (-integral)) < 1e-10

    def test_zero_data(self):
        T = solve_sylvester(-np.eye(2), np.zeros((2, 2)))
        assert np.allclose(T, 0.0, atol=1e-15)

    def test_scalar_lyapunov_form(self):
        T = solve_sylvester(np.array([[-1.0]]), np.array([[-4.0]]))
        assert abs(T[0, 0] - 2.0) < 1e-13

    def test_unstable_generator_rejected(self):
        with pytest.raises(UnstableGenerator):
            solve_sylvester(np.array([[1.0]]), np.array([[1.0]]))
        with pytest.raises(UnstableGenerator):
            solve_sylvester(np.array([[0.0]]), np.array([[1.0]]))

    def test_near_singular_generator_rejected(self):
        # a stable spectrum, but an eigenvalue sum cancels relative to the norm
        with pytest.raises(SingularSystem):
            solve_sylvester(np.diag([-1e-13, -1e3]), np.eye(2))

    def test_residual_contract(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 9))
            A = rand_stable(n, rng)
            P = rng.standard_normal((n, n))
            T = solve_sylvester(A, P)
            res = operator_norm(A @ T + T @ A.T - P)
            assert res <= 1e-10 * (1.0 + operator_norm(P))

    @pytest.mark.parametrize("n", [2, 7, 32])
    def test_bit_identical_to_scipy(self, n, rng):
        A = rand_stable(n, rng)
        P = rng.standard_normal((n, n))
        T = solve_sylvester(A, P)
        assert np.array_equal(T, spla.solve_sylvester(A, A.T, P))

    @pytest.mark.parametrize("n", [2, 7, 32])
    def test_exactly_symmetric_generator_bit_identical_to_scipy(self, n, rng):
        # A = A' exactly: scipy's second Schur form is of the same matrix
        S = rand_psd(n, rng)
        A = -0.5 * (S + S.T) - 0.5 * np.eye(n)
        assert np.array_equal(A, A.T)
        P = rng.standard_normal((n, n))
        T = solve_sylvester(A, P)
        assert np.array_equal(T, spla.solve_sylvester(A, A.T, P))

    def test_one_schur_form_per_solve(self, monkeypatch, rng):
        A = rand_stable(6, rng)
        P = rng.standard_normal((6, 6))
        schur = count_calls(monkeypatch, "_real_schur", linalg)
        eigvals = count_calls(monkeypatch, "eigvals", np.linalg)
        solve_sylvester(A, P)
        assert len(schur) == 1
        assert len(eigvals) == 0

    @pytest.mark.parametrize("n", [1, 2, 7, 32])
    def test_factor_serves_both_transposes(self, monkeypatch, n, rng):
        A = rand_stable(n, rng)
        Ps = [rng.standard_normal((n, n)) for _ in range(3)]
        schur = count_calls(monkeypatch, "_real_schur", linalg)
        factor = SylvesterFactor(A)
        plain = [factor.solve(P) for P in Ps]
        transposed = [factor.solve(P, transpose=True) for P in Ps]
        assert len(schur) == 1  # a 1x1 generator takes one too
        monkeypatch.undo()
        for P, T, Tt in zip(Ps, plain, transposed):
            assert np.array_equal(T, solve_sylvester(A, P))
            ref = solve_sylvester(A.T, P)
            assert operator_norm(Tt - ref) <= 1e-12 * operator_norm(ref)
            assert operator_norm(A.T @ Tt + Tt @ A - P) <= 1e-10 * (1.0 + operator_norm(P))

    def test_tolerance_gates_take_no_svd(self, monkeypatch, rng):
        As = [rand_stable(6, rng) for _ in range(2)]
        P = rng.standard_normal((6, 6))
        norms_taken = count_calls(monkeypatch, "operator_norm", linalg)
        for A in As:
            solve_sylvester(A, P)
        assert len(norms_taken) == 0

    def test_separation_guard_between_frobenius_bounds(self):
        # ||A|| = 1e3 and ||A||_F = 2e3, so the guard's tolerance 2e-9 lies
        # below its Frobenius bound 4e-9: eigenvalue sums in between must
        # still be decided by the operator norm
        def diag(small):
            return np.diag([small, -1e3, -1e3, -1e3, -1e3])

        T = solve_sylvester(diag(-1.5e-9), np.eye(5))
        assert T[0, 0] == pytest.approx(1.0 / -3e-9, rel=1e-12)
        with pytest.raises(SingularSystem):
            solve_sylvester(diag(-0.9e-9), np.eye(5))

    @staticmethod
    def rotations(n, rng):
        """A non-normal stable A with a complex pair per 2x2 diagonal block,
        damped less than its real eigenvalue (odd n), coupled by a strictly
        upper triangular part and rotated."""
        A = np.triu(rng.standard_normal((n, n)), 1) - np.diag(rng.uniform(1.0, 2.0, n))
        for i in range(0, n - 1, 2):
            a, omega = -rng.uniform(0.01, 1.0), rng.uniform(0.5, 3.0)
            A[i:i + 2, i:i + 2] = [[a, omega], [-omega, a]]
        U = rand_orthogonal(n, rng)
        return U @ A @ U.T

    @pytest.mark.parametrize("n", [2, 7, 32])
    def test_separation_is_the_all_pairs_minimum(self, n, rng):
        # the guard's -2 max Re lambda against min |lambda_i + lambda_j| over
        # all pairs, bit for bit, on generic generators and on generators
        # whose rightmost eigenvalues are a complex pair
        for make in (rand_stable, self.rotations):
            for _ in range(50):
                lam = linalg._real_schur(make(n, rng))[2]
                assert linalg._min_pair_sum(lam) == np.abs(lam[:, None] + lam[None, :]).min()
            assert lam[lam.real.argmax()].imag != 0.0 or make is rand_stable

    @pytest.mark.parametrize("n", [2, 7, 32])
    def test_schur_form_is_scipys_bit_for_bit(self, n, rng):
        # a non-normal A with complex pairs: rotations coupled by a strictly
        # upper triangular part
        A = np.triu(rng.standard_normal((n, n)), 1) - np.eye(n)
        for i in range(0, n - 1, 2):
            A[i:i + 2, i:i + 2] = [[-1.0 - i, 1.0 + i], [-2.0 - i, -1.0 - i]]
        U = rand_orthogonal(n, rng)
        A = U @ A @ U.T
        T, U, lam = linalg._real_schur(A)
        T_ref, U_ref = spla.schur(A, output="real")
        assert T.tobytes() == T_ref.tobytes() and U.tobytes() == U_ref.tobytes()
        assert np.count_nonzero(lam.imag) >= 2 * (n // 2)
        assert np.abs(np.sort_complex(lam) - np.sort_complex(np.linalg.eigvals(A))).max() \
            <= 1e-10 * np.abs(lam).max()

    def test_one_by_one_schur_form_is_scipys(self, rng):
        A = np.array([[-rng.uniform(0.1, 10.0)]])
        T, U, lam = linalg._real_schur(A)
        T_ref, U_ref = spla.schur(A, output="real")
        assert T.tobytes() == T_ref.tobytes() and U.tobytes() == U_ref.tobytes()
        assert lam.tolist() == [complex(A[0, 0])]

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0), st.booleans())
    def test_one_by_one_solve_is_the_quotient(self, log_a, log_p, negative_p):
        # gees and trsyl on a 1x1 generator: T = P / (a + a) bit for bit,
        # for |a| and |P| from 1e-5 to 1e5
        a, P = -10.0**log_a, np.array([[(-1.0 if negative_p else 1.0) * 10.0**log_p]])
        T = solve_sylvester(np.array([[a]]), P)
        assert T.tobytes() == (P / (a + a)).tobytes()

    def test_failed_schur_form_raises_linalg_error(self, monkeypatch):
        # the gees call inside scipy.linalg.schur fails to converge (info > 0)
        def gees(select, A, lwork=None, **kwargs):
            work = np.array([4.0 * A.shape[0]])
            return A, 0, None, None, np.eye(A.shape[0]), work, 0 if lwork == -1 else 1

        monkeypatch.setattr(_decomp_schur, "get_lapack_funcs", lambda names, arrays: (gees,))
        with pytest.raises(spla.LinAlgError, match="Schur form not found"):
            solve_sylvester(-np.eye(2), np.eye(2))

    def test_residual_missing_the_gate_after_both_refinements_raises(self, monkeypatch):
        # a back end that solves nothing leaves the residual at P = I: the
        # solve and both refinements miss the gate, and the error words the
        # last residual against 1e-10 (1 + ||P||)
        factor = SylvesterFactor(-np.eye(3))
        solves = []
        monkeypatch.setattr(SylvesterFactor, "_trsyl",
                            lambda self, P, transpose: solves.append(P) or np.zeros_like(P))
        with pytest.raises(SingularSystem, match=r"^Sylvester residual 1\.000e\+00 exceeds "
                                                 r"2\.000e-10 after refinement; system too "
                                                 r"ill-conditioned$"):
            factor.solve(np.eye(3))
        assert len(solves) == 3

    def test_complex_spectra_read_off_schur_blocks(self):
        # spectrum -damping +- i, one 2x2 Schur block: the pair and its
        # conjugate sum to -2 damping, so the guard rejects the nearly
        # undamped rotation and passes the damped one
        def damped_rotation(damping):
            return np.array([[-damping, 1.0], [-1.0, -damping]])

        with pytest.raises(SingularSystem):
            solve_sylvester(damped_rotation(1e-14), np.eye(2))
        A = damped_rotation(1e-3)
        T = solve_sylvester(A, np.eye(2))
        assert operator_norm(A @ T + T @ A.T - np.eye(2)) <= 2e-10


class TestNormWithin:
    @pytest.mark.parametrize("rank", [1, 6])
    def test_agrees_with_operator_norm(self, rank, rng):
        n = 6
        for _ in range(10):
            R = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, n))
            sigma = operator_norm(R)
            fro = float(np.linalg.norm(R))
            tols = [sigma * (1.0 - 1e-3), sigma * (1.0 + 1e-3),
                    *np.linspace(fro / np.sqrt(n), fro, 9)]
            for tol in tols:
                assert norm_within(R, tol) == (operator_norm(R) <= tol)

    def test_frobenius_bounds_decide_without_svd(self, monkeypatch, rng):
        R = rng.standard_normal((5, 5))
        fro = float(np.linalg.norm(R))
        svds = count_calls(monkeypatch, "svd", np.linalg)
        assert norm_within(R, fro)
        assert not norm_within(R, 0.99 * fro / np.sqrt(5))
        assert len(svds) == 0


    @pytest.mark.parametrize("n", [16, 256, 1024])
    def test_widening_covers_the_rounding_of_a_frobenius_sum(self, n):
        # a sum of n^2 squares is off by at most gamma_{n^2} relative, its
        # square root by about half that (Higham, Sec. 3.1); 1e-12 alone
        # falls short of it from n = 135 on
        nu = n * n * np.finfo(float).eps / 2.0
        assert linalg._widening(n) >= nu / (1.0 - nu) / 2.0
        T = np.ones((n, 2))
        fro = float(np.linalg.norm(T))
        assert linalg._norm_bounds(T)[1] == fro * (1.0 + linalg._widening(n))
        assert linalg._norm_bounds(T[None])[1][0] == fro * (1.0 + linalg._widening(n))

    def test_frobenius_norm_is_numpys_bit_for_bit(self, rng):
        T = rng.standard_normal((9, 7))
        for view in (T, T.T, T[::2, 1::3], np.asfortranarray(T), T[:1, :1], T[:0, :0]):
            assert linalg._frobenius(view) == float(np.linalg.norm(view))

    def test_power_brackets_decide_between_frobenius_bounds(self, monkeypatch):
        # ||R|| = 1 and ||R||_F = 1.5 at n = 6: tolerances 0.9 and 1.2 lie
        # between the Frobenius bounds 0.61 and 1.5, and the power-step
        # brackets (lower ~1, upper ||R'R||_F^(1/2) = 1.07) settle both
        R = np.diag([1.0, 0.5, 0.5, 0.5, 0.5, 0.5])
        lo, hi = linalg._norm_bounds(R)
        assert lo < 0.9 and 1.2 < hi
        norms_taken = count_calls(monkeypatch, "operator_norm", linalg)
        assert norm_within(R, 1.2) and not norm_within(R, 0.9)
        assert len(norms_taken) == 0
        # a tolerance inside the power-step brackets is left to the SVD
        assert norm_within(R, 1.0) and not norm_within(R, np.nextafter(1.0, 0.0))
        assert len(norms_taken) == 2

    @staticmethod
    def instances(rng, n):
        """Symmetric definite, symmetric indefinite and non-symmetric S."""
        U = rand_orthogonal(n, rng)
        definite = (U * rng.uniform(0.1, 2.0, n)) @ U.T
        indefinite = (U * rng.uniform(-2.0, 2.0, n)) @ U.T
        return [0.5 * (definite + definite.T), 0.5 * (indefinite + indefinite.T),
                rng.standard_normal((n, n))]

    RELS = (-0.3, -1e-6, -1e-12, -4e-13, -1e-13, 0.0, 1e-13, 4e-13, 1e-12, 1e-6, 0.3)

    @pytest.mark.parametrize("n", [5, 16, 64])
    def test_decisions_near_tol_are_the_svds(self, rng, n):
        # tolerances within 1e-12 relative of ||S|| (and farther), for each
        # matrix alone and for the stack of them
        for _ in range(4):
            stack = np.array(self.instances(rng, n))
            sigma = operator_norm(stack)
            for rel in self.RELS:
                tol = sigma * (1.0 + rel)
                expected = sigma <= tol
                assert [norm_within(S, t) for S, t in zip(stack, tol)] == list(expected)
                assert list(norm_within(stack, tol)) == list(expected)
        # the gates that compare with a norm: each threshold is put at
        # ||T|| (1 + rel) by a fixed point (||T|| barely moves with the
        # entry set), and each decision must be the one the SVD's norm gives
        definite, indefinite, general = self.instances(rng, n)
        A, cert = -np.eye(n), semigroup.certify_stability(-np.eye(n))
        N = np.triu(rng.standard_normal((n, n)), 1)
        for rel in self.RELS:
            for S in (definite, indefinite):  # the symmetry gate: skew T[0, 1]
                T = S.copy()
                T[1, 0] = 0.0
                for _ in range(2):
                    T[0, 1] = linalg.SYMMETRY_RTOL * (1.0 + operator_norm(T) * (1.0 + rel))
                fails = np.max(np.abs(T - T.T)) > linalg.SYMMETRY_RTOL * (1.0 + operator_norm(T))
                assert psd_flags(T)[0] == (not fails)
            # the PSD gate: -mu, split off from a definite block, is T's exact
            # lambda_min
            T = np.zeros((n, n))
            T[:-1, :-1] = definite[:-1, :-1]
            for _ in range(2):
                T[-1, -1] = -linalg.PSD_RTOL * (1.0 + operator_norm(T) * (1.0 + rel))
            fails = -np.linalg.eigvalsh(T)[0] > linalg.PSD_RTOL * (1.0 + operator_norm(T))
            assert psd_flags(T) == (True, not fails)
            # the separation guard: min |lambda_i + lambda_j| = 2e-11 on a
            # triangular A, whose norm is set by the scale of its upper part
            D, scale = -1e-11 * np.diag(np.arange(1.0, n + 1)), 10.0 / operator_norm(N)
            for _ in range(4):
                Asep = D + scale * N
                smin = linalg._min_pair_sum(linalg._real_schur(Asep)[2])
                scale *= smin / 2e-12 / (1.0 + rel) / operator_norm(Asep)
            Asep = D + scale * N
            smin = linalg._min_pair_sum(linalg._real_schur(Asep)[2])
            if smin < 1e-12 * (2.0 * operator_norm(Asep)):
                with pytest.raises(SingularSystem):
                    SylvesterFactor(Asep)
            else:
                SylvesterFactor(Asep)
            # the quadrature's truncation tail, on A = -I
            sigma = operator_norm(general)
            m, alpha = cert.M, cert.alpha
            horizon = np.log(m**2 * sigma * (1.0 + rel) / (2e-8 * alpha)) / (2.0 * alpha)
            if m**2 * sigma * np.exp(-2.0 * alpha * horizon) / (2.0 * alpha) > 1e-8:
                with pytest.raises(HorizonTooShort):
                    bochner_quadrature(A, general, horizon, nodes=16, cert=cert)
            else:
                bochner_quadrature(A, general, horizon, nodes=16, cert=cert)

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 64])
    def test_power_bounds_bracket_the_svd(self, rng, n):
        # both modes of the power steps, and the O(n^2) upper bound of the
        # certificate grid, on symmetric definite, indefinite and general
        # members, the same scaled by 2^600 and 2^-600, a zero and a
        # rank-one member
        members = self.instances(rng, n)
        members += [np.ldexp(T, e) for T in members for e in (600, -600)]
        members += [np.zeros((n, n)), np.outer(rng.standard_normal(n), rng.standard_normal(n))]
        stack = np.array(members)
        sigma = operator_norm(stack)
        for gram in (False, True):
            lo, hi = linalg._power_bounds(stack, gram=gram)
            assert np.all(lo <= sigma) and np.all(sigma <= hi)
        with np.errstate(over="ignore"):  # squares of the 2^600 members
            assert np.all(sigma <= linalg._upper_bound(stack))

    def test_square_bounds_decide_a_dominant_step(self, monkeypatch, rng):
        # a Newton step above tol is of small rank and symmetric to
        # rounding: the Frobenius bounds leave its test open, the power
        # steps on S itself settle it without forming S'S
        b = rng.standard_normal(64)
        S = np.outer(b, b) + 1e-3 * rand_psd(64, rng)
        S[0, 1] *= 1.0 + 1e-15  # not exactly symmetric
        sigma = operator_norm(S)
        assert linalg._norm_bounds(S)[0] < 0.5 * sigma
        power_bounds = count_calls(monkeypatch, "_power_bounds", linalg, keywords=True)
        norms_taken = count_calls(monkeypatch, "operator_norm", linalg)
        assert not norm_within(S, 0.5 * sigma) and not norm_within(S, (1.0 - 1e-9) * sigma)
        assert len(power_bounds) == 2
        assert gram_members(power_bounds) == len(norms_taken) == 0

    def test_stacks_are_per_matrix_bit_for_bit(self, rng):
        stack = rng.standard_normal((7, 16, 16))
        assert [linalg._frobenius(T) for T in stack] == list(linalg._frobenius(stack))
        assert [operator_norm(T) for T in stack] == list(operator_norm(stack))
        assert operator_norm(stack[:0]).shape == (0,)


class TestLowRankPsd:
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_factors_low_rank_psd(self, rank, rng):
        T = rand_psd(8, rng, rank=rank)
        B, dropped = low_rank_psd(T, 3, "T")
        assert B.shape == (8, rank)
        assert operator_norm(T - B @ B.T) <= dropped <= 1e-13 * operator_norm(T)

    def test_rank_above_the_cap_is_left_to_check_psd(self, rng):
        assert low_rank_psd(rand_psd(8, rng, rank=4), 3, "T") is None
        assert low_rank_psd(rand_psd(8, rng, rank=4), 4, "T") is not None

    def test_indefinite_or_zero_is_left_to_check_psd(self):
        assert low_rank_psd(np.diag([1.0, -1.0]), 3, "T") is None
        assert low_rank_psd(np.diag([1.0, 1e-9]), 1, "T") is None
        B, dropped = low_rank_psd(np.zeros((3, 3)), 3, "T")
        assert B.shape == (3, 0) and dropped == 0.0

    def test_overflow_is_left_to_check_psd(self):
        # ||T||_F is finite, but the first step's outer product overflows
        T = np.array([[1e-200, 1e150], [1e150, 1e-200]])
        with np.errstate(over="ignore"):
            assert low_rank_psd(T, 3, "T") is None
        with pytest.raises(ValueError, match="not PSD"):
            check_psd(T, "T")

    def test_small_remainder_is_proved_psd(self):
        # -5e-11 is inside the PSD tolerance 1e-10 (1 + ||T||): T is PSD
        # under check_psd's test, and the remainder bound says so
        T = np.diag([1.0, -5e-11])
        check_psd(T, "T")
        B, dropped = low_rank_psd(T, 3, "T")
        assert B.shape == (2, 1) and 5e-11 <= dropped <= 5.1e-11

    def test_asymmetry_raises_as_check_psd(self):
        skew = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError) as expected:
            check_psd(skew, "G")
        with pytest.raises(ValueError) as err:
            low_rank_psd(skew, 3, "G")
        assert str(err.value) == str(expected.value)


    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(0, 4), min_size=1, max_size=6), st.integers(0, 2**32 - 1),
           st.booleans(), st.booleans())
    def test_stack_is_each_single_call(self, ranks, seed, asymmetric, indefinite):
        # ranks 0-4 against max_rank 3, scaled over many orders of magnitude,
        # with at most one asymmetric member (by a skew that may fall within
        # the tolerance) and one indefinite member
        rng = np.random.default_rng(seed)
        n = 6
        stack = np.stack([10.0 ** rng.uniform(-8, 8) * rand_psd(n, rng, rank=r) if r
                          else np.zeros((n, n)) for r in ranks])
        if indefinite:
            stack[rng.integers(len(ranks))] -= rand_psd(n, rng, rank=1)
        if asymmetric:
            stack[rng.integers(len(ranks)), 0, 1] += 10.0 ** rng.uniform(-16, 0)

        def outcome(T):
            try:
                return low_rank_psd(T, 3, "G")
            except ValueError as err:
                return str(err)

        singles = [outcome(T) for T in stack]
        stacked = outcome(stack)
        errors = [single for single in singles if isinstance(single, str)]
        if errors:  # the first member that a single call refuses
            assert stacked == errors[0]
            return
        assert len(stacked) == len(singles)
        for member, single in zip(stacked, singles):
            if single is None:
                assert member is None
            else:
                assert member[0].shape == single[0].shape
                assert member[0].tobytes() == single[0].tobytes() and member[1] == single[1]


class TestStackSlices:
    def test_width_rule(self):
        assert [linalg.stack_width(n) for n in (16, 32, 64, 128, 256)] == [32, 32, 16, 8, 4]
        assert [linalg.stack_width(n) for n in (0, 1, 512, 1024, 4096)] == [32, 32, 2, 1, 1]

    @pytest.mark.parametrize("n, sizes", [
        (16, [25] * 4), (32, [25] * 4), (64, [14, 14, 14, 15, 14, 14, 15]),
        (128, [7, 8, 8] * 4 + [8]), (256, [4] * 25)])
    def test_a_hundred_in_near_equal_stacks(self, n, sizes):
        parts = linalg.stack_slices(100, n)
        assert [part.stop - part.start for part in parts] == sizes
        assert [part.start for part in parts] == [0] + [part.stop for part in parts[:-1]]

    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
    @pytest.mark.parametrize("count", [0, 1, 3, 31, 33, 220])
    def test_fewest_stacks_within_the_width(self, n, count):
        sizes = [part.stop - part.start for part in linalg.stack_slices(count, n)]
        width = linalg.stack_width(n)
        assert sum(sizes) == count and len(sizes) == -(-count // width)
        assert all(max(sizes) - 1 <= size <= width for size in sizes)


class TestSymmetryAndPsdGates:
    def test_symmetric_psd_input_takes_no_svd(self, monkeypatch, rng):
        T = rand_psd(6, rng)
        norms_taken = count_calls(monkeypatch, "operator_norm", linalg)
        check_symmetric(T, "T")
        check_psd(T, "T")
        check_psd(np.eye(6), "I")
        assert psd_flags(T) == (True, True)
        assert len(norms_taken) == 0

    @pytest.mark.parametrize("entry", [(0, 1), (1, 1)])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_not_symmetric(self, entry, value):
        # the skew is NaN or infinite, and so is ||T||_F: no bound may call
        # such a T symmetric (an infinite entry once passed as PSD), and the
        # error names the entries, not an SVD that cannot converge
        T = np.eye(3)
        T[entry] = value
        with np.errstate(invalid="ignore"):  # inf - inf in T - T'
            assert psd_flags(T) == (False, False)
            for check in (check_symmetric, check_psd, lambda T, name: low_rank_psd(T, 3, name)):
                with pytest.raises(ValueError, match="^T has non-finite entries$"):
                    check(T, "T")

    @pytest.mark.parametrize("test", ["skew", "lambda_min"])
    def test_between_frobenius_bounds_decided_by_svd(self, monkeypatch, test):
        # ||T|| = 1e3 and ||T||_F = 1414 at rank r = 5, so ||T|| lies strictly
        # between the bounds ||T||_F / sqrt(5) = 632 and ||T||_F: skews (or
        # -lambda_min) at 0.9 and 1.2 of the exact tolerance lie between the
        # tolerances of the two bounds, and the SVD must decide both
        rtol = linalg.SYMMETRY_RTOL if test == "skew" else linalg.PSD_RTOL
        fault = "not symmetric" if test == "skew" else "not PSD"
        tol = rtol * (1.0 + 1e3)
        bounds = linalg._norm_bounds(np.diag([1e3, 1e3, 0.0, 0.0, 0.0]))
        assert rtol * (1.0 + bounds[0]) < 0.9 * tol
        assert 1.2 * tol < rtol * (1.0 + bounds[1])

        def perturbed(value):
            T = np.diag([1e3, 1e3, 0.0, 0.0, 0.0])
            if test == "skew":
                T[0, 2] = value
            else:
                T[4, 4] = -value
            return T

        failed = (False, False) if test == "skew" else (True, False)
        norms_taken = count_calls(monkeypatch, "operator_norm", linalg)
        check_psd(perturbed(0.9 * tol), "T")
        assert psd_flags(perturbed(0.9 * tol)) == (True, True)
        assert psd_flags(perturbed(1.2 * tol)) == failed
        # the power steps on T bracket ||T|| = 1e3 within 1e-12 relative
        assert len(norms_taken) == 0
        with pytest.raises(ValueError, match=fault):
            check_psd(perturbed(1.2 * tol), "T")  # one SVD words the error
        # within 1e-13 of the exact tolerance, only the SVD settles the test
        assert psd_flags(perturbed((1.0 - 1e-13) * tol)) == (True, True)
        assert psd_flags(perturbed((1.0 + 1e-13) * tol)) == failed
        assert len(norms_taken) == 3


def assert_factored_panels_match_direct_node_sum(A, P):
    n = len(P)
    decay = -np.max(np.linalg.eigvals(A).real)
    # 48 panels of 16 nodes: more than the 38 the certified decay asks for
    horizon, panels = 20.0 / decay, 48
    B = bochner_quadrature(A, P, horizon, nodes=16 * panels)
    width = horizon / panels
    x, w = np.polynomial.legendre.leggauss(16)
    direct = np.zeros((n, n))
    for m in range(panels):
        for xi, wi in zip(x, w):
            t = m * width + 0.5 * width * (xi + 1.0)
            direct += 0.5 * width * wi * (spla.expm(A * t) @ P @ spla.expm(A.T * t))
    assert operator_norm(B + direct) <= 1e-12 * operator_norm(direct)


class TestBochnerQuadrature:
    def test_scalar_closed_form(self):
        B = bochner_quadrature(np.array([[-1.5]]), np.array([[6.0]]), horizon=20.0,
                               nodes=200)
        assert abs(B[0, 0] - (-2.0)) <= 1e-8

    def test_zero_integrand(self, rng):
        B = bochner_quadrature(rand_stable(3, rng), np.zeros((3, 3)), horizon=20.0, nodes=200)
        assert np.allclose(B, 0.0)

    def test_scalar_lyapunov(self):
        B = bochner_quadrature(np.array([[-1.0]]), np.array([[-4.0]]), horizon=20.0,
                               nodes=200)
        assert abs(B[0, 0] - 2.0) <= 1e-8

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_sizes_are_refused(self, bad):
        with pytest.raises(ValueError, match="^horizon must be finite and positive$"):
            bochner_quadrature(-np.eye(3), np.eye(3), bad, 16)
        with pytest.raises(ValueError, match="^nodes must be finite and positive$"):
            bochner_quadrature(-np.eye(3), np.eye(3), 1.0, bad)

    def test_horizon_too_short(self):
        with pytest.raises(HorizonTooShort):
            bochner_quadrature(np.array([[-0.1]]), np.array([[1.0]]), horizon=1.0, nodes=64)

    def test_tail_test_reads_the_frobenius_bound_first(self, monkeypatch):
        # ||P||_F = 2 and ||P|| = 1: a horizon whose tail bound is 1e-8 at
        # ||P|| = 2.5 passes on the Frobenius bound, one at ||P|| = 1.5 on
        # the power steps on P, one at ||P|| = 1 + 1e-13 on the SVD alone,
        # and one at ||P|| = 0.9 fails with the SVD's norm
        A, P = -np.eye(4), np.eye(4)
        cert = semigroup.certify_stability(A)

        def horizon(norm_P):
            m, a = cert.M, cert.alpha
            return np.log(m**2 * norm_P / (2e-8 * a)) / (2.0 * a)

        norms_taken = count_calls(monkeypatch, "operator_norm", linalg)
        bochner_quadrature(A, P, horizon(2.5), nodes=64, cert=cert)
        assert len(norms_taken) == 0
        bochner_quadrature(A, P, horizon(1.5), nodes=64, cert=cert)
        assert len(norms_taken) == 0
        bochner_quadrature(A, P, horizon(1.0 + 1e-13), nodes=64, cert=cert)
        assert len(norms_taken) == 1
        with pytest.raises(HorizonTooShort, match=f"need horizon >= {horizon(1.0):.3g}$"):
            bochner_quadrature(A, P, horizon(0.9), nodes=64, cert=cert)

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_masked_panel_sum_is_the_unmasked_formula(self, rng, n):
        # exp is skipped where it underflows and the later panels are summed
        # only where exp(S width) > 0; the sum is the plain formula's bit for
        # bit, at n = 16 (nothing underflows) as on the stiffer heat64/256
        A = heat1d(n)[0]
        cert = semigroup.certify_stability(A)
        d, V = cert.eigh(A)[:2]
        horizon = 20.0 / cert.alpha
        panels = max(int(np.ceil(200 / 16)), int(np.ceil(2.0 * cert.alpha * horizon)))
        width = horizon / panels
        offsets, weights = linalg._gauss_legendre_panel(width)
        P = linalg.symmetrize(rng.standard_normal((n, n)))
        S = d[:, None] + d[None, :]
        K = np.zeros_like(S)
        for s, w in zip(offsets, weights):
            K += w * np.exp(S * s)
        step = np.exp(S * width)
        acc = K.copy()
        for _ in range(panels - 1):
            K *= step
            acc += K
        plain = V @ (acc * (V.T @ P @ V)) @ V.T
        masked = linalg._eigenbasis_panel_sum((d, V), P, offsets, weights, width, panels)
        assert masked.tobytes() == plain.tobytes()
        underflowed = np.mean(S * width < linalg.EXP_UNDERFLOW)
        assert (underflowed > 0.5) == (n > 16)

    def test_exp_is_zero_below_its_underflow_point(self):
        below = np.nextafter(linalg.EXP_UNDERFLOW, -np.inf) * np.array([1.0, 2.0, 1e3, 1e300])
        assert not np.exp(below).any() and np.exp(linalg.EXP_UNDERFLOW) == 0.0
        assert np.exp(linalg.EXP_UNDERFLOW + 1.0) > 0.0

    def test_eigenbasis_of_another_generator_is_not_read(self):
        A = heat1d(16)[0]
        P = -np.eye(16)
        cert = semigroup.certify_stability(A)
        forged = replace(cert, eigenbasis=semigroup.certify_stability(2.0 * A).eigenbasis)
        bare = replace(cert, eigenbasis=None)
        ref = bochner_quadrature(A, P, 20.0 / cert.alpha, nodes=200, cert=cert)
        for other in (forged, bare):
            assert np.array_equal(
                bochner_quadrature(A, P, 20.0 / cert.alpha, nodes=200, cert=other), ref)

    def test_given_certificate_is_reused(self, monkeypatch, rng):
        # the oracle imports certify_stability from semigroup at call time
        A = rand_stable(4, rng)
        cert = semigroup.certify_stability(A)
        calls = count_calls(monkeypatch, "certify_stability", semigroup)
        B = bochner_quadrature(A, -np.eye(4), horizon=20.0, nodes=200, cert=cert)
        assert len(calls) == 0
        assert np.array_equal(B, bochner_quadrature(A, -np.eye(4), horizon=20.0, nodes=200))
        assert [args[0] is A for args in calls] == [True]

    def test_bare_call_certifies_once(self, monkeypatch, rng):
        calls = count_calls(monkeypatch, "certify_stability", semigroup)
        A = rand_stable(4, rng)
        bochner_quadrature(A, -np.eye(4), horizon=20.0, nodes=200)
        assert len(calls) == 1

    def test_factored_path_exponentiates_only_the_generator(self, monkeypatch, rng):
        # no exponential of A': the right factors are the left ones transposed
        A = rand_stable(4, rng)
        cert = semigroup.certify_stability(A)
        calls = count_calls(monkeypatch, "matrix_exponential", linalg)
        bochner_quadrature(A, -np.eye(4), horizon=20.0, nodes=200, cert=cert)
        # one panel step and the 16 nodes of the first panel
        assert len(calls) == 17
        assert all(args[0] is A for args in calls)

    def test_factored_panels_match_direct_node_sum(self, rng):
        A = rand_stable(5, rng)
        assert_factored_panels_match_direct_node_sum(A, rng.standard_normal((5, 5)))

    @staticmethod
    def exactly_symmetric_generators(rng):
        S = rand_psd(6, rng)
        negated_spd = -0.5 * (S + S.T) - 0.5 * np.eye(6)
        return [heat1d(16)[0], negated_spd]

    def test_exactly_symmetric_generators_match_direct_node_sum(self, rng):
        for A in self.exactly_symmetric_generators(rng):
            assert np.array_equal(A, A.T)
            P = rng.standard_normal(A.shape)
            assert_factored_panels_match_direct_node_sum(A, P)

    def test_exactly_symmetric_generators_take_no_exponential(self, monkeypatch, rng):
        expm = count_calls(monkeypatch, "matrix_exponential", linalg)
        eigh = count_calls(monkeypatch, "eigh", np.linalg)
        for A in self.exactly_symmetric_generators(rng):
            cert = semigroup.certify_stability(A)
            eigh.clear()
            bochner_quadrature(A, -np.eye(len(A)), horizon=20.0 / cert.alpha,
                               nodes=200, cert=cert)
            # the eigenbasis is the one kept on A's certificate
            assert (len(expm), len(eigh)) == (0, 0)

    def test_symmetric_to_rounding_takes_the_exponentials(self, monkeypatch, rng):
        # Q diag Q' is symmetric only to rounding, so it keeps the factored path
        A = rand_stable_symmetric(4, rng)
        assert not np.array_equal(A, A.T)
        cert = semigroup.certify_stability(A)
        calls = count_calls(monkeypatch, "matrix_exponential", linalg)
        bochner_quadrature(A, -np.eye(4), horizon=20.0 / cert.alpha, nodes=200,
                           cert=cert)
        # one panel step and the 16 nodes of the first panel, left factors only
        assert len(calls) == 17

    def test_eigenbasis_path_keeps_the_tail_test_and_the_certificate(self, monkeypatch):
        A = 1e-3 * heat1d(4)[0]  # decay rate ~1e-2: a unit horizon is too short
        with pytest.raises(HorizonTooShort):
            bochner_quadrature(A, np.eye(4), horizon=1.0, nodes=64)
        A = heat1d(4)[0]
        cert = semigroup.certify_stability(A)
        calls = count_calls(monkeypatch, "certify_stability", semigroup)
        B = bochner_quadrature(A, -np.eye(4), horizon=20.0 / cert.alpha, nodes=200,
                               cert=cert)
        assert len(calls) == 0
        assert np.array_equal(B, bochner_quadrature(A, -np.eye(4),
                                                    horizon=20.0 / cert.alpha, nodes=200))
        assert len(calls) == 1

    def test_oracle_equivalence_with_schur_solve(self, rng):
        # dual-route check: direct solve vs quadrature on certified triples
        for _ in range(25):
            n = int(rng.integers(1, 11))
            A = rand_stable(n, rng)
            P = rng.standard_normal((n, n))
            T_schur = solve_sylvester(A, P)
            alpha = 0.95 * -np.max(np.linalg.eigvals(A).real)
            T_quad = bochner_quadrature(A, P, horizon=20.0 / alpha, nodes=200)
            assert operator_norm(T_schur - T_quad) <= 1e-6 * (1.0 + operator_norm(P))


class TestNorms:
    def test_diagonal_psd(self):
        r = norms(np.diag([1.0, 2.0]))
        assert r.trace == 3.0
        assert abs(r.op_norm - 2.0) < 1e-14
        assert abs(r.trace_norm_schatten - 3.0) < 1e-14
        assert r.abs_trace == 3.0

    def test_diagonal_indefinite_exhibits_norm_gap(self):
        r = norms(np.diag([1.0, -2.0]))
        assert r.trace == -1.0
        assert r.abs_trace == 1.0
        assert abs(r.trace_norm_schatten - 3.0) < 1e-14
        assert abs(r.op_norm - 2.0) < 1e-14

    def test_zero_matrix(self):
        r = norms(np.zeros((3, 3)))
        assert (r.op_norm, r.trace, r.trace_norm_schatten, r.abs_trace) == (0, 0, 0, 0)

    def test_psd_trace_equals_schatten(self, rng):
        for _ in range(20):
            T = rand_psd(int(rng.integers(1, 9)), rng)
            r = norms(T)
            assert abs(r.trace - r.trace_norm_schatten) <= 1e-10 * (1.0 + abs(r.trace))
            assert abs(r.trace - r.abs_trace) <= 1e-10 * (1.0 + abs(r.trace))

    @pytest.mark.parametrize("n", [1, 3, 16])
    def test_stack_is_per_matrix_bit_for_bit(self, rng, n):
        stack = rng.standard_normal((9, n, n))
        assert norms(stack) == [norms(T) for T in stack]
        assert norms(stack[:0]) == [] and norms(np.zeros((2, 0, 0))) == [norms(np.zeros((0, 0)))] * 2

    def test_stack_is_validated(self):
        with pytest.raises(ValueError, match="square"):
            norms(np.zeros((2, 3, 4)))
        stack = np.zeros((2, 3, 3))
        stack[1, 0, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            norms(stack)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_one_by_one_operator_norm_is_the_absolute_value(self, t):
        # the SVD's, as on a stack; LAPACK rescales, and may round, only
        # outside [2^-459, 2^459], far beyond any operator the package forms
        norm = operator_norm(np.array([[t]]))
        assert norm == operator_norm(np.array([[[t]]]))[0]
        if t == 0.0 or 2.0**-459 <= abs(t) <= 2.0**459:
            assert norm == abs(t)

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, (4, 4), elements=st.floats(-1e6, 1e6)))
    def test_abs_trace_below_schatten(self, T):
        r = norms(T)
        assert r.abs_trace <= r.trace_norm_schatten * (1.0 + 1e-12) + 1e-9
