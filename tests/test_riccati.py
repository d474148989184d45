import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riccati_place import (
    GaussianActuators,
    Problem2Config,
    cli,
    linalg,
    optimize,
    riccati,
    semigroup,
)
from riccati_place.errors import ClosedLoopUnstable, NewtonStall, UnstableGenerator
from riccati_place.linalg import (
    _residual_within,
    low_rank_psd,
    operator_norm,
    solve_sylvester,
    symmetrize,
)
from riccati_place.riccati import (
    riccati_residual,
    solve_are,
    solve_are_hamiltonian,
    verify_are,
)
from riccati_place.optimize import solve_state_pair
from riccati_place.semigroup import certify_stability

from conftest import (
    convdiff1d,
    count_calls,
    count_computed,
    heat1d,
    open_residual_bound,
    rand_psd,
    rand_stable,
    rand_stable_symmetric,
)
from test_cli import convdiff16_config
from test_optimize_p2 import heat16_config


def eigenbasis_kernel(A, G, Q):
    """The eigenbasis kernel for (A, G, Q), or None, gated as solve_are
    gates it: on G's pivoted-Cholesky factor."""
    factor = low_rank_psd(G, riccati.CAPACITANCE_MAX_RANK, "G")
    return factor and riccati._EigenbasisKernel.build(riccati.Plant(A, Q), G, factor)


def scalar(x):
    return np.array([[float(x)]])


class TestSolveAre:
    def test_scalar_closed_form(self):
        # positive root of -g x^2 + 2 a x + q = 0: x = (a + sqrt(a^2 + g q)) / g
        sol = solve_are(scalar(-1), scalar(1), scalar(3))
        assert abs(sol.X[0, 0] - 1.0) <= 1e-12

    def test_zero_q_gives_zero(self, rng):
        A = rand_stable_symmetric(4, rng)
        G = rand_psd(4, rng)
        sol = solve_are(A, G, np.zeros((4, 4)))
        assert np.allclose(sol.X, 0.0, atol=1e-14)
        assert sol.strong_residual == 0.0

    def test_zero_g_is_lyapunov(self):
        sol = solve_are(scalar(-1), scalar(0), scalar(3))
        assert abs(sol.X[0, 0] - 1.5) <= 1e-13

    def test_unstable_a_rejected(self):
        with pytest.raises(UnstableGenerator):
            solve_are(scalar(0.5), scalar(1), scalar(1))

    def test_newton_stall_when_budget_exhausted(self, monkeypatch):
        import riccati_place.riccati as riccati_mod
        monkeypatch.setattr(riccati_mod, "MAX_NEWTON_ITERS", 1)
        with pytest.raises(NewtonStall):
            solve_are(np.diag([-1.0, -3.0]), rand_psd(2, np.random.default_rng(0)),
                      rand_psd(2, np.random.default_rng(1)))

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            solve_are(scalar(-1), scalar(1), scalar(3), tol=0.0)

    @pytest.mark.parametrize("tol", [0.0, -1.0, np.nan])
    def test_tol_is_checked_before_any_work(self, monkeypatch, tol):
        # not even the operands are read: a non-square A is not reported
        checks = count_calls(monkeypatch, "ensure_operator", riccati)
        with pytest.raises(ValueError, match="tol must be positive"):
            solve_are(np.ones((2, 3)), scalar(1), scalar(3), tol=tol)
        assert len(checks) == 0

    @pytest.mark.parametrize("operand", ["G", "Q", "X0"])
    def test_operand_of_another_shape_is_named_before_any_work(self, monkeypatch, operand):
        # an 8 x 8 operand with the heat16 generator: no PSD test, no
        # pivoted Cholesky and no certificate before the ValueError
        A, grid = heat1d(16)
        operands = {"G": GaussianActuators(grid=grid, sigma=0.12).G([0.3]), "Q": np.eye(16),
                    "X0": np.zeros((16, 16))}
        operands[operand] = np.eye(8)
        work = [count_calls(monkeypatch, name, riccati)
                for name in ("low_rank_psd", "check_psd", "certify_stability")]
        with pytest.raises(ValueError, match=rf"^{operand} has shape \(8, 8\), A has shape"):
            solve_are(A, operands["G"], operands["Q"], X0=operands["X0"])
        assert all(len(calls) == 0 for calls in work)

    def test_destabilizing_warm_start_surfaces(self):
        with pytest.raises(ClosedLoopUnstable):
            solve_are(scalar(-1), scalar(1), scalar(3), X0=scalar(-5))
        # n = 3, non-normal A: A - X0 G = A + 5 I has spectrum {4, 3, 2}
        A = np.array([[-1.0, 2.0, 0.0], [0.0, -2.0, 2.0], [0.0, 0.0, -3.0]])
        with pytest.raises(ClosedLoopUnstable):
            solve_are(A, np.eye(3), np.eye(3), X0=-5.0 * np.eye(3))

    def test_one_schur_factorization_per_newton_step(self, monkeypatch, rng):
        A = rand_stable(8, rng)
        G, Q = rand_psd(8, rng), rand_psd(8, rng)
        cert = certify_stability(A)
        schur = count_calls(monkeypatch, "_real_schur", linalg)
        eigvals = count_calls(monkeypatch, "eigvals", np.linalg)
        sol = solve_are(A, G, Q, cert=cert)
        assert sol.newton_iters >= 3
        assert len(schur) == sol.schur_steps == sol.newton_iters
        assert len(eigvals) == 0

    def test_monotone_iterates(self, rng):
        # Kleinman: X_k - X_{k+1} is PSD for k >= 1
        for _ in range(5):
            n = int(rng.integers(2, 9))
            A = rand_stable_symmetric(n, rng)
            sol = solve_are(A, rand_psd(n, rng), rand_psd(n, rng), keep_history=True)
            hist = sol.history
            for Xk, Xk1 in zip(hist[:-1], hist[1:]):
                lam_min = np.linalg.eigvalsh(Xk - Xk1)[0]
                assert lam_min >= -1e-9

    def test_local_quadratic_convergence(self, rng):
        A = rand_stable_symmetric(10, rng, lo=-3.0, hi=-0.4)
        G = rand_psd(10, rng, scale=4.0)
        Q = rand_psd(10, rng, scale=4.0)
        sol = solve_are(A, G, Q, keep_history=True)
        errs = [operator_norm(Xk - sol.X) for Xk in sol.history[:-1]]
        errs = [e for e in errs if e > 1e-13]
        assert len(errs) >= 3, "instance converged too fast to fit an order"
        e1, e2, e3 = errs[-3], errs[-2], errs[-1]
        slope = (np.log(e3) - np.log(e2)) / (np.log(e2) - np.log(e1))
        assert slope >= 1.8

    def test_uniqueness_lyapunov_restart(self, rng):
        for _ in range(5):
            n = int(rng.integers(2, 7))
            A = rand_stable_symmetric(n, rng)
            G, Q = rand_psd(n, rng), rand_psd(n, rng)
            base = solve_are(A, G, Q)
            X_lyap = solve_sylvester(A, -Q)
            restarted = solve_are(A, G, Q, X0=X_lyap)
            assert operator_norm(base.X - restarted.X) <= 1e-8

    def test_residual_gate_takes_no_norm_of_Q(self, monkeypatch, rng):
        # ||Q|| in the gate comes from Frobenius bounds; the reported residual
        # is still an operator norm
        from riccati_place import linalg
        A = rand_stable(6, rng)
        G, Q = rand_psd(6, rng), np.eye(6)
        calls = count_calls(monkeypatch, "operator_norm", linalg, riccati)
        sol = solve_are(A, G, Q, cert=certify_stability(A))
        assert not any(np.array_equal(args[0], Q) for args in calls)
        assert sol.strong_residual <= 1e-10 * (1.0 + operator_norm(Q))

    def test_residual_and_trace_bound_random(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 9))
            A = rand_stable_symmetric(n, rng)
            G, Q = rand_psd(n, rng), rand_psd(n, rng)
            sol = solve_are(A, G, Q)
            assert sol.strong_residual <= 1e-10 * (1.0 + operator_norm(Q))
            assert sol.trace_bound_slack >= -1e-9

    def test_matches_hamiltonian_oracle(self, rng):
        for _ in range(8):
            n = int(rng.integers(2, 11))
            A = rand_stable_symmetric(n, rng)
            G, Q = rand_psd(n, rng), rand_psd(n, rng)
            sol = solve_are(A, G, Q)
            X_oracle = solve_are_hamiltonian(A, G, Q)
            assert operator_norm(sol.X - X_oracle) <= 1e-8

    def test_hamiltonian_oracle_needs_n_stable_eigenvalues(self):
        # an undamped rotation with G = Q = 0: the Hamiltonian's spectrum is
        # +-i twice, so no eigenvalue is stable
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(UnstableGenerator,
                           match="^Hamiltonian has 0 stable eigenvalues, expected 2$"):
            solve_are_hamiltonian(A, np.zeros((2, 2)), np.zeros((2, 2)))


class TestEigenbasisKernel:
    """Newton-Kleinman in the eigenbasis of a symmetric A with low-rank G."""

    @pytest.mark.parametrize("n", [2, 16, 64])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_agrees_with_schur_kernel(self, monkeypatch, n, d):
        A, grid = heat1d(n)
        family = GaussianActuators(grid=grid, sigma=0.12, param_dim=d)
        p = np.linspace(0.2, 0.8, d)
        G, G_near = family.G(p), family.G(p + 0.01)
        cert = certify_stability(A)

        def cold_and_warm():
            cold = solve_are(A, G, np.eye(n), cert=cert)
            return cold, solve_are(A, G_near, np.eye(n), cert=cert, X0=cold.X)

        eigen = cold_and_warm()
        monkeypatch.setattr(riccati._EigenbasisKernel, "build",
                            classmethod(lambda cls, *args: None))
        for sol, ref in zip(eigen, cold_and_warm()):
            assert sol.schur_steps == 0 and ref.schur_steps == ref.newton_iters
            assert operator_norm(sol.X - ref.X) <= 1e-10 * (1.0 + operator_norm(ref.X))

    @pytest.mark.parametrize("failures", [1, 3])
    def test_refinement_then_schur_fallback(self, monkeypatch, failures):
        # with the residual bound forced open, the formed residual's gate
        # fails the first `failures` checks of every capacitance solve: a
        # solve is not refined and reads the gate once, so one miss or
        # three alike send each step to the Schur form, whose own
        # refinements are gated in linalg
        A, grid = heat1d(16)
        G = GaussianActuators(grid=grid, sigma=0.12).G([0.3])
        cert = certify_stability(A)
        ref = solve_are(A, G, np.eye(16), cert=cert)
        solves = count_calls(monkeypatch, "solve", riccati._Capacitance)
        checks = []

        def gate(R, P, P_bounds):
            checks.append(len(solves))  # the solve whose residual is checked
            return checks.count(len(solves)) > failures and _residual_within(R, P, P_bounds)

        open_residual_bound(monkeypatch)
        monkeypatch.setattr(riccati, "_residual_within", gate)
        sol = solve_are(A, G, np.eye(16), cert=cert)
        # step k = 1 is X1, read off the plant: no capacitance solve, no
        # gate, no Schur form
        assert len(solves) == sol.newton_iters - 1
        assert checks == list(range(1, len(solves) + 1))
        assert sol.schur_steps == sol.newton_iters - 1
        assert operator_norm(sol.X - ref.X) <= 1e-10 * (1.0 + operator_norm(ref.X))

    def test_step_kept_only_below_lambda_min_of_Q(self):
        # Lyapunov's theorem needs ||R||_F < lambda_min(Q); with a zero
        # margin no step is proved
        A, grid = heat1d(16)
        G = GaussianActuators(grid=grid, sigma=0.12).G([0.3])
        Q = np.diag(np.linspace(2.0, 1.0, 16))
        kernel = eigenbasis_kernel(A, G, Q)
        assert kernel.lam_min_Q == 1.0
        F0 = kernel.into(np.zeros((16, 16))) @ kernel.B  # the gain of X0 = 0
        assert kernel._capacitance_step(F0)[1]
        kernel.lam_min_Q = 0.0
        assert kernel._capacitance_step(F0) == (None, False)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_right_side_is_exactly_symmetric(self, monkeypatch, r):
        # S = -(F F' + Qb) is taken without symmetrizing: F F' and the
        # symmetrized projection Qb are each exactly symmetric
        A, grid = heat1d(64)
        G = GaussianActuators(grid=grid, sigma=0.12, param_dim=r).G(np.linspace(0.2, 0.8, r))
        X0 = solve_are(A, G, np.eye(64)).X
        solve, seen = riccati._Capacitance.solve, []

        def copying(self, S, adjoint=False):
            seen.append(S.copy())  # S is the plant's workspace, written over by the next step
            return solve(self, S, adjoint)

        monkeypatch.setattr(riccati._Capacitance, "solve", copying)
        sol = solve_are(A, G, 2.0 * np.eye(64), X0=X0)
        assert sol.schur_steps == 0 and len(seen) == sol.newton_iters
        for S in seen:
            assert np.array_equal(S, S.T) and symmetrize(S).tobytes() == S.tobytes()

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_capacitance_matrix_is_the_broadcast_formula(self, n, r):
        A, grid = heat1d(n)
        G = GaussianActuators(grid=grid, sigma=0.12, param_dim=r).G(np.linspace(0.2, 0.8, r))
        kernel = eigenbasis_kernel(A, G, np.eye(n))
        C, B = kernel.C, kernel.B
        F = kernel.into(solve_are(A, G, np.eye(n)).X) @ B
        ref = -(C[None, :, None, :] * F[None, :, :, None] * B.T[:, None, None, :])
        idx = np.arange(n)
        ref[:, idx, :, idx] -= (C @ (B[:, :, None] * F[:, None, :]).reshape(n, r * r)
                                ).reshape(n, r, r)
        ref = ref.reshape(n * r, n * r)
        ref[np.diag_indices(n * r)] += 1.0
        M = riccati._Capacitance._matrix(C, B, F)
        assert M.tobytes() == ref.tobytes()
        assert M.flags.f_contiguous  # LAPACK's layout: np.linalg.solve copies it by columns
        stacked = riccati._Capacitance._matrix(C, np.stack([B, B]), np.stack([2.0 * F, F]))
        assert stacked[1].tobytes() == M.tobytes() and stacked[1].flags.f_contiguous

    @pytest.mark.parametrize("eigenbasis", [True, False])
    def test_stop_residual_takes_one_cubic_product(self, eigenbasis):
        # A X + X A' = M + M' with M = A X; the eigenbasis kernel reads
        # X G X from G's factor, a Schur form takes two more n^3 products
        n = 64
        A, grid = heat1d(n)
        G = GaussianActuators(grid=grid, sigma=0.12).G([0.3])
        Q = np.eye(n)
        plant = riccati.Plant(A, Q)
        kernel = eigenbasis_kernel(A, G, Q) if eigenbasis else riccati._SchurKernel(plant, G)
        X = solve_are(A, G, Q).X
        products = []

        class Counted(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                inputs = [np.asarray(T) for T in inputs]
                if ufunc is np.matmul and all(T.shape == (n, n) for T in inputs):
                    products.append(ufunc)
                return getattr(ufunc, method)(*inputs, **kwargs)

        R = kernel.residual(X.view(Counted))
        assert len(products) == (1 if eigenbasis else 3)
        assert type(R) is np.ndarray and R.tobytes() == kernel.residual(X).tobytes()
        M = A @ X
        XGX = X @ G @ X
        assert np.linalg.norm(R - (M + M.T - XGX + Q)) <= 1e-3 * 1e-10 * 2.0

    @staticmethod
    def textbook_residual(cap, S, Y, adjoint):
        """The residual ``S - Dsum o Y + W + W'`` with ``W = left (Y
        right)'`` of the equation that ``_Capacitance.solve`` solves."""
        left, right = (cap.B, cap.F) if adjoint else (cap.F, cap.B)
        W = left @ (Y @ right).swapaxes(-1, -2)
        return S - cap.Dsum * Y + W + W.swapaxes(-1, -2)

    @staticmethod
    def textbook_capacitance_solve(cap, S, adjoint):
        """``_Capacitance.solve`` as its docstring states it: Y = C o (S +
        T + T') with T = left Z', Z from one solve of the capacitance
        system (transposed for the dual equation), and its residual."""
        n, r = cap.B.shape
        left, right = (cap.B, cap.F) if adjoint else (cap.F, cap.B)
        M = cap.matrix.T if adjoint else cap.matrix
        Z = np.linalg.solve(M, ((cap.C * S) @ right).T.ravel()).reshape(r, n).T
        T = left @ Z.T
        Y = cap.C * (S + T + T.T)
        return Y, TestEigenbasisKernel.textbook_residual(cap, S, Y, adjoint)

    @staticmethod
    def exact_residual_fro(cap, S, Y, adjoint):
        """The Frobenius norm of the residual of Y with ``D_ij = d_i +
        d_j``, taken in extended precision (np.longdouble): within a small
        multiple of its unit roundoff of the exact one."""
        ld = np.longdouble
        left, right = (cap.B, cap.F) if adjoint else (cap.F, cap.B)
        d = np.diagonal(cap.Dsum, 0, -2, -1).astype(ld) / 2  # exact: Dsum_ii = 2 d_i
        W = left.astype(ld) @ (Y.astype(ld) @ right.astype(ld)).swapaxes(-1, -2)
        R = S.astype(ld) - (d[..., :, None] + d[..., None, :]) * Y + W + W.swapaxes(-1, -2)
        return np.sqrt((R * R).sum(axis=(-2, -1))).astype(float)

    @pytest.mark.parametrize("r", [1, 3])
    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("failures", [0, 2])
    def test_capacitance_solve_is_the_textbook_formula(self, monkeypatch, rng, r, adjoint,
                                                       failures):
        # Y bit for bit at r = 1, where every outer product is one rounded
        # product an entry; to rounding at r = 3, where the swapped GEMM
        # may sum in another order than a transpose.  The residual bound
        # decides alone, forming no residual.  Forced open, the formed
        # residual (the textbook one, bit for bit at r = 1) decides, read
        # once and not refined: `failures` forces that many gate misses,
        # and with 2 the same Y comes back unsolved.
        n = 64
        A, grid = heat1d(n)
        G = GaussianActuators(grid=grid, sigma=0.12, param_dim=r).G(np.linspace(0.2, 0.8, r))
        kernel = eigenbasis_kernel(A, G, np.eye(n))
        F = kernel.into(solve_are(A, G, np.eye(n)).X) @ kernel.B
        cap = riccati._Capacitance(kernel.Dsum, kernel.C, kernel.B, F)
        seen = []

        def gate(R, P, P_bounds):
            seen.append(R)
            return len(seen) > failures and _residual_within(R, P, P_bounds)

        monkeypatch.setattr(riccati, "_residual_within", gate)
        for S in (-(F @ F.T + kernel.Qb), symmetrize(rng.standard_normal((n, n)))):
            Y, r_fro, solved = cap.solve(S, adjoint)
            assert solved and not seen
            Y_ref, R_ref = self.textbook_capacitance_solve(cap, S, adjoint)
            assert _residual_within(R_ref, S, linalg._norm_bounds(S))
            assert r_fro >= np.linalg.norm(self.textbook_residual(cap, S, Y, adjoint))
            assert r_fro >= self.exact_residual_fro(cap, S, Y, adjoint)
            if r == 1:
                assert Y.tobytes() == Y_ref.tobytes()
            else:
                assert operator_norm(Y - Y_ref) <= 1e-13 * operator_norm(Y_ref)
            with monkeypatch.context() as forced:
                open_residual_bound(forced)
                Y_open, _, solved = cap.solve(S, adjoint)
            assert solved == (failures == 0) and len(seen) == 1
            assert Y_open.tobytes() == Y.tobytes()
            if r == 1:
                assert seen[0].tobytes() == R_ref.tobytes()
            else:
                assert operator_norm(seen[0] - R_ref) <= 1e-13 * operator_norm(S)
            seen.clear()

    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([16, 64]), r=st.integers(1, 3), adjoint=st.booleans(),
           members=st.sampled_from([None, 3]), own_S=st.booleans(),
           centres=st.lists(st.floats(0.05, 0.95), min_size=3, max_size=3),
           seed=st.integers(0, 2**32 - 1))
    def test_residual_bound_is_an_upper_bound(self, n, r, adjoint, members, own_S, centres,
                                              seed):
        # r_fro bounds the Frobenius norm of the residual of the computed
        # Y: the textbook residual formed in double precision, and the
        # exact one (read in extended precision), for a single closed loop
        # and for each member of a stack (with its own S, or a random S
        # shared by the members)
        rng = np.random.default_rng(seed)
        A, grid = heat1d(n)
        family = GaussianActuators(grid=grid, sigma=0.12, param_dim=r)
        G = family.G(np.array(centres[:r]))
        kernel = eigenbasis_kernel(A, G, np.eye(n))
        assume(kernel is not None and kernel.B.shape[1] == r)
        F = kernel.into(solve_are(A, G, np.eye(n)).X) @ kernel.B
        B = kernel.B
        if members:
            F = F * rng.uniform(0.5, 2.0, (members, 1, 1))
            B = np.broadcast_to(B, F.shape).copy()
        if own_S:
            S = -(np.matmul(F, F.swapaxes(-1, -2)) + kernel.Qb)
        else:
            S = symmetrize(rng.standard_normal((n, n)))
        cap = riccati._Capacitance(kernel.Dsum, kernel.C, B, F)
        Y, r_fro, solved = cap.solve(S, adjoint)
        assert np.isfinite(Y).all()
        textbook = self.textbook_residual(cap, S, Y, adjoint)
        assert (r_fro >= np.sqrt((textbook * textbook).sum(axis=(-2, -1)))).all()
        assert (r_fro >= self.exact_residual_fro(cap, S, Y, adjoint)).all()
        if r == 1 and not members:
            assert Y.tobytes() == self.textbook_capacitance_solve(cap, S, adjoint)[0].tobytes()

    @pytest.mark.parametrize("adjoint", [False, True])
    def test_singular_member_is_not_solved(self, monkeypatch, adjoint):
        # an exactly singular capacitance system makes the stacked solve
        # raise: each member is solved again on its own, the regular one
        # bit for bit as alone, its bound too, the singular one left
        # unsolved (NaN, with a bound that is not finite)
        n = 16
        A, grid = heat1d(n)
        G = GaussianActuators(grid=grid, sigma=0.12).G([0.3])
        kernel = eigenbasis_kernel(A, G, np.eye(n))
        F = kernel.into(solve_are(A, G, np.eye(n)).X) @ kernel.B
        S = -(F @ F.T + kernel.Qb)
        alone = riccati._Capacitance(kernel.Dsum, kernel.C, kernel.B, F).solve(S, adjoint)
        cap = riccati._Capacitance(kernel.Dsum, kernel.C, np.stack([kernel.B] * 2),
                                   np.stack([F] * 2))
        cap.matrix[1] = 0.0
        solves = count_calls(monkeypatch, "solve", np.linalg)
        for shared in (S, np.stack([S, S])):  # one S for both members, or one each
            Y, r_fro, solved = cap.solve(shared, adjoint)
            assert solved.tolist() == [True, False] and len(solves) == 3
            assert Y[0].tobytes() == alone[0].tobytes() and r_fro[0] == alone[1]
            assert np.isnan(Y[1]).all() and not np.isfinite(r_fro[1])
            solves.clear()

    def test_heat64_rank1_takes_no_schur_form(self, monkeypatch):
        A, grid = heat1d(64)
        G = GaussianActuators(grid=grid, sigma=0.12).G([0.3])
        cert = certify_stability(A)
        schur = count_calls(monkeypatch, "_real_schur", linalg)
        sylvester = count_calls(monkeypatch, "solve_sylvester", linalg, riccati)
        sol = solve_are(A, G, np.eye(64), cert=cert)
        assert (len(schur), len(sylvester), sol.schur_steps) == (0, 0, 0)
        assert sol.newton_iters >= 3
        assert sol.strong_residual <= 1e-10 * 2.0

    def test_one_spectrum_of_each_input_per_call(self, monkeypatch):
        # A's eigenbasis comes from its certificate and G's factor from
        # pivoted Cholesky; only Q's PSD test takes a spectrum
        A, grid = heat1d(64)
        G = GaussianActuators(grid=grid, sigma=0.12).G([0.3])
        Q = np.eye(64)
        cert = certify_stability(A)
        eigh = count_calls(monkeypatch, "eigh", np.linalg)
        eigvalsh = count_calls(monkeypatch, "eigvalsh", np.linalg)
        sol = solve_are(A, G, Q, cert=cert)
        assert sol.schur_steps == 0

        def decomposed(calls):
            inputs = {"A": A, "G": G, "Q": Q}
            return sorted(next((name for name, T in inputs.items() if args[0] is T), "other")
                          for args in calls)

        assert (decomposed(eigh), decomposed(eigvalsh)) == ([], ["Q"])

    @pytest.mark.parametrize("symmetric_A", [True, False])
    def test_non_psd_inputs_keep_their_messages(self, symmetric_A):
        A = heat1d(2)[0] if symmetric_A else np.array([[-1.0, 1.0], [0.0, -2.0]])
        indefinite, skew = np.diag([1.0, -1.0]), np.array([[1.0, 1.0], [0.0, 1.0]])
        for args, message in [
                ((indefinite, np.eye(2)), "G is not PSD: lambda_min = -1.000e+00 < -2.000e-10"),
                ((np.eye(2), indefinite), "Q is not PSD: lambda_min = -1.000e+00 < -2.000e-10"),
                ((skew, np.eye(2)), "G is not symmetric: max|T - T.T| = 1.000e+00 > 2.618e-12"),
                ((np.eye(2), skew), "Q is not symmetric: max|T - T.T| = 1.000e+00 > 2.618e-12")]:
            with pytest.raises(ValueError) as err:
                solve_are(A, *args)
            assert str(err.value) == message

    @pytest.mark.parametrize("case", ["rank4_G", "rank5_G", "singular_Q"])
    def test_schur_form_per_step_outside_the_kernel(self, monkeypatch, case):
        A, grid = heat1d(16)
        if case.startswith("rank"):
            d = int(case[4])
            G = GaussianActuators(grid=grid, sigma=0.12, param_dim=d).G(
                np.linspace(0.1, 0.9, d))
            assert np.linalg.matrix_rank(G) == d > riccati.CAPACITANCE_MAX_RANK
            Q = np.eye(16)
        else:
            G = GaussianActuators(grid=grid, sigma=0.12).G([0.3])
            Q = np.diag(np.r_[np.ones(15), 0.0])
        cert = certify_stability(A)
        schur = count_calls(monkeypatch, "_real_schur", linalg)
        sol = solve_are(A, G, Q, cert=cert)
        assert sol.newton_iters >= 3
        assert len(schur) == sol.schur_steps == sol.newton_iters

    @pytest.mark.parametrize("a, g", [(-0.01, -5e-11), (-1e-4, 4e-16)])
    def test_dropped_eigenvalue_of_G_that_would_stall_keeps_the_schur_kernel(self, a, g):
        # the kernel would drop g (check_psd admits -5e-11; 4e-16 is under
        # n eps) and solve the steps for diag(1, 0), while the strong residual
        # is read with G: X_22 = 50 and 5000 put g X_22^2 = 1.25e-7 and 1e-8
        # above the 2e-10 gate, and Newton-Kleinman would stall
        A, G, Q = a * np.eye(2), np.diag([1.0, g]), np.eye(2)
        assert eigenbasis_kernel(A, G, Q) is None
        sol = solve_are(A, G, Q)
        assert sol.schur_steps == sol.newton_iters
        assert sol.strong_residual <= 1e-10 * 2.0
        # each diagonal entry solves its scalar equation 2 a x - g x^2 + 1 = 0
        roots = 1.0 / (-a + np.sqrt(a**2 + np.diag(G)))
        assert np.allclose(np.diag(sol.X), roots, rtol=1e-12, atol=0.0)

    def test_dropped_eigenvalue_of_G_under_the_residual_budget_keeps_the_kernel(self):
        # with strong damping X is small and the same -5e-11 costs nothing
        A, G, Q = -100.0 * np.eye(2), np.diag([1.0, -5e-11]), np.eye(2)
        sol = solve_are(A, G, Q)
        assert sol.schur_steps == 0
        assert sol.strong_residual <= 1e-10 * 2.0

    @pytest.mark.parametrize("n", [1, 16])
    def test_destabilizing_warm_start_falls_back_to_schur(self, monkeypatch, n):
        A, grid = heat1d(n)
        G = GaussianActuators(grid=grid, sigma=0.12).G([0.3])
        X0 = -1e3 * np.eye(n)
        assert np.max(np.linalg.eigvals(A - X0 @ G).real) > 0.0
        tried = count_calls(monkeypatch, "_capacitance_step", riccati._EigenbasisKernel)
        schur = count_calls(monkeypatch, "_real_schur", linalg)
        with pytest.raises(ClosedLoopUnstable):
            solve_are(A, G, np.eye(n), X0=X0)
        assert len(tried) == 1
        assert len(schur) == 1  # a 1x1 generator takes one as any other

    def test_state_pair_falls_back_to_cold_solve(self):
        A, grid = heat1d(16)
        W = np.zeros((16, 16))
        W[3, 3] = 1.0
        cfg = Problem2Config(A=A, Q=np.eye(16), W=W,
                             family=GaussianActuators(grid=grid, sigma=0.12),
                             beta=1e3, gamma=2.6)
        cold = solve_state_pair(cfg, [0.3]).sol
        warm = solve_state_pair(cfg, [0.3], X0=-1e3 * np.eye(16)).sol
        assert np.array_equal(warm.X, cold.X)


class TestRealEigenbasis:
    """Newton-Kleinman in the real, well-conditioned eigenbasis
    ``A = V diag(d) V^{-1}`` of a non-symmetric A: convection-diffusion with
    cell Peclet number below 1."""

    CASES = [(1, (0.05,)), (1, (0.3,)), (1, (0.9,)), (2, (0.3, 0.7))]
    GATE = riccati.RESIDUAL_RTOL * 2.0  # Q = I

    @staticmethod
    def instance(c=10.0, p=(0.3,)):
        A, grid = convdiff1d(16, c=c)
        G = GaussianActuators(grid=grid, sigma=0.12, param_dim=len(p)).G(np.array(p))
        return A, G, np.eye(16)

    @pytest.mark.parametrize("d, p", CASES)
    def test_convdiff_takes_no_schur_form(self, monkeypatch, d, p):
        A, G, Q = self.instance(p=p)
        cert = certify_stability(A)
        assert cert.method == "sampled" and cert.eigenbasis is not None
        schur = count_calls(monkeypatch, "_real_schur", linalg)
        sol = solve_are(A, G, Q, cert=cert)
        assert len(schur) == sol.schur_steps == 0
        assert sol.eigenbasis is not None and sol.eigenbasis.B.shape == (16, d)
        monkeypatch.undo()
        X_ham = solve_are_hamiltonian(A, G, Q)
        assert operator_norm(sol.X - X_ham) <= 1e-12 * operator_norm(X_ham)
        assert sol.strong_residual <= self.GATE

    def test_iterate_is_held_as_the_congruence_with_the_inverse(self):
        A, G, Q = self.instance()
        kernel = eigenbasis_kernel(A, G, Q)
        d, V, W, cond = certify_stability(A).eigh(A)
        assert 90.0 < cond < 100.0
        assert np.allclose(W @ V, np.eye(16), rtol=0.0, atol=1e-12)
        X = solve_are(A, G, Q).X
        assert kernel.into(X).tobytes() == (W @ X @ W.T).tobytes()
        assert kernel.Qb.tobytes() == symmetrize(W @ Q @ W.T).tobytes()
        assert kernel.lam_min_Q == np.linalg.eigvalsh(kernel.Qb)[0] < 1.0
        assert np.array_equal(kernel.B, V.T @ low_rank_psd(G, 3, "G")[0])
        assert operator_norm(kernel.out(kernel.into(X)) - X) <= 1e-13 * operator_norm(X)

    def test_step_proof_covers_eigs_residual(self):
        # Lyapunov's theorem on D + Delta - F B', ||Delta|| <= drift: a step
        # is proved only when ||R||_F + 2 drift ||Y||_F < lambda_min(W Q W')
        A, G, Q = self.instance()
        kernel = eigenbasis_kernel(A, G, Q)
        d, V, W, _ = certify_stability(A).eigh(A)
        drift = np.linalg.norm(W) * np.linalg.norm(A @ V - V * d)
        assert kernel.drift == drift and 0.0 < drift < 1e-9
        F0 = np.zeros((16, 16)) @ kernel.B  # the gain of X0 = 0
        Y, proved = kernel._capacitance_step(F0)
        assert proved
        kernel.drift = 0.51 * kernel.lam_min_Q / np.linalg.norm(Y)
        assert kernel._capacitance_step(F0) == (None, False)

    @pytest.mark.parametrize("c", [20.0, 40.0])
    def test_ill_conditioned_or_complex_spectrum_keeps_the_schur_kernel(self, monkeypatch, c):
        # c = 20: a real eigenbasis with cond(V) ~ 2.7e4, whose round trip
        # fails the stop test's gate; c = 40: a complex spectrum.  Both give
        # the Schur kernel's X bit for bit
        A, G, Q = self.instance(c=c)
        cert = certify_stability(A)
        basis = cert.eigh(A)
        if c == 20.0:
            assert 1e4 < basis[3] < 1e5
            assert not riccati.Plant(A, Q, cert).round_trip
        else:
            assert basis is None
        assert eigenbasis_kernel(A, G, Q) is None
        sol = solve_are(A, G, Q, cert=cert)
        monkeypatch.setattr(riccati._EigenbasisKernel, "build",
                            classmethod(lambda cls, *args: None))
        ref = solve_are(A, G, Q, cert=certify_stability(A))
        assert sol.schur_steps == ref.schur_steps == sol.newton_iters
        assert sol.X.tobytes() == ref.X.tobytes()

    @pytest.mark.parametrize("c", [0.0, 10.0])
    def test_stalled_eigenbasis_steps_finish_on_schur_steps(self, monkeypatch, c):
        # a stop test that can never pass in the eigenbasis: the solve
        # carries on from its iterate on Schur steps, and never stalls
        A, G, Q = self.instance(c=c)
        monkeypatch.setattr(riccati._EigenbasisKernel, "residual_margin",
                            lambda self, X: 2.0 * TestRealEigenbasis.GATE)
        fallbacks = count_calls(monkeypatch, "fallback", riccati._EigenbasisKernel)
        tests = count_calls(monkeypatch, "residual", riccati._EigenbasisKernel)
        sol = solve_are(A, G, Q, cert=certify_stability(A))
        assert (len(fallbacks), len(tests)) == (1, 2)
        assert 0 < sol.schur_steps < sol.newton_iters and sol.eigenbasis is None
        assert sol.strong_residual <= self.GATE
        X_ham = solve_are_hamiltonian(A, G, Q)
        assert operator_norm(sol.X - X_ham) <= 1e-12 * operator_norm(X_ham)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_outer_products_are_exactly_symmetric(self, r):
        # F F' goes through np.dot in the step's right side and in the stop
        # test's X B B' X: both are exactly symmetric
        A, grid = heat1d(64)
        G = GaussianActuators(grid=grid, sigma=0.12, param_dim=r).G(np.linspace(0.2, 0.8, r))
        kernel = eigenbasis_kernel(A, G, np.eye(64))
        X = solve_are(A, G, np.eye(64)).X
        XGX = kernel._xgx(X)
        assert np.array_equal(XGX, XGX.T)
        F = kernel.into(X) @ kernel.B
        S = np.dot(F, F.T)
        assert np.array_equal(S, S.T)


class TestSpectralWork:
    """A's eigenbasis comes from its certificate, G's factor from pivoted
    Cholesky, and the strong residual is read only when asked for."""

    @staticmethod
    def heat_path(n=64, placements=4):
        A, grid = heat1d(n)
        family = GaussianActuators(grid=grid, sigma=0.12)
        return A, [family.G([p]) for p in np.linspace(0.2, 0.8, placements)], np.eye(n)

    def test_warm_path_takes_no_spectrum_of_A_or_G_and_no_svd(self, monkeypatch):
        # Q's spectrum and its projection V' Q V are taken once per path:
        # the certificate keeps the plant of (A, Q) for every later solve
        # with an equal Q
        A, Gs, Q = self.heat_path()
        cert = certify_stability(A)
        eigh = count_calls(monkeypatch, "eigh", np.linalg)
        eigvalsh = count_calls(monkeypatch, "eigvalsh", np.linalg)
        svd = count_calls(monkeypatch, "svd", np.linalg)
        norms = count_calls(monkeypatch, "operator_norm", linalg, riccati)
        projections = count_computed(monkeypatch, riccati.Plant, "Qb")
        kernels = count_calls(monkeypatch, "__init__", riccati._EigenbasisKernel)
        sols, X = [], None
        for G in Gs:
            sols.append(solve_are(A, G, Q, cert=cert, X0=X))
            X = sols[-1].X
        assert [s.schur_steps for s in sols] == [0] * len(Gs)
        assert (len(eigh), len(svd), len(norms)) == (0, 0, 0)
        assert [args[0] is Q for args in eigvalsh] == [True]
        assert len(projections) == 1 and len(kernels) == len(Gs)
        assert all(args[1] is kernels[0][1] for args in kernels)  # one plant
        assert all("strong_residual" not in vars(s) for s in sols)

        verify_are(A, Gs[-1], Q, sols[-1], cert, horizon=20.0 / cert.alpha, nodes=200)
        assert len(eigh) == 0 and len(projections) == 1
        assert sum(args[0] is Q for args in eigvalsh) == 1
        assert not any(args[0] is A for args in eigvalsh)
        for G, sol in zip(Gs, sols):
            assert sol.strong_residual == riccati_residual(A, G, Q, sol.X)
            assert sol.strong_residual <= 1e-10 * 2.0

    def test_certificate_of_another_generator_gives_the_same_solution(self):
        # a certificate whose eigenbasis belongs to another symmetric A is
        # not read: A is decomposed again, as with no certificate at all
        A, (G, *_), Q = self.heat_path(n=16)
        other = certify_stability(2.0 * A)
        forged = replace(certify_stability(A), eigenbasis=other.eigenbasis)
        bare = replace(certify_stability(A), eigenbasis=None)
        ref = solve_are(A, G, Q)
        for cert in (other, forged, bare):
            sol = solve_are(A, G, Q, cert=cert)
            assert sol.schur_steps == 0
            assert np.array_equal(sol.X, ref.X)
        # an equal copy of A still reads the kept pair
        assert np.array_equal(solve_are(A.copy(), G, Q, cert=certify_stability(A)).X, ref.X)

    @pytest.mark.parametrize("d", [1, 3])
    def test_solution_keeps_only_rank_r_facts(self, d):
        # what the dual needs to factor the final closed loop: G's factor
        # (n x r), scalars, and A's eigenbasis as the certificate's own pair
        n = 64
        A, grid = heat1d(n)
        G = GaussianActuators(grid=grid, sigma=0.12, param_dim=d).G(np.linspace(0.2, 0.8, d))
        Q = np.eye(n)
        cert = certify_stability(A)
        sol = solve_are(A, G, Q, cert=cert)
        facts = sol.eigenbasis
        _, d_cert, V_cert = cert.eigenbasis
        assert facts.plant.basis[1] is V_cert and facts.plant.basis[0] is d_cert
        assert facts.B.shape == (n, d)
        assert facts.plant.spectrum[0] == 1.0 and 0.0 <= facts.dropped <= 1e-12
        # the stop test's residual, read on G's factor: G = B B' + E
        B = low_rank_psd(G, riccati.CAPACITANCE_MAX_RANK, "G")[0]
        M, F = A @ sol.X, sol.X @ B
        assert facts.residual_fro == np.linalg.norm(M + M.T - F @ F.T + Q)
        # the strong residual, with the true G, differs by X E X: far below the gate
        R = A @ sol.X + sol.X @ A.T - sol.X @ G @ sol.X + Q
        gate = 1e-10 * (1.0 + operator_norm(Q))
        assert abs(facts.residual_fro - np.linalg.norm(R)) <= 1e-3 * gate
        assert solve_are(A, G, np.diag(np.r_[np.ones(n - 1), 0.0]), cert=cert).eigenbasis is None

    def test_closed_loop_proof_counts_the_dropped_part_twice(self):
        # (A - X G) X + X (A - X G)' = -(Q + X B B' X) + R_B - 2 X E X: the
        # proof needs ||R_B||_F + 2 e ||X||_F^2 < lambda_min(Q)
        A, (G, *_), Q = self.heat_path(n=16)
        sol = solve_are(A, G, Q, cert=certify_stability(A))
        facts = sol.eigenbasis
        budget = (facts.plant.spectrum[0] - facts.residual_fro) / np.linalg.norm(sol.X) ** 2
        for dropped, proved in [(0.49 * budget, True), (0.51 * budget, False)]:
            kept = replace(sol, eigenbasis=replace(facts, dropped=dropped))
            loop, closed_loop_proved = riccati.closed_loop(A, G, kept.X, kept.eigenbasis)
            assert closed_loop_proved == proved == (loop.capacitance is not None)

    def test_stop_test_takes_the_dropped_part_off_its_gate(self, monkeypatch):
        # the residual on B B' differs from the strong one by X E X, with
        # ||X E X|| <= e ||X||_F^2: the gate is lowered by that bound, so a
        # dropped part that could fill the gate never lets the eigenbasis
        # stop test pass; the solve finishes on Schur steps
        A, (G, *_), Q = self.heat_path(n=16)
        cert = certify_stability(A)
        x_fro = np.linalg.norm(solve_are(A, G, Q, cert=cert).X)
        gate = riccati.RESIDUAL_RTOL * (1.0 + operator_norm(Q))
        build = riccati._EigenbasisKernel.build

        def inflated(*args):
            kernel = build(*args)
            kernel.dropped = 2.0 * gate / x_fro**2
            return kernel

        monkeypatch.setattr(riccati._EigenbasisKernel, "build", inflated)
        passed = []
        relative_within = riccati._relative_within

        def stop_test(R, rtol, P, P_bounds, margin=0.0):
            passed.append((margin > 0.0, relative_within(R, rtol, P, P_bounds, margin)))
            return passed[-1][1]

        monkeypatch.setattr(riccati, "_relative_within", stop_test)
        sol = solve_are(A, G, Q, cert=cert)
        assert passed[:2] == [(True, False), (True, False)] and passed[-1] == (False, True)
        assert sol.schur_steps > 0 and sol.eigenbasis is None
        assert sol.strong_residual <= gate

    def test_strong_residual_is_computed_on_first_read(self, monkeypatch):
        A, (G, *_), Q = self.heat_path(n=16)
        sol = solve_are(A, G, Q, cert=certify_stability(A))
        assert sol.operands[0] is A and sol.operands[1] is G and sol.operands[2] is Q
        assert "strong_residual" not in vars(sol) and "operands" not in repr(sol)
        norms = count_calls(monkeypatch, "operator_norm", riccati)
        first = sol.strong_residual
        assert len(norms) == 1
        assert first == riccati_residual(A, G, Q, sol.X)
        assert sol.strong_residual == first and len(norms) == 2  # the read is cached


ENTER = riccati._EigenbasisKernel.enter


def projected_enter(kernel, X0, tol):
    """The first warm step as it is taken from the projected start
    ``W X0 W'``: the eigenbasis kernel's warm entry without the gain.  A
    cold start (X0 None) enters as it always does."""
    if X0 is None:
        return ENTER(kernel, X0, tol)
    Xb = kernel.into(X0)
    Y = kernel.step(Xb, 1)
    return Y, Y - Xb


class TestWarmEntry:
    """A warm start enters A's eigenbasis through its gain ``W (X0 B_G)``:
    ``W X0 W'`` is formed only when the step floor leaves the first step
    test open."""

    def test_takes_no_cubic_product_before_its_first_step(self, monkeypatch):
        n = 64
        A, Gs, Q = TestSpectralWork.heat_path(n=n, placements=2)
        cert = certify_stability(A)
        X0 = solve_are(A, Gs[0], Q, cert=cert).X
        ref = solve_are(A, Gs[1], Q, cert=cert, X0=X0)
        events = []

        class Counted(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
                inputs = [np.asarray(T) for T in inputs]
                if ufunc is np.matmul and all(T.shape == (n, n) for T in inputs):
                    events.append("product")
                return getattr(ufunc, method)(*inputs, **kwargs)

        init, step = riccati._EigenbasisKernel.__init__, riccati._EigenbasisKernel._capacitance_step

        def counted_init(kernel, *args):  # every product with V or W is counted
            init(kernel, *args)
            kernel.V, kernel.W = kernel.V.view(Counted), kernel.W.view(Counted)

        def marked_step(kernel, F):
            events.append("step")
            return step(kernel, F)

        monkeypatch.setattr(riccati._EigenbasisKernel, "__init__", counted_init)
        monkeypatch.setattr(riccati._EigenbasisKernel, "_capacitance_step", marked_step)
        into = count_calls(monkeypatch, "into", riccati._EigenbasisKernel)
        outs = count_calls(monkeypatch, "out", riccati._EigenbasisKernel)
        sol = solve_are(A, Gs[1], Q, cert=cert, X0=X0)
        assert events[0] == "step" and len(into) == 0
        # after it, only the stop tests' V Xb V' (two products each)
        assert events.count("product") == 2 * len(outs) > 0
        assert sol.X.tobytes() == ref.X.tobytes()
        monkeypatch.setattr(riccati._EigenbasisKernel, "enter", projected_enter)
        events.clear()
        solve_are(A, Gs[1], Q, cert=cert, X0=X0)
        assert events[:3] == ["product", "product", "step"]  # the projection W X0 W'

    def test_warm_start_from_the_solution_itself(self, monkeypatch):
        # the first step is below tol: the floor cannot prove otherwise, so
        # W X0 W' is formed once and the step tested from it
        A, (G, *_), Q = TestSpectralWork.heat_path(n=64)
        cert = certify_stability(A)
        sol = solve_are(A, G, Q, cert=cert)
        into = count_calls(monkeypatch, "into", riccati._EigenbasisKernel)
        again = solve_are(A, G, Q, cert=cert, X0=sol.X)
        assert (again.newton_iters, again.schur_steps, len(into)) == (1, 0, 1)
        assert operator_norm(again.X - sol.X) <= 1e-14 * operator_norm(sol.X)
        monkeypatch.setattr(riccati._EigenbasisKernel, "enter", projected_enter)
        projected = solve_are(A, G, Q, cert=cert, X0=sol.X)
        assert projected.newton_iters == 1
        assert operator_norm(again.X - projected.X) <= 1e-14 * operator_norm(sol.X)

    def test_convdiff_warm_path_matches_the_projected_start(self, monkeypatch):
        # a non-orthonormal basis, cond(V) ~ 96: the same Newton counts and
        # the same X to rounding as the warm starts projected into the basis
        A, grid = convdiff1d(16, c=10.0)
        family = GaussianActuators(grid=grid, sigma=0.12)
        Q = np.eye(16)

        def path():
            cert, sols, X = certify_stability(A), [], None
            for p in np.linspace(0.1, 0.9, 8):
                sols.append(solve_are(A, family.G([p]), Q, cert=cert, X0=X))
                X = sols[-1].X
            return sols

        into = count_calls(monkeypatch, "into", riccati._EigenbasisKernel)
        warm = path()
        assert len(into) == 0 and [s.schur_steps for s in warm] == [0] * 8
        monkeypatch.setattr(riccati._EigenbasisKernel, "enter", projected_enter)
        projected = path()
        assert [s.newton_iters for s in warm] == [s.newton_iters for s in projected]
        for s, ref in zip(warm, projected):
            assert operator_norm(s.X - ref.X) <= 1e-12 * operator_norm(ref.X)

    @pytest.mark.parametrize("orthonormal", [True, False])
    def test_step_floor_is_a_lower_bound(self, rng, orthonormal):
        # the floor never exceeds the norm of the step formed from the
        # projection, also where that step is 0 and the floor reads rounding
        # only; for a step along G's factor it is tight
        n = 24
        if orthonormal:
            A = symmetrize(rand_stable_symmetric(n, rng))  # exactly symmetric: eigh
        else:
            V = rng.standard_normal((n, n)) + 8.0 * np.eye(n)  # cond(V) ~ 10
            A = V @ np.diag(-rng.uniform(0.5, 5.0, n)) @ np.linalg.inv(V)
        g = 0.1 * rng.standard_normal((n, 1))  # G's dropped part within the kernel's gate
        kernel = eigenbasis_kernel(A, g @ g.T, np.eye(n))
        assert kernel is not None and (kernel.cond == 1.0) == orthonormal
        b = kernel.B[:, 0]
        along_B = np.outer(b, b) / (b @ b)  # ||along_B B|| = ||along_B|| ||B||
        for _ in range(10):
            X0 = rand_psd(n, rng, scale=10.0 ** rng.uniform(-3.0, 1.0))
            Xb = kernel.into(X0)
            F = kernel.W @ (X0 @ kernel.G_factor)
            for scale in (0.0, 1e-15, 1e-12, 1e-8, 1e-3):
                E = symmetrize(rng.standard_normal((n, n)))
                for direction in (E, along_B):
                    Y = Xb + scale * operator_norm(Xb) * direction
                    assert kernel._step_floor(Y, F, X0) <= operator_norm(Y - Xb)
            Y = Xb + 1e-6 * operator_norm(Xb) * along_B
            assert kernel._step_floor(Y, F, X0) >= 0.999 * operator_norm(Y - Xb)


class TestWeightMemo:
    """A certificate tests and projects each Q once: it keeps the plant of
    the last (A, Q), matched by content, never by identity alone."""

    def test_equal_copy_of_Q_hits(self, monkeypatch):
        A, (G, *_), Q = TestSpectralWork.heat_path(n=16)
        cert = certify_stability(A)
        eigvalsh = count_calls(monkeypatch, "eigvalsh", np.linalg)
        projections = count_computed(monkeypatch, riccati.Plant, "Qb")
        first = solve_are(A, G, Q, cert=cert)
        second = solve_are(A, G, Q.copy(), cert=cert)
        assert (len(eigvalsh), len(projections)) == (1, 1)
        assert first.X.tobytes() == second.X.tobytes()

    def test_Q_changed_in_place_is_tested_and_projected_again(self, monkeypatch):
        A, (G, *_), Q = TestSpectralWork.heat_path(n=16)
        cert = certify_stability(A)
        solve_are(A, G, Q, cert=cert)
        Q[0, 0] = 2.0
        checks = count_calls(monkeypatch, "check_psd", riccati)
        projections = count_computed(monkeypatch, riccati.Plant, "Qb")
        sol = solve_are(A, G, Q, cert=cert)
        assert (len(checks), len(projections)) == (1, 1)
        fresh = solve_are(A, G, Q.copy(), cert=certify_stability(A))
        assert sol.schur_steps == 0 and sol.X.tobytes() == fresh.X.tobytes()

    @pytest.mark.parametrize("symmetric_A", [True, False])
    def test_rejected_Q_keeps_its_message_through_a_memo(self, symmetric_A):
        A = heat1d(2)[0] if symmetric_A else np.array([[-1.0, 1.0], [0.0, -2.0]])
        indefinite, skew = np.diag([1.0, -1.0]), np.array([[1.0, 1.0], [0.0, 1.0]])
        cert = certify_stability(A)
        Q = np.eye(2)
        solve_are(A, np.eye(2), Q, cert=cert)  # the memo now holds Q
        for args, message in [
                ((indefinite, Q), "G is not PSD: lambda_min = -1.000e+00 < -2.000e-10"),
                ((np.eye(2), indefinite), "Q is not PSD: lambda_min = -1.000e+00 < -2.000e-10"),
                ((np.eye(2), skew), "Q is not symmetric: max|T - T.T| = 1.000e+00 > 2.618e-12")]:
            with pytest.raises(ValueError) as err:
                solve_are(A, *args, cert=cert)
            assert str(err.value) == message
        Q[1, 1] = -1.0  # in place: the same array, now indefinite
        with pytest.raises(ValueError, match="^Q is not PSD: lambda_min = -1.000e"):
            solve_are(A, np.eye(2), Q, cert=cert)
        with pytest.raises(ValueError, match="^tol must be positive$"):
            solve_are(A, np.eye(2), np.eye(2), cert=cert, tol=0.0)

    def test_cold_start_takes_no_projection(self, monkeypatch):
        A, (G, *_), Q = TestSpectralWork.heat_path(n=16)
        cert = certify_stability(A)
        into = count_calls(monkeypatch, "into", riccati._EigenbasisKernel)
        cold = solve_are(A, G, Q, cert=cert)
        assert cold.schur_steps == 0 and len(into) == 0
        solve_are(A, G, Q, cert=cert, X0=cold.X)
        assert len(into) == 1

    def test_one_psd_test_of_Q_per_certificate_on_a_non_symmetric_generator(
            self, monkeypatch, rng):
        A = rand_stable(8, rng)
        Q = rand_psd(8, rng)
        cert = certify_stability(A)
        checks = count_calls(monkeypatch, "check_psd", semigroup, riccati)
        for _ in range(20):
            solve_are(A, rand_psd(8, rng), Q, cert=cert)
        assert [args[0] is Q for args in checks if args[1] == "Q"] == [True]
        # the memo lives on the certificate: another one tests Q again
        solve_are(A, rand_psd(8, rng), Q, cert=certify_stability(A))
        assert [args[0] is Q for args in checks if args[1] == "Q"] == [True, True]


class TestColdStartLyapunov:
    """From X0 = 0 the first Newton-Kleinman iterate solves A X1 + X1 A' = -Q
    whatever G is: the cold starts that share A, its certificate and Q take
    one Schur form for X1 between them."""

    @staticmethod
    def non_normal(rng, n=8, placements=5):
        """A non-symmetric stable A, a positive definite Q and rank-2 G's."""
        return (rand_stable(n, rng), rand_psd(n, rng),
                [rand_psd(n, rng, rank=2) for _ in range(placements)])

    def test_m_cold_solves_take_m_minus_1_fewer_schur_forms(self, monkeypatch, rng):
        A, Q, Gs = self.non_normal(rng)
        fresh = [solve_are(A, G, Q, cert=certify_stability(A)) for G in Gs]
        cert = certify_stability(A)
        schur = count_calls(monkeypatch, "_real_schur", linalg)
        shared = [solve_are(A, G, Q, cert=cert) for G in Gs]
        assert len(schur) == sum(f.newton_iters for f in fresh) - (len(Gs) - 1)
        assert [s.schur_steps for s in shared] == [s.newton_iters - (i > 0)
                                                   for i, s in enumerate(shared)]
        for s, f in zip(shared, fresh):
            assert s.newton_iters == f.newton_iters and s.schur_steps <= f.schur_steps
            assert s.X.tobytes() == f.X.tobytes()

    def test_history_starts_at_the_lyapunov_solution(self, rng):
        A, Q, (G1, G2, *_) = self.non_normal(rng)
        cert = certify_stability(A)
        solve_are(A, G1, Q, cert=cert)
        sol = solve_are(A, G2, Q, cert=cert, keep_history=True)
        X1 = symmetrize(solve_sylvester(A, -symmetrize(Q)))
        assert sol.history[0].tobytes() == X1.tobytes()
        assert len(sol.history) == sol.newton_iters == sol.schur_steps + 1

    def test_equal_copy_of_Q_hits(self, monkeypatch, rng):
        A, Q, (G1, G2, *_) = self.non_normal(rng)
        cert = certify_stability(A)
        solve_are(A, G1, Q, cert=cert)
        schur = count_calls(monkeypatch, "_real_schur", linalg)
        sol = solve_are(A, G2, Q.copy(), cert=cert)
        assert len(schur) == sol.schur_steps == sol.newton_iters - 1

    def test_Q_changed_in_place_or_another_A_solves_again(self, rng):
        A, Q, (G1, G2, *_) = self.non_normal(rng)
        cert = certify_stability(A)
        solve_are(A, G1, Q, cert=cert)
        Q += np.eye(8)  # the same array, another weight
        sol = solve_are(A, G2, Q, cert=cert)
        fresh = solve_are(A, G2, Q.copy(), cert=certify_stability(A))
        assert sol.schur_steps == sol.newton_iters
        assert sol.X.tobytes() == fresh.X.tobytes()
        B = A - np.eye(8)  # another generator through the same certificate
        sol = solve_are(B, G2, Q, cert=cert)
        fresh = solve_are(B, G2, Q, cert=certify_stability(B))
        assert sol.schur_steps == sol.newton_iters
        assert sol.X.tobytes() == fresh.X.tobytes()
        again = solve_are(B.copy(), G1, Q, cert=cert)  # an equal copy of B hits
        assert again.schur_steps == again.newton_iters - 1

    def test_warm_start_never_reads_the_kept_solution(self, monkeypatch, rng):
        A, Q, (G1, G2, *_) = self.non_normal(rng)
        cert = certify_stability(A)
        cold = solve_are(A, G1, Q, cert=cert)
        entries = count_calls(monkeypatch, "enter", riccati._SchurKernel)
        warm = solve_are(A, G2, Q, cert=cert, X0=cold.X)
        zero = solve_are(A, G2, Q, cert=cert, X0=np.zeros((8, 8)))
        # only a cold entry (X0 None) reads the plant's X1
        assert [X0 is None for _, X0, _ in entries] == [False, False]
        assert (warm.schur_steps, zero.schur_steps) == (warm.newton_iters, zero.newton_iters)

    def test_without_a_certificate_nothing_is_shared(self, rng):
        A, Q, (G1, G2, *_) = self.non_normal(rng)
        sols = [solve_are(A, G, Q) for G in (G1, G2)]
        assert [s.schur_steps for s in sols] == [s.newton_iters for s in sols]

    def test_eigenbasis_cold_start_takes_no_capacitance_solve_for_X1(self, monkeypatch):
        # in the eigenbasis X1 is (-Qb) o C, formed in O(n^2): a cold solve
        # takes one capacitance solve a step from k = 2 on, alone and as
        # each member of solve_state_pairs, whose multipliers take one each
        cfg = heat16_config(beta=10.0)
        points = [np.array([p]) for p in (0.15, 0.3, 0.55, 0.8)]
        calls = count_calls(monkeypatch, "solve", riccati._Capacitance)

        def member_solves():  # a batch's capacitance solves each of its members
            return sum(1 if cap.B.ndim == 2 else len(cap.B) for cap, *_ in calls)

        sols = [solve_are(cfg.A, cfg.family.G(p), cfg.Q, cert=cfg.cert, keep_history=True)
                for p in points]
        assert [s.schur_steps for s in sols] == [0] * len(points)
        assert member_solves() == len(calls) == sum(s.newton_iters - 1 for s in sols)
        calls.clear()
        states = list(optimize.solve_state_pairs(cfg, points))
        assert [s.sol.newton_iters for s in states] == [s.newton_iters for s in sols]
        assert member_solves() == sum(s.newton_iters - 1 for s in sols) + len(points)
        d, V, W, _ = cfg.cert.eigh(cfg.A)
        X1b = -symmetrize(W @ cfg.Q @ W.T) * (1.0 / (d[:, None] + d[None, :]))
        X1 = symmetrize(V @ X1b @ V.T)
        assert all(s.history[0].tobytes() == X1.tobytes() for s in sols)

    def test_refused_eigenbasis_takes_no_eigh_of_G(self, monkeypatch):
        # convdiff at c = 40, n = 32 has a complex spectrum and keeps no
        # eigenbasis: G's pivoted-Cholesky factor finds no kernel, and no
        # eigh(G) is taken to look for one
        A, grid = convdiff1d(32, c=40.0)
        family = GaussianActuators(grid=grid, sigma=0.12)
        cert = certify_stability(A)
        eigh = count_calls(monkeypatch, "eigh", np.linalg)
        sols = [solve_are(A, family.G([p]), np.eye(32), cert=cert)
                for p in np.linspace(0.1, 0.9, 8)]
        assert len(eigh) == 0
        assert [s.schur_steps for s in sols] == [s.newton_iters - (i > 0)
                                                 for i, s in enumerate(sols)]


class TestPlant:
    """One plant per configuration: the solves that share A, its
    certificate and Q build one ``Plant``, test Q once and compute each of
    Q's facts in A's eigenbasis once."""

    FACTS = ("Qb", "round_trip", "lam_min_Qb", "drift")

    @staticmethod
    def counters(monkeypatch):
        """Plant builds, the PSD tests of Q in a problem config and in the
        solves, and the computations of each fact."""
        builds = count_calls(monkeypatch, "__init__", riccati.Plant)
        checks = [count_calls(monkeypatch, "check_psd", owner) for owner in (optimize, riccati)]
        facts = {name: count_computed(monkeypatch, riccati.Plant, name)
                 for name in TestPlant.FACTS}
        return builds, checks, facts

    @staticmethod
    def q_checks(checks):
        """How many PSD tests of Q each owner took."""
        return [sum(args[1] == "Q" for args in calls) for calls in checks]

    def test_readme_sweep_and_verify_bounds_build_one_plant_each(self, monkeypatch, tmp_path):
        builds, checks, facts = self.counters(monkeypatch)
        cfg = heat16_config(beta=10.0)
        report = optimize.beta_sweep(cfg, [10.0, 1e2, 1e3, 1e4], [0.3])
        assert all(row.converged and not row.failed for row in report.rows)
        assert (len(builds), self.q_checks(checks)) == (1, [1, 0])  # Q tested in the config
        assert builds[0][0] is cfg.plant is cfg.cert._plant
        assert {name: len(calls) for name, calls in facts.items()} == dict.fromkeys(self.FACTS, 1)

        for calls in (builds, *checks, *facts.values()):
            calls.clear()
        config = convdiff16_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["verify-bounds", "--config", config, "--out", str(out),
                         "--seed", "0"]) == 0
        assert (len(builds), self.q_checks(checks)) == (1, [1, 0])
        assert {name: len(calls) for name, calls in facts.items()} == dict.fromkeys(self.FACTS, 1)

    def test_path_units_through_one_certificate_build_one_plant(self, monkeypatch):
        n = 64
        A, grid = heat1d(n)
        family = GaussianActuators(grid=grid, sigma=0.12)
        Gs = [family.G([p]) for p in np.linspace(0.1, 0.9, 8)]
        Q = np.eye(n)
        cert = certify_stability(A)
        builds, checks, facts = self.counters(monkeypatch)
        for _ in range(3):
            X = None
            for G in Gs:
                X = solve_are(A, G, Q, cert=cert, X0=X).X
        assert (len(builds), self.q_checks(checks)) == (1, [0, 1])
        assert [len(calls) for calls in facts.values()] == [1] * len(self.FACTS)
        # a Q changed in place is another weight: a second plant, Q tested again
        Q += np.eye(n)
        sol = solve_are(A, Gs[0], Q, cert=cert)
        assert (len(builds), self.q_checks(checks)) == (2, [0, 2])
        assert cert._plant is builds[1][0] and np.array_equal(cert._plant.Q, Q)
        fresh = solve_are(A, Gs[0], Q.copy(), cert=certify_stability(A))
        assert sol.X.tobytes() == fresh.X.tobytes()

    def test_replaced_certificate_starts_without_a_plant(self, monkeypatch):
        # the plant is a memo, not a certified constant: a copy made by
        # dataclasses.replace keeps none, and a solve through it builds its own
        A, grid = heat1d(16)
        G, Q = GaussianActuators(grid=grid, sigma=0.12).G([0.3]), np.eye(16)
        cert = certify_stability(A)
        ref = solve_are(A, G, Q, cert=cert)
        kept = cert._plant
        copy = replace(cert, eigenbasis=cert.eigenbasis)
        assert kept is not None and copy._plant is None and copy == cert
        with pytest.raises(TypeError, match="_plant"):
            semigroup.StabilityCertificate(**vars(cert))
        builds = count_calls(monkeypatch, "__init__", riccati.Plant)
        sol = solve_are(A, G, Q, cert=copy)
        assert len(builds) == 1 and copy._plant is builds[0][0]
        assert cert._plant is kept is not copy._plant
        assert sol.X.tobytes() == ref.X.tobytes()


class TestStepWorkspace:
    """A single solve's eigenbasis steps write S and the capacitance matrix
    in the plant's per-thread workspace, and nothing written there leaves
    the step."""

    @staticmethod
    def path(n=32, r=1):
        A, grid = heat1d(n)
        family = GaussianActuators(grid=grid, sigma=0.12, param_dim=r)
        Gs = [family.G(np.linspace(0.2, 0.6, r) + shift) for shift in (0.0, 0.02, 0.04)]
        return A, Gs, np.eye(n), certify_stability(A)

    @staticmethod
    def solve_path(A, Gs, Q, cert):
        sols, X = [], None
        for G in Gs:
            sols.append(solve_are(A, G, Q, cert=cert, X0=X))
            X = sols[-1].X
        return sols

    @staticmethod
    def workspace(plant):
        return dict(vars(plant._workspace))

    @pytest.mark.parametrize("r", [1, 2])
    def test_steps_reuse_one_workspace_and_keep_nothing_of_it(self, r):
        A, Gs, Q, cert = self.path(r=r)
        sols = self.solve_path(A, Gs, Q, cert)
        plant = cert._plant
        kept = self.workspace(plant)
        n = A.shape[0]
        assert sorted(kept) == ["S", "matrix"]
        assert kept["S"].shape == (n, n) and kept["matrix"].size == (n * r) ** 2
        again = self.solve_path(A, Gs, Q, cert)
        assert all(self.workspace(plant)[name] is T for name, T in kept.items())
        for sol, ref in zip(again, sols):
            assert sol.schur_steps == 0 and sol.X.tobytes() == ref.X.tobytes()
            loop = riccati.closed_loop(A, Gs[-1], sol.X, sol.eigenbasis)[0]
            owned = [sol.X, sol.eigenbasis.B, *(h for h in (sol.history or ()))]
            if loop.capacitance is not None:
                owned.append(loop.capacitance.matrix)
            assert not any(np.shares_memory(T, W) for T in owned for W in kept.values())
        fresh = self.solve_path(A, Gs, Q.copy(), certify_stability(A))
        assert [s.X.tobytes() for s in fresh] == [s.X.tobytes() for s in sols]

    def test_a_batch_takes_no_workspace(self):
        A, Gs, Q, cert = self.path()
        plant = riccati.Plant.of(cert, A, Q)
        sols = riccati.solve_are_batch(plant, np.stack(Gs))
        assert all(sol is not None for sol in sols) and not self.workspace(plant)
        for G, sol in zip(Gs, sols):
            assert sol.X.tobytes() == solve_are(A, G, Q, cert=cert).X.tobytes()

    def test_threads_sharing_a_certificate_step_in_their_own(self):
        # more threads than cores, switching often, all stepping on one
        # plant: a workspace shared between them would mix their steps
        import sys
        import threading

        A, Gs, Q, cert = self.path()
        ref = [s.X.tobytes() for s in self.solve_path(A, Gs, Q, certify_stability(A))]
        self.solve_path(A, Gs, Q, cert)  # the plant and this thread's workspace
        plant = cert._plant
        results, workspaces = [], []

        def worker(shift):
            order = Gs[shift:] + Gs[:shift]  # the threads' steps interleave unalike
            for _ in range(3):
                sols = self.solve_path(A, order, Q, cert)
                results.append((shift, [s.X.tobytes() for s in sols]))
            workspaces.append(self.workspace(plant))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k % len(Gs),)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert cert._plant is plant and len(results) == 12 and len(workspaces) == 4
        for shift, got in results:
            alone = [s.X.tobytes() for s in self.solve_path(A, Gs[shift:] + Gs[:shift], Q,
                                                            certify_stability(A))]
            assert got == alone
        assert ref == [s.X.tobytes() for s in self.solve_path(A, Gs, Q, cert)]
        arrays = [T for kept in workspaces + [self.workspace(plant)] for T in kept.values()]
        assert len({id(T) for T in arrays}) == len(arrays) == 10

    def test_warm_solve_peak_allocation(self, monkeypatch):
        # traced allocations of a warm n = 128 eigenbasis solve, in n x n
        # arrays above its start, once a solve on the same certificate has
        # made the plant's workspace: 6.04 for the solve and 2.02 for each
        # capacitance step (the iterate and one product); 7.05 and 5.02
        # when each step allocated S, the capacitance matrix, C o S and the
        # residual anew
        import tracemalloc

        n = 128
        A, grid = heat1d(n)
        family = GaussianActuators(grid=grid, sigma=0.12)
        Q, cert = np.eye(n), certify_stability(A)
        X0 = solve_are(A, family.G([0.3]), Q, cert=cert).X
        G = family.G([0.32])
        step, steps = riccati._EigenbasisKernel._capacitance_step, []

        def traced(kernel, F):
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out = step(kernel, F)
            steps.append(tracemalloc.get_traced_memory()[1] - start)
            solve_peak.append(peak)
            return out

        monkeypatch.setattr(riccati._EigenbasisKernel, "_capacitance_step", traced)
        solve_peak = []
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            sol = solve_are(A, G, Q, cert=cert, X0=X0)
            solve_peak.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert sol.schur_steps == 0 and len(steps) == sol.newton_iters >= 3
        assert (max(solve_peak) - start) / (8 * n * n) <= 6.1
        assert max(steps) / (8 * n * n) <= 2.1


class TestVerifyAre:
    def test_scalar_instance(self):
        A, G, Q = scalar(-1), scalar(1), scalar(3)
        cert = certify_stability(A)
        sol = solve_are(A, G, Q, cert=cert)
        rep = verify_are(A, G, Q, sol, cert, horizon=20.0 / cert.alpha, nodes=200)
        assert rep.strong_residual <= 1e-12
        assert rep.bochner_residual <= 1e-8
        # tr X = 1 <= M^2/(2 alpha) tr Q = 1.01^2 / 1.9 * 3
        assert rep.trace_X <= rep.trace_bound
        assert rep.trace_bound == pytest.approx(cert.M**2 / (2 * 0.95) * 3.0)
        assert rep.trace_bound_holds and rep.symmetric and rep.psd

    def test_solve_and_verify_read_one_trace_bound(self, rng):
        # the slack the solve stores and the bound verify_are reports are
        # both M^2/(2 alpha) tr Q, bit for bit
        A = rand_stable(6, rng)
        G, Q = rand_psd(6, rng), rand_psd(6, rng)
        cert = certify_stability(A)
        sol = solve_are(A, G, Q, cert=cert)
        rep = verify_are(A, G, Q, sol, cert, horizon=20.0 / cert.alpha, nodes=200)
        bound = cert.M**2 / (2.0 * cert.alpha) * float(np.trace(Q))
        assert riccati.trace_bound(cert, Q) == bound == rep.trace_bound
        assert sol.trace_bound_slack == bound - float(np.trace(sol.X))

    def test_given_certificate_builds_no_certificate(self, monkeypatch, rng):
        A = rand_stable_symmetric(6, rng)
        G, Q = rand_psd(6, rng), rand_psd(6, rng)
        cert = certify_stability(A)
        sol = solve_are(A, G, Q, cert=cert)
        calls = count_calls(monkeypatch, "certify_stability", semigroup, riccati)
        verify_are(A, G, Q, sol, cert, horizon=20.0 / cert.alpha, nodes=200)
        assert len(calls) == 0

    def test_leaves_the_solution_untouched(self, rng):
        A = rand_stable_symmetric(6, rng)
        G, Q = rand_psd(6, rng), rand_psd(6, rng)
        cert = certify_stability(A)
        sol = solve_are(A, G, Q, cert=cert)
        before, X = dict(vars(sol)), sol.X.copy()
        verify_are(A, G, Q, sol, cert, horizon=20.0 / cert.alpha, nodes=200)
        assert vars(sol).keys() == before.keys()
        assert all(getattr(sol, name) is value for name, value in before.items())
        assert np.array_equal(sol.X, X)

    def test_reports_the_solutions_residual_once_read(self, monkeypatch, rng):
        # the residual is formed on every call, and on the solution's own
        # operands it is the solution's, read or not
        A = rand_stable_symmetric(6, rng)
        G, Q = rand_psd(6, rng), rand_psd(6, rng)
        cert = certify_stability(A)
        sol = solve_are(A, G, Q, cert=cert)
        residuals = count_calls(monkeypatch, "riccati_residual", riccati)

        def verify(*operands):
            return verify_are(*operands, sol, cert, horizon=20.0 / cert.alpha, nodes=200)

        unread = verify(A, G, Q)
        assert len(residuals) == 1 and "strong_residual" not in vars(sol)
        read = sol.strong_residual
        assert len(residuals) == 2 and read == unread.strong_residual
        for operands in ((A, G, Q), (A.copy(), G.copy(), Q.copy())):
            assert verify(*operands).strong_residual == read
        assert len(residuals) == 4
        other = verify(A, G, 2.0 * Q)
        assert len(residuals) == 5
        assert other.strong_residual == riccati_residual(A, G, 2.0 * Q, sol.X)

    def test_two_svds_on_the_heat256_path(self, monkeypatch):
        # ||X|| for the relative quadrature residual is read off the
        # eigvalsh(X) of the PSD test; on this path it equals the SVD's
        # bit for bit.  X G X is formed once, for the residual and integrand
        n = 256
        A, grid = heat1d(n)
        family = GaussianActuators(grid=grid, sigma=0.12)
        Q = np.eye(n)
        cert = certify_stability(A)
        sol = None
        for p in np.linspace(0.1, 0.9, 8):
            G = family.G([p])
            sol = solve_are(A, G, Q, cert=cert, X0=None if sol is None else sol.X)
        norms = count_calls(monkeypatch, "operator_norm", riccati)
        residuals = count_calls(monkeypatch, "_residual_matrix", riccati)
        rep = verify_are(A, G, Q, sol, cert, horizon=20.0 / cert.alpha, nodes=200)
        assert len(norms) == 2
        assert len(residuals) == 1 and residuals[0][4] is not None
        monkeypatch.undo()
        assert rep.bochner_residual_rel == rep.bochner_residual / (1.0 + operator_norm(sol.X))
        assert rep.strong_residual == riccati_residual(A, G, Q, sol.X)

    def test_zero_q(self):
        A, G, Q = scalar(-2), scalar(1), scalar(0)
        cert = certify_stability(A)
        sol = solve_are(A, G, Q, cert=cert)
        rep = verify_are(A, G, Q, sol, cert, horizon=20.0 / cert.alpha, nodes=100)
        assert rep.strong_residual == 0.0
        assert rep.bochner_residual <= 1e-14
        assert rep.trace_X == 0.0 and rep.trace_bound == 0.0 and rep.trace_bound_holds

    def test_random_instances(self, rng):
        for _ in range(5):
            n = 8
            A = rand_stable_symmetric(n, rng)
            G, Q = rand_psd(n, rng), rand_psd(n, rng)
            cert = certify_stability(A)
            sol = solve_are(A, G, Q, cert=cert)
            rep = verify_are(A, G, Q, sol, cert, horizon=20.0 / cert.alpha, nodes=200)
            assert rep.strong_residual <= 1e-10 * (1.0 + operator_norm(Q))
            assert rep.bochner_residual_rel <= 1e-6
            assert rep.trace_bound_holds and rep.symmetric and rep.psd



class TestPositiveDefinite:
    """``riccati._positive_definite``: Gershgorin discs first, Cholesky on
    what they leave open, both on the upper triangle."""

    @staticmethod
    def decide(monkeypatch, T, where=True, discs=True):
        """The answer for T and the Cholesky calls it took; warnings raise."""
        calls = count_calls(monkeypatch, "cholesky", np.linalg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pd = riccati._positive_definite(T, where, discs)
        monkeypatch.undo()
        return pd, len(calls)

    @staticmethod
    def not_dominant(n, rng):
        """A positive definite matrix whose discs reach into the left half-plane."""
        B = rng.standard_normal((n, n))
        T = B @ B.T + 0.1 * np.eye(n)
        assert np.linalg.eigvalsh(T)[0] > 0.0
        assert not (np.diag(T) > np.abs(T).sum(axis=1) - np.abs(np.diag(T))).all()
        return T

    def test_dominant_is_decided_without_cholesky(self, monkeypatch):
        T = np.diag([4.0, 5.0, 6.0]) + 0.5 * (np.ones((3, 3)) - np.eye(3))
        assert self.decide(monkeypatch, T) == (True, 0)

    def test_skipped_discs_leave_every_matrix_to_cholesky(self, monkeypatch):
        T = np.diag([4.0, 5.0, 6.0]) + 0.5 * (np.ones((3, 3)) - np.eye(3))
        assert self.decide(monkeypatch, T, discs=False) == (True, 1)
        pd, calls = self.decide(monkeypatch, np.stack([T, -T, T]), discs=False)
        assert pd.tolist() == [True, False, True] and calls == 4  # the stack, then each member
        pd, calls = self.decide(monkeypatch, np.stack([T, T]), np.array([True, False]), False)
        assert pd.tolist() == [True, False] and calls == 1

    def test_not_dominant_takes_one_cholesky(self, monkeypatch, rng):
        assert self.decide(monkeypatch, self.not_dominant(6, rng)) == (True, 1)

    def test_margin_is_exact(self, monkeypatch):
        # row 0's bound is fl(fl(1 + gamma_3) fl(0.1 + 0.2)): a diagonal equal
        # to it leaves the discs open, one ulp above decides
        bound = (1.0 + riccati._gamma(3)) * (0.1 + 0.2)
        T = np.array([[bound, 0.1, 0.2], [0.1, 10.0, 0.0], [0.2, 0.0, 10.0]])
        assert self.decide(monkeypatch, T) == (True, 1)
        T[0, 0] = np.nextafter(bound, np.inf)
        assert self.decide(monkeypatch, T) == (True, 0)

    def test_indefinite_one_ulp_short_of_dominance(self, monkeypatch):
        # off-diagonal 1 + ulp against a unit diagonal: lambda_min = -ulp
        off = np.nextafter(1.0, 2.0)
        T = np.array([[1.0, off], [off, 1.0]])
        assert np.linalg.eigvalsh(T)[0] < 0.0
        assert self.decide(monkeypatch, T) == (False, 1)
        T[0, 1] = T[1, 0] = 1.0  # singular: weakly dominant is not enough
        assert self.decide(monkeypatch, T) == (False, 1)

    @pytest.mark.parametrize("entry", [(0, 0), (0, 2), (2, 2)])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_not_positive_definite(self, monkeypatch, entry, value):
        T = np.diag([4.0, 5.0, 6.0]) + 0.5 * (np.ones((3, 3)) - np.eye(3))
        T[entry] = value
        assert self.decide(monkeypatch, T)[0] is False
        assert self.decide(monkeypatch, np.stack([T, np.eye(3)]))[0].tolist() == [False, True]

    def test_decided_on_the_upper_triangle(self, monkeypatch, rng):
        # what sits below the diagonal is never read, by either test
        dominant = np.diag([4.0, 5.0, 6.0]) + 0.5 * (np.ones((3, 3)) - np.eye(3))
        for T, calls in ((dominant, 0), (self.not_dominant(3, rng), 1)):
            for junk in (-1e3, np.nan):
                U = T.copy()
                U[np.tril_indices(3, -1)] = junk
                assert self.decide(monkeypatch, U) == (True, calls)
        L = dominant.copy()
        L[np.triu_indices(3, 1)] = -1e3  # the lower triangle alone is dominant
        assert self.decide(monkeypatch, L) == (False, 1)

    def test_mixed_stack(self, monkeypatch, rng):
        # dominant, Cholesky-PD, indefinite and not tried: one stacked
        # Cholesky of the two open members raises, and each is retried
        dominant = np.diag([4.0, 5.0, 6.0]) + 0.5 * (np.ones((3, 3)) - np.eye(3))
        T = np.stack([dominant, self.not_dominant(3, rng), -dominant, dominant])
        pd, calls = self.decide(monkeypatch, T, np.array([True, True, True, False]))
        assert pd.tolist() == [True, True, False, False] and calls == 3
        pd, calls = self.decide(monkeypatch, T[:2])
        assert pd.tolist() == [True, True] and calls == 1

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 32), st.integers(0, 2**32 - 1), st.floats(0.0, 2.0),
           st.booleans())
    def test_agrees_with_the_smallest_eigenvalue(self, n, seed, weight, skew):
        # diagonal weight x the row's off-diagonal sum: above 1 dominant,
        # below it positive definite or not; `skew` writes another lower
        # triangle, which eigvalsh(UPLO="U") does not read either
        rng = np.random.default_rng(seed)
        T = symmetrize(rng.standard_normal((n, n)))
        np.fill_diagonal(T, 0.0)
        np.fill_diagonal(T, weight * np.abs(T).sum(axis=1) + rng.uniform(-0.1, 0.1, n))
        if skew:
            T[np.tril_indices(n, -1)] = rng.standard_normal(n * (n - 1) // 2)
        lam = np.linalg.eigvalsh(T, UPLO="U")[0]
        assume(abs(lam) > 1e-12 * n * np.abs(T).max())
        assert riccati._positive_definite(T) == (lam > 0.0)
        assert riccati._positive_definite(np.stack([T, T])).tolist() == [lam > 0.0] * 2


def test_riccati_residual_helper(rng):
    A = rand_stable_symmetric(3, rng)
    G, Q = rand_psd(3, rng), rand_psd(3, rng)
    X = rand_psd(3, rng)
    manual = operator_norm(A @ X + X @ A.T - X @ G @ X + Q)
    assert riccati_residual(A, G, Q, X) == manual
