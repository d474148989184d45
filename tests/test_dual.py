from dataclasses import replace

import numpy as np
import pytest

from riccati_place import GaussianActuators, dual, linalg, optimize, riccati, semigroup
from riccati_place.dual import solve_dual, verify_dual
from riccati_place.errors import ClosedLoopUnstable, UnstableGenerator
from riccati_place.linalg import _residual_within, operator_norm, solve_sylvester, symmetrize
from riccati_place.optimize import Problem2Config
from riccati_place.riccati import ClosedLoop, solve_are
from riccati_place.semigroup import certify_stability

from conftest import (
    convdiff1d,
    count_calls,
    heat1d,
    open_residual_bound,
    rand_psd,
    rand_stable,
    rand_stable_symmetric,
)


def scalar(x):
    return np.array([[float(x)]])


class TestSolveDual:
    def test_scalar(self):
        # closed loop -2, so 2(-2) lambda = -1
        sol = solve_dual(scalar(-1), scalar(1), scalar(1), scalar(1))
        assert abs(sol.Lambda[0, 0] - 0.25) <= 1e-14
        assert sol.residual <= 1e-12
        assert sol.norm_bound_slack >= -1e-9

    def test_zero_w(self, rng):
        A = rand_stable_symmetric(3, rng)
        G = rand_psd(3, rng)
        X = solve_are(A, G, rand_psd(3, rng)).X
        sol = solve_dual(A, G, X, np.zeros((3, 3)))
        assert np.allclose(sol.Lambda, 0.0, atol=1e-15)

    def test_decoupled_diagonal(self):
        A = np.diag([-1.0, -2.0])
        sol = solve_dual(A, np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2))
        np.testing.assert_allclose(np.diag(sol.Lambda), [0.5, 0.25], atol=1e-13)

    def test_unstable_closed_loop(self):
        with pytest.raises(ClosedLoopUnstable):
            solve_dual(scalar(-1), scalar(1), scalar(-5), scalar(1))

    def test_linearity_in_w(self, rng):
        A = rand_stable_symmetric(5, rng)
        G = rand_psd(5, rng)
        X = solve_are(A, G, rand_psd(5, rng)).X
        W1, W2 = rand_psd(5, rng), rand_psd(5, rng)
        s1 = solve_dual(A, G, X, W1).Lambda
        s2 = solve_dual(A, G, X, W2).Lambda
        s12 = solve_dual(A, G, X, W1 + W2).Lambda
        err = operator_norm(s12 - (s1 + s2))
        assert err <= 1e-10 * (1.0 + operator_norm(s12))

    def test_psd_whenever_w_psd(self, rng):
        for _ in range(8):
            n = int(rng.integers(2, 7))
            A = rand_stable_symmetric(n, rng)
            G, Q, W = rand_psd(n, rng), rand_psd(n, rng), rand_psd(n, rng)
            X = solve_are(A, G, Q).X
            Lam = solve_dual(A, G, X, W).Lambda
            assert np.linalg.eigvalsh(Lam)[0] >= -1e-10 * (1 + operator_norm(Lam))


class TestVerifyDual:
    def test_scalar_bound_arithmetic(self):
        A, G, X, W = scalar(-1), scalar(1), scalar(1), scalar(1)
        sol = solve_dual(A, G, X, W)
        cert = sol.closed_loop_cert
        rep = verify_dual(sol)
        # 0.25 <= M^2/(2 * 1.9) * 1 with M slightly above 1
        assert rep.norm_bound == pytest.approx(cert.M**2 / (2.0 * 1.9))
        assert rep.norm_bound_holds and rep.symmetric and rep.psd
        assert rep.quadrature_residual <= 1e-8

    @pytest.mark.parametrize("horizon", [np.inf, -np.inf, np.nan])
    def test_non_finite_horizon_is_refused(self, horizon):
        sol = solve_dual(scalar(-1), scalar(1), scalar(1), scalar(1))
        with pytest.raises(ValueError, match="^horizon must be finite and positive$"):
            verify_dual(sol, horizon=horizon)

    def test_zero_w_trivial(self, rng):
        A = rand_stable_symmetric(3, rng)
        G = rand_psd(3, rng)
        X = solve_are(A, G, rand_psd(3, rng)).X
        sol = solve_dual(A, G, X, np.zeros((3, 3)))
        rep = verify_dual(sol)
        assert rep.norm_bound_holds and rep.psd
        assert rep.quadrature_residual <= 1e-12

    def test_given_certificate_builds_no_certificate(self, monkeypatch, rng):
        # a solution whose certificate was read builds none in verify_dual
        A = rand_stable_symmetric(5, rng)
        G, Q, W = rand_psd(5, rng), rand_psd(5, rng), rand_psd(5, rng)
        sol = solve_dual(A, G, solve_are(A, G, Q).X, W)
        cert = sol.closed_loop_cert
        calls = count_calls(monkeypatch, "certify_stability", semigroup, dual)
        rep = verify_dual(sol)
        assert len(calls) == 0
        assert rep.norm_bound == cert.M**2 / (2.0 * cert.alpha) * operator_norm(W)

    def test_random_instances_against_quadrature(self, rng):
        for _ in range(5):
            n = 8
            A = rand_stable_symmetric(n, rng)
            G, Q, W = rand_psd(n, rng), rand_psd(n, rng), rand_psd(n, rng)
            X = solve_are(A, G, Q).X
            rep = verify_dual(solve_dual(A, G, X, W))
            assert rep.norm_bound_holds and rep.psd
            assert rep.quadrature_residual_rel <= 1e-6


class TestLazyCertificate:
    def instance(self, rng):
        A = rand_stable_symmetric(5, rng)
        G, Q, W = rand_psd(5, rng), rand_psd(5, rng), rand_psd(5, rng)
        return A, G, solve_are(A, G, Q).X, W

    def test_certified_once_on_first_read(self, monkeypatch, rng):
        A, G, X, W = self.instance(rng)
        calls = count_calls(monkeypatch, "certify_stability", dual)
        sol = solve_dual(A, G, X, W)
        assert len(calls) == 0
        slack = sol.norm_bound_slack
        assert len(calls) == 1
        assert sol.norm_bound_slack == slack
        assert sol.closed_loop_cert is sol.closed_loop_cert
        assert len(calls) == 1
        # the lazy slack is exactly the bound with closed-loop constants
        c = certify_stability(sol.closed_loop)
        assert slack == c.M**2 / (2.0 * c.alpha) * operator_norm(W) - operator_norm(sol.Lambda)

    def test_norm_of_W_taken_on_first_read(self, monkeypatch, rng):
        from riccati_place import linalg
        A, G, X, W = self.instance(rng)
        calls = count_calls(monkeypatch, "operator_norm", linalg, dual)
        sol = solve_dual(A, G, X, W)
        assert not any(np.array_equal(args[0], W) for args in calls)
        assert sol.norm_W == np.linalg.norm(W, 2)
        assert sum(np.array_equal(args[0], W) for args in calls) == 1

    def test_failed_certificate_raises_on_read(self, monkeypatch, rng):
        A, G, X, W = self.instance(rng)

        def refuse(A):
            raise UnstableGenerator("certificate validation failed")

        monkeypatch.setattr(dual, "certify_stability", refuse)
        sol = solve_dual(A, G, X, W)
        with pytest.raises(ClosedLoopUnstable):
            sol.norm_bound_slack

    def test_verification_is_the_slacks(self, rng):
        # field for field the verification that reads the slack's decision
        for _ in range(3):
            A, G, X, W = self.instance(rng)
            rep = verify_dual(solve_dual(A, G, X, W))
            sol = solve_dual(A, G, X, W)
            cert = certify_stability(sol.closed_loop)
            quad = linalg.bochner_quadrature(sol.closed_loop, -W,
                                             20.0 / cert.alpha, 200, cert=cert)
            qres = operator_norm(sol.Lambda - quad)
            norm_bound = cert.M**2 / (2.0 * cert.alpha) * operator_norm(W)
            symmetric, psd = linalg.psd_flags(sol.Lambda)
            assert rep == dual.DualVerification(
                residual=dual.dual_residual(sol.closed_loop, sol.Lambda, W),
                norm_bound=norm_bound,
                norm_bound_holds=norm_bound - operator_norm(sol.Lambda) >= -dual.NORM_BOUND_SLACK,
                symmetric=symmetric,
                psd=psd,
                quadrature_residual=qres,
                quadrature_residual_rel=qres / (1.0 + operator_norm(sol.Lambda)),
            )


class TestNormBoundFloor:
    """``norm_bound_holds`` from the floor ``||W||/(2 alpha)`` of the bound
    ``M^2/(2 alpha) ||W||``: every certificate has M >= 1."""

    @staticmethod
    def scaled(c):
        """A solution with ``Lambda = c I``, closed loop ``-I`` (alpha =
        0.95) and ``W = I``: the floor is ``1/1.9``."""
        return dual.DualSolution(Lambda=c * np.eye(2), loop=ClosedLoop(-np.eye(2)), W=np.eye(2))

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_alpha_is_the_certificates_bit_for_bit(self, rng, symmetric):
        # closed loops A' - G X of non-symmetric A, and exactly symmetric ones
        for _ in range(4):
            G, Q = rand_psd(6, rng, rank=2), rand_psd(6, rng)
            if symmetric:
                closed_loop = symmetrize(rand_stable_symmetric(6, rng) - G)
            else:
                A = rand_stable(6, rng)
                closed_loop = solve_dual(A, G, solve_are(A, G, Q).X, Q).closed_loop
            alpha, _, exact = semigroup.decay_rate(closed_loop)
            assert exact is symmetric
            assert alpha == certify_stability(closed_loop).alpha

    def test_floor_decides_without_the_certificate(self, monkeypatch, rng):
        A, G, Q, W = heat_instance()
        calls = count_calls(monkeypatch, "certify_stability", dual)
        sol = solve_dual(A, G, solve_are(A, G, Q), W)
        assert sol.norm_bound_holds is True
        assert len(calls) == 0
        floor = 1.0 / (2.0 * sol.closed_loop_cert.alpha) * operator_norm(W)
        assert operator_norm(sol.Lambda) <= floor <= sol.norm_bound
        assert sol.norm_bound_slack >= 0.0

    def test_floor_is_the_bound_at_M_one(self, monkeypatch):
        # at the floor itself the check is decided; one ulp above it the
        # certificate is read, and a refused certificate raises there only
        floor = 1.0 / (2.0 * 0.95) * 1.0

        def refuse(A):
            raise UnstableGenerator("certificate validation failed")

        monkeypatch.setattr(dual, "certify_stability", refuse)
        assert self.scaled(floor).norm_bound_holds is True
        with pytest.raises(ClosedLoopUnstable,
                           match="^A.T - G X is not stable: certificate validation failed$"):
            self.scaled(np.nextafter(floor, 1.0)).norm_bound_holds

    def test_above_the_floor_the_slack_decides(self, monkeypatch):
        # a strongly non-normal closed loop: ||Lambda|| is far above the
        # floor, the certificate is built once and its slack decides, with
        # the true M and with a forged M = 1
        A = np.array([[-1.0, 0.0], [30.0, -2.0]])
        W = np.eye(2)
        Z = np.zeros((2, 2))
        certify = count_calls(monkeypatch, "certify_stability", dual)
        sol = solve_dual(A, Z, Z, W)
        assert sol.norm_bound_holds is True
        assert len(certify) == 1
        assert sol.norm_bound_slack >= -dual.NORM_BOUND_SLACK
        assert operator_norm(sol.Lambda) > 10.0 / (2.0 * sol.closed_loop_cert.alpha)
        assert len(certify) == 1

        unit = replace(sol.closed_loop_cert, M=1.0)
        monkeypatch.setattr(dual, "certify_stability", lambda A: unit)
        forged = solve_dual(A, Z, Z, W)
        assert forged.norm_bound_holds is False
        assert forged.norm_bound_slack < -dual.NORM_BOUND_SLACK

    @pytest.mark.parametrize("closed_loop", [np.diag([0.5, -1.0]),
                                             np.array([[0.5, 3.0], [0.0, -1.0]])])
    def test_unstable_closed_loop_raises_the_slacks_error(self, closed_loop):
        # a bare X's solution forged onto an unstable closed loop
        A, G, Q, W = scalar(-1.0), scalar(1.0), scalar(1.0), scalar(1.0)
        sol = solve_dual(np.eye(2) * A, np.eye(2) * G, np.eye(2) * Q, np.eye(2) * W)
        message = "^A.T - G X is not stable: spectral abscissa 5.000e-01 >= 0$"
        for read in ("norm_bound_holds", "norm_bound_slack"):
            with pytest.raises(ClosedLoopUnstable, match=message) as err:
                getattr(replace(sol, loop=ClosedLoop(closed_loop)), read)
            assert isinstance(err.value.__cause__, UnstableGenerator)


class TestLazyResidual:
    def test_residual_is_computed_on_first_read(self, monkeypatch, rng):
        A = rand_stable_symmetric(5, rng)
        G, Q, W = rand_psd(5, rng), rand_psd(5, rng), rand_psd(5, rng)
        calls = count_calls(monkeypatch, "dual_residual", dual)
        sol = solve_dual(A, G, solve_are(A, G, Q), W)
        assert len(calls) == 0
        assert sol.residual == sol.residual <= 1e-10
        assert len(calls) == 1
        assert sol.residual == dual.dual_residual(sol.closed_loop, sol.Lambda, W)


def heat_instance(n=16, d=1):
    A, grid = heat1d(n)
    G = GaussianActuators(grid=grid, sigma=0.12, param_dim=d).G(np.linspace(0.2, 0.8, d) + 0.05)
    W = np.zeros((n, n))
    W[n // 4, n // 4] = W[3 * n // 4, 3 * n // 4] = 1.0
    return A, G, np.eye(n), W


def relative(T, ref):
    return operator_norm(T - ref) / operator_norm(ref)


class TestClosedLoopFactor:
    """The multiplier and the closed-loop Lyapunov solves on one factor."""

    def test_bare_array_keeps_the_schur_path_bit_for_bit(self, monkeypatch):
        A, G, Q, W = heat_instance()
        X = solve_are(A, G, Q).X
        schur = count_calls(monkeypatch, "_real_schur", linalg)
        sol = solve_dual(A, G, X, W)
        assert len(schur) == 1
        assert sol.loop.capacitance is None and sol.loop.schur is not None
        closed_loop = A.T - G @ X
        assert np.array_equal(sol.Lambda, symmetrize(solve_sylvester(closed_loop, -W)))

    @pytest.mark.parametrize("n, d", [(16, 1), (16, 2), (64, 2), (32, 3)])
    def test_heat_solution_takes_no_schur_form(self, monkeypatch, n, d):
        A, G, Q, W = heat_instance(n, d)
        are = solve_are(A, G, Q)
        schur = count_calls(monkeypatch, "_real_schur", linalg)
        sol = solve_dual(A, G, are, W)
        Acl = A - are.X @ G
        P = symmetrize(are.X @ G @ are.X)
        Y = sol.solve_closed_loop(P)
        assert len(schur) == 0 and sol.loop.capacitance is not None and sol.loop.schur is None
        monkeypatch.undo()
        assert relative(sol.Lambda, solve_dual(A, G, are.X, W).Lambda) <= 1e-12
        assert relative(Y, symmetrize(solve_sylvester(Acl, P))) <= 1e-12
        assert np.array_equal(Y, Y.T)
        assert sol.residual <= 1e-10 * (1.0 + operator_norm(W))

    @pytest.mark.parametrize("failure", ["proof", "positive definite", "gate", "lu"])
    def test_failure_falls_back_to_the_schur_form(self, monkeypatch, failure):
        # an unproved closed loop has no capacitance; a proved one whose
        # multiplier fails the gate, or whose capacitance system is exactly
        # singular, keeps it for the state sensitivities
        A, G, Q, W = heat_instance()
        are = solve_are(A, G, Q)
        if failure == "proof":
            are = replace(are, eigenbasis=replace(are.eigenbasis, residual_fro=1.0))
        elif failure == "positive definite":
            monkeypatch.setattr(riccati, "_positive_definite", lambda T, *args: False)
        elif failure == "gate":
            open_residual_bound(monkeypatch)
            monkeypatch.setattr(riccati, "_residual_within", lambda R, P, P_bounds: False)
        else:
            monkeypatch.setattr(riccati._Capacitance, "_matrix", staticmethod(
                lambda C, B, F, workspace=None: np.zeros((F.size, F.size), order="F")))
        schur = count_calls(monkeypatch, "_real_schur", linalg)
        sol = solve_dual(A, G, are, W)
        assert len(schur) == 1 and sol.loop.schur is not None
        assert (sol.loop.capacitance is None) == (failure in ("proof", "positive definite"))
        monkeypatch.undo()
        ref = solve_dual(A, G, are.X, W).Lambda
        assert relative(sol.Lambda, ref) <= 1e-12

    def test_dropped_part_of_G_over_budget_falls_back(self, monkeypatch):
        # E X Lambda + Lambda X E may move the dual residual by at most 1 %
        # of the gate
        A, G, Q, W = heat_instance()
        are = solve_are(A, G, Q)
        schur = count_calls(monkeypatch, "_real_schur", linalg)
        assert solve_dual(A, G, are, W).loop.schur is None
        heavy = replace(are, eigenbasis=replace(are.eigenbasis, dropped=1e-6))
        assert solve_dual(A, G, heavy, W).loop.schur is not None
        assert len(schur) == 1

    def test_solution_of_other_operands_takes_the_schur_form(self, monkeypatch):
        A, G, Q, W = heat_instance()
        are = solve_are(A, G, Q)
        schur = count_calls(monkeypatch, "_real_schur", linalg)
        sol = solve_dual(A, 1.0001 * G, are, W)
        assert len(schur) == 1 and sol.loop.capacitance is None

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_closed_loop_solves_share_one_factor(self, monkeypatch, rng, symmetric):
        n = 8
        A = heat1d(n)[0] if symmetric else rand_stable(n, rng)
        G, Q, W = rand_psd(n, rng, rank=2), np.eye(n), rand_psd(n, rng)
        are = solve_are(A, G, Q)
        schur = count_calls(monkeypatch, "_real_schur", linalg)
        sol = solve_dual(A, G, are, W)
        Ps = [symmetrize(rand_psd(n, rng)) for _ in range(3)]
        Ys = [sol.solve_closed_loop(P) for P in Ps]
        assert len(schur) == (0 if symmetric else 1)
        monkeypatch.undo()
        Acl = A - are.X @ G
        for P, Y in zip(Ps, Ys):
            assert relative(Y, symmetrize(solve_sylvester(Acl, P))) <= 1e-12

    def test_capacitance_failing_a_direction_builds_the_schur_form_once(self, monkeypatch):
        A, G, Q, W = heat_instance()
        are = solve_are(A, G, Q)
        sol = solve_dual(A, G, are, W)
        open_residual_bound(monkeypatch)
        monkeypatch.setattr(riccati, "_residual_within", lambda R, P, P_bounds: False)
        schur = count_calls(monkeypatch, "_real_schur", linalg)
        Ps = [symmetrize(are.X @ G @ are.X), np.eye(16)]
        Ys = [sol.solve_closed_loop(P) for P in Ps]
        assert len(schur) == 1 and sol.loop.schur is not None
        monkeypatch.undo()
        Acl = A - are.X @ G
        for P, Y in zip(Ps, Ys):
            assert relative(Y, symmetrize(solve_sylvester(Acl, P))) <= 1e-12


class TestRealEigenbasisClosedLoop:
    """The multiplier and the closed-loop solves of a non-symmetric A with a
    real, well-conditioned eigenbasis (convection-diffusion, c = 10), taken
    from the capacitance system and gated in the original basis."""

    @staticmethod
    def instance(p=(0.3,)):
        A, grid = convdiff1d(16)
        G = GaussianActuators(grid=grid, sigma=0.12, param_dim=len(p)).G(np.array(p))
        W = np.zeros((16, 16))
        W[4, 4] = W[11, 11] = 1.0
        return A, G, np.eye(16), W

    @pytest.mark.parametrize("p", [(0.05,), (0.3,), (0.9,), (0.3, 0.7)])
    def test_multiplier_and_closed_loop_solves_take_no_schur_form(self, monkeypatch, p):
        A, G, Q, W = self.instance(p)
        are = solve_are(A, G, Q, cert=certify_stability(A))
        schur = count_calls(monkeypatch, "_real_schur", linalg)
        sol = solve_dual(A, G, are, W)
        P = symmetrize(are.X @ G @ are.X)
        Y = sol.solve_closed_loop(P)
        assert len(schur) == 0 and sol.loop.capacitance is not None and sol.loop.schur is None
        assert sol.loop.facts.plant.basis[3] > 1.0  # V is not orthonormal
        monkeypatch.undo()
        ref = solve_dual(A, G, are.X, W)
        assert ref.loop.capacitance is None and ref.loop.schur is not None
        assert relative(sol.Lambda, ref.Lambda) <= 1e-12
        assert relative(Y, ref.solve_closed_loop(P)) <= 1e-12
        assert np.array_equal(Y, Y.T)
        assert sol.residual <= 1e-10 * (1.0 + operator_norm(W))

    def test_residual_in_the_original_basis_decides(self, monkeypatch):
        # a solution that passes the capacitance's gate in the eigenbasis is
        # still checked on the loop's matrix A' - G X, the dual's closed
        # loop itself; a perturbed matrix fails that check for both
        # equations, and the loop's solve takes the Schur form of it
        A, G, Q, W = self.instance()
        are = solve_are(A, G, Q, cert=certify_stability(A))
        sol = solve_dual(A, G, are, W)
        loop = sol.loop
        assert sol.closed_loop is loop.matrix
        assert loop.matrix.tobytes() == (A.T - G @ are.X).tobytes()
        P = symmetrize(are.X @ G @ are.X)
        Y_capacitance, solved = loop.factored(P)
        assert solved and loop.factored(-W, True)[1]
        loop.matrix = 1.001 * loop.matrix
        assert not loop.factored(P)[1] and not loop.factored(-W, True)[1]
        schur = count_calls(monkeypatch, "_real_schur", linalg)
        Y = sol.solve_closed_loop(P)
        assert len(schur) == 1 and loop.schur is not None
        monkeypatch.undo()
        Acl = loop.matrix.T
        assert relative(Y, symmetrize(solve_sylvester(Acl, P))) <= 1e-12
        assert relative(Y, Y_capacitance) > 1e-4


class TestClosedLoopFallback:
    """One capacitance -> Schur fallback, in ``ClosedLoop.solve``: every
    right side tries the factor, and the Schur form is built at most once
    per state pair."""

    @staticmethod
    def refuse(monkeypatch, *refused):
        """Make every capacitance solve of the equations ``refused`` (True
        for the dual one, False for the primal one) fail its gate."""
        solve = riccati._Capacitance.solve

        def refusing(self, S, adjoint=False):
            Y, r_fro, solved = solve(self, S, adjoint)
            return Y, r_fro, solved & (adjoint not in refused)

        monkeypatch.setattr(riccati._Capacitance, "solve", refusing)

    @pytest.mark.parametrize("instance", ["heat", "convdiff"])
    def test_refused_multiplier_leaves_the_factor_to_the_directions(self, monkeypatch,
                                                                     instance):
        if instance == "heat":
            A, G, Q, W = heat_instance()
        else:
            A, G, Q, W = TestRealEigenbasisClosedLoop.instance()
        are = solve_are(A, G, Q, cert=certify_stability(A))
        Ps = [symmetrize(are.X @ G @ are.X), np.eye(16)]
        Ys_ref = [solve_dual(A, G, are, W).solve_closed_loop(P) for P in Ps]
        self.refuse(monkeypatch, True)
        schur = count_calls(monkeypatch, "_real_schur", linalg)
        sol = solve_dual(A, G, are, W)
        assert len(schur) == 1 and sol.loop.capacitance is not None
        schur_solves = count_calls(monkeypatch, "solve", sol.loop.schur)
        Ys = [sol.solve_closed_loop(P) for P in Ps]
        assert len(schur) == 1 and len(schur_solves) == 0  # both served by the factor
        for Y, ref in zip(Ys, Ys_ref):
            assert Y.tobytes() == ref.tobytes()
        monkeypatch.undo()
        assert relative(sol.Lambda, solve_dual(A, G, are.X, W).Lambda) <= 1e-12

    def test_schur_form_is_built_once_per_state_pair(self, monkeypatch):
        # the multiplier and every direction refused: one Schur form serves
        # them all, through the reduced Hessian's directions too
        A, grid = heat1d(16)
        cfg = Problem2Config(A=A, Q=np.eye(16), W=heat_instance()[3], beta=10.0, gamma=2.6,
                             family=GaussianActuators(grid=grid, sigma=0.12, param_dim=2))
        p = np.array([0.3, 0.7])
        H_ref, _ = optimize._reduced_hessian(cfg, optimize.solve_state_pair(cfg, p))
        self.refuse(monkeypatch, True)  # the Newton steps' primal solves pass
        schur = count_calls(monkeypatch, "_real_schur", linalg)
        state = optimize.solve_state_pair(cfg, p)
        assert len(schur) == 1 and state.dsol.loop.capacitance is not None
        self.refuse(monkeypatch, False)
        schur_solves = count_calls(monkeypatch, "solve", state.dsol.loop.schur)
        H, _ = optimize._reduced_hessian(cfg, state)
        assert len(schur) == 1 and len(schur_solves) == p.size
        assert relative(H, H_ref) <= 1e-10
