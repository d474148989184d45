import functools
from dataclasses import replace

import numpy as np
import pytest

from riccati_place import dual, linalg, optimize, riccati
from riccati_place.devices import ConstantFamily, ConstantLedger, GaussianActuators
from riccati_place.errors import (ClosedLoopUnstable, DimensionMismatch, MaxIterExceeded,
                                  UnstableGenerator)
from riccati_place.linalg import operator_norm, symmetrize
from riccati_place.optimize import (
    Problem1Config,
    Problem2Config,
    beta_sweep,
    cluster_points,
    contraction_constant_p2,
    cost_p2,
    gradient_p2,
    hessian_p2,
    fixed_point_map_p2,
    solve_p2,
    solve_state_pair,
    stationarity_residual_p2,
)
from riccati_place.riccati import solve_are

from conftest import count_calls, count_computed, heat1d, rand_stable
from test_optimize_p1 import heat_like


N = 6


@pytest.fixture(scope="module")
def p2_problem():
    A, grid = heat_like(N)
    fam = GaussianActuators(grid=grid, sigma=0.18)
    W = np.zeros((N, N))
    W[1, 1] = 1.0  # rank-1 weighting at the second node
    return Problem2Config(A=A, Q=np.eye(N), W=W, family=fam, beta=50.0,
                          gamma=1.8, tol=1e-8, max_iter=400)


def heat16_config(beta, tol=1e-6):
    """The README model: heat1d n = 16, one Gaussian actuator, gamma = 2.6."""
    A, grid = heat_like(16, nu=1.0)
    W = np.zeros((16, 16))
    W[3, 3] = 1.0
    return Problem2Config(A=A, Q=np.eye(16), W=W,
                          family=GaussianActuators(grid=grid, sigma=0.12),
                          beta=beta, gamma=2.6, tol=tol, max_iter=500)


def grid_argmin(cfg, points=600):
    """Placement of least problem-2 cost on a uniform grid over the box, and
    the grid's cell width."""
    box = cfg.family.domain()
    ps = np.linspace(box[0, 0], box[0, 1], points)
    X0 = None
    best_p, best_cost = None, np.inf
    for p in ps:
        sol = solve_are(cfg.A, cfg.family.G([p]), cfg.Q, cert=cfg.cert, X0=X0)
        X0 = sol.X
        c = float(np.tensordot(sol.X, cfg.W)) + 0.5 * cfg.beta * (
            cfg.family.trace_G([p]) - cfg.gamma) ** 2
        if c < best_cost:
            best_p, best_cost = p, c
    return best_p, (box[0, 1] - box[0, 0]) / (points - 1)


def unit_ledger(beta=1.0, mu=1.0):
    return ConstantLedger(g=1.0, L_G=1.0, L_dG=1.0, C_dG=1.0, K=1.0,
                          mu=mu, M=1.0, alpha=1.0, trQ=1.0, normW=1.0,
                          beta=beta, gamma=1.0, sup_xlx=1.0)


class TestStatePair:
    def test_destabilizing_warm_start_falls_back_to_cold(self, monkeypatch):
        # n = 3, non-normal A: A - X0 G = A + 5 I has spectrum {4, 3, 2}
        A = np.array([[-1.0, 2.0, 0.0], [0.0, -2.0, 2.0], [0.0, 0.0, -3.0]])
        cfg = Problem2Config(A=A, Q=np.eye(3), W=np.eye(3),
                             family=ConstantFamily(matrix=np.eye(3)), beta=1.0)
        cold = solve_state_pair(cfg, [0.0]).sol
        ares = count_calls(monkeypatch, "solve_are", optimize, keywords=True)
        state = solve_state_pair(cfg, [0.0], X0=-5.0 * np.eye(3))
        sol, dsol = state.sol, state.dsol
        assert [kwargs.get("X0") is not None for _, kwargs in ares] == [True, False]
        assert operator_norm(sol.X - cold.X) <= 1e-12 * (1.0 + operator_norm(cold.X))
        assert sol.strong_residual <= 1e-10 and dsol.residual <= 1e-10


class TestCostP2:
    def test_penalty_vanishes_on_constraint(self, p2_problem):
        cfg = p2_problem
        p = np.array([0.5])
        gamma_exact = cfg.family.trace_G(p)
        cfg_exact = Problem2Config(A=cfg.A, Q=cfg.Q, W=cfg.W, family=cfg.family,
                                   beta=cfg.beta, gamma=gamma_exact, tol=cfg.tol)
        X = solve_are(cfg.A, cfg.family.G(p), cfg.Q, cert=cfg.cert).X
        assert cost_p2(cfg_exact, p) == pytest.approx(float(np.tensordot(X, cfg.W)), abs=1e-14)

    def test_constant_family_scalar(self):
        fam = ConstantFamily(matrix=np.array([[1.0]]))
        for beta in (1.0, 7.0, 100.0):
            cfg = Problem2Config(A=np.array([[-1.0]]), Q=np.array([[3.0]]),
                                 W=np.array([[1.0]]), family=fam, beta=beta, gamma=1.0)
            assert cost_p2(cfg, [0.3]) == pytest.approx(1.0, abs=1e-12)

    def test_w_zero_level_set_is_optimal(self, p2_problem):
        cfg = p2_problem
        cfg0 = Problem2Config(A=cfg.A, Q=cfg.Q, W=np.zeros((N, N)), family=cfg.family,
                              beta=cfg.beta, gamma=cfg.gamma, tol=cfg.tol)
        tri = solve_p2(cfg0, [0.3])
        assert cost_p2(cfg0, tri.p) <= 1e-12


class TestStationarityP2:
    def test_w_zero_on_constraint(self, p2_problem):
        cfg = p2_problem
        cfg0 = Problem2Config(A=cfg.A, Q=cfg.Q, W=np.zeros((N, N)), family=cfg.family,
                              beta=cfg.beta, gamma=cfg.gamma, tol=1e-10, max_iter=400)
        tri = solve_p2(cfg0, [0.3])
        assert abs(tri.trace_gap) <= 1e-10
        assert stationarity_residual_p2(cfg0, tri) <= 1e-10

    def test_matches_central_differences(self, p2_problem, rng):
        cfg = p2_problem
        h = 1e-5
        for _ in range(6):
            p = rng.uniform(0.2, 0.8, 1)
            g = gradient_p2(cfg, p)
            fd = np.array([(cost_p2(cfg, p + h * e) - cost_p2(cfg, p - h * e)) / (2 * h)
                           for e in np.eye(1)])
            assert np.linalg.norm(fd - g) <= 1e-5 * (1.0 + np.linalg.norm(g))


class TestPaperMap:
    def test_scale_invariant_direction(self, p2_problem):
        cfg = p2_problem
        p = np.array([0.45])
        base = fixed_point_map_p2(cfg, p)
        for s in (0.5, 2.0):
            scaled = fixed_point_map_p2(cfg, p, direction=s * p)
            assert np.linalg.norm(scaled - s * base) <= 1e-10 * (1.0 + np.linalg.norm(base))


class TestSolveP2:
    def test_w_zero_trace_constraint(self, p2_problem):
        cfg = p2_problem
        cfg0 = Problem2Config(A=cfg.A, Q=cfg.Q, W=np.zeros((N, N)), family=cfg.family,
                              beta=20.0, gamma=cfg.gamma, tol=1e-9, max_iter=400)
        tri = solve_p2(cfg0, [0.35])
        assert tri.converged
        assert abs(tri.trace_gap) <= 1e-9

    def test_converged_residuals_and_trace_identity(self, p2_problem):
        # the identity residual scales as 1/beta, so a stiff penalty meets tol
        cfg = Problem2Config(A=p2_problem.A, Q=p2_problem.Q, W=p2_problem.W,
                             family=p2_problem.family, beta=1e5,
                             gamma=p2_problem.gamma, tol=1e-6, max_iter=400)
        tri = solve_p2(cfg, [0.3])
        assert tri.converged
        assert tri.residual_stationarity <= cfg.tol
        M = symmetrize(tri.X @ tri.Lambda @ tri.X)
        identity_gap = abs(tri.trace_gap - operator_norm(M) / cfg.beta)
        assert identity_gap == pytest.approx(tri.trace_constraint_residual, abs=1e-14)
        assert identity_gap <= cfg.tol

    def test_converged_does_not_ask_the_trace_constraint_identity(self):
        # the README model at beta = 10: a stationary point where the map's
        # identity |tr G_p - gamma - ||X L X||/beta| is 4.4e-7, far above
        # tol, and is reported, not required
        tri = solve_p2(heat16_config(beta=10.0, tol=1e-8), [0.3])
        assert tri.residual_stationarity <= 1e-12
        assert tri.trace_constraint_residual == pytest.approx(4.37e-7, rel=1e-3)
        assert tri.converged

    def test_matches_brute_force_grid_search(self, p2_problem):
        cfg = Problem2Config(A=p2_problem.A, Q=p2_problem.Q, W=p2_problem.W,
                             family=p2_problem.family, beta=100.0,
                             gamma=p2_problem.gamma, tol=1e-8, max_iter=400)
        tri = solve_p2(cfg, [0.3])
        best_p, cell = grid_argmin(cfg)
        assert abs(tri.p[0] - best_p) <= cell

    @pytest.mark.parametrize("side", [0, 1])
    def test_box_edge_start_reaches_grid_search_placement(self, p2_problem, side):
        cfg = Problem2Config(A=p2_problem.A, Q=p2_problem.Q, W=p2_problem.W,
                             family=p2_problem.family, beta=100.0,
                             gamma=p2_problem.gamma, tol=1e-8, max_iter=400)
        edge = cfg.family.domain()[0, side]
        tri = solve_p2(cfg, [edge])
        assert tri.residual_stationarity <= cfg.tol
        best_p, cell = grid_argmin(cfg)
        assert abs(tri.p[0] - best_p) <= cell

    @pytest.mark.parametrize("p0", [0.55, 16.0 / 17.0])
    def test_heat16_start_in_other_basin_reaches_global_minimizer(self, p0):
        # heat16 has a local minimizer near each end of the box, with costs
        # 1.8e-6 apart; starts right of ~0.5, up to the box's upper edge
        # 16/17, lie in the costlier one's basin
        cfg = heat16_config(beta=10.0)
        tri = solve_p2(cfg, [p0])
        assert tri.converged
        best_p, cell = grid_argmin(cfg)
        assert abs(tri.p[0] - best_p) <= cell

    def test_heat16_newton_needs_few_state_pairs(self, monkeypatch):
        cfg = heat16_config(beta=1e3, tol=1e-8)
        pairs = count_calls(monkeypatch, "solve_state_pair", optimize)
        tri = solve_p2(cfg, [0.3])
        assert tri.converged
        assert len(pairs) <= 20

    def test_handed_state_pair_is_not_solved_again(self, monkeypatch):
        cfg = heat16_config(beta=10.0)
        p = np.array([0.3])
        state = solve_state_pair(cfg, p)
        pairs = count_calls(monkeypatch, "solve_state_pair", optimize, keywords=True)
        tri = solve_p2(cfg, p, state=state)
        assert tri.converged and pairs
        assert not any(np.array_equal(args[1], p) for args, _ in pairs)

    def test_state_pair_solved_elsewhere_raises(self):
        # a pair from another placement would come back as a converged
        # triple carrying the wrong X
        cfg = heat16_config(beta=10.0)
        with pytest.raises(ValueError):
            solve_p2(cfg, [0.3], state=solve_state_pair(cfg, [0.35]))

    def test_same_basin_starts_agree(self, p2_problem):
        cfg = p2_problem
        limits = [solve_p2(cfg, [p0]).p for p0 in (0.25, 0.3, 0.35)]
        assert len(cluster_points(limits, tol=1e-6)) == 1


class TestContractionConstantP2:
    def test_unit_ledger_pinned_value(self):
        # four-block arithmetic by hand: 5/256 + 1/4 + 7/16 + 1/8 = 213/256
        rep = contraction_constant_p2(unit_ledger())
        assert rep.k == pytest.approx(213.0 / 256.0, abs=1e-15)
        assert rep.is_contraction
        assert sum(v for _, v in rep.term_breakdown) == pytest.approx(rep.k, abs=1e-12)
        labels = [label for label, _ in rep.term_breakdown]
        assert labels == ["I-difference", "II-lipschitz", "III-difference", "product-tail"]

    def test_large_mu_kills_every_block(self):
        rep = contraction_constant_p2(unit_ledger(mu=1e12))
        assert rep.k <= 1e-11
        blocks = dict(rep.term_breakdown)
        # the (I)-difference block decays one order faster (extra 1/mu in k_I)
        assert blocks["I-difference"] <= 0.1 * (blocks["II-lipschitz"]
                                                + blocks["product-tail"])

    def test_alpha_growth_shrinks_every_block(self):
        led1 = unit_ledger()
        led10 = ConstantLedger(**{**led1.__dict__, "alpha": 10.0})
        rep1 = contraction_constant_p2(led1)
        rep10 = contraction_constant_p2(led10)
        for (label1, v1), (label10, v10) in zip(rep1.term_breakdown, rep10.term_breakdown):
            assert label1 == label10
            assert v10 < v1

    def test_beta_threshold_hits_one(self):
        led = unit_ledger(beta=5.0)
        rep = contraction_constant_p2(led)
        assert np.isfinite(rep.beta_threshold)
        at = contraction_constant_p2(ConstantLedger(**{**led.__dict__,
                                                       "beta": rep.beta_threshold}))
        assert at.k == pytest.approx(1.0, abs=1e-12)


def gradient_differences(cfg, p, h=1e-6):
    """Central differences of gradient_p2, column j along coordinate j."""
    return np.column_stack([
        (gradient_p2(cfg, p + h * e) - gradient_p2(cfg, p - h * e)) / (2 * h)
        for e in np.eye(p.size)])


class TestReducedHessianP2:
    def test_heat16_matches_gradient_differences_at_both_curvature_signs(self):
        cfg = heat16_config(beta=1e3)
        signs = set()
        for p in ([0.1], [0.3], [0.55]):
            p = np.array(p)
            H, _ = optimize._reduced_hessian(cfg, optimize.solve_state_pair(cfg, p))
            assert abs(H[0, 0] - gradient_differences(cfg, p)[0, 0]) <= 1e-6 * abs(H[0, 0])
            signs.add(np.sign(H[0, 0]))
        assert signs == {-1.0, 1.0}

    def test_two_actuators_match_gradient_differences(self):
        A, grid = heat_like(8, nu=0.05)
        fam = GaussianActuators(grid=grid, sigma=0.15, param_dim=2)
        W = np.zeros((8, 8))
        W[2, 2] = 1.0
        cfg = Problem2Config(A=A, Q=np.eye(8), W=W, family=fam, beta=200.0,
                             gamma=0.9 * fam.trace_G([0.35, 0.65]))
        for p in ([0.3, 0.35], [0.2, 0.7]):
            p = np.array(p)
            H, _ = optimize._reduced_hessian(cfg, optimize.solve_state_pair(cfg, p))
            assert np.linalg.norm(H - gradient_differences(cfg, p)) <= 1e-6 * np.linalg.norm(H)
            assert abs(H[0, 1]) > 0.0  # the actuators couple

    @pytest.mark.parametrize("d,beta", [(1, 1e-3), (1, 10.0), (2, 1e-3)])
    def test_problem1_matches_gradient_differences(self, d, beta):
        # problem 1's penalty Hessian is beta I, with no tr d2G term;
        # gradient_p2 is gradient_p1, the config supplying the penalty
        A, grid = heat_like(8, nu=0.05)
        fam = GaussianActuators(grid=grid, sigma=0.15, param_dim=d)
        W = np.zeros((8, 8))
        W[2, 2] = 1.0
        cfg = Problem1Config(A=A, Q=np.eye(8), W=W, family=fam, beta=beta)
        for p in ([0.3, 0.35], [0.2, 0.7]):
            p = np.array(p[:d])
            H, _ = optimize._reduced_hessian(cfg, optimize.solve_state_pair(cfg, p))
            assert np.linalg.norm(H - gradient_differences(cfg, p)) <= 1e-6 * np.linalg.norm(H)


    @pytest.mark.parametrize("d", [1, 2])
    def test_non_symmetric_model_takes_one_schur_form_for_dual_and_directions(
            self, monkeypatch, rng, d):
        n = 8
        fam = GaussianActuators(grid=np.linspace(0.1, 0.9, n), sigma=0.15, param_dim=d)
        p = np.linspace(0.3, 0.7, d)
        W = np.zeros((n, n))
        W[2, 2] = 1.0
        cfg = Problem2Config(A=rand_stable(n, rng), Q=np.eye(n), W=W, family=fam,
                             beta=200.0, gamma=0.9 * fam.trace_G(p))
        schur = count_calls(monkeypatch, "_real_schur", linalg)
        state = optimize.solve_state_pair(cfg, p)
        H, _ = optimize._reduced_hessian(cfg, state)
        assert len(schur) == state.sol.schur_steps + 1
        monkeypatch.undo()
        assert np.linalg.norm(H - gradient_differences(cfg, p)) <= 1e-6 * np.linalg.norm(H)


class TestTangentStart:
    """Each backtracking trial warm-starts Newton-Kleinman from the first-order
    prediction X(p) + sum_k X'_k (p_try - p)_k, the sensitivities X'_k being
    the ones _reduced_hessian solved at p."""

    @staticmethod
    def two_actuator_config():
        A, grid = heat_like(8, nu=0.05)
        fam = GaussianActuators(grid=grid, sigma=0.15, param_dim=2)
        W = np.zeros((8, 8))
        W[2, 2] = 1.0
        return Problem2Config(A=A, Q=np.eye(8), W=W, family=fam, beta=200.0,
                              gamma=0.9 * fam.trace_G([0.35, 0.65]))

    @pytest.mark.parametrize("d", [1, 2])
    def test_sensitivities_match_state_differences(self, d, h=1e-6):
        cfg, p = ((heat16_config(beta=10.0), np.array([0.3])) if d == 1
                  else (self.two_actuator_config(), np.array([0.3, 0.35])))
        _, dX = optimize._reduced_hessian(cfg, solve_state_pair(cfg, p))
        assert len(dX) == d
        for D, e in zip(dX, np.eye(d)):
            diff = (solve_state_pair(cfg, p + h * e).sol.X
                    - solve_state_pair(cfg, p - h * e).sol.X) / (2 * h)
            assert np.linalg.norm(D - diff) <= 1e-6 * np.linalg.norm(D)

    def test_destabilizing_prediction_falls_back_to_the_cold_solve(self, monkeypatch):
        cfg = heat16_config(beta=10.0)
        state = solve_state_pair(cfg, [0.3])
        grad = state.gradient(cfg)
        H, _ = optimize._reduced_hessian(cfg, state)
        active = np.array([False])
        step = optimize._newton_step(H, grad, active)
        lo, hi = cfg.box(1)
        p_try = np.clip(state.p - step, lo, hi)  # the first trial
        # a sensitivity that predicts X0 = X(p) - 1e3 I, whose closed loop
        # A - X0 G is unstable
        forced = [np.eye(16) * (-1e3 / float(p_try[0] - state.p[0]))]
        with pytest.raises(ClosedLoopUnstable):
            solve_are(cfg.A, cfg.family.G(p_try), cfg.Q, cert=cfg.cert,
                      X0=state.sol.X + forced[0] * (p_try - state.p)[0])
        ares = count_calls(monkeypatch, "solve_are", optimize, keywords=True)
        solved = []

        def solve_state_pair_kept(*args, _original=optimize.solve_state_pair, **kwargs):
            solved.append(_original(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(optimize, "solve_state_pair", solve_state_pair_kept)
        optimize._backtrack(cfg, {}, state, forced, state.cost(cfg), grad, step,
                            active, lo, hi)
        assert np.array_equal(solved[0].p, p_try)
        assert [kwargs.get("X0") is not None for _, kwargs in ares[:2]] == [True, False]
        monkeypatch.undo()
        assert solved[0].sol.X.tobytes() == solve_state_pair(cfg, p_try).sol.X.tobytes()


class TestHessianP2:
    def test_zero_direction(self, p2_problem):
        tri = solve_p2(p2_problem, [0.3])
        assert hessian_p2(p2_problem, tri, [0.0]) == 0.0

    def test_beta_sweep_monotone_and_eventually_positive(self, p2_problem):
        cfg = p2_problem
        tri = solve_p2(cfg, [0.3])
        q = np.array([1.0])
        values = []
        for beta in (1.0, 10.0, 100.0, 1000.0):
            cfg_b = Problem2Config(A=cfg.A, Q=cfg.Q, W=cfg.W, family=cfg.family,
                                   beta=beta, gamma=cfg.gamma, tol=cfg.tol)
            values.append(hessian_p2(cfg_b, tri, q))
        assert all(b > a for a, b in zip(values, values[1:]))
        assert values[-1] > 0.0

    def test_matches_frozen_lagrangian_differences(self, p2_problem):
        # exact-coefficient variant against second differences of
        # p -> beta/2 (tr G_p - gamma)^2 - tr(Lambda X G_p X), X, Lambda frozen
        cfg = p2_problem
        tri = solve_p2(cfg, [0.3])
        M = symmetrize(tri.X @ tri.Lambda @ tri.X)

        def frozen(p):
            gap = cfg.family.trace_G(p) - cfg.gamma
            return 0.5 * cfg.beta * gap**2 - float(np.tensordot(M, cfg.family.G(p)))

        h = 1e-4
        q = np.array([1.0])
        fd = (frozen(tri.p + h * q) - 2 * frozen(tri.p) + frozen(tri.p - h * q)) / h**2
        analytic = hessian_p2(cfg, tri, q, coefficient="trace_gap")
        assert abs(fd - analytic) <= 1e-4 * (1.0 + abs(analytic))

    def test_gain_and_trace_gap_coefficients_differ_as_documented(self, p2_problem):
        cfg = p2_problem
        tri = solve_p2(cfg, [0.3])
        q = np.array([1.0])
        gain_form = hessian_p2(cfg, tri, q, coefficient="gain")
        exact = hessian_p2(cfg, tri, q, coefficient="trace_gap")
        lead_gain = operator_norm(tri.X @ cfg.family.G(tri.p) @ tri.X)
        lead_exact = cfg.beta * tri.trace_gap
        d2 = float(np.trace(cfg.family.d2G(tri.p, q, q)))
        assert gain_form - exact == pytest.approx((lead_gain - lead_exact) * d2, rel=1e-9)


class TestConfigScalars:
    @pytest.mark.parametrize("field", ["beta", "gamma", "tol"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_non_finite_or_non_positive_scalar_is_rejected(self, monkeypatch, field, value):
        # NaN and infinities fail at construction, before A is certified,
        # not later as a non-finite p or a run out of iterations
        certificates = count_calls(monkeypatch, "certify_stability", optimize)
        fields = dict(A=np.array([[-1.0]]), Q=np.array([[3.0]]), W=np.array([[1.0]]),
                      family=ConstantFamily(matrix=np.array([[1.0]])), beta=1.0, gamma=1.0)
        fields[field] = value
        with pytest.raises(ValueError, match=f"^{field} must be finite and positive"):
            Problem2Config(**fields)
        if field != "gamma":
            del fields["gamma"]
            with pytest.raises(ValueError, match=f"^{field} must be finite and positive"):
                Problem1Config(**fields)
        assert len(certificates) == 0

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5])
    def test_max_iter_must_be_a_positive_integer(self, monkeypatch, max_iter):
        # -3 once constructed and raised MaxIterExceeded after -3 iterations
        certificates = count_calls(monkeypatch, "certify_stability", optimize)
        fields = dict(A=np.array([[-1.0]]), Q=np.array([[3.0]]), W=np.array([[1.0]]),
                      family=ConstantFamily(matrix=np.array([[1.0]])), beta=1.0,
                      max_iter=max_iter)
        message = f"^max_iter must be an integer >= 1, got {max_iter}$"
        with pytest.raises(ValueError, match=message):
            Problem1Config(**fields)
        with pytest.raises(ValueError, match=message):
            Problem2Config(gamma=1.0, **fields)
        assert len(certificates) == 0


class TestBetaSweep:
    @pytest.mark.parametrize("betas", [[np.nan], [10.0, np.inf], [100.0, 10.0], [10.0, 10.0],
                                       [0.0, 1.0], [-1.0], []])
    def test_schedule_must_be_finite_positive_and_ascending(self, p2_problem, betas):
        with pytest.raises(ValueError, match="^betas must be finite, positive and strictly"):
            beta_sweep(p2_problem, betas, [0.3])

    @pytest.mark.parametrize("p0", [[0.3, 0.4], [np.nan], [np.inf]])
    def test_bad_start_raises_before_the_first_row(self, monkeypatch, p0):
        # a p0 that solve_p2 refuses is not the failure of one beta: the
        # sweep raises solve_p2's error, before any state solve
        cfg = heat16_config(10.0)
        with pytest.raises(DimensionMismatch) as single:
            solve_p2(cfg, p0)
        solves = count_calls(monkeypatch, "solve_state_pair", optimize)
        with pytest.raises(DimensionMismatch) as swept:
            beta_sweep(cfg, [10, 100], p0)
        assert str(swept.value) == str(single.value) and len(solves) == 0

    def test_gap_halves_when_beta_doubles(self, p2_problem):
        cfg = p2_problem
        betas = [25.0, 50.0, 100.0, 200.0]
        report = beta_sweep(cfg, betas, [0.3])
        gaps = [r.trace_gap for r in report.rows]
        assert all(not r.failed for r in report.rows)
        slopes = [np.log(g2 / g1) / np.log(b2 / b1)
                  for (g1, g2, b1, b2) in zip(gaps, gaps[1:], betas, betas[1:])]
        for s in slopes:
            assert abs(s + 1.0) <= 0.1
        # the recorded gap-law flags must agree with the row data; whether the
        # law itself holds is configuration-dependent (asserted in acceptance
        # on the tuned model)
        for row, holds in zip(report.rows, report.gap_law_holds):
            expected = row.trace_gap <= report.sup_xlx_recorded / row.beta + 1e-12
            assert holds == expected

    def test_w_zero_gap_below_tol_everywhere(self, p2_problem):
        cfg = Problem2Config(A=p2_problem.A, Q=p2_problem.Q, W=np.zeros((N, N)),
                             family=p2_problem.family, beta=1.0,
                             gamma=p2_problem.gamma, tol=1e-9, max_iter=400)
        report = beta_sweep(cfg, [10.0, 100.0], [0.35])
        for row in report.rows:
            assert row.trace_gap <= cfg.tol

    def test_row_out_of_iterations_hands_its_best_iterate_on(self, monkeypatch):
        # the README sweep with one iteration a row: the first row raises
        # MaxIterExceeded, is failed, reports the best iterate's p and
        # iterations, and the next row starts from that iterate's state pair
        cfg = replace(heat16_config(beta=10.0), max_iter=1)
        starts, errors = [], []

        def solve_p2(cfg_b, p, state=None, _original=optimize.solve_p2, **kwargs):
            starts.append((np.array(p), state))
            try:
                return _original(cfg_b, p, state=state, **kwargs)
            except MaxIterExceeded as err:
                errors.append(err)
                raise

        monkeypatch.setattr(optimize, "solve_p2", solve_p2)
        report = beta_sweep(cfg, [10.0, 100.0], [0.3])
        best = errors[0].best
        row = report.rows[0]
        assert row.failed and not row.converged and row.error == str(errors[0])
        assert row.p.tobytes() == best.p.tobytes() and row.iterations == best.iterations == 1
        assert row.cost == best.state.cost(optimize.replace_beta(cfg, 10.0))
        p, state = starts[1]
        assert state is best.state and p.tobytes() == best.p.tobytes()

    def test_row_failing_before_iterating_reports_no_iterations(self):
        # a constant family has a singular Gram matrix: solve_p2 raises
        # DegenerateFamily before its first iteration
        cfg = Problem2Config(A=-np.eye(3), Q=np.eye(3), W=np.eye(3),
                             family=ConstantFamily(matrix=np.eye(3)), beta=1.0,
                             gamma=1.0, max_iter=500)
        report = beta_sweep(cfg, [10.0, 100.0], [0.3])
        assert [(r.failed, r.iterations) for r in report.rows] == [(True, 0), (True, 0)]
        assert all(r.error.startswith("dG*dG numerically singular") for r in report.rows)

    def test_ledger_enables_contraction_columns(self, p2_problem):
        cfg = p2_problem
        led = unit_ledger()
        report = beta_sweep(cfg, [50.0, 100.0], [0.3], ledger=led)
        for row in report.rows:
            assert row.k is not None and row.is_contraction is not None

    def test_rejects_non_ascending(self, p2_problem):
        with pytest.raises(ValueError):
            beta_sweep(p2_problem, [100.0, 10.0], [0.3])

    @staticmethod
    def counted_heat16_sweep(monkeypatch):
        """The README sweep, with its state pairs and solve_are calls counted,
        and the Newton-Kleinman steps of each solution solve_are returned."""
        cfg = heat16_config(beta=10.0)
        pairs = count_calls(monkeypatch, "solve_state_pair", optimize)
        ares = count_calls(monkeypatch, "solve_are", optimize, keywords=True)
        steps = []

        def solve_are(*args, _original=optimize.solve_are, **kwargs):
            sol = _original(*args, **kwargs)
            steps.append(sol.newton_iters)
            return sol

        monkeypatch.setattr(optimize, "solve_are", solve_are)
        report = beta_sweep(cfg, [10.0, 1e2, 1e3, 1e4], [0.3])
        assert all(r.converged and not r.failed for r in report.rows)
        return report, pairs, ares, steps

    # solving every state pair cold, and each row's start again, takes
    # 16 state pairs and 64 Newton-Kleinman steps; warm starts from X(p)
    # take 13 and 31; solving the box-edge map image p = 1/17 once per sweep
    # and starting each trial from the tangent take 11 and 21
    def test_heat16_sweep_state_pairs(self, monkeypatch):
        _, pairs, _, _ = self.counted_heat16_sweep(monkeypatch)
        assert len(pairs) == 11

    def test_heat16_sweep_newton_steps(self, monkeypatch):
        _, _, ares, steps = self.counted_heat16_sweep(monkeypatch)
        assert len(steps) == len(ares) > 0
        assert sum(steps) <= 21

    def test_heat16_sweep_takes_no_schur_form(self, monkeypatch):
        # the Newton steps, the multipliers and the Hessian directions all
        # run on capacitance systems in A's eigenbasis
        schur = count_calls(monkeypatch, "_real_schur", linalg)
        report, _, _, _ = self.counted_heat16_sweep(monkeypatch)
        assert [r.iterations for r in report.rows] == [6, 1, 1, 1]
        assert len(schur) == 0

    def test_heat16_sweep_tests_Q_once(self, monkeypatch):
        # the config's PSD test of Q is handed to its certificate, and every
        # solve reads it from there
        eigvalsh = count_calls(monkeypatch, "eigvalsh", np.linalg)
        self.counted_heat16_sweep(monkeypatch)
        assert sum(np.array_equal(args[0], np.eye(16)) for args in eigvalsh) == 1

    def test_heat16_sweep_warm_starts_riccati(self, monkeypatch):
        _, _, ares, _ = self.counted_heat16_sweep(monkeypatch)
        assert any(kwargs.get("X0") is not None for _, kwargs in ares)

    def test_heat16_rows_do_not_resolve_previous_end(self, monkeypatch):
        # X(p) and Lambda(p) do not depend on beta: each row starts from the
        # state pair the previous row ended at
        report, pairs, _, _ = self.counted_heat16_sweep(monkeypatch)
        for row in report.rows[:-1]:
            assert sum(np.array_equal(args[1], row.p) for args in pairs) == 1

    def test_heat16_sweep_solves_no_placement_twice(self, monkeypatch):
        # X(p) and Lambda(p) do not depend on beta: rows 3 and 4 read the
        # clipped map image p = 1/17 from the sweep's store
        _, pairs, _, _ = self.counted_heat16_sweep(monkeypatch)
        placed = [np.array(args[1], dtype=float, ndmin=1).tobytes() for args in pairs]
        assert len(set(placed)) == len(placed)

    def test_store_keeps_only_box_edge_state_pairs(self):
        # row 2 of the README sweep solves its map image on the lower bound
        cfg = heat16_config(beta=10.0)
        row_1 = solve_p2(cfg, [0.3])
        store = {}
        solve_p2(optimize.replace_beta(cfg, 100.0), row_1.p, state=row_1.state, _pairs=store)
        lower = np.array([cfg.family.domain()[0, 0]])
        assert list(store) == [lower.tobytes()]
        assert np.array_equal(store[lower.tobytes()].p, lower)

    def test_interior_solve_stores_no_state_pair(self, monkeypatch):
        # two actuators on heat1d n = 32 at beta = 10: 40 iterations whose
        # 64 state pairs all lie inside the box
        A, grid = heat1d(32)
        fam = GaussianActuators(grid=grid, sigma=0.12, param_dim=2)
        W = np.zeros((32, 32))
        W[8, 8] = W[24, 24] = 1.0
        p0 = np.linspace(0.2, 0.8, 2) + 0.01
        cfg = Problem2Config(A=A, Q=np.eye(32), W=W, family=fam, beta=10.0,
                             gamma=fam.trace_G(p0), tol=1e-6, max_iter=200)
        pairs = count_calls(monkeypatch, "solve_state_pair", optimize)
        store = {}
        tri = solve_p2(cfg, p0, _pairs=store)
        assert tri.converged and tri.iterations == 40 and len(pairs) == 64
        lo, hi = cfg.box(2)
        assert all(np.all((lo < args[1]) & (args[1] < hi)) for args in pairs)
        assert store == {}

    def test_heat16_sweep_inverts_one_gram_matrix_a_placement(self, monkeypatch):
        # at the first row's start p0, where the map start reuses the
        # inverse, and at each row's end point but the last, for the next
        # row's map start, which reads that inverse off the state pair it is
        # handed; the reported map residual, which no row carries, is not
        # computed
        grams = count_calls(monkeypatch, "gram", GaussianActuators)
        report, _, _, _ = self.counted_heat16_sweep(monkeypatch)
        assert len(grams) == len(report.rows) == 4
        placements = [0.3] + [r.p[0] for r in report.rows[:-1]]
        assert [args[1][0] for args in grams] == placements

    def test_heat16_sweep_derives_each_state_fact_once(self, monkeypatch):
        # G_p is built once per state pair; tr G_p, X Lambda X and its norm
        # are derived at most once per state pair and read off the record
        Gs = count_calls(monkeypatch, "G", GaussianActuators)
        traces = count_calls(monkeypatch, "trace_G", GaussianActuators)
        op_norms = count_calls(monkeypatch, "operator_norm", optimize)
        xlx_norms = count_computed(monkeypatch, optimize.StatePair, "xlx_norm")
        formed = []

        def xlx(state, _form=optimize.StatePair.xlx.func):
            formed.append(state)
            return _form(state)

        counted_xlx = functools.cached_property(xlx)
        counted_xlx.__set_name__(optimize.StatePair, "xlx")
        monkeypatch.setattr(optimize.StatePair, "xlx", counted_xlx)
        _, pairs, _, _ = self.counted_heat16_sweep(monkeypatch)
        assert len(pairs) == len(Gs) == 11
        assert len(traces) <= 11
        assert len(op_norms) <= 5
        assert len(xlx_norms) <= 5 and len(set(map(id, xlx_norms))) == len(xlx_norms)
        assert len(formed) <= 11 and len(set(map(id, formed))) == len(formed)

        # a record's facts read twice ask the family once
        state = solve_state_pair(heat16_config(beta=10.0), [0.3])
        calls = {name: count_calls(monkeypatch, name, GaussianActuators)
                 for name in ("trace_G", "dG_adjoint", "gram")}
        for _ in range(2):
            facts = (state.xlx, state.xlx_norm, state.trace_G, state.adjoint_identity,
                     state.adjoint_xlx, state.gram_inverse)
            assert all(fact is not None for fact in facts)
        assert {name: len(c) for name, c in calls.items()} == {
            "trace_G": 1, "dG_adjoint": 2, "gram": 1}
        assert formed[-1] is state and formed.count(state) == 1

    def test_heat16_sweep_takes_one_gradient_per_newton_point(self, monkeypatch):
        # each row's start and each backtracking trial; the end point's
        # gradient is the one Newton's stop test read.  The state pairs are
        # p0 and the 10 trial points: rows 3 and 4 read the clipped map
        # image p = 1/17, which costs more than their start, from the
        # sweep's store, where row 2 left it
        grads = count_calls(monkeypatch, "gradient", optimize.StatePair)
        report, pairs, _, _ = self.counted_heat16_sweep(monkeypatch)
        assert len(grads) == 12
        assert len(pairs) == 11
        assert [r.iterations for r in report.rows] == [6, 1, 1, 1]
        np.testing.assert_allclose(
            [r.p[0] for r in report.rows],
            [0.07762478600169102, 0.07762476895589714,
             0.07762476725132166, 0.07762476708086385], rtol=1e-9)

    def test_heat16_sweep_row_cost_is_its_terms(self, monkeypatch):
        # each row's cost is its state pair's cost, the sum of the trace
        # and penalty terms the row reports, bit for bit
        report, _, _, _ = self.counted_heat16_sweep(monkeypatch)
        assert all(r.cost == r.trace_term + r.penalty_term for r in report.rows)

    def test_heat16_sweep_builds_no_certificate(self, monkeypatch):
        # A is certified once, when the config is built
        cfg = heat16_config(beta=10.0)
        calls = count_calls(monkeypatch, "certify_stability", optimize, dual, riccati)
        report = beta_sweep(cfg, [10.0, 100.0], [0.3])
        assert all(r.converged and not r.failed for r in report.rows)
        assert len(calls) == 0


class TestConfigValidation:
    """Q and W are tested before A is certified, with the texts of
    check_psd; the config's plant then holds Q's test for the solves."""

    @staticmethod
    def config(A, Q, W):
        grid = np.linspace(0.1, 0.9, 4)
        return Problem2Config(A=A, Q=Q, W=W, family=GaussianActuators(grid=grid, sigma=0.12),
                              beta=10.0, gamma=1.0)

    def test_Q_then_W_then_the_generator(self):
        unstable, indefinite = np.eye(4), np.diag([1.0, 1.0, 1.0, -1.0])
        with pytest.raises(ValueError, match="^Q is not PSD: lambda_min = -1.000e"):
            self.config(unstable, indefinite, indefinite)
        with pytest.raises(ValueError, match="^W is not PSD: lambda_min = -1.000e"):
            self.config(unstable, np.eye(4), indefinite)
        with pytest.raises(UnstableGenerator):
            self.config(unstable, np.eye(4), np.eye(4))

    def test_the_configs_plant_holds_its_test_of_Q(self, monkeypatch):
        cfg = self.config(-np.eye(4), np.eye(4), np.eye(4))
        checks = count_calls(monkeypatch, "check_psd", riccati)
        assert cfg.cert._plant is cfg.plant
        assert riccati.Plant.of(cfg.cert, cfg.A, cfg.Q.copy()) is cfg.plant
        solve_state_pair(cfg, np.array([0.4]))
        assert cfg.cert._plant is cfg.plant
        assert len(checks) == 0 and np.array_equal(cfg.plant.spectrum, np.ones(4))

    def test_duals_read_the_configs_test_of_W(self, monkeypatch):
        W = np.diag([0.0, 1.0, 2.0, 0.0])
        cfg = self.config(-np.eye(4), np.eye(4), W)
        assert np.array_equal(cfg.W_spectrum, np.linalg.eigvalsh(W))
        checks = count_calls(monkeypatch, "check_psd", dual)
        state = solve_state_pair(cfg, np.array([0.4]))
        assert len(checks) == 0
        # a direct call still tests W, with check_psd's text
        bare = dual.solve_dual(cfg.A, state.G, state.sol, W)
        assert len(checks) == 1 and np.array_equal(bare.Lambda, state.dsol.Lambda)
        with pytest.raises(ValueError, match="^W is not PSD: lambda_min = -1.000e"):
            dual.solve_dual(cfg.A, state.G, state.sol, np.diag([1.0, 1.0, 1.0, -1.0]))
