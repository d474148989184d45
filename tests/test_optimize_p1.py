import numpy as np
import pytest

from riccati_place import optimize
from riccati_place.devices import CallableFamily, ConstantFamily, GaussianActuators
from riccati_place.dual import dual_residual
from riccati_place.errors import MaxIterExceeded
from riccati_place.linalg import symmetrize
from riccati_place.optimize import (
    Problem1Config,
    cluster_points,
    contraction_constant_p1,
    cost_p1,
    critical_cone_basis,
    gradient_p1,
    hessian_p1,
    hessian_p1_full,
    lipschitz_bound_check,
    solve_p1,
    stationarity_residual_p1,
)
from riccati_place.devices import ConstantLedger, estimate_constants
from riccati_place.riccati import riccati_residual, solve_are

from conftest import count_calls, heat1d, iterate_p1_map


def heat_like(n=6, nu=0.05, length=1.0):
    h = length / (n + 1)
    A = (nu / h**2) * (np.diag(np.full(n - 1, 1.0), -1)
                       + np.diag(np.full(n, -2.0))
                       + np.diag(np.full(n - 1, 1.0), 1))
    grid = h * np.arange(1, n + 1)
    return A, grid


@pytest.fixture(scope="module")
def small_problem():
    A, grid = heat_like()
    fam = GaussianActuators(grid=grid, sigma=0.18)
    return Problem1Config(A=A, Q=np.eye(6), W=np.eye(6), family=fam,
                          beta=8.0, tol=1e-10, max_iter=300)


def scalar_quadratic_family():
    return CallableFamily(
        param_dim=1, state_dim=1,
        g_fn=lambda p: np.array([[p[0] ** 2]]),
        dg_fn=lambda p, q: np.array([[2.0 * p[0] * q[0]]]),
        d2g_fn=lambda p, q, r: np.array([[2.0 * q[0] * r[0]]]),
    )


class TestCostP1:
    def test_zero_everything(self):
        fam = ConstantFamily(matrix=np.array([[1.0]]))
        cfg = Problem1Config(A=np.array([[-1.0]]), Q=np.array([[3.0]]),
                             W=np.zeros((1, 1)), family=fam, beta=2.0)
        cfg_w0 = cfg
        assert cost_p1(cfg_w0, [0.0]) == 0.0

    def test_scalar_chain(self):
        fam = ConstantFamily(matrix=np.array([[1.0]]))
        cfg = Problem1Config(A=np.array([[-1.0]]), Q=np.array([[3.0]]),
                             W=np.array([[1.0]]), family=fam, beta=2.0)
        # X = 1 from the scalar quadratic, so cost = 1 + (beta/2) 0.25
        assert cost_p1(cfg, [0.5]) == pytest.approx(1.25, abs=1e-12)

    def test_affine_in_beta(self, small_problem):
        cfg = small_problem
        cfg2 = Problem1Config(A=cfg.A, Q=cfg.Q, W=cfg.W, family=cfg.family,
                              beta=2 * cfg.beta, tol=cfg.tol, max_iter=cfg.max_iter)
        p = np.array([0.4])
        delta = cost_p1(cfg2, p) - cost_p1(cfg, p)
        assert delta == pytest.approx(0.5 * cfg.beta * 0.16, rel=1e-12)


class TestStationarityP1:
    def test_w_zero_collapse(self):
        A, grid = heat_like()
        fam = GaussianActuators(grid=grid, sigma=0.18)
        cfg = Problem1Config(A=A, Q=np.eye(6), W=np.zeros((6, 6)), family=fam, beta=3.0)
        for p in ([0.3], [0.7], [0.0]):
            g = gradient_p1(cfg, p)
            assert np.allclose(g, cfg.beta * np.asarray(p), atol=1e-12)
        assert np.linalg.norm(gradient_p1(cfg, [0.0])) == 0.0

    def test_matches_central_differences(self, small_problem, rng):
        cfg = small_problem
        h = 1e-5
        for _ in range(6):
            p = rng.uniform(0.2, 0.8, 1)
            g = gradient_p1(cfg, p)
            fd = np.array([(cost_p1(cfg, p + h * e) - cost_p1(cfg, p - h * e)) / (2 * h)
                           for e in np.eye(1)])
            assert np.linalg.norm(fd - g) <= 1e-5 * (1.0 + np.linalg.norm(g))


class TestSolveP1:
    def test_w_zero_fixed_point_is_origin(self, rng):
        A, grid = heat_like()
        fam = GaussianActuators(grid=grid, sigma=0.18)
        cfg = Problem1Config(A=A, Q=np.eye(6), W=np.zeros((6, 6)), family=fam,
                             beta=3.0, tol=1e-12)
        tri = solve_p1(cfg, rng.uniform(0.1, 0.9, 1))
        assert np.allclose(tri.p, 0.0, atol=1e-12)
        assert tri.converged

    def test_scalar_quadratic_family_brute_force(self):
        fam = scalar_quadratic_family()
        cfg = Problem1Config(A=np.array([[-1.0]]), Q=np.array([[3.0]]),
                             W=np.array([[1.0]]), family=fam, beta=50.0, tol=1e-12)
        tri = solve_p1(cfg, [0.8])
        assert tri.converged
        assert abs(tri.p[0]) <= 1e-10  # unique fixed point of the contractive map

        # brute-force iteration oracle from the scalar closed forms
        p = 0.8
        for _ in range(60):
            s = np.sqrt(1.0 + 3.0 * p * p)
            X = (-1.0 + s) / (p * p) if p != 0 else 1.5
            lam = 1.0 / (2.0 * s)
            p = (1.0 / cfg.beta) * 2.0 * p * X * lam * X
        assert abs(p - tri.p[0]) <= 1e-10

    def test_fixed_point_soundness(self, small_problem):
        # independent re-evaluation of all three optimality equations
        cfg = small_problem
        tri = solve_p1(cfg, [0.35])
        assert tri.converged
        G = cfg.family.G(tri.p)
        assert riccati_residual(cfg.A, G, cfg.Q, tri.X) <= cfg.tol
        assert dual_residual(cfg.A.T - G @ tri.X, tri.Lambda, cfg.W) <= cfg.tol
        assert stationarity_residual_p1(cfg, tri) <= cfg.tol

    def test_reports_the_state_pairs_gradient(self, small_problem):
        # one owner for the problem-1 gradient: the triple's residual is its norm
        tri = solve_p1(small_problem, [0.35])
        assert tri.residual_stationarity == stationarity_residual_p1(small_problem, tri)

    def test_max_iter_exceeded_carries_best(self):
        A, grid = heat_like()
        fam = GaussianActuators(grid=grid, sigma=0.18)
        cfg = Problem1Config(A=A, Q=np.eye(6), W=np.eye(6), family=fam,
                             beta=8.0, tol=1e-10, max_iter=1)
        with pytest.raises(MaxIterExceeded) as exc:
            solve_p1(cfg, [0.4])
        assert exc.value.best is not None
        assert not exc.value.best.converged

    @pytest.mark.parametrize("beta,placement", [(1e-4, 0.335860), (1e-3, 0.021336)])
    def test_readme_model_small_beta_converges_in_five_state_pairs(
            self, monkeypatch, beta, placement):
        # the README model (heat1d n = 16, sigma = 0.12, W = e3 e3'), where
        # iterating the fixed-point map takes 14 state pairs at beta = 1e-3
        # and finds no fixed point within 300 at beta = 1e-4
        A, grid = heat1d(16)
        W = np.zeros((16, 16))
        W[3, 3] = 1.0
        cfg = Problem1Config(A=A, Q=np.eye(16), W=W, beta=beta, tol=1e-8, max_iter=300,
                             family=GaussianActuators(grid=grid, sigma=0.12))
        pairs = count_calls(monkeypatch, "solve_state_pair", optimize)
        tri = solve_p1(cfg, [0.4])
        assert tri.converged and len(pairs) <= 5
        assert tri.p[0] == pytest.approx(placement, abs=1e-6)
        assert tri.fixed_point_residual == pytest.approx(
            np.linalg.norm(tri.p - tri.state.adjoint_xlx / beta), rel=1e-12)


class TestContractionConstantP1:
    def unit_ledger(self, beta=1.0):
        return ConstantLedger(g=1.0, L_G=1.0, L_dG=1.0, C_dG=1.0, K=1.0,
                              mu=1.0, M=1.0, alpha=1.0, trQ=1.0, normW=1.0,
                              beta=beta, gamma=1.0, sup_xlx=1.0)

    def test_unit_ledger_frozen_value(self):
        # 1/16 + 1/16 + (1/2)(1/16 + 1/4) = 9/32, by direct arithmetic
        rep = contraction_constant_p1(self.unit_ledger())
        assert rep.k == pytest.approx(9.0 / 32.0, abs=1e-15)
        assert rep.is_contraction  # 9/32 < 1
        assert sum(v for _, v in rep.term_breakdown) == pytest.approx(rep.k, abs=1e-12)

    def test_beta_doubling_halves_k(self):
        k1 = contraction_constant_p1(self.unit_ledger(beta=1.0)).k
        k2 = contraction_constant_p1(self.unit_ledger(beta=2.0)).k
        assert k2 == pytest.approx(0.5 * k1, rel=1e-15)

    def test_threshold_definition(self):
        rep = contraction_constant_p1(self.unit_ledger(beta=3.7))
        at_threshold = contraction_constant_p1(self.unit_ledger(beta=rep.beta_threshold))
        assert at_threshold.k == pytest.approx(1.0, abs=1e-12)

    def test_contraction_realized(self, small_problem):
        # k < 1 certified => the map's observed step ratios <= k + 0.05 and a
        # unique limit, which Newton finds too
        cfg = small_problem
        fam = cfg.family
        led = estimate_constants(fam, fam.domain(), 60, seed=3, cfg=cfg)
        beta = 2.0 * contraction_constant_p1(led).beta_threshold
        cfg2 = Problem1Config(A=cfg.A, Q=cfg.Q, W=cfg.W, family=fam, beta=beta,
                              tol=1e-11, max_iter=200)
        led2 = ConstantLedger(**{**led.__dict__, "beta": beta})
        rep = contraction_constant_p1(led2)
        assert rep.is_contraction and rep.k == pytest.approx(0.5, rel=1e-12)

        limits = []
        rng = np.random.default_rng(0)
        for _ in range(4):
            p0 = rng.uniform(0.1, 0.9, 1)
            history = iterate_p1_map(cfg2, p0)
            limits.append(history[-1])
            steps = [np.linalg.norm(b - a) for a, b in zip(history, history[1:])]
            for s0, s1 in zip(steps, steps[1:]):
                if s0 > 1e-13:
                    assert s1 / s0 <= rep.k + 0.05
            assert np.linalg.norm(solve_p1(cfg2, p0).p - history[-1]) <= 1e-8
        clusters = cluster_points(limits, tol=1e-8)
        assert len(clusters) == 1


class TestHessianP1:
    def test_zero_directions(self, small_problem):
        tri = solve_p1(small_problem, [0.4])
        assert hessian_p1(small_problem, tri, [0.0], [0.0]) == 0.0

    def test_positive_at_large_beta(self, small_problem, rng):
        cfg = small_problem
        tri = solve_p1(cfg, [0.4])
        qs = [q / abs(q) for q in rng.standard_normal(100)]
        curv = [float(np.tensordot(symmetrize(tri.X @ tri.Lambda @ tri.X),
                                   cfg.family.d2G(tri.p, [q], [q])))
                for q in qs]
        beta_big = 10.0 * max(abs(c) for c in curv)
        cfg_big = Problem1Config(A=cfg.A, Q=cfg.Q, W=cfg.W, family=cfg.family,
                                 beta=max(beta_big, 1e-6), tol=cfg.tol)
        for q in qs:
            assert hessian_p1(cfg_big, tri, [q], [q]) > 0.0

    def test_matches_frozen_lagrangian_differences(self, small_problem):
        # second differences of p -> beta/2 |p|^2 - tr(Lambda X G_p X), X, Lambda frozen
        cfg = small_problem
        tri = solve_p1(cfg, [0.4])
        M = symmetrize(tri.X @ tri.Lambda @ tri.X)

        def frozen(p):
            return 0.5 * cfg.beta * float(p @ p) - float(np.tensordot(M, cfg.family.G(p)))

        h = 1e-4
        q = np.array([1.0])
        fd = (frozen(tri.p + h * q) - 2 * frozen(tri.p) + frozen(tri.p - h * q)) / h**2
        analytic = hessian_p1(cfg, tri, q, q)
        assert abs(fd - analytic) <= 1e-4 * (1.0 + abs(analytic))

    def test_full_form_reduces_on_cone(self, small_problem):
        tri = solve_p1(small_problem, [0.4])
        q, r = np.array([0.7]), np.array([-0.3])
        zero = np.zeros((6, 6))
        assert hessian_p1_full(small_problem, tri, zero, q, zero, r) == pytest.approx(
            hessian_p1(small_problem, tri, q, r), rel=1e-14)

    def test_full_form_symmetric_bilinear(self, small_problem, rng):
        tri = solve_p1(small_problem, [0.4])
        B1, B2 = rng.standard_normal((2, 6, 6))
        Phi, Psi = 0.5 * (B1 + B1.T), 0.5 * (B2 + B2.T)
        q, r = rng.standard_normal(1), rng.standard_normal(1)
        v1 = hessian_p1_full(small_problem, tri, Phi, q, Psi, r)
        v2 = hessian_p1_full(small_problem, tri, Psi, r, Phi, q)
        assert v1 == pytest.approx(v2, rel=1e-12)


class TestCriticalCone:
    def test_degenerate_derivative_full_space(self):
        fam = ConstantFamily(matrix=np.eye(3), param_dim=2)
        basis = critical_cone_basis(fam, [0.0, 0.0], np.eye(3))
        assert len(basis) == 2

    def test_zero_x_full_space(self):
        A, grid = heat_like()
        fam = GaussianActuators(grid=grid, sigma=0.18)
        basis = critical_cone_basis(fam, [0.5], np.zeros((6, 6)))
        assert len(basis) == 1

    def test_generic_interior_point_empty(self, small_problem):
        cfg = small_problem
        p = np.array([0.45])
        X = solve_are(cfg.A, cfg.family.G(p), cfg.Q, cert=cfg.cert).X
        assert np.linalg.eigvalsh(X)[0] > 0  # X strictly positive definite
        # rank oracle: the stacked map has full column rank
        col = (X @ cfg.family.dG(p, [1.0]) @ X).ravel()
        assert np.linalg.norm(col) > 1e-6
        assert critical_cone_basis(cfg.family, p, X) == []


def test_lipschitz_bounds_small(small_problem):
    cfg = small_problem
    fam = cfg.family
    led = estimate_constants(fam, fam.domain(), 80, seed=9, cfg=cfg)
    rep = lipschitz_bound_check(cfg, led, fam.domain(), pairs=30, seed=10)
    assert rep.x_passing_readings, rep.worst_x_ratio
    assert rep.lambda_passing_readings, rep.worst_lambda_ratio


@pytest.mark.parametrize("pairs", [0, -1, 2.5])
def test_lipschitz_check_needs_a_pair(small_problem, pairs):
    # pairs = 0 once reported a pass with nothing checked
    cfg = small_problem
    with pytest.raises(ValueError, match=f"^pairs must be an integer >= 1, got {pairs}$"):
        lipschitz_bound_check(cfg, None, cfg.family.domain(), pairs=pairs, seed=10)


@pytest.mark.parametrize("box", [[[0.0, np.inf]], [[np.nan, 1.0]]], ids=["inf", "nan"])
def test_lipschitz_check_refuses_a_non_finite_box(small_problem, box, monkeypatch):
    # the box is refused before any draw or state solve, not placement by
    # placement as a DimensionMismatch
    cfg = small_problem
    ledger = ConstantLedger(g=1.0, L_G=1.0, L_dG=1.0, C_dG=1.0, K=1.0, M=1.0, alpha=1.0, trQ=6.0)
    pairs = count_calls(monkeypatch, "solve_state_pairs", optimize)
    with pytest.raises(ValueError, match=r"^domain must be \(d, 2\) with finite lo <= hi"):
        lipschitz_bound_check(cfg, ledger, box, pairs=5, seed=10)
    assert pairs == []


def test_cluster_points():
    pts = [np.array([0.0]), np.array([1e-8]), np.array([0.5])]
    clusters = cluster_points(pts, tol=1e-6)
    assert len(clusters) == 2
    assert clusters[0][1] == 2
