import re

import numpy as np
import pytest

from riccati_place import semigroup
from riccati_place.devices import (
    CallableFamily,
    ConstantFamily,
    ConstantLedger,
    GaussianActuators,
    estimate_constants,
    sample_box,
)
from riccati_place.errors import DegenerateFamily, DimensionMismatch
from riccati_place.linalg import operator_norm
from riccati_place.optimize import Problem2Config, solve_state_pair

from conftest import count_calls


@pytest.fixture
def fam():
    return GaussianActuators(grid=np.linspace(0.1, 0.9, 9), sigma=0.15, r_weight=2.0)


class TestEvalG:
    def test_two_node_closed_form(self):
        f = GaussianActuators(grid=np.array([0.0, 1.0]), sigma=1.0, r_weight=1.0)
        G = f.G([0.0])
        e = np.exp(-0.5)
        np.testing.assert_allclose(G, [[1.0, e], [e, np.exp(-1.0)]], rtol=1e-15)

    def test_huge_control_weight_kills_gain(self):
        f = GaussianActuators(grid=np.linspace(0, 1, 8), sigma=0.2, r_weight=1e12)
        assert operator_norm(f.G([0.5])) <= 8.0 / 1e12

    def test_far_placement_gaussian_tail(self):
        f = GaussianActuators(grid=np.linspace(0, 1, 8), sigma=0.1, r_weight=1.0)
        p_far = 1.0 + 20 * 0.1
        assert operator_norm(f.G([p_far])) <= 1e-150

    def test_psd_and_rank(self, fam, rng):
        for p in rng.uniform(0.1, 0.9, 20):
            G = fam.G([p])
            assert np.linalg.eigvalsh(G)[0] >= -1e-12
            sv = np.linalg.svd(G, compute_uv=False)
            assert np.sum(sv > 1e-12 * sv[0]) <= 1  # one actuator

    def test_trace_closed_form(self, fam, rng):
        for p in rng.uniform(0.1, 0.9, 10):
            b = np.exp(-0.5 * ((fam.grid - p) / fam.sigma) ** 2)
            manual = float(b @ b) / fam.r_weight
            assert abs(fam.trace_G([p]) - manual) <= 1e-12 * (1.0 + manual)
            assert abs(np.trace(fam.G([p])) - manual) <= 1e-12 * (1.0 + manual)

    def test_dimension_mismatch(self, fam):
        with pytest.raises(DimensionMismatch):
            fam.G([0.1, 0.2])


class TestValidation:
    @pytest.mark.parametrize("field", ["sigma", "r_weight"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf, -np.inf])
    def test_width_and_weight_must_be_finite_and_positive(self, field, value):
        # a NaN width once constructed and failed later in an SVD; an
        # infinite one made dG*dG singular
        fields = dict(grid=np.linspace(0.1, 0.9, 8), sigma=0.12, r_weight=1.0)
        fields[field] = value
        with pytest.raises(ValueError, match="^sigma, r_weight must be finite and positive"):
            GaussianActuators(**fields)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("node", [0, 3, 7])
    def test_grid_must_be_finite(self, value, node):
        grid = np.linspace(0.1, 0.9, 8)
        grid[node] = value
        with pytest.raises(ValueError, match="^grid must be a finite, strictly increasing"):
            GaussianActuators(grid=grid, sigma=0.12)


class TestDerivatives:
    def test_zero_direction(self, fam):
        assert np.array_equal(fam.dG([0.4], [0.0]), np.zeros((9, 9)))
        assert np.array_equal(fam.d2G([0.4], [0.0], [1.0]), np.zeros((9, 9)))
        assert np.array_equal(fam.d2G([0.4], [1.0], [0.0]), np.zeros((9, 9)))

    def test_profile_peak_has_zero_gradient(self):
        f = GaussianActuators(grid=np.array([0.0]), sigma=1.0, r_weight=1.0)
        assert np.array_equal(f.dG([0.0], [1.0]), np.zeros((1, 1)))
        assert np.array_equal(f.dG_adjoint([0.0], np.array([[3.0]])), np.zeros(1))

    def test_dG_matches_central_differences(self, fam, rng):
        h = 1e-5
        for _ in range(10):
            p = rng.uniform(0.15, 0.85, 1)
            q = rng.standard_normal(1)
            fd = (fam.G(p + h * q) - fam.G(p - h * q)) / (2 * h)
            assert operator_norm(fd - fam.dG(p, q)) <= 1e-6

    def test_d2G_matches_central_differences_of_dG(self, fam, rng):
        h = 1e-5
        for _ in range(10):
            p = rng.uniform(0.15, 0.85, 1)
            q = rng.standard_normal(1)
            r = rng.standard_normal(1)
            fd = (fam.dG(p + h * r, q) - fam.dG(p - h * r, q)) / (2 * h)
            assert operator_norm(fd - fam.d2G(p, q, r)) <= 1e-5

    def test_d2G_symmetric_in_directions(self, fam, rng):
        p = rng.uniform(0.2, 0.8, 1)
        q = rng.standard_normal(1)
        r = rng.standard_normal(1)
        assert np.array_equal(fam.d2G(p, q, r), fam.d2G(p, r, q))

    def test_adjoint_identity(self, fam, rng):
        p = np.array([0.37])
        for _ in range(100):
            B = rng.standard_normal((9, 9))
            T = 0.5 * (B + B.T)
            q = rng.standard_normal(1)
            v = fam.dG_adjoint(p, T)
            pairing = float(np.tensordot(T, fam.dG(p, q)))
            assert abs(float(v @ q) - pairing) <= 1e-12 * (1.0 + operator_norm(T))

    def test_adjoint_of_zero(self, fam):
        assert np.array_equal(fam.dG_adjoint([0.5], np.zeros((9, 9))), np.zeros(1))


class TestMultiGaussian:
    def test_sum_of_rank_ones(self, rng):
        f = GaussianActuators(grid=np.linspace(0, 1, 7), sigma=0.2,
                              r_weight=1.5, param_dim=2)
        assert f.kind == "multi_gaussian"
        p = np.array([0.3, 0.7])
        G = f.G(p)
        parts = [np.exp(-0.5 * ((f.grid - c) / f.sigma) ** 2) for c in p]
        manual = sum(np.outer(b, b) for b in parts) / f.r_weight
        np.testing.assert_allclose(G, manual, atol=1e-15)
        sv = np.linalg.svd(G, compute_uv=False)
        assert np.sum(sv > 1e-12 * sv[0]) <= 2

    def test_directional_derivative_fd(self, rng):
        f = GaussianActuators(grid=np.linspace(0, 1, 7), sigma=0.2, param_dim=2)
        h = 1e-5
        for _ in range(5):
            p = rng.uniform(0.2, 0.8, 2)
            q = rng.standard_normal(2)
            fd = (f.G(p + h * q) - f.G(p - h * q)) / (2 * h)
            assert operator_norm(fd - f.dG(p, q)) <= 1e-6

    def test_gram_and_adjoint(self, rng):
        f = GaussianActuators(grid=np.linspace(0, 1, 7), sigma=0.2, param_dim=2)
        p = np.array([0.25, 0.6])
        S = f.gram(p)
        assert S.shape == (2, 2) and np.allclose(S, S.T)
        B = rng.standard_normal((7, 7))
        T = 0.5 * (B + B.T)
        v = f.dG_adjoint(p, T)
        for k, e in enumerate(np.eye(2)):
            assert abs(v[k] - float(np.tensordot(T, f.dG(p, e)))) <= 1e-12


def callable_family(param_dim=2, n=5):
    """A CallableFamily of rank-one G_p = v v' with v_i = sin(i + p . 1),
    and its directional derivative."""
    def v(p):
        return np.sin(np.arange(n) + p.sum())

    def dv(p, q):
        return np.cos(np.arange(n) + p.sum()) * q.sum()

    return CallableFamily(param_dim=param_dim, state_dim=n,
                          g_fn=lambda p: np.outer(v(p), v(p)),
                          dg_fn=lambda p, q: np.outer(dv(p, q), v(p)) + np.outer(v(p), dv(p, q)))


def stacked_calls(family, method, P, *args):
    """``getattr(family, method)`` at the stack P, and the same argument
    tail, as a (stacked, single) pair of ``DimensionMismatch`` texts, or
    of results when neither raises."""
    try:
        stacked = getattr(family, method + "_stack")(P, *args)
    except DimensionMismatch as error:
        stacked = str(error)
    try:
        single = [getattr(family, method)(p, *args) for p in P]
    except DimensionMismatch as error:
        single = str(error)
    return stacked, single


class TestStacks:
    @pytest.mark.parametrize("k", [1, 16, 17])
    @pytest.mark.parametrize("param_dim", [1, 3])
    def test_members_are_the_single_matrices(self, param_dim, k, rng):
        # one exp per actuator over the stack and broadcast outer products:
        # the same elementwise operations as a single placement's
        fam = GaussianActuators(grid=np.linspace(0.1, 0.9, 9), sigma=0.15, r_weight=2.0,
                                param_dim=param_dim)
        P = sample_box(fam.domain(), k, rng)
        q = rng.standard_normal(param_dim)
        sparse = q.copy()
        sparse[-1] = 0.0  # the actuator a zero entry skips; all of them at d = 1
        for method, args in (("G", ()), ("dG", (q,)), ("dG", (sparse,)),
                             ("dG", (np.eye(param_dim)[0],))):
            stacked, single = stacked_calls(fam, method, P, *args)
            assert stacked.shape == (k, 9, 9)
            assert [T.tobytes() for T in stacked] == [T.tobytes() for T in single], method

    @pytest.mark.parametrize("family", [ConstantFamily(matrix=np.diag([1.0, 2.0, 3.0]),
                                                       param_dim=2),
                                        callable_family()], ids=["constant", "callable"])
    def test_default_loops_over_the_single_methods(self, family, rng, monkeypatch):
        P = rng.uniform(0.0, 1.0, (5, 2))
        q = np.array([0.5, -1.5])
        single = count_calls(monkeypatch, "G", type(family))
        stacked, members = stacked_calls(family, "G", P)
        assert len(single) == 2 * len(P)  # the stack's and the reference's
        assert [T.tobytes() for T in stacked] == [T.tobytes() for T in members]
        stacked, members = stacked_calls(family, "dG", P, q)
        assert [T.tobytes() for T in stacked] == [T.tobytes() for T in members]
        assert stacked.shape == (5, family.state_dim, family.state_dim)

    @pytest.mark.parametrize("family", [
        GaussianActuators(grid=np.linspace(0.1, 0.9, 9), sigma=0.15),
        ConstantFamily(matrix=np.eye(3)),
        callable_family(param_dim=1)], ids=["gaussian", "constant", "callable"])
    @pytest.mark.parametrize("P,text", [
        (np.full((4, 2), 0.3), r"p has shape \(2,\), expected \(1,\)"),
        (np.array([[0.3], [np.nan], [0.5]]), "p has non-finite entries"),
        (np.array([[0.3], [0.4], [-np.inf]]), "p has non-finite entries")],
        ids=["width", "nan-row", "inf-row"])
    def test_a_bad_stack_raises_the_single_text(self, family, P, text):
        # the stack is checked once, as a whole, and words its error as the
        # first bad member's single call does
        for method, args in (("G", ()), ("dG", ([1.0],))):
            stacked, single = stacked_calls(family, method, P, *args)
            assert stacked == single, method
            assert re.fullmatch(text, stacked), method

    def test_a_bad_direction_raises_the_single_text(self, fam):
        stacked, single = stacked_calls(fam, "dG", np.full((3, 1), 0.3), [1.0, 2.0])
        assert stacked == single == "q has shape (2,), expected (1,)"


class TestSampleBox:
    @pytest.mark.parametrize("box", [[[0.0, np.inf]], [[np.nan, 1.0]], [[-np.inf, 0.0]],
                                     [[0.0, 1.0], [0.2, np.nan]]],
                             ids=["inf-hi", "nan-lo", "inf-lo", "nan-second-row"])
    def test_a_non_finite_box_is_refused_before_any_draw(self, box):
        # [[0, inf]] once gave inf points and [[nan, 1]] NaN ones, refused
        # only later, placement by placement
        class Recorder:
            draws = 0

            def random(self, shape):
                self.draws += 1
                return np.zeros(shape)

        rng = Recorder()
        with pytest.raises(ValueError, match=r"^domain must be \(d, 2\) with finite lo <= hi"):
            sample_box(box, 5, rng)
        assert rng.draws == 0

    @pytest.mark.parametrize("box", [[[0.0, np.inf]], [[np.nan, 1.0]]], ids=["inf", "nan"])
    def test_the_ledger_refuses_a_non_finite_box(self, fam, box):
        with pytest.raises(ValueError, match=r"^domain must be \(d, 2\) with finite lo <= hi"):
            estimate_constants(fam, box, 10, seed=0)


def reference_ledger(family, samples, seed, cfg=None):
    """estimate_constants as a plain loop: every matrix normed on its own by
    numpy, every direction drawn read (+-1 both at param_dim = 1)."""
    rng = np.random.default_rng(seed)
    domain = family.domain()
    points = sample_box(domain, samples, rng)
    pairs = zip(sample_box(domain, samples, rng), sample_box(domain, samples, rng))
    d = family.param_dim
    directions = list(np.eye(d)) + [v / np.linalg.norm(v)
                                    for v in (rng.standard_normal(d) for _ in range(8))]

    def readings(T, dist=1.0):
        sv = np.linalg.svd(T, compute_uv=False)
        tr = float(np.trace(T))
        return {"nuc": float(sv.sum()) / dist, "abs": abs(tr) / dist, "op": float(sv[0]) / dist}

    g, c_dg, l_g, l_dg, K = [], [], [], [], 0.0
    for p in points:
        g.append(readings(family.G(p)))
        c_dg += [readings(family.dG(p, q)) for q in directions]
        sv = np.linalg.svd([[float(np.tensordot(family.dG(p, e), family.dG(p, f)))
                             for f in np.eye(d)] for e in np.eye(d)], compute_uv=False)
        if sv[-1] > 1e-12 * max(sv[0], 1.0):
            K = max(K, 1.0 / float(sv[-1]))
    for p1, p2 in pairs:
        dist = float(np.linalg.norm(p1 - p2))
        l_g.append(readings(family.G(p1) - family.G(p2), dist))
        l_dg += [readings(family.dG(p1, q) - family.dG(p2, q), dist) for q in directions]

    def sup(values, reading):
        return max(v[reading] for v in values)

    return ConstantLedger(
        g=sup(g, "nuc"), L_G=1.1 * sup(l_g, "nuc"), L_dG=1.1 * sup(l_dg, "nuc"),
        C_dG=sup(c_dg, "nuc"), K=K, g_abs=sup(g, "abs"), g_op=sup(g, "op"),
        L_G_abs=1.1 * sup(l_g, "abs"), L_G_op=1.1 * sup(l_g, "op"),
        L_dG_abs=1.1 * sup(l_dg, "abs"), C_dG_abs=sup(c_dg, "abs"), C_dG_op=sup(c_dg, "op"))


class TestEstimateConstants:
    @pytest.mark.parametrize("param_dim,samples", [(1, 100), (2, 45)])
    def test_ledger_is_the_reference_loop(self, param_dim, samples):
        # field by field, bit for bit: stacked SVDs in chunks, and each
        # direction read once up to sign
        family = GaussianActuators(grid=np.linspace(0.1, 0.9, 9), sigma=0.15, r_weight=2.0,
                                   param_dim=param_dim)
        led = estimate_constants(family, family.domain(), samples, seed=3)
        ref = reference_ledger(family, samples, seed=3)
        for name in vars(ref):
            assert repr(getattr(led, name)) == repr(getattr(ref, name)), name

    def test_gaussian_ledger_positive_and_finite(self, fam):
        led = estimate_constants(fam, fam.domain(), 200, seed=5)
        for name in ("g", "L_G", "L_dG", "C_dG", "K", "g_op", "L_G_op"):
            value = getattr(led, name)
            assert np.isfinite(value) and value > 0, name
        assert led.mu is None  # no model supplied

    @pytest.mark.parametrize("samples", [2.5, 1, 0, -3])
    def test_samples_must_be_an_integer_of_at_least_two(self, fam, samples):
        with pytest.raises(ValueError, match=f"^samples must be an integer >= 2, got {samples}$"):
            estimate_constants(fam, fam.domain(), samples, 0)

    def test_constant_family_degenerate(self):
        f = ConstantFamily(matrix=np.eye(3))
        with pytest.raises(DegenerateFamily):
            estimate_constants(f, [[0.0, 1.0]], 50, seed=0)

    def test_gram_singular_everywhere_is_degenerate(self):
        # two parameters that move G along one direction, dG_p(q) = (q_1 +
        # q_2) M: dG does not vanish, but dG*dG is singular at every point
        M = np.diag([1.0, 2.0])
        f = CallableFamily(param_dim=2, state_dim=2, g_fn=lambda p: (p[0] + p[1]) * M,
                           dg_fn=lambda p, q: (q[0] + q[1]) * M)
        with pytest.raises(DegenerateFamily, match=r"^dG\*dG is singular at every sample point$"):
            estimate_constants(f, [[0.0, 1.0], [0.0, 1.0]], 20, seed=0)

    def test_sigma_doubling_trace_closed_form(self, rng):
        grid = np.linspace(0.0, 1.0, 11)
        for sigma in (0.1, 0.2):
            f = GaussianActuators(grid=grid, sigma=sigma, r_weight=3.0)
            for p in rng.uniform(0.0, 1.0, 10):
                b = np.exp(-0.5 * ((grid - p) / sigma) ** 2)
                manual = float(b @ b) / 3.0
                assert abs(f.trace_G([p]) - manual) <= 1e-10 * (1.0 + manual)

    def test_fresh_sample_certification(self, fam, rng):
        # ledger constants certify 200 fresh pairs (Lipschitz + uniform bound)
        led = estimate_constants(fam, fam.domain(), 400, seed=11)
        box = fam.domain()
        P1 = sample_box(box, 200, rng)
        P2 = sample_box(box, 200, rng)
        for p1, p2 in zip(P1, P2):
            dist = float(np.linalg.norm(p1 - p2))
            if dist < 1e-12:
                continue
            dG_nuc = np.linalg.svd(fam.G(p1) - fam.G(p2), compute_uv=False).sum()
            assert dG_nuc <= led.L_G * dist
            ddG = fam.dG(p1, [1.0]) - fam.dG(p2, [1.0])
            assert np.linalg.svd(ddG, compute_uv=False).sum() <= led.L_dG * dist
        for p in sample_box(box, 200, rng):
            G = fam.G(p)
            assert np.linalg.svd(G, compute_uv=False).sum() <= led.g * (1 + 1e-12)
            assert np.linalg.eigvalsh(G)[0] >= -1e-12

    def test_model_coupled_fields(self, fam):
        n = fam.state_dim
        cfg = Problem2Config(A=-2.0 * np.eye(n), Q=np.eye(n), W=np.eye(n), family=fam,
                             beta=4.0, gamma=1.0)
        led = estimate_constants(fam, fam.domain(), 30, seed=2, cfg=cfg)
        assert led.mu is not None and led.mu > 0
        assert led.sup_xlx >= led.mu
        assert led.M >= 1.0 and led.alpha == pytest.approx(0.95 * 2.0)
        assert led.trQ == pytest.approx(float(n))
        assert led.normW == pytest.approx(1.0)
        led.require_model()

    def test_xlx_extremes_are_the_state_pairs(self, fam):
        # mu and sup_xlx are the least and greatest ||X Lambda X|| of the
        # state pairs at the sample points, the first draw of the seeded rng
        n = fam.state_dim
        A = -2.0 * np.eye(n) + np.diag(np.ones(n - 1), 1)
        cfg = Problem2Config(A=A, Q=np.eye(n), W=np.eye(n), family=fam, beta=4.0, gamma=1.0)
        led = estimate_constants(fam, fam.domain(), 12, seed=3, cfg=cfg)
        points = sample_box(fam.domain(), 12, np.random.default_rng(3))
        xlx = [solve_state_pair(cfg, p).xlx_norm for p in points]
        assert (led.mu, led.sup_xlx) == (min(xlx), max(xlx))
        assert (led.beta, led.gamma) == (4.0, 1.0)

    def test_config_of_another_family_is_rejected(self, fam):
        n = fam.state_dim
        twin = GaussianActuators(grid=fam.grid, sigma=fam.sigma, r_weight=fam.r_weight)
        cfg = Problem2Config(A=-2.0 * np.eye(n), Q=np.eye(n), W=np.eye(n), family=twin,
                             beta=4.0, gamma=1.0)
        with pytest.raises(ValueError, match="family"):
            estimate_constants(fam, fam.domain(), 10, seed=2, cfg=cfg)

    def test_require_model_names_missing_fields(self):
        led = ConstantLedger(g=1.0, L_G=1.0, L_dG=1.0, C_dG=1.0, K=1.0, M=1.0, alpha=1.0)
        led.require_model("M", "alpha")
        with pytest.raises(ValueError, match=r"\['trQ'\]"):
            led.require_model("M", "trQ")
        with pytest.raises(ValueError, match=r"\['mu', 'trQ', 'normW', 'beta'\]"):
            led.require_model()

    def test_given_certificate_is_reused(self, fam, monkeypatch):
        n = fam.state_dim
        A = -2.0 * np.eye(n) + np.diag(np.ones(n - 1), 1)
        cfg = Problem2Config(A=A, Q=np.eye(n), W=np.eye(n), family=fam, beta=4.0, gamma=1.0)
        calls = count_calls(monkeypatch, "certify_stability", semigroup)
        led = estimate_constants(fam, fam.domain(), 10, seed=2, cfg=cfg)
        assert len(calls) == 0
        assert (led.M, led.alpha) == (cfg.cert.M, cfg.cert.alpha)

    def test_one_svd_per_sampled_matrix(self, fam, monkeypatch):
        from riccati_place import devices

        samples = 30
        drawn = []

        def directions(*args, _original=devices._unit_directions):
            drawn.append(_original(*args))
            return drawn[-1]

        monkeypatch.setattr(devices, "_unit_directions", directions)
        one = estimate_constants(fam, fam.domain(), samples, seed=4)
        dirs = len(drawn[0])  # the distinct ones of axes + 8 random, up to sign
        assert dirs == 1  # for param_dim = 1 each draw is +-1

        # the per-matrix ledger: each matrix's singular values from its own SVD
        def per_matrix(stack):
            return np.array([np.linalg.svd(T, compute_uv=False) for T in stack])

        monkeypatch.setattr(devices, "singular_values", per_matrix)
        assert estimate_constants(fam, fam.domain(), samples, seed=4) == one
        monkeypatch.undo()

        svd = count_calls(monkeypatch, "svd", np.linalg)
        dG = count_calls(monkeypatch, "dG_stack", GaussianActuators)
        estimate_constants(fam, fam.domain(), samples, seed=4)
        # per point: G, each direction's dG, the Gram matrix; per pair: the G
        # difference and each direction's dG difference; in stacks of at
        # most STACK_CHUNK matrices
        chunks = [min(devices.STACK_CHUNK, samples - start)
                  for start in range(0, samples, devices.STACK_CHUNK)]
        assert [len(args[0]) for args in svd] == ([c for c in chunks for _ in range(3)]
                                                  + [c for c in chunks for _ in range(2)])
        # each direction once per point (the Gram matrix reuses the axes'),
        # twice per pair: matrices evaluated, in stacks of placements
        assert sum(len(P) for _, P, _ in dG) == samples * dirs + samples * 2 * dirs

    def test_scalar_parameter_reads_each_distinct_direction_once(self, fam, monkeypatch):
        # for param_dim = 1 the axis and the 8 random unit vectors hold at
        # most the two values +-1; reading each once leaves every sup as it is
        from riccati_place import devices

        samples = 100
        dG = count_calls(monkeypatch, "dG_stack", GaussianActuators)
        led = estimate_constants(fam, fam.domain(), samples, seed=0)
        # one direction: half the matrices that reading both +1 and -1 takes
        assert sum(len(P) for _, P, _ in dG) == samples + samples * 2
        monkeypatch.undo()

        def every_draw(dim, rng, extra=8):
            return [np.eye(dim)[0]] + [v / np.linalg.norm(v)
                                       for v in (rng.standard_normal(dim) for _ in range(extra))]

        monkeypatch.setattr(devices, "_unit_directions", every_draw)
        assert estimate_constants(fam, fam.domain(), samples, seed=0) == led

    def test_two_parameters_keep_every_direction(self):
        # no two of the axes and 8 random directions coincide at d = 2, so
        # none is dropped and the ledger keeps its pinned values
        fam = GaussianActuators(grid=np.linspace(0.1, 0.9, 9), sigma=0.15, r_weight=2.0,
                                param_dim=2)
        led = estimate_constants(fam, fam.domain(), 20, seed=5)
        expected = dict(
            g=2.6586007873062907, L_G=16.65349137243278, L_dG=152.9992586356651,
            C_dG=17.137619905877028, K=40.16361166682973, g_abs=2.6586007873062902,
            g_op=2.6172239659205148, L_G_abs=1.4242285327102728, L_G_op=8.11913468654501,
            L_dG_abs=13.927521678243263, C_dG_abs=5.8034705570093985,
            C_dG_op=8.625650252182098)
        for name, value in expected.items():
            assert getattr(led, name) == pytest.approx(value, rel=1e-13, abs=0.0), name

    def test_deterministic_given_seed(self, fam):
        led1 = estimate_constants(fam, fam.domain(), 50, seed=7)
        led2 = estimate_constants(fam, fam.domain(), 50, seed=7)
        assert led1 == led2
