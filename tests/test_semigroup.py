import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riccati_place import GaussianActuators, semigroup
from riccati_place.errors import UnstableGenerator
from riccati_place.linalg import matrix_exponential, operator_norm, symmetrize
from riccati_place.riccati import Plant, solve_are
from riccati_place.semigroup import (
    StabilityCertificate,
    certificate_holds,
    certify_stability,
    decay_rate,
    perturbed_certificate,
)

from conftest import count_calls, rand_psd, rand_stable, rand_stable_symmetric


def heat(n):
    """Dirichlet second differences on (0, 1): symmetric, so log-norm proved."""
    h = 1.0 / (n + 1)
    return (np.diag(np.ones(n - 1), -1) - 2.0 * np.eye(n) + np.diag(np.ones(n - 1), 1)) / h**2


def convection_diffusion(n, nu=1.0, c=10.0):
    """Central differences of nu u_xx - c u_x: non-normal, with transient growth."""
    h = 1.0 / (n + 1)
    return nu * heat(n) + c / (2.0 * h) * (np.diag(np.ones(n - 1), -1)
                                           - np.diag(np.ones(n - 1), 1))


def full_grid_norms(A, ts):
    """Reference: the SVD of exp(A t) at every grid point, one stack per 100
    points (no bounds)."""
    stacks = semigroup._semigroup(A)
    return np.concatenate([np.linalg.svd(stacks(ts[i:i + 100]), compute_uv=False)[:, 0]
                           for i in range(0, len(ts), 100)])


def convdiff_closed_loops(n, placements=(0.2, 0.5, 0.8)):
    """``A' - G X`` of convection-diffusion (c = 10) with one Gaussian
    actuator at each placement, Q = I: the generators the dual bound reads."""
    A = convection_diffusion(n)
    family = GaussianActuators(grid=np.arange(1, n + 1) / (n + 1), sigma=0.12)
    loops = []
    for p in placements:
        G = family.G(np.array([p]))
        loops.append(A.T - G @ solve_are(A, G, np.eye(n)).X)
    return loops


class TestCertifyStability:
    def test_normal_diagonal(self):
        cert = certify_stability(np.diag([-1.0, -2.0]))
        assert abs(cert.alpha - 0.95) < 1e-12
        assert 1.0 <= cert.M <= 1.01 + 1e-12

    def test_non_normal_transient_growth(self):
        cert = certify_stability(np.array([[-1.0, 10.0], [0.0, -1.0]]))
        assert cert.M > 1.0
        assert abs(cert.alpha - 0.95) < 1e-12

    def test_scalar(self):
        cert = certify_stability(np.array([[-1.0]]))
        assert abs(cert.alpha - 0.95) < 1e-12
        assert cert.M <= 1.011

    def test_alpha_below_abscissa(self, rng):
        for _ in range(5):
            A = rand_stable(5, rng)
            cert = certify_stability(A)
            sigma = np.max(np.linalg.eigvals(A).real)
            assert cert.alpha <= -sigma + 1e-12

    def test_unstable_rejected(self):
        with pytest.raises(UnstableGenerator):
            certify_stability(np.array([[0.0]]))
        with pytest.raises(UnstableGenerator):
            certify_stability(np.array([[1.0, 0.0], [0.0, -2.0]]))

    def test_soundness_on_fresh_grid(self, rng):
        # the decay inequality holds at every fresh verification point
        for _ in range(5):
            A = rand_stable(6, rng)
            cert = certify_stability(A)
            ts = rng.uniform(0.0, cert.sample_horizon, 64)
            for t in ts:
                nrm = operator_norm(matrix_exponential(A, t))
                assert nrm <= cert.M * np.exp(-cert.alpha * t) * (1.0 + 1e-9)


class TestPerturbedCertificate:
    def test_scalar_shift(self):
        A = np.array([[-1.0]])
        cert = certify_stability(A)
        pc = perturbed_certificate(cert, A, np.array([[1.0]]))
        assert abs(pc.alpha - 1.9) < 1e-12
        assert pc.M <= 1.011
        assert pc.unperturbed_bound_holds is True

    def test_zero_perturbation_matches_plain_certificate(self, rng):
        A = rand_stable_symmetric(4, rng)
        cert = certify_stability(A)
        pc = perturbed_certificate(cert, A, np.zeros((4, 4)))
        assert pc.M == cert.M and pc.alpha == cert.alpha
        assert pc.unperturbed_bound_holds is True

    def test_normal_case_example(self):
        A = np.diag([-1.0, -2.0])
        cert = certify_stability(A)
        pc = perturbed_certificate(cert, A, np.diag([0.5, 0.5]))
        assert abs(pc.alpha - 0.95 * 1.5) < 1e-12
        assert pc.M <= 1.011
        assert pc.unperturbed_bound_holds is True

    def test_rejects_non_psd_perturbation(self):
        A = np.array([[-2.0]])
        cert = certify_stability(A)
        with pytest.raises(ValueError):
            perturbed_certificate(cert, A, np.array([[-1.0]]))

    def test_rejects_certificate_for_wrong_matrix(self):
        A = np.array([[-1.0]])
        fake = StabilityCertificate(M=1.0, alpha=5.0, sample_horizon=4.0, sample_count=500)
        with pytest.raises(ValueError):
            perturbed_certificate(fake, A, np.array([[0.5]]))

    def test_alpha_monotone_under_psd_perturbation_symmetric(self, rng):
        for _ in range(8):
            A = rand_stable_symmetric(5, rng)
            K = rand_psd(5, rng)
            a0 = certify_stability(A).alpha
            a1 = certify_stability(A - K).alpha
            assert a1 >= a0 - 1e-9


def test_certificate_holds_helper(rng):
    A = rand_stable(4, rng)
    cert = certify_stability(A)
    assert certificate_holds(cert, A)
    assert not certificate_holds(
        StabilityCertificate(M=cert.M, alpha=10.0 * cert.alpha,
                             sample_horizon=cert.sample_horizon, sample_count=100),
        A)


class TestCertificateKernel:
    def sampled_generators(self, rng):
        # the Jordan block's eigenbasis is singular: one expm per grid point
        mats = [convection_diffusion(16), np.array([[-1.0, 10.0], [0.0, -1.0]])]
        for n in (2, 3, 5, 16, 32):
            mats += [rand_stable(n, rng) for _ in range(3)]
        return mats

    def test_gated_M_equals_full_grid_svd_sup(self, rng):
        sampled = 0
        for A in self.sampled_generators(rng):
            cert = certify_stability(A)
            if cert.method != "sampled":
                continue
            sampled += 1
            ts = semigroup._log_grid(cert.sample_horizon, semigroup.GRID_POINTS)
            brute = semigroup.M_HEADROOM * float(np.max(
                full_grid_norms(A, ts) * np.exp(cert.alpha * ts)))
            assert cert.M == brute
        assert sampled >= 13

    def test_ill_conditioned_eigenbasis_falls_back_to_expm(self):
        A = np.array([[-1.0, 10.0], [0.0, -1.0]])
        ts = np.linspace(0.0, 3.0, 7)
        expm = [operator_norm(matrix_exponential(A, t)) for t in ts]
        assert full_grid_norms(A, ts).tolist() == expm

    def test_stack_matches_expm(self):
        A = convection_diffusion(16)
        cert = certify_stability(A)
        ts = semigroup._log_grid(cert.sample_horizon, semigroup.GRID_POINTS)[::25]
        expm = [operator_norm(matrix_exponential(A, t)) for t in ts]
        np.testing.assert_allclose(full_grid_norms(A, ts), expm, rtol=1e-12, atol=1e-14)
        assert cert.M == pytest.approx(3.479239346599488, rel=1e-12)

    def test_validation_rejects_M_shrunk_by_one_percent(self, monkeypatch):
        monkeypatch.setattr(semigroup, "M_HEADROOM", 0.99 * semigroup.M_HEADROOM)
        with pytest.raises(UnstableGenerator, match="validation failed"):
            certify_stability(convection_diffusion(16))

    def test_validation_decides_as_the_svd(self, rng):
        # bounds at, just below and just above every grid point's SVD norm
        for A in (convection_diffusion(16), rand_stable(5, rng)):
            cert = certify_stability(A)
            ts = np.linspace(0.0, cert.sample_horizon, semigroup.FRESH_GRID_POINTS)
            observed = full_grid_norms(A, ts)
            stacks = semigroup._semigroup(A)
            assert semigroup._decay_violation(stacks, ts, observed) is None
            assert semigroup._decay_violation(stacks, ts, np.nextafter(observed, 2.0)) is None
            for k in (0, 37, len(ts) - 1):
                bound = observed.copy()
                bound[k] = np.nextafter(bound[k], 0.0)
                worst = semigroup._decay_violation(stacks, ts, bound)
                assert worst == observed[k] / bound[k] > 1.0

    def test_one_eigendecomposition_per_sampled_certificate(self, monkeypatch):
        eig = count_calls(monkeypatch, "eig", np.linalg)
        eigvals = count_calls(monkeypatch, "eigvals", np.linalg)
        cert = certify_stability(convection_diffusion(16))
        assert cert.method == "sampled"
        assert (len(eig), len(eigvals)) == (1, 0)

    def test_log_norm_path_takes_no_grid_svd(self, monkeypatch):
        # symmetric, and non-symmetric with a contractive numerical range
        skew = np.array([[-1.0, 0.1], [-0.1, -2.0]])
        svd = count_calls(monkeypatch, "svd", np.linalg)
        for A in (heat(16), skew):
            cert = certify_stability(A)
            assert cert.method == "log_norm" and cert.M == semigroup.M_HEADROOM
        assert certificate_holds(cert, skew)
        assert len(svd) == 0

    def test_symmetric_generator_takes_one_eigh(self, monkeypatch):
        eigh = count_calls(monkeypatch, "eigh", np.linalg)
        others = [count_calls(monkeypatch, name, np.linalg)
                  for name in ("eig", "eigvals", "eigvalsh")]
        assert certify_stability(heat(16)).method == "log_norm"
        assert (len(eigh), [len(c) for c in others]) == (1, [0, 0, 0])

    @pytest.mark.parametrize("n", [16, 256])
    def test_heat_certificate_is_the_log_norm_proof(self, n):
        A = heat(n)
        cert = certify_stability(A)
        alpha = semigroup.ALPHA_SAFETY * -float(np.linalg.eigh(A)[0][-1])
        assert cert == StabilityCertificate(
            M=1.01, alpha=alpha, sample_horizon=20.0 / alpha, sample_count=500,
            method="log_norm")

    def test_symmetric_certificate_keeps_its_eigenbasis(self, monkeypatch):
        A = heat(16)
        cert = certify_stability(A)
        kept, d, V = cert.eigenbasis
        assert kept is A and np.allclose(V @ np.diag(d) @ V.T, A, rtol=0.0, atol=1e-10)
        eigh = count_calls(monkeypatch, "eigh", np.linalg)
        for same in (A, A.copy()):
            assert all(x is y for x, y in zip(cert.eigh(same), (d, V)))
        assert len(eigh) == 0
        other = 2.0 * A
        assert np.array_equal(cert.eigh(other)[0], np.linalg.eigh(other)[0])
        assert len(eigh) == 2
        # the pair takes no part in equality, repr or the reported constants
        bare = StabilityCertificate(M=cert.M, alpha=cert.alpha,
                                    sample_horizon=cert.sample_horizon,
                                    sample_count=cert.sample_count, method=cert.method)
        assert cert == bare and hash(cert) == hash(bare) and repr(cert) == repr(bare)
        assert bare.eigenbasis is None and np.array_equal(bare.eigh(A)[0], d)

    def test_plant_memo_is_matched_by_content_and_not_a_constant(self, monkeypatch):
        A = heat(16)
        cert, twin = certify_stability(A), certify_stability(A)
        _, _, V = cert.eigenbasis
        Q = np.diag(np.linspace(1.0, 2.0, 16))
        eigvalsh = count_calls(monkeypatch, "eigvalsh", np.linalg)
        plant = Plant.of(cert, A, Q)
        assert Plant.of(cert, A, Q.copy()) is plant and len(eigvalsh) == 1
        assert cert._plant is plant and plant.A is A and plant.Q is not Q
        assert np.array_equal(plant.spectrum, np.linalg.eigvalsh(Q))
        projection = plant.Qb
        assert plant.Qb is projection
        assert projection.tobytes() == (0.5 * ((V.T @ Q @ V) + (V.T @ Q @ V).T)).tobytes()
        # equality, hash and repr ignore the memo; a copy starts without one
        assert cert == twin and hash(cert) == hash(twin) and repr(cert) == repr(twin)
        assert replace(cert)._plant is None and Plant.of(replace(cert), A, Q) is not plant
        assert Plant.of(cert, A, 2.0 * Q) is not plant and cert._plant is not plant

    def test_non_symmetric_certificate_keeps_no_eigenbasis(self):
        # a complex spectrum, on the log-norm and the sampled path
        rotation = np.array([[-1.0, 1.0], [-1.0, -1.0]])
        for A in (rotation, convection_diffusion(16, c=40.0)):
            cert = certify_stability(A)
            assert (cert.eigenbasis, cert.eigh(A)) == (None, None)
        assert certify_stability(rotation).method == "log_norm"

    def test_real_spectrum_keeps_its_eigenbasis_and_inverse(self, monkeypatch):
        # the sorted eigenbasis of eig, with the inverse and condition number
        # the sampled grid formed: no second inversion
        skew = np.array([[-1.0, 0.1], [-0.1, -2.0]])
        for A, method in ((skew, "log_norm"), (convection_diffusion(16), "sampled")):
            inv = count_calls(monkeypatch, "inv", np.linalg)
            cert = certify_stability(A)
            monkeypatch.undo()
            assert cert.method == method and len(inv) == 1
            kept, d, V, W, cond = cert.eigenbasis
            assert kept is A and np.all(np.diff(d) > 0.0)
            assert abs(cond - np.linalg.cond(V)) <= 1e-12 * cond
            assert np.allclose(W @ V, np.eye(len(d)), rtol=0.0, atol=1e-13 * cond)
            assert np.allclose((V * d) @ W, A, rtol=0.0, atol=1e-12 * np.linalg.norm(A))
            assert all(x is y for x, y in zip(cert.eigh(A.copy()), (d, V, W)))
            assert cert.eigh(A)[3] == cond
        # an eigenbasis with cond(V) >= 1e8 is not kept
        jordan = np.array([[-1.0, 1.0], [0.0, -1.0 - 1e-12]])
        assert certify_stability(jordan).eigenbasis is None

    def test_certificate_holds_decides_as_the_svd(self, rng):
        for A in (convection_diffusion(16), rand_stable(6, rng)):
            cert = certify_stability(A)
            ts = np.linspace(0.0, cert.sample_horizon, 100)
            observed = full_grid_norms(A, ts)
            for scale in (0.9, 0.999, 1.0):
                trial = StabilityCertificate(M=scale * cert.M, alpha=cert.alpha,
                                             sample_horizon=cert.sample_horizon,
                                             sample_count=100)
                expected = bool(np.all(
                    observed <= trial.M * np.exp(-trial.alpha * ts) * semigroup.DECAY_SLACK))
                assert certificate_holds(trial, A) is expected


class TestCertificateCascade:
    """The norm-bound cascade in front of the SVD decides as an SVD at every
    grid point: M bit for bit, and every pass/fail."""

    GENERATORS = {
        "closed_loop_16": lambda: convdiff_closed_loops(16),
        "closed_loop_32": lambda: convdiff_closed_loops(32),
        # transient peaks near the horizon (ROADMAP item 9)
        "convdiff_32_c40": lambda: [convection_diffusion(32, c=40.0)],
        "convdiff_64_c40": lambda: [convection_diffusion(64, c=40.0)],
        # singular eigenbases: one expm per point, no eigen-expansion bound
        "expm_fallback": lambda: [np.array([[-1.0, 10.0], [0.0, -1.0]]),
                                  np.array([[-1.0, 30.0, 0.0], [0.0, -1.0, 30.0],
                                            [0.0, 0.0, -1.0]])],
    }

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def certified(name):
        """``[(A, certify_stability(A))]`` for the named generators, built once."""
        return [(A, certify_stability(A)) for A in TestCertificateCascade.GENERATORS[name]()]

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_M_is_the_sup_of_an_svd_at_every_grid_point(self, name):
        for A, cert in self.certified(name):
            assert cert.method == "sampled"
            ts = semigroup._log_grid(cert.sample_horizon, semigroup.GRID_POINTS)
            sup = float(np.max(full_grid_norms(A, ts) * np.exp(cert.alpha * ts)))
            assert cert.M == semigroup.M_HEADROOM * sup

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_certificate_holds_decides_as_the_svd(self, name):
        for A, cert in self.certified(name):
            ts = np.linspace(0.0, cert.sample_horizon, 100)
            observed = full_grid_norms(A, ts)
            edge = float(np.max(observed / (np.exp(-cert.alpha * ts) * semigroup.DECAY_SLACK)))
            decisions = []
            for M in (0.5 * cert.M, np.nextafter(edge, 0.0), edge, np.nextafter(edge, 2.0 * edge),
                      cert.M):
                trial = replace(cert, M=float(M), sample_count=100)
                expected = bool(np.all(
                    observed <= trial.M * np.exp(-trial.alpha * ts) * semigroup.DECAY_SLACK))
                decisions.append(certificate_holds(trial, A))
                assert decisions[-1] is expected
            assert decisions[0] is False and decisions[-1] is True

    @pytest.mark.parametrize("name", ["closed_loop_16", "convdiff_32_c40", "expm_fallback"])
    def test_validation_decides_as_the_svd(self, name):
        # bounds at, just above and just below a grid point's SVD norm; at
        # the norms themselves every point reaches the SVD
        for A, cert in self.certified(name)[:1]:
            ts = np.linspace(0.0, cert.sample_horizon, 2 * semigroup.CHUNK_POINTS + 1)
            observed = full_grid_norms(A, ts)
            stacks = semigroup._semigroup(A)
            assert semigroup._decay_violation(stacks, ts, observed) is None
            assert semigroup._decay_violation(stacks, ts, np.nextafter(observed, np.inf)) is None
            peak = int(np.argmax(observed * np.exp(cert.alpha * ts)))
            for k in (0, peak, len(ts) - 1):
                bound = np.maximum(observed, cert.M * np.exp(-cert.alpha * ts))
                bound[k] = np.nextafter(observed[k], 0.0)
                worst = semigroup._decay_violation(stacks, ts, bound)
                assert worst == observed[k] / bound[k] > 1.0

    @pytest.mark.parametrize("name", ["closed_loop_16", "convdiff_32_c40", "expm_fallback"])
    def test_failed_validation_words_the_svd_ratio(self, name, monkeypatch):
        A, cert = self.certified(name)[0]
        ts = semigroup._log_grid(cert.sample_horizon, semigroup.GRID_POINTS)
        sup = float(np.max(full_grid_norms(A, ts) * np.exp(cert.alpha * ts)))
        headroom = 0.99 * semigroup.M_HEADROOM
        monkeypatch.setattr(semigroup, "M_HEADROOM", headroom)
        fresh = np.linspace(0.0, cert.sample_horizon, semigroup.FRESH_GRID_POINTS)
        bound = headroom * sup * np.exp(-cert.alpha * fresh) * semigroup.DECAY_SLACK
        worst = float(np.max(full_grid_norms(A, fresh) / bound))
        assert worst > 1.0
        message = f"certificate validation failed: decay bound violated by factor {worst:.3e}"
        with pytest.raises(UnstableGenerator) as failure:
            certify_stability(A)
        assert str(failure.value) == message

    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_expansion_bound_is_an_upper_bound_or_off(self, name):
        for A, cert in self.certified(name):
            stacks = semigroup._semigroup(A)
            ts = semigroup._log_grid(cert.sample_horizon, 200)
            bound = stacks.bound(ts)
            if stacks.lam is None:
                assert np.all(bound == np.inf)
            else:
                assert np.all(full_grid_norms(A, ts) <= bound) and np.all(np.isfinite(bound))


def shifted(A, abscissa):
    """A shifted by a multiple of I to the spectral abscissa ``abscissa``
    (up to rounding)."""
    return A - (np.max(np.linalg.eigvals(A).real) - abscissa) * np.eye(len(A))


class TestDecayRate:
    """The invariant the multiplier bound's floor rests on: every certificate
    has M >= 1, and its alpha is :func:`decay_rate`'s."""

    GENERATORS = {
        # exactly symmetric: one eigh, the log-norm proof
        "log_norm": lambda n, rng: symmetrize(rng.standard_normal((n, n))),
        # a strong upper triangle over a spread spectrum: sampled on A's
        # eigenbasis
        "sampled": lambda n, rng: (
            np.triu(rng.choice([-1.0, 1.0], (n, n)) * rng.uniform(3.0, 6.0, (n, n)), 1)
            - np.diag(np.arange(n) + rng.uniform(0.5, 1.5, n))),
        # a perturbed Jordan block: cond(V) >= 1e8, one expm per grid point
        "expm": lambda n, rng: (np.diag(np.full(n - 1, rng.uniform(1.0, 10.0)), 1)
                                - np.diag(1.0 + 1e-12 * np.arange(n))),
    }

    def test_overflowing_grid_is_a_failed_validation(self):
        # a perturbed Jordan block shifted to an abscissa of about -1e-16:
        # alpha rounds to 1e-16, and exp(A t) overflows well before the
        # horizon 20 / alpha, where the SVD used to raise LinAlgError
        A = shifted(self.GENERATORS["expm"](5, np.random.default_rng(0)), -9.942742199065427e-17)
        assert 0.0 < decay_rate(A)[0] < 1e-15
        with np.errstate(all="ignore"), pytest.raises(UnstableGenerator, match="overflows"):
            certify_stability(A)

    @pytest.mark.parametrize("path", sorted(GENERATORS))
    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
           abscissa=st.one_of(st.just(0.0), st.floats(-3.0, 1.0)))
    def test_certificate_M_is_at_least_one(self, path, n, seed, abscissa):
        A = shifted(self.GENERATORS[path](n, np.random.default_rng(seed)), abscissa)
        if path == "log_norm":
            A = symmetrize(A)
        errors = []
        for build in (decay_rate, certify_stability):
            try:
                errors.append((build(A), None))
            except UnstableGenerator as err:
                errors.append((None, str(err)))
        (rate, rate_error), (cert, cert_error) = errors
        if rate_error is not None:
            assert cert_error == rate_error
            assert rate_error.startswith("spectral abscissa")
            return
        assert cert_error is None or cert_error.startswith("certificate validation failed")
        if cert is not None:
            assert cert.M >= 1.0 and cert.alpha == rate[0]
            assert cert.method == ("log_norm" if path == "log_norm" else "sampled")
            assert (cert.eigenbasis is None) is (path == "expm")
