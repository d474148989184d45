"""Cold state pairs in batches: ``optimize.solve_state_pairs`` against a
per-placement ``solve_are`` + ``solve_dual`` loop, bit for bit."""

import numpy as np
import pytest

from riccati_place import cli, linalg, optimize, riccati
from riccati_place.devices import GaussianActuators, sample_box
from riccati_place.dual import solve_dual
from riccati_place.linalg import low_rank_psd
from riccati_place.optimize import Problem2Config, solve_state_pair, solve_state_pairs
from riccati_place.riccati import solve_are

from conftest import count_calls, heat1d
from test_cli import convdiff16_config


def sequential(cfg, points):
    """Each placement's (RiccatiSolution, DualSolution), one solve at a time."""
    pairs = []
    for p in points:
        G = cfg.family.G(p)
        sol = solve_are(cfg.A, G, cfg.Q, cert=cfg.cert)
        pairs.append((sol, solve_dual(cfg.A, G, sol, cfg.W, cfg.W_spectrum)))
    return pairs


def assert_bit_for_bit(states, reference):
    assert len(states) == len(reference)
    for state, (sol, dsol) in zip(states, reference):
        assert state.sol.X.tobytes() == sol.X.tobytes()
        assert state.dsol.Lambda.tobytes() == dsol.Lambda.tobytes()
        assert (state.sol.newton_iters, state.sol.schur_steps) == (sol.newton_iters,
                                                                    sol.schur_steps)
        assert state.sol.trace_bound_slack == sol.trace_bound_slack
        assert (state.dsol.loop.capacitance is None) == (dsol.loop.capacitance is None)
        assert state.dsol.closed_loop.tobytes() == dsol.closed_loop.tobytes()
        assert state.dsol.norm_W == dsol.norm_W


def heat16_config(d=1):
    A, grid = heat1d(16)
    W = np.zeros((16, 16))
    W[3, 3] = 1.0
    return Problem2Config(A=A, Q=np.eye(16), W=W,
                          family=GaussianActuators(grid=grid, sigma=0.12, param_dim=d),
                          beta=10.0, gamma=2.6)


def placements(cfg, count, seed):
    return sample_box(cfg.family.domain(), count, np.random.default_rng(seed))


class TestSolveStatePairs:
    def test_verify_bounds_placements(self, tmp_path, monkeypatch):
        # the 220 placements of a seed-0 verify-bounds run on convdiff16, in
        # the order it solves them: the ledger's 100 points, the 50
        # Lipschitz pairs, the 20 spot checks
        cfg, _ = cli.build_problem(cli.load_config(convdiff16_config(tmp_path)))
        domain = cfg.family.domain()
        ledger = sample_box(domain, cli.LEDGER_SAMPLES, np.random.default_rng(0))
        rng = np.random.default_rng(1)
        P1, P2 = sample_box(domain, 50, rng), sample_box(domain, 50, rng)
        spots = sample_box(domain, 20, np.random.default_rng(2))
        points = list(ledger) + [p for pair in zip(P1, P2) for p in pair] + list(spots)
        reference = sequential(cfg, points)
        singles = count_calls(monkeypatch, "solve_are", optimize)
        states = list(solve_state_pairs(cfg, points))
        assert_bit_for_bit(states, reference)
        assert len(singles) == 0  # every placement stays in its batch
        assert sum(s.sol.newton_iters for s in states) == 877

    def test_heat16_placements(self, monkeypatch):
        cfg = heat16_config()
        points = placements(cfg, 50, 3)
        reference = sequential(cfg, points)
        singles = count_calls(monkeypatch, "solve_are", optimize)
        assert_bit_for_bit(list(solve_state_pairs(cfg, points)), reference)
        assert len(singles) == 0

    def test_batch_of_one_is_the_state_pair(self):
        cfg = heat16_config()
        p = np.array([0.3])
        (state,) = solve_state_pairs(cfg, [p])
        assert_bit_for_bit([state], sequential(cfg, [p]))
        assert_bit_for_bit([state], [(s.sol, s.dsol) for s in [solve_state_pair(cfg, p)]])
        assert np.array_equal(state.p, p) and state.G.tobytes() == cfg.family.G(p).tobytes()

    @pytest.mark.parametrize("count", [0, 1, 5, 11])
    def test_counts_off_the_chunk_size(self, monkeypatch, count):
        # the fewest stacks of at most 4, near-equal in size
        monkeypatch.setattr(linalg, "stack_width", lambda n: 4)
        sizes = {0: [], 1: [1], 5: [2, 3], 11: [3, 4, 4]}[count]
        cfg = heat16_config()
        points = placements(cfg, count, 4)
        batches = count_calls(monkeypatch, "solve_are_batch", optimize)
        states = list(solve_state_pairs(cfg, points))
        assert_bit_for_bit(states, sequential(cfg, points))
        assert [len(args[1]) for args in batches] == sizes

    @pytest.mark.parametrize("width", [1, 2, 7, 32, 64])
    def test_pairs_are_the_same_at_every_width(self, monkeypatch, width):
        cfg = heat16_config()
        points = placements(cfg, 40, 9)
        reference = sequential(cfg, points)
        monkeypatch.setattr(linalg, "stack_width", lambda n: width)
        batches = count_calls(monkeypatch, "solve_are_batch", optimize)
        assert_bit_for_bit(list(solve_state_pairs(cfg, points)), reference)
        assert len(batches) == -(-40 // width)

    def test_member_failing_a_gate_finishes_on_the_single_path(self, monkeypatch):
        # the steps of one placement are never proved: it leaves the batch at
        # its first step, and its single solve takes a Schur step each time
        cfg = heat16_config()
        points = placements(cfg, 9, 5)
        d, V, _, _ = cfg.cert.eigh(cfg.A)
        target = V.T @ low_rank_psd(cfg.family.G(points[4]), 3)[0]
        step = riccati._EigenbasisKernel._capacitance_step

        def failing(kernel, F):
            Y, proved = step(kernel, F)
            proved = proved & ~np.all(kernel.B == target, axis=(-2, -1))
            return (Y if np.any(proved) else None), proved

        monkeypatch.setattr(riccati._EigenbasisKernel, "_capacitance_step", failing)
        reference = sequential(cfg, points)
        singles = count_calls(monkeypatch, "solve_are", optimize)
        states = list(solve_state_pairs(cfg, points))
        assert_bit_for_bit(states, reference)
        assert len(singles) == 1 and singles[0][1] is states[4].G
        assert [s.sol.schur_steps > 0 for s in states] == [k == 4 for k in range(9)]

    def test_another_rank_of_G_leaves_the_batch(self, monkeypatch):
        # coincident centres of a d = 2 family give G rank 1 where the
        # others have rank 2: those placements are solved one at a time
        cfg = heat16_config(d=2)
        points = list(placements(cfg, 7, 6))
        points[2] = np.array([0.4, 0.4])
        points[5] = np.array([0.7, 0.7])
        reference = sequential(cfg, points)
        singles = count_calls(monkeypatch, "solve_are", optimize)
        states = list(solve_state_pairs(cfg, points))
        assert_bit_for_bit(states, reference)
        assert [args[1] is states[k].G for k, args in zip((2, 5), singles)] == [True, True]
        assert [s.sol.eigenbasis.B.shape[1] for s in states] == [2, 2, 1, 2, 2, 1, 2]

    def test_multipliers_read_the_configs_norm_of_W(self, monkeypatch):
        # one SVD of W per config, read by every multiplier the pairs hold
        cfg = heat16_config()
        svds = count_calls(monkeypatch, "operator_norm", optimize)
        states = list(solve_state_pairs(cfg, placements(cfg, 5, 8)))
        assert all(vars(s.dsol)["norm_W"] is cfg.norm_W for s in states)
        assert len(svds) == 1 and cfg.norm_W == np.linalg.norm(cfg.W, 2)

    def test_pairs_are_yielded_a_chunk_at_a_time(self, monkeypatch):
        monkeypatch.setattr(linalg, "stack_width", lambda n: 3)
        cfg = heat16_config()
        batches = count_calls(monkeypatch, "solve_are_batch", optimize)
        pairs = solve_state_pairs(cfg, placements(cfg, 7, 7))
        next(pairs)
        assert len(batches) == 1
        assert len(list(pairs)) == 6 and len(batches) == 3


class TestDiscTest:
    @pytest.mark.parametrize("model", ["heat16", "convdiff16"])
    def test_skipped_only_off_an_orthonormal_basis_deciding_as_before(
            self, monkeypatch, tmp_path, model):
        # heat16's eigenbasis is orthonormal, and the Gershgorin discs run
        # before Cholesky; convdiff16's is not, the discs decide none of its
        # tests and are skipped.  Every decision is the one both tests take
        cfg = (heat16_config() if model == "heat16" else
               cli.build_problem(cli.load_config(convdiff16_config(tmp_path)))[0])
        decide = riccati._positive_definite
        calls = []

        def both(T, where=True, discs=True):
            pd = decide(T, where, discs)
            assert np.array_equal(pd, decide(T, where, True))
            calls.append((discs, np.count_nonzero(where)))
            return pd

        monkeypatch.setattr(riccati, "_positive_definite", both)
        points = placements(cfg, 30, 11)
        list(solve_state_pairs(cfg, points))
        solve_state_pair(cfg, points[0])
        assert {discs for discs, _ in calls} == {model == "heat16"}
        assert sum(tested for _, tested in calls) > 60


class TestAdmission:
    @pytest.mark.parametrize("bad", ["shape", "non-finite", "asymmetric", "indefinite"])
    def test_a_G_that_solve_are_refuses_raises_from_the_batch(self, bad):
        # the batch admits each G as solve_are does and raises its ValueError;
        # it does not drop the G and leave the single solve to raise
        cfg = heat16_config()
        G = cfg.family.G([0.3])
        refused = {"shape": np.eye(8), "non-finite": np.full((16, 16), np.nan),
                   "asymmetric": G + np.triu(np.ones((16, 16)), 1),
                   "indefinite": -G}[bad]
        with pytest.raises(ValueError) as single:
            solve_are(cfg.A, refused, cfg.Q, cert=cfg.cert)
        with pytest.raises(ValueError) as batched:
            riccati.solve_are_batch(cfg.plant, [G, refused])
        assert str(batched.value) == str(single.value)
