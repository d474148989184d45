"""The benchmark's own output checks against the library.

perfbench/workloads.py checks the outputs of every timed unit (placements
against reference values, residuals, report flags and bytes), so a change
that trips one of those checks would otherwise show only as a benchmark run
whose outputs are marked incorrect.  Each workload is built at seed 0
(``are-path-heat256`` also at seeds 1 and 2), and one unit is run and
checked.
"""

import importlib
from pathlib import Path

import pytest

from riccati_place import devices, linalg, optimize, riccati

from conftest import count_calls, gram_members

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
NAMES = ("sweep-heat16", "are-path-heat256", "verify-convdiff16")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # as perfbench/worker.py runs
    return importlib.import_module("workloads")


def test_every_workload_is_checked(workloads):
    assert sorted(workloads.WORKLOADS) == sorted(NAMES)


# the n = 256 path's jittered placements at seeds 1 and 2 take other Newton
# paths through its residual, PSD and trace-bound checks
UNITS = [pytest.param(name, 0, id=name) for name in NAMES] + [
    pytest.param("are-path-heat256", seed, id=f"are-path-heat256-seed{seed}") for seed in (1, 2)]


@pytest.mark.parametrize("name,seed", UNITS)
def test_one_unit_passes_the_benchmark_check(workloads, name, seed, tmp_path, monkeypatch):
    workload = workloads.WORKLOADS[name](seed, tmp_path)
    residuals = count_calls(monkeypatch, "_residual_matrix", riccati)
    projections = count_calls(monkeypatch, "into", riccati._EigenbasisKernel)
    svds = count_calls(monkeypatch, "operator_norm", riccati)
    power_bounds = count_calls(monkeypatch, "_power_bounds", linalg, keywords=True)
    out = workload.run_unit(0)
    errors, _ = workload.check(0, out)
    assert errors == []
    if (name, seed) == ("are-path-heat256", 0):
        # every step runs in the eigenbasis, and the stop test reads X G X
        # from G's factor: the four-product residual is formed only once,
        # for verify_are's strong residual at the last placement
        sols = [sol for _, sol in out[0]]
        assert [sol.newton_iters for sol in sols] == [4, 4, 4, 4, 3, 3, 4, 3]
        assert [sol.schur_steps for sol in sols] == [0] * 8
        assert len(residuals) == 1 and residuals[0][3] is sols[-1].X
        # the 7 warm starts enter the eigenbasis through their gains, and
        # verify_are reads ||X|| off eigvalsh(X): its two SVDs are the
        # strong residual's and ||X - X_quad||
        assert len(projections) == 0 and len(svds) == 2
        # the step tests the Frobenius bounds leave open (4 here) are
        # settled by O(n^2) bounds, without forming S'S
        assert len(power_bounds) == 4 and gram_members(power_bounds) == 0


def test_sweep_heat16_unit_counts(workloads, tmp_path, monkeypatch):
    # the machine-independent work of one seed-0 unit: each placement is
    # solved once per sweep (rows 2-4 read their map image, the lower bound
    # p = 1/17 that a row-1 trial solved, from the sweep's store), and every
    # trial's Newton-Kleinman solve starts from the tangent prediction of X
    workload = workloads.WORKLOADS["sweep-heat16"](0, tmp_path)
    pairs = count_calls(monkeypatch, "solve_state_pair", optimize)
    steps = []

    def solve_are(*args, _original=optimize.solve_are, **kwargs):
        sol = _original(*args, **kwargs)
        steps.append(sol.newton_iters)
        return sol

    monkeypatch.setattr(optimize, "solve_are", solve_are)
    report = workload.run_unit(0)
    assert workload.check(0, report)[0] == []
    assert len(pairs) <= 10
    assert sum(steps) <= 19


def test_sweep_heat16_unit_evaluates_each_map_image_it_reads(workloads, tmp_path, monkeypatch):
    # problem 2's map is evaluated for the first row's map start at p0 and
    # for each later row's, at the point its predecessor ended; the last
    # row's fixed-point residual is read by nothing, so no map is evaluated
    # at its end
    workload = workloads.WORKLOADS["sweep-heat16"](0, tmp_path)
    maps = count_calls(monkeypatch, "map_p2", optimize.StatePair)
    report = workload.run_unit(0)
    assert workload.check(0, report)[0] == []
    assert len(report.rows) == 4 and len(maps) == 4


def test_verify_convdiff16_unit_evaluates_the_family_a_stack_at_a_time(
        workloads, tmp_path, monkeypatch):
    # the ledger and solve_state_pairs build their G_p and dG_p(q) as stacks
    # of placements, so a unit makes no single-placement G or dG call.  G
    # matrices: the ledger's 100 points, its 100 pairs' 200 and its 100
    # state pairs, the Lipschitz check's 50 pairs' 100 and 20 spot checks;
    # dG (one direction at param_dim = 1): the ledger's 100 points and 200
    # pair members
    workload = workloads.WORKLOADS["verify-convdiff16"](0, tmp_path)
    family = devices.GaussianActuators
    single_G = count_calls(monkeypatch, "G", family)
    single_dG = count_calls(monkeypatch, "dG", family)
    G_stacks = count_calls(monkeypatch, "G_stack", family)
    dG_stacks = count_calls(monkeypatch, "dG_stack", family)
    out = workload.run_unit(0)
    assert workload.check(0, out)[0] == []
    assert single_G == single_dG == []
    assert sum(len(args[1]) for args in G_stacks) == 520
    assert sum(len(args[1]) for args in dG_stacks) == 300
