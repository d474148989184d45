"""The benchmark's own output checks against the library.

perfbench/workloads.py checks the outputs of every timed unit (placements
against reference values, residuals, report flags and bytes), so a change
that trips one of those checks would otherwise show only as a benchmark run
whose outputs are marked incorrect.  Each workload is built at seed 0, and
one unit is run and checked.
"""

import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
NAMES = ("sweep-heat16", "are-path-heat256", "verify-convdiff16")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # as perfbench/worker.py runs
    return importlib.import_module("workloads")


def test_every_workload_is_checked(workloads):
    assert sorted(workloads.WORKLOADS) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_one_unit_passes_the_benchmark_check(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name](0, tmp_path)
    errors, _ = workload.check(0, workload.run_unit(0))
    assert errors == []
