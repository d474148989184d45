"""The benchmark's span tracer against the library it wraps.

perfbench/tracer.py wraps library functions by name, and device-family
methods on the GaussianActuators class, so a renamed function, a beta_sweep
row that no longer goes through solve_p2, a multiplier solved around
solve_dual, or a family method reached around the class attribute would
otherwise show only as wrong per-layer counts in a traced benchmark run.
"""

import importlib
from pathlib import Path

from riccati_place import GaussianActuators, optimize
from riccati_place.optimize import beta_sweep

from conftest import count_calls
from test_optimize_p2 import heat16_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_heat16_sweep_counts_match_the_library(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # as perfbench/worker.py runs
    tracer_module = importlib.import_module("tracer")
    cfg = heat16_config(beta=10.0)
    pairs = count_calls(monkeypatch, "solve_state_pair", optimize)
    tracer = tracer_module.Tracer()
    tracer.unit = 0
    tracer.install()
    try:
        report = beta_sweep(cfg, [10.0, 1e2, 1e3], [0.3])
    finally:
        tracer.uninstall()
    assert all(r.converged and not r.failed for r in report.rows)
    metrics = tracer.unit_metrics(0)
    assert metrics["optimize.iterations"] == sum(r.iterations for r in report.rows)
    assert metrics["optimize.state_pairs"] == len(pairs) > 0

    # the same sweep untraced, each family method, Riccati solve and
    # multiplier counted directly
    family_calls = [count_calls(monkeypatch, name, GaussianActuators)
                    for name in tracer_module.FAMILY_METHODS]
    are_calls = count_calls(monkeypatch, "solve_are", optimize)
    dual_calls = count_calls(monkeypatch, "solve_dual", optimize)
    beta_sweep(cfg, [10.0, 1e2, 1e3], [0.3])
    assert metrics["devices.family_calls"] == sum(map(len, family_calls)) > 0
    assert metrics["riccati.are_calls"] == len(are_calls) > 0
    assert metrics["riccati.newton_steps"] > 0
    assert metrics["dual.calls"] == len(dual_calls) > 0
