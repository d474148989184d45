"""The benchmark's span tracer against the library it wraps.

perfbench/tracer.py wraps library functions by name, and device-family
methods on the GaussianActuators class, so a renamed function, a beta_sweep
row that no longer goes through solve_p2, a multiplier solved around
solve_dual, a Lyapunov solve or quadrature that no longer goes through
solve_sylvester(A, P) or bochner_quadrature, or a family method reached
around the class attribute would otherwise show only as wrong per-layer
counts in a traced benchmark run.
"""

import importlib
from pathlib import Path

import numpy as np

from riccati_place import GaussianActuators, linalg, optimize, riccati
from riccati_place.optimize import beta_sweep
from riccati_place.riccati import solve_are, verify_are
from riccati_place.semigroup import certify_stability

from conftest import count_calls, rand_psd, rand_stable
from test_optimize_p2 import heat16_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # as perfbench/worker.py runs
    return importlib.import_module("tracer")


def traced(monkeypatch, run):
    """``(tracer, run())`` with ``run`` traced as unit 0."""
    tracer = load_tracer(monkeypatch).Tracer()
    tracer.unit = 0
    tracer.install()
    try:
        return tracer, run()
    finally:
        tracer.uninstall()


def test_traced_heat16_sweep_counts_match_the_library(monkeypatch):
    cfg = heat16_config(beta=10.0)
    pairs = count_calls(monkeypatch, "solve_state_pair", optimize)
    tracer, report = traced(monkeypatch, lambda: beta_sweep(cfg, [10.0, 1e2, 1e3], [0.3]))
    assert all(r.converged and not r.failed for r in report.rows)
    metrics = tracer.unit_metrics(0)
    assert metrics["optimize.iterations"] == sum(r.iterations for r in report.rows)
    assert metrics["optimize.state_pairs"] == len(pairs) > 0

    # the same sweep untraced, each family method, Riccati solve and
    # multiplier counted directly
    family_calls = [count_calls(monkeypatch, name, GaussianActuators)
                    for name in load_tracer(monkeypatch).FAMILY_METHODS]
    are_calls = count_calls(monkeypatch, "solve_are", optimize)
    dual_calls = count_calls(monkeypatch, "solve_dual", optimize)
    beta_sweep(cfg, [10.0, 1e2, 1e3], [0.3])
    assert metrics["devices.family_calls"] == sum(map(len, family_calls)) > 0
    assert metrics["riccati.are_calls"] == len(are_calls) > 0
    assert metrics["riccati.newton_steps"] > 0
    assert metrics["dual.calls"] == len(dual_calls) > 0


def test_traced_lyapunov_kernel_counts_match_the_library(monkeypatch, rng):
    # a G of full rank takes the Schur path: its Lyapunov solves go through
    # solve_sylvester(A, P), each counted with n^3, and verify_are runs one
    # quadrature
    n = 6
    A, G, Q = rand_stable(n, rng), rand_psd(n, rng), np.eye(n)
    tracer, sol = traced(monkeypatch, lambda: solve_are(A, G, Q))
    assert sol.schur_steps > 0
    sylvester = count_calls(monkeypatch, "solve_sylvester", linalg, riccati)
    solve_are(A, G, Q)
    metrics = tracer.unit_metrics(0)
    assert metrics["linalg.sylvester_calls"] == len(sylvester) > 0
    counts = [s[5] for s in tracer.spans if s[0] == "linalg.solve_sylvester"]
    assert counts == [{"n3": n**3}] * len(sylvester)

    cert = certify_stability(A)
    tracer, _ = traced(monkeypatch, lambda: verify_are(A, G, Q, sol, cert, 20.0 / cert.alpha,
                                                       200))
    assert [s[0] for s in tracer.spans].count("linalg.bochner_quadrature") == 1
    assert tracer.unit_metrics(0)["linalg.quadrature_calls"] == 1
