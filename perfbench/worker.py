"""One workload in one fresh process: set up, print ``ready``, run timed units
back to back (a single closed-loop client), check each unit's outputs, and
print one JSON line with the raw results.

Started by run.py, which pins BLAS to one thread in the environment before
this process imports numpy, and times the process from its start to the
``ready`` line (the set-up).  The ``ready`` line carries the host-speed
probes taken during the set-up (see hostspeed.py).  With ``--setup-only`` the
process exits after ``ready``.  Untraced runs probe the host's speed during
every unit too.  With ``--trace 1`` there are no probes in units, and every
unit but the first of each three runs under the span tracer; the untraced ones
give the tracing overhead.
"""

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback

from hostspeed import SpeedSampler, scaled

MIN_UNITS = 2          # a second invocation to compare with the first
MIN_TRACED_UNITS = 3   # an untraced unit and two traced ones, for the counts check
MAX_MEASURE_S = 140.0  # keeps the whole run under the 180 s limit
SETUP_PROBE_INTERVAL_S = 0.02  # a set-up takes about half a second
UNIT_PROBE_INTERVAL_S = 0.05


def measure(workload, seconds, tracer):
    plain_s, scaled_s, traced_s, errors, layer_rows = [], [], [], [], []
    sampler = None if tracer is not None else SpeedSampler(UNIT_PROBE_INTERVAL_S)
    least = MIN_UNITS if tracer is None else MIN_TRACED_UNITS
    attempted = failed = 0
    info = {}
    start = time.perf_counter()
    while True:
        traced = tracer is not None and attempted % 3 != 0
        if traced:
            tracer.unit = attempted
            tracer.install()
        if sampler is not None:
            sampler.start()
        t0 = time.perf_counter()
        try:
            out = workload.run_unit(attempted)
            elapsed = time.perf_counter() - t0
        except Exception:
            elapsed, unit_errors = None, [traceback.format_exc()]
        finally:
            if traced:
                tracer.uninstall()
            if sampler is not None:
                sample = sampler.stop()
        if elapsed is not None:
            (traced_s if traced else plain_s).append(elapsed)
            if sampler is not None:
                scaled_s.append(scaled(elapsed, sample))
            if traced:
                layer_rows.append(tracer.unit_metrics(attempted))
            try:
                unit_errors, info = workload.check(attempted, out)
            except Exception:
                unit_errors = ["the check raised: " + traceback.format_exc()]
        attempted += 1
        if unit_errors:
            failed += 1
            errors += [f"unit {attempted - 1}: {e}" for e in unit_errors]
        spent = time.perf_counter() - start
        per_unit = spent / attempted
        if attempted >= least and (spent + per_unit > seconds
                                   or spent + per_unit > MAX_MEASURE_S):
            break
    return {"attempted": attempted, "failed": failed, "errors": errors[:20],
            "plain_s": plain_s, "scaled_s": scaled_s, "traced_s": traced_s,
            "layer_rows": layer_rows, "info": info}


def environment(workload):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "matrix_bytes": workload.n * workload.n * 8}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    setup = SpeedSampler(SETUP_PROBE_INTERVAL_S)
    setup.start()
    from workloads import WORKLOADS

    scratch = tempfile.mkdtemp(dir=args.out)
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        print("ready " + json.dumps(setup.stop()), flush=True)
        if args.setup_only:
            return 0
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
        result = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if tracer is not None:
        tracer.write(f"{args.out}/spans-{args.workload}-seed{args.seed}.json")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment(workload)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
