"""Benchmark entry point for riccati_place.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The workload runs in fresh worker processes
with BLAS pinned to one thread: several set-up-only processes and one
measuring process, each timed from its start to the end of its set-up.  The
measuring process runs units back to back for about ``--seconds`` (at least
two units, three when traced) and checks each unit's outputs.  Set-up and unit times are
rescaled to a reference host speed with probes taken while they ran (see
hostspeed.py); the raw wall times are printed and kept next to them.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The lines above it give the environment and a readable summary.  Raw results
and, when traced, the span store go to ``.perfbench_runs/``.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_ONLY_WORKERS = 2  # set-up-only processes; the measuring one adds a third
RUN_LIMIT_S = 170.0   # hard stop for all worker processes of one run
COUNTS_FILE = "counts-{workload}-seed{seed}.json"
# The per-layer counts a traced unit must repeat exactly for a fixed seed.
COUNT_METRICS = (
    "semigroup.cert_calls", "semigroup.cert_closed_loop_calls", "dual.calls",
    "linalg.sylvester_calls", "linalg.quadrature_calls", "riccati.are_calls",
    "riccati.are_warm_calls", "riccati.newton_steps", "optimize.state_pairs",
    "optimize.iterations", "devices.family_calls",
)


class BenchmarkError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every set-up compiles the same way
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, out, setup_only, deadline):
    """Start one worker; return (raw set-up seconds, set-up seconds rescaled
    to the reference host speed, result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                          env=worker_env(), cwd=ROOT) as proc:
        watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
    if not ready.startswith("ready ") or proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode} "
                             f"({'killed at the run limit' if proc.returncode == -9 else 'see stderr'})")
    sample = json.loads(ready[len("ready "):])
    scaled_s = (setup_s - sample["probe_s"]) * sample["scale"]  # hostspeed.scaled
    return setup_s, scaled_s, None if setup_only else json.loads(rest.splitlines()[-1])


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "riccati_place").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                sizes[f"L{(index / 'level').read_text().strip()}"] = \
                    (index / "size").read_text().strip()
        except OSError:
            continue
    return sizes or "unknown"


def timing_note(samples):
    """Sample count, median, fastest, and the highest percentile with at least
    ten samples beyond it (none below 20 samples)."""
    n = len(samples)
    note = (f"n={n}, median {statistics.median(samples):.4f} s, "
            f"fastest {min(samples):.4f} s, ")
    if n < 20:
        return note + "no tail percentile (needs >= 20 samples)"
    q = int(100 * (1 - 10 / n))
    return note + f"p{q} {statistics.quantiles(samples, n=100)[q - 1]:.4f} s"


def layer_metrics(result, spec):
    """Median of each per-layer metric over the traced units; the counts check."""
    rows = result["layer_rows"]
    if not rows or not result["plain_s"]:
        raise BenchmarkError("a traced and an untraced unit must complete: "
                             + "; ".join(result["errors"]))
    errors = []
    if len(rows) < 2:
        errors.append(f"{len(rows)} traced units; the counts check needs two")
    for name in COUNT_METRICS:
        if len({row[name] for row in rows}) > 1:
            errors.append(f"{name} differs between traced units: "
                          f"{[row[name] for row in rows]}")
    counts = {name: rows[0][name] for name in COUNT_METRICS}
    values = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    values.update(counts)
    values["trace.overhead_s"] = (statistics.median(result["traced_s"])
                                  - statistics.median(result["plain_s"]))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer"]}
    return metrics, counts, errors


def check_counts_across_runs(out, args, counts, digest):
    """Compare with the counts an earlier traced run of this seed and source left."""
    path = out / COUNTS_FILE.format(workload=args.workload, seed=args.seed)
    errors = []
    if path.is_file():
        earlier = json.loads(path.read_text())
        if earlier["source"] == digest and earlier["counts"] != counts:
            errors.append(f"counts differ from an earlier traced run: "
                          f"{earlier['counts']} vs {counts}")
    path.write_text(json.dumps({"source": digest, "counts": counts}, indent=1))
    return errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchmarkError(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "riccati_place" / "__init__.py").is_file():
        raise BenchmarkError("src/riccati_place not found; run from the repository root")

    out = ROOT / ".perfbench_runs"
    out.mkdir(exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    workers = [run_worker(args, out, True, deadline) for _ in range(SETUP_ONLY_WORKERS)]
    workers.append(run_worker(args, out, False, deadline))
    result = workers[-1][2]
    raw_setups = [raw for raw, _, _ in workers]
    setups = [scaled for _, scaled, _ in workers]

    digest = source_digest()
    env = dict(result.pop("environment"),
               python=platform.python_version(), nproc=os.cpu_count(),
               affinity=len(os.sched_getaffinity(0)),
               blas_threads=worker_env()["OPENBLAS_NUM_THREADS"],
               caches=cache_sizes(), git_commit=git_commit(), source_digest=digest)
    errors = list(result["errors"])
    if args.trace:
        metrics, counts, count_errors = layer_metrics(result, spec)
        errors += count_errors + check_counts_across_runs(out, args, counts, digest)
        samples = result["traced_s"]
    else:
        samples = result["plain_s"]
        if not samples:
            raise BenchmarkError("no unit completed: " + "; ".join(errors))
        metrics = {"setup_s": statistics.median(setups),
                   "solve_s": statistics.median(result["scaled_s"]),
                   "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "setup_samples_s": setups,
              "setup_raw_s": raw_setups, "metrics": metrics,
              "errors": errors, **result}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1))

    attempted, failed = result["attempted"], result["failed"]
    print("environment: " + json.dumps(env))
    print(f"workload {args.workload} seed {args.seed}: {attempted} units, "
          f"raw unit wall time {timing_note(samples)}, "
          f"fail_rate = {failed / attempted:.4f} ({failed}/{attempted})")
    print(f"  raw set-up wall time: median {statistics.median(raw_setups):.4f} s "
          f"of {len(raw_setups)}")
    if result["scaled_s"]:
        print(f"  unit time at the reference host speed: "
              f"{[round(t, 4) for t in result['scaled_s']]} s")
    for key, value in result["info"].items():
        print(f"  output {key} = {value}")
    for key, m in metrics.items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    for err in errors:
        print(f"  ERROR {err}")
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        sys.exit(2)
