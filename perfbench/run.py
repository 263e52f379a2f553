"""prodone benchmark: one workload per invocation, printed as one JSON line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: catalog_sweep, sequence_queries (see README.md). The run repeats
whole rounds of the workload, each in a fresh worker process, while the next
round is expected to end within ``--seconds`` (and at least the workload's
minimum number of rounds), then checks the program outputs against the
oracles. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics, with the tracing overhead. The last line of standard
output is ``{"correct": ..., "attempted": ..., "failed": ..., "metrics": ...}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_SAMPLES = 15          # set-up is measured at least this often per run
WORKER_TIMEOUT_S = 150


def _require_program() -> None:
    """Fail before measuring anything when the program's sources are absent."""
    if not os.path.isfile(os.path.join(ROOT, "src", "prodone", "__init__.py")):
        raise SystemExit("perfbench: src/prodone not found next to the benchmark")


def _worker(workdir, workload, seed, *, trace_path=None, setup_only=False) -> dict:
    result = os.path.join(workdir, "round.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--result", result]
    if trace_path:
        cmd += ["--trace", trace_path]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, stdin=subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: worker failed ({proc.returncode}):\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    with open(result, encoding="ascii") as fh:
        out = json.load(fh)
    os.unlink(result)
    return out


def _p99(values) -> float:
    """The 99th percentile when at least ten samples lie beyond it; with
    fewer samples there is no tail to report, and the median stands in."""
    if len(values) < 1000:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def _end_to_end(rounds, setups) -> dict:
    latencies = [ms for r in rounds for ms in r["latencies_ms"]]
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "peak_rss_mib": (statistics.median(r["rss_kib"] for r in rounds) / 1024, "MiB"),
        "query_p50_ms": (statistics.median(latencies), "ms"),
        "query_p99_ms": (_p99(latencies), "ms"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _per_layer(untraced, traced) -> dict:
    import tracing
    metrics = {}
    for name in tracing.PER_LAYER:
        if name == "trace.overhead_s":
            value = (statistics.median(r["wall_s"] for r in traced)
                     - statistics.median(r["wall_s"] for r in untraced))
        else:
            value = statistics.median(r["layers"].get(name, 0) for r in traced)
        metrics[name] = {"value": value, "unit": tracing.unit_of(name)}
    return metrics


def main(argv=None) -> int:
    # a SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running worker and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description="prodone benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_program()
    sys.path.insert(0, HERE)
    import checks
    import oracles
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    min_rounds = workloads.WORKLOADS[args.workload].min_rounds

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        untraced, traced = [], []
        start = time.monotonic()
        passes = []     # seconds per pass: one untraced round, and a traced one with --trace 1
        while True:
            t = time.monotonic()
            untraced.append(_worker(workdir, args.workload, args.seed))
            if args.trace:
                trace_path = os.path.join(
                    OUT_DIR, f"trace-{args.workload}-seed{args.seed}-{len(traced)}.json")
                traced.append(_worker(workdir, args.workload, args.seed,
                                      trace_path=trace_path))
            passes.append(time.monotonic() - t)
            # start another pass only if it is expected to end within --seconds
            expected_end = time.monotonic() - start + statistics.median(passes)
            if len(untraced) >= min_rounds and expected_end > args.seconds:
                break
        setups = [r["setup_s"] for r in untraced]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(_worker(workdir, args.workload, args.seed,
                                  setup_only=True)["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = untraced + traced
    first = rounds[0]["outputs"]
    errors = oracles.self_test() + checks.CHECKS[args.workload](first)
    for k, r in enumerate(rounds[1:], 1):
        if any(first[key] != value for key, value in r["outputs"].items()):
            errors.append(f"round {k} outputs differ from round 0")
    for line in errors[:20]:
        print(f"check failed: {line}")
    metrics = _per_layer(untraced, traced) if args.trace else _end_to_end(untraced, setups)
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
