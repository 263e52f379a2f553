"""One round of one workload, in a fresh process.

Usage: python3 perfbench/worker.py --workload NAME --seed N --t0 T
       --result PATH [--trace PATH] [--setup-only]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; set-up time runs from there to the first timed operation, so it
covers interpreter start, imports, group construction and workload set-up.
The round's measurements and the program outputs needed by the checks are
written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", default=None, metavar="PATH")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import workloads

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        for site in tracer.install():
            print(f"perfbench: cannot trace {site}: not found", file=sys.stderr)
    workload = workloads.WORKLOADS[args.workload](args.seed, os.path.dirname(args.result))
    try:
        workload.setup()
        t_first = time.monotonic()
        result = {"setup_s": t_first - args.t0}
        if not args.setup_only:
            t = time.perf_counter()
            ops = workload.run()
            result["wall_s"] = time.perf_counter() - t
            result["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result["attempted"] = len(ops)
            result["failed"] = sum(op.failed for op in ops)
            result["latencies_ms"] = ([result["wall_s"] * 1e3] if workload.round_is_query
                                      else [op.ms for op in ops])
            if tracer is not None:
                tracer.uninstall()
                tracer.write(args.trace)
                layers = tracer.layer_metrics()
                layers.update(workload.work_counts())
                result["layers"] = layers
            result["outputs"] = workload.outputs()
    finally:
        workload.close()
    with open(args.result, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
