"""The repository's benchmark: one workload per run, end to end or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload baseline-x1 --seed 2026 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table each

``--trace 0`` reports the end-to-end metrics of untraced passes;
``--trace 1`` adds traced passes and reports the per-layer metrics
instead.  Every metric is printed with its unit, after a host
fingerprint; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is non-zero when any output mismatched or any pass raised.

Workloads, layers and metrics are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=2026,
                        help="master seed of the sweeps (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="time the timed passes fill (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = report per-layer metrics of traced passes")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for self-tests; "
                             "pinned outputs apply to full only")
    return parser.parse_args(argv)


def _terminate(signum, _frame):
    # Unwind through the finally blocks that reap the worker pool.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    signal.signal(signal.SIGTERM, _terminate)
    import harness
    from workloads import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2

    print("host", json.dumps(harness.host_fingerprint(), sort_keys=True))
    results = {}
    attempted = failed = 0
    for name in names:
        run = harness.measure(WORKLOADS[name], args.seed, args.seconds,
                              bool(args.trace), size=args.size)
        attempted += run.attempted
        failed += run.failed
        for problem in run.problems:
            print(f"perfbench {name}: MISMATCH {problem}", file=sys.stderr)
        units = harness.PER_LAYER if args.trace else harness.END_TO_END
        values = {}
        if run.passes and (run.traced or not args.trace):
            measured = (harness.per_layer(run) if args.trace
                        else harness.end_to_end(run))
            values = {metric: measured[metric] for metric in units}
        print(f"workload {name} seed={args.seed} size={args.size} "
              f"passes={len(run.passes)} traced={len(run.traced)} "
              f"set-ups={len(run.setup_samples)} "
              f"failed={run.failed}/{run.attempted} "
              f"worker_crashes={run.worker_crashes} "
              f"resubmitted={run.resubmitted}")
        for metric, value in values.items():
            print(f"  {metric:32s} {value:16.6f} {units[metric]}")
        results[name] = {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in values.items()
        }
    correct = failed == 0 and attempted > 0
    summary = {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": results[names[0]] if len(names) == 1 else results,
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
