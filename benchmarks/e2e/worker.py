"""One workload in one fresh single-threaded process.

Run by ``run.py``; prints one JSON object on its last stdout line.  The
set-up (import, input build, warm-up, prefix equivalence checks) is timed
from process start.  Then identical rounds of fixed work repeat until the
requested seconds of timed work have passed; with tracing on, traced
rounds alternate with untraced ones so the overhead is measured in the
same process.  Every round must reproduce the first round's exact counts
and digest.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

MIN_ROUNDS = 3


def cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def first_difference(reference: dict, other: dict) -> str | None:
    for key in sorted(set(reference) | set(other)):
        if reference.get(key) != other.get(key):
            return f"{key}: {reference.get(key)!r} != {other.get(key)!r}"
    return None


def span_counts(table: dict) -> dict:
    """The exact part of a tracer table: calls and units per span name."""
    return {
        f"{name}.{field}": row[field]
        for name, row in table.items()
        for field in ("calls", "units")
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--plant-fault", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import numpy

    from layers import layer_metrics
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](
        args.seed, args.smoke, args.plant_fault, args.out
    )
    setup_digest = workload.setup()
    gc.collect()
    setup_s = time.perf_counter() - PROCESS_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_digest": setup_digest}))
        return 0

    rounds = {False: [], True: []}  # traced? -> [(wall, cpu, Round, table)]
    timed = 0.0
    tracer = None
    while timed < args.seconds or len(rounds[False]) < MIN_ROUNDS:
        traced = bool(args.trace) and len(rounds[True]) < len(rounds[False])
        if traced:
            tracer = Tracer()
            tracer.install()
        cpu0 = cpu_seconds()
        wall0 = time.perf_counter()
        try:
            state = workload.run()
        finally:
            wall = time.perf_counter() - wall0
            cpu = cpu_seconds() - cpu0
            if traced:
                tracer.uninstall()
        verified = workload.check(state)
        table = tracer.aggregate() if traced else None
        rounds[traced].append((wall, cpu, verified, table))
        timed += wall
        del state
        gc.collect()
        if args.smoke and (not args.trace or rounds[True]):
            break

    # Determinism guard: one seed, one answer — in every round.
    first = rounds[False][0][2]
    problem = None
    for _, _, verified, _ in rounds[False] + rounds[True]:
        problem = problem or first_difference(
            {"digest": first.digest, **first.counts},
            {"digest": verified.digest, **verified.counts},
        )
    for _, _, _, table in rounds[True][1:]:
        problem = problem or first_difference(
            span_counts(rounds[True][0][3]), span_counts(table)
        )
    if problem:
        print(f"determinism guard: {problem}", file=sys.stderr)

    untraced = rounds[False]
    attempted = sum(r.ops for _, _, r, _ in untraced)
    failed = attempted if problem else sum(r.failed for _, _, r, _ in untraced)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(r.ops / wall for wall, _, r, _ in untraced),
        "cpu_s": statistics.median(cpu for _, cpu, _, _ in untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(untraced),
        "ops_per_round": first.ops,
        "round_wall_s": [wall for wall, _, _, _ in untraced],
        "round_cpu_s": [cpu for _, cpu, _, _ in untraced],
        "metrics": metrics,
        "counts": first.counts,
        "measured": {**workload.setup_counts, **first.measured},
        "digest": first.digest,
        "setup_digest": setup_digest,
        "notes": first.notes,
        "guard": problem,
        "numpy": numpy.__version__,
    }
    if rounds[True]:
        untraced_wall = statistics.median(wall for wall, _, _, _ in untraced)
        result["layers"] = layer_metrics(
            [(wall, table) for wall, _, _, table in rounds[True]],
            {**result["counts"], **result["measured"]},
            untraced_wall,
            len(tracer.spans),
        )
        result["traced_rounds"] = len(rounds[True])
        path = os.path.join(args.out, f"trace_{args.workload}.jsonl")
        tracer.write_jsonl(path, f"{args.workload}-seed{args.seed}")
        result["trace_file"] = os.path.basename(path)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
