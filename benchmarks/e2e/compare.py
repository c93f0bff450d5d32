"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

A is the parent, B the change.  For each workload and end-to-end metric
the verdict follows the choosing-metrics guide: a difference counts only
when the medians differ by more than the parent's inter-quartile distance
*and* by more than the metric's bound; when the parent's own spread is
wider than the bound the cell is **unresolved**, unless every run of B
reads better than every run of A.  Exact counts and digests of runs that
share a seed must be identical when A and B are the same commit (they may
move when the code changed).  Exits non-zero on any regression and on a
same-commit count mismatch.
"""

from __future__ import annotations

import json
import statistics
import sys


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def untraced_values(workload: dict, metric: str) -> list[float]:
    return [
        run["metrics"][metric]["value"]
        for run in workload["runs"]
        if not run["trace"]
    ]


def verdict(a: list[float], b: list[float], bound: float, better: str) -> str:
    sign = 1.0 if better == "higher" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    gain = sign * (med_b - med_a) / abs(med_a)
    if len(a) >= 2:
        q1, _, q3 = statistics.quantiles(a, n=4)
        spread = (q3 - q1) / abs(med_a)
    else:
        spread = 0.0
    if spread > bound:
        if min(sign * x for x in b) > max(sign * x for x in a):
            return "improved"
        return "unresolved"
    if abs(gain) <= max(spread, bound):
        return "unchanged"
    return "improved" if gain > 0 else "regressed"


def count_mismatch(a: dict, b: dict) -> str | None:
    """First exact count or digest that differs between same-seed runs."""
    by_seed = {(run["seed"], run["trace"]): run for run in a["runs"]}
    for run in b["runs"]:
        twin = by_seed.get((run["seed"], run["trace"]))
        if twin is None:
            continue
        if twin["digest"] != run["digest"]:
            return f"seed {run['seed']}: digest"
        for key in sorted(set(twin["counts"]) | set(run["counts"])):
            if twin["counts"].get(key) != run["counts"].get(key):
                return (
                    f"seed {run['seed']}: {key} "
                    f"{twin['counts'].get(key)} != {run['counts'].get(key)}"
                )
    return None


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    a, b = load(argv[1]), load(argv[2])
    print(f"A: {a['stamp']}\nB: {b['stamp']}")
    bad = False
    same_commit = a["stamp"]["git_sha"] == b["stamp"]["git_sha"]
    for name in sorted(set(a["workloads"]) & set(b["workloads"])):
        wa, wb = a["workloads"][name], b["workloads"][name]
        for label, side in (("A", wa), ("B", wb)):
            attempted = sum(r["attempted"] for r in side["runs"])
            failed = sum(r["failed"] for r in side["runs"])
            print(f"{name}: failed share {label} = {failed}/{attempted}")
        for metric, row in wa["summary"].items():
            if "bound" not in row:
                continue
            va, vb = untraced_values(wa, metric), untraced_values(wb, metric)
            if not va or not vb:
                continue
            cell = verdict(va, vb, row["bound"], row["better"])
            bad = bad or cell == "regressed"
            print(
                f"  {metric:<12} {statistics.median(va):>12.6g} -> "
                f"{statistics.median(vb):>12.6g} {row['unit']:<5} "
                f"bound {row['bound']:.0%}  {cell}"
            )
        mismatch = count_mismatch(wa, wb)
        print(f"  counts and digests: {mismatch or 'identical'}")
        bad = bad or (mismatch is not None and same_commit)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
