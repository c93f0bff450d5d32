"""End-to-end benchmark: one command, five workloads, every metric by name.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace 0|1] [--reps K] [--smoke] [--out F]

Each run of a workload happens in fresh single-threaded worker processes
(closed loop, one client): the main worker sets up, then repeats identical
rounds of fixed work for ``--seconds`` and reports medians over rounds;
with ``--trace 0`` two more workers repeat only the set-up, so ``setup_s``
is a median of three.  ``--trace 1`` runs one worker that alternates
traced and untraced rounds and reports the per-layer metrics.  Rep *i*
uses seed ``--seed + i``.  Results (with a provenance stamp) are written
under ``benchmarks/e2e/out/`` and nowhere else; when exactly one run was
made, the last stdout line is its JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def git(*args: str) -> str | None:
    """Output of a git command in the repo, None outside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return None
    done = subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return done.stdout if done.returncode == 0 else None


def worker(scratch: str, **options) -> dict:
    """Run one worker process to completion and parse its result line."""
    command = [sys.executable, os.path.join(HERE, "worker.py"), "--out", scratch]
    for key, value in options.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            command.append(flag)
        elif value is not False:
            command += [flag, str(value)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), HERE, env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    # Fenrir's search walks sets of group names, so its result depends on
    # string hashing; a fixed hash seed makes one seed mean one answer.
    env["PYTHONHASHSEED"] = "0"
    done = subprocess.run(
        command,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=WORKER_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"worker failed ({done.returncode}): {' '.join(command)}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_once(spec, workload, seed, seconds, trace, smoke, plant_fault) -> dict:
    """One run of one workload: the main worker plus set-up samples."""
    common = dict(workload=workload, seed=seed, seconds=seconds, smoke=smoke)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as scratch:
        result = worker(scratch, trace=trace, plant_fault=plant_fault, **common)
        setups = [result["metrics"]["setup_s"]]
        if not trace and not smoke:
            for _ in range(SETUP_SAMPLES - 1):
                extra = worker(scratch, trace=0, setup_only=True, **common)
                setups.append(extra["setup_s"])
                if extra["setup_digest"] != result["setup_digest"]:
                    result["guard"] = "set-up digest differs between processes"
                    result["failed"] = result["attempted"]
        if "trace_file" in result:
            os.replace(
                os.path.join(scratch, result["trace_file"]),
                os.path.join(OUT, result["trace_file"]),
            )
    result["setup_samples"] = setups
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["trace"] = trace
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = result.pop("layers") if trace else result["metrics"]
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        odd = sorted(set(names) ^ set(values))
        raise SystemExit(f"metric names differ from BENCHMARK.json: {odd}")
    result["metrics"] = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }
    result["correct"] = result["failed"] == 0 and not result["guard"]
    return result


def summarize(spec, runs: list[dict]) -> dict:
    """Median, quartiles and sample count per metric over *runs*."""
    gated = {m["name"]: m for m in spec["end_to_end"]}
    summary = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        row = {"unit": first["unit"], "n": len(values),
               "median": statistics.median(values)}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            row.update(q1=q1, q3=q3)
        if name in gated:
            row.update(bound=gated[name]["bound"], better=gated[name]["better"])
        summary[name] = row
    return summary


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all five")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--plant-fault", action="store_true",
                        help="self-test: corrupt one output before verifying")
    parser.add_argument("--out", default="latest.json",
                        help="result file name under benchmarks/e2e/out/")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("benchmarks/e2e needs the repository's src/ tree", file=sys.stderr)
        return 2
    if os.path.basename(args.out) != args.out:
        parser.error("--out is a plain file name")
    os.makedirs(OUT, exist_ok=True)
    status_before = git("status", "--porcelain")

    selected = [args.workload] if args.workload else names
    document = {
        "stamp": {
            "mode": "smoke" if args.smoke else "full",
            "git_sha": (git("rev-parse", "HEAD") or "unknown").strip(),
            "git_dirty": bool(status_before),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "seed": args.seed,
            "reps": args.reps,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "workloads": {},
    }
    runs: list[dict] = []
    for workload in selected:
        mine = [
            run_once(spec, workload, args.seed + rep, args.seconds, args.trace,
                     args.smoke, args.plant_fault)
            for rep in range(args.reps)
        ]
        runs += mine
        summary = summarize(spec, mine)
        document["workloads"][workload] = {"runs": mine, "summary": summary}
        attempted = sum(r["attempted"] for r in mine)
        failed = sum(r["failed"] for r in mine)
        print(f"== {workload}: ops_attempted={attempted} ops_failed={failed}")
        for run in mine:
            if run["guard"]:
                print(f"   seed {run['seed']}: determinism guard: {run['guard']}")
        for name, row in summary.items():
            spread = (
                f"  q1={row['q1']:.6g} q3={row['q3']:.6g} n={row['n']}"
                if "q1" in row else ""
            )
            print(f"   {name} = {row['median']:.6g} {row['unit']}{spread}")

    document["stamp"]["numpy"] = runs[0]["numpy"]
    path = os.path.join(OUT, args.out)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    print(f"results: {os.path.relpath(path, ROOT)}")

    if git("status", "--porcelain") != status_before:
        print("the benchmark changed `git status`; it must write only under "
              "benchmarks/e2e/out/", file=sys.stderr)
        return 1
    if len(runs) == 1:
        run = runs[0]
        print(json.dumps({
            "correct": run["correct"],
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": run["metrics"],
        }))
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
