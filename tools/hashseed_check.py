"""Cross-hash-seed check: one seed must mean one answer under every ``PYTHONHASHSEED``.

Runs ``benchmarks/e2e/worker.py`` directly (``run.py`` pins the hash seed) for every
``BENCHMARK.json`` workload in smoke mode plus one full-size ``plan_schedule`` round, each
under ``PYTHONHASHSEED`` 0, 1, 2, 3 and 5, and asserts that every ``digest``,
``setup_digest`` and ``counts`` entry is equal across hash seeds.  Exits 1 naming the first
mismatch.  Stdlib only.

    python tools/hashseed_check.py
"""
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
E2E = ROOT / "benchmarks" / "e2e"
HASH_SEEDS = ("0", "1", "2", "3", "5")


def run_worker(workload: str, smoke: bool, hash_seed: str, out: str) -> dict:
    """The worker's result for *workload* (seed 1, untraced) under *hash_seed*."""
    command = [sys.executable, str(E2E / "worker.py"), "--workload", workload, "--seed", "1",
               "--seconds", "0", "--trace", "0", "--out", out] + (["--smoke"] if smoke else [])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(E2E)]))
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          check=False)
    if done.returncode != 0:
        raise SystemExit(f"{workload} worker failed ({done.returncode}) under "
                         f"PYTHONHASHSEED={hash_seed}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if result["failed"] or result["guard"]:
        raise SystemExit(f"{workload} under PYTHONHASHSEED={hash_seed}: {result['guard']}")
    return {"digest": result["digest"], "setup_digest": result["setup_digest"],
            **{f"counts.{key}": value for key, value in result["counts"].items()}}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs = [(w["name"], True) for w in spec["workloads"]] + [("plan_schedule", False)]
    with tempfile.TemporaryDirectory(prefix="hashseed-") as out:
        for workload, smoke in runs:
            label = f"{workload} ({'smoke' if smoke else 'full'})"
            first = run_worker(workload, smoke, HASH_SEEDS[0], out)
            for hash_seed in HASH_SEEDS[1:]:
                other = run_worker(workload, smoke, hash_seed, out)
                for key in {**first, **other}:
                    if first.get(key) != other.get(key):
                        print(f"MISMATCH {label} {key}: PYTHONHASHSEED={HASH_SEEDS[0]} gives "
                              f"{first.get(key)!r}, ={hash_seed} gives {other.get(key)!r}")
                        return 1
            print(f"ok {label}: digest {first['digest'][:12]} equal under PYTHONHASHSEED "
                  f"{', '.join(HASH_SEEDS)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
