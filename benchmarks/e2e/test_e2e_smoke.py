"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e -q``).

Not part of tier-1.  Runs every workload in ``--smoke`` mode through the
real command, checks the emitted metric names against ``BENCHMARK.json``
in both directions, and checks that the verifier counts planted faults.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"[A-Za-z0-9_.-]+")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args: str) -> tuple[int, dict]:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_emits_exactly_the_declared_metrics(workload, trace):
    code, result = run("--workload", workload, "--trace", trace, "--out", "smoke.json")
    assert code == 0 and result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert NAME.fullmatch(metric["name"])
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    with open(os.path.join(HERE, "out", "smoke.json"), encoding="utf-8") as handle:
        stamp = json.load(handle)["stamp"]
    assert stamp["mode"] == "smoke"
    assert {"git_sha", "git_dirty", "python", "numpy", "cpu_count", "seed",
            "reps"} <= set(stamp)


def test_same_seed_repeats_counts_and_digest_across_processes():
    _, first = run("--workload", "hostile_canary", "--out", "smoke_a.json")
    _, second = run("--workload", "hostile_canary", "--out", "smoke_b.json")
    assert first["correct"] and second["correct"]
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"),
         os.path.join(HERE, "out", "smoke_a.json"),
         os.path.join(HERE, "out", "smoke_b.json")],
        capture_output=True, text=True, check=False,
    )
    assert "counts and digests: identical" in done.stdout


@pytest.mark.parametrize("workload", ["record_replay", "fleet_run"])
def test_planted_fault_is_counted_as_failed(workload):
    """One corrupted recording line / one flipped fleet outcome."""
    code, result = run("--workload", workload, "--plant-fault", "--out", "smoke.json")
    assert code != 0
    assert not result["correct"]
    assert result["failed"] > 0
