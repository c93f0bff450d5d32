"""Smoke tests: the fast example scripts run to completion.

Examples are documentation that must not rot; these tests execute the
quick ones in a subprocess and check their key output lines.  The two
long-running examples (ab_inc_recommendation, experiment_scheduling) are
exercised piecewise by the integration suite instead.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
EXAMPLES = REPO / "examples"


def run_example(name: str, timeout: float = 240.0) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "strategy outcome:" in out
        assert "completed" in out

    def test_topology_health(self):
        out = run_example("topology_health.py")
        assert "identified changes" in out
        assert "nDCG5" in out

    def test_release_workflow(self):
        out = run_example("release_workflow.py")
        assert "advisor:" in out
        assert "verified, no findings" in out
        assert "canceled at" in out
        assert "Topological difference:" in out

    def test_resilience_canary(self):
        out = run_example("resilience_canary.py")
        assert "transient burst" in out
        assert "strategy outcome: completed" in out
        assert "sustained crash" in out
        assert "strategy outcome: rolled_back" in out
        assert "non-closed breakers: catalog/2.0.0" in out

    def test_exec_modes(self):
        out = run_example("exec_modes.py")
        assert "[sim] catalog-canary: completed" in out
        assert "replay diff: IDENTICAL" in out
        assert "[live] catalog-canary: completed" in out
        assert "all three substrates agree: True" in out

    def test_durable_canary(self):
        out = run_example("durable_canary.py")
        assert "strategy outcome: completed" in out
        assert "engine restarts: 2" in out
        assert "version_path identical to crash-free run: True" in out
        assert "baseline promoted the same version: True" in out

    def test_streaming_health(self):
        out = run_example("streaming_health.py")
        assert "faulty rollout" in out
        assert "strategy outcome: rolled_back" in out
        assert "healthy rollout" in out
        assert "strategy outcome: completed" in out
        assert "Topology health" in out
        assert "health publications:" in out

    def test_experiment_scheduling(self):
        out = run_example("experiment_scheduling.py", timeout=420.0)
        assert "algorithm comparison" in out
        assert "Gantt" in out
        assert "reevaluated fitness" in out

    def test_ab_inc_recommendation(self):
        out = run_example("ab_inc_recommendation.py", timeout=420.0)
        assert "strategy outcome: completed" in out
        assert "A/B winner:" in out
        assert "change ranking" in out

    def test_glass_box_canary(self):
        out = run_example("glass_box_canary.py")
        assert "strategy outcome: completed" in out
        assert "engine restarts: 2" in out
        assert "timeline matches engine record: True" in out
        assert "events exported to JSONL:" in out
        assert "repro_fenrir_generations_total" in out
        assert "glass box" in out

    def test_adversarial_canary(self):
        out = run_example("adversarial_canary.py")
        assert "fuzz campaign" in out
        assert "promotion_truth" in out
        assert "shrunk counterexample" in out
        assert "events by kind:" in out
        assert "scenario.violation_found" in out

    def test_fleet_orchestrator(self):
        out = run_example("fleet_orchestrator.py")
        assert "checkout  -> shed (shed: crash_loop)" in out
        assert "payments  -> rolled_back" in out
        assert "recovered run matches uncrashed run: True" in out
        assert "revived for a fresh attempt: checkout" in out

    def test_fleet_scale_bench_smoke(self):
        env = dict(os.environ, FLEET_SMOKE="1", PYTHONPATH=str(REPO / "src"))
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                str(REPO / "benchmarks" / "test_fleet_scale.py"),
                "-q",
            ],
            capture_output=True,
            text=True,
            timeout=240.0,
            env=env,
        )
        assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
        artifact = REPO / "benchmarks" / "output" / "smoke" / "BENCH_fleet_scale.json"
        assert artifact.exists()

    def test_scenario_fuzz_bench_smoke(self):
        env = dict(
            os.environ, SCENARIO_FUZZ_SMOKE="1", PYTHONPATH=str(REPO / "src")
        )
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                str(REPO / "benchmarks" / "test_scenario_fuzz.py"),
                "-q",
            ],
            capture_output=True,
            text=True,
            timeout=240.0,
            env=env,
        )
        assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
        artifact = REPO / "benchmarks" / "output" / "smoke" / "BENCH_scenario_fuzz.json"
        assert artifact.exists()

    def test_obs_overhead_bench_smoke(self):
        env = dict(os.environ, OBS_SMOKE="1", PYTHONPATH=str(REPO / "src"))
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "pytest",
                str(REPO / "benchmarks" / "test_obs_overhead.py"),
                "-q",
            ],
            capture_output=True,
            text=True,
            timeout=240.0,
            env=env,
        )
        assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
        artifact = REPO / "benchmarks" / "output" / "smoke" / "BENCH_obs_overhead.json"
        assert artifact.exists()
