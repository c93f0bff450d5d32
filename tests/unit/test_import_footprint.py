"""What importing ``repro`` loads, checked in fresh interpreters.

A benchmark worker imports the modules ``benchmarks/e2e/workloads.py``
names, and nothing more: no scipy until a p-value is asked for (scipy is
~490 modules, ~1.5 s of import and ~65 MiB in every process; only
``repro.stats.hypothesis`` and ``repro.stats.power`` call it, inside the
functions that need a distribution), no ``multiprocessing``, and none of
the LIVE testbed's asyncio/socket stack. ``ExecutionRouter`` builds its
``LiveBackend`` on the first LIVE run, so a SIM run loads no asyncio.

Every module imports first, with no other ``repro`` module loaded before
it: no import cycle is dodged by an import inside a function or masked by
a package ``__init__``. A fresh interpreter is the only place
``sys.modules`` can say so.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.stats.hypothesis import welch_t_test

SRC = pathlib.Path(repro.__file__).parent
LEDGER = SRC.parents[1] / "benchmarks" / "e2e" / "workloads.py"
LIVE_STACK = ("asyncio", "ssl", "socket", "concurrent.futures")


def ledger_modules() -> list[str]:
    """The ``repro`` modules and packages the ledger's workloads import."""
    found = set()
    for node in ast.walk(ast.parse(LEDGER.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("repro"):
            for alias in node.names:
                sub = f"{node.module}.{alias.name}"
                path = SRC.parent.joinpath(*sub.split("."))
                found.add(sub if path.with_suffix(".py").exists() else node.module)
    return sorted(found)


PROBE = """
import sys
for module in {modules!r}:
    __import__(module)
for absent in ("scipy", "multiprocessing", *{live!r}):
    assert absent not in sys.modules, f"the ledger's imports loaded {{absent}}"
from repro.stats.hypothesis import welch_t_test
result = welch_t_test([1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 5.5])
assert "scipy" in sys.modules, "welch_t_test did not load scipy"
print(repr(result.p_value))
"""

ROUTER_SIM = """
import sys
from repro.bifrost.model import Check, Phase, PhaseType, Strategy
from repro.exec.router import ExecutionRouter
from repro.microservices.application import Application
from repro.microservices.service import EndpointSpec, ServiceVersion
from repro.simulation.latency import ConstantLatency
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator


def application():
    app = Application("probe")
    for version, ms in (("1.0.0", 10.0), ("2.0.0", 12.0)):
        endpoints = {"home": EndpointSpec("home", ConstantLatency(ms))}
        app.deploy(ServiceVersion("front", version, endpoints), stable=version == "1.0.0")
    return app


check = Check(name="errors", service="front", version="2.0.0", metric="error",
              threshold=0.1, window_seconds=20.0)
phase = Phase(name="canary", type=PhaseType.CANARY, service="front", stable_version="1.0.0",
              experimental_version="2.0.0", fraction=0.3, duration_seconds=30.0,
              check_interval_seconds=5.0, checks=(check,))
router = ExecutionRouter(application, seed=3)
users = UserPopulation(50, DEFAULT_GROUPS, seed=4)
workload = WorkloadGenerator(users, entry="front.home", seed=5)
report = router.run(Strategy("s", (phase,)), workload=workload.poisson(10.0, 30.0), until=40.0)
assert report.requests > 0, report.describe()
assert "asyncio" not in sys.modules, "a SIM run loaded asyncio"
"""

EACH_FIRST = """
import importlib, json, pkgutil, sys
import repro
names = sorted(info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro."))
failed = {}
for name in ["repro", *names]:
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as exc:
        failed[name] = repr(exc)
print(json.dumps({"names": ["repro", *names], "failed": failed}))
"""


def fresh(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        check=False,
    )


def test_engine_imports_do_not_load_scipy():
    """The ledger's imports load neither scipy nor LIVE's asyncio/socket stack."""
    modules = ledger_modules()
    assert "repro.exec.router" in modules and "repro.bifrost" in modules
    done = fresh(PROBE.format(modules=modules, live=LIVE_STACK))
    assert done.returncode == 0, done.stderr
    here = welch_t_test([1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 5.5])
    assert done.stdout.strip() == repr(here.p_value)


def test_a_router_and_its_sim_run_load_no_asyncio():
    done = fresh(ROUTER_SIM)
    assert done.returncode == 0, done.stderr


def every_module() -> list[str]:
    paths = sorted(SRC.rglob("*.py"))
    dotted = (".".join(p.relative_to(SRC.parent).with_suffix("").parts) for p in paths)
    return [name.removesuffix(".__init__") for name in dotted]


@pytest.fixture(scope="module")
def first_imports() -> dict:
    """One interpreter imports each module with no ``repro`` module loaded."""
    done = fresh(EACH_FIRST)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("module", every_module())
def test_imports_first(module, first_imports):
    assert module in first_imports["names"]
    assert module not in first_imports["failed"], first_imports["failed"][module]


def test_no_import_inside_a_kernel_function():
    kernel = sorted((SRC / "microservices" / "kernel").glob("*.py"))
    tracing = sorted((SRC / "tracing").glob("*.py"))
    nested = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in (
            *kernel,
            *tracing,
            SRC / "simulation" / "batch.py",
            SRC / "microservices" / "runtime.py",
            SRC / "scenarios" / "runner.py",
        )
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert kernel and tracing and nested == []
