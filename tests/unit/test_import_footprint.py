"""What importing ``repro`` loads, checked in fresh interpreters.

``import repro`` stays scipy-free until a p-value is asked for. scipy is
~490 modules, ~1.5 s of import and ~65 MiB in every process, and nothing
the engine runs calls it: only ``repro.stats.hypothesis`` and
``repro.stats.power`` do, inside the functions that need a distribution.

The request kernel and its batch driver import everything they use at
module level, and each imports first, with nothing loaded before it: no
import cycle is dodged by an import inside a function. A fresh
interpreter is the only place ``sys.modules`` can say so.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.stats import welch_t_test

PROBE = """
import sys
import repro.bifrost, repro.exec, repro.fleet, repro.fenrir
import repro.simulation.batch, repro.obs, repro.topology, repro.scenarios
assert "scipy" not in sys.modules, "importing the engine loaded scipy"
assert "multiprocessing" not in sys.modules, "importing the engine loaded multiprocessing"
from repro.stats import welch_t_test
result = welch_t_test([1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 5.5])
assert "scipy" in sys.modules, "welch_t_test did not load scipy"
print(repr(result.p_value))
"""


def fresh(code: str) -> subprocess.CompletedProcess:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=False,
    )


def test_engine_imports_do_not_load_scipy():
    done = fresh(PROBE)
    assert done.returncode == 0, done.stderr
    here = welch_t_test([1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 5.5])
    assert done.stdout.strip() == repr(here.p_value)


@pytest.mark.parametrize(
    "module",
    ["repro.microservices.kernel", "repro.simulation.batch", "repro.simulation", "repro.routing"],
)
def test_imports_first(module):
    done = fresh(f"import {module}")
    assert done.returncode == 0, done.stderr


def test_no_import_inside_a_kernel_function():
    root = pathlib.Path(repro.__file__).parent
    kernel = sorted((root / "microservices" / "kernel").glob("*.py"))
    nested = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in (*kernel, root / "simulation" / "batch.py")
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert kernel and nested == []
