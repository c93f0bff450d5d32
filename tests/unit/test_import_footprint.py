"""``import repro`` stays scipy-free until a p-value is asked for.

scipy is ~490 modules, ~1.5 s of import and ~65 MiB in every process,
and nothing the engine runs calls it: only ``repro.stats.hypothesis`` and
``repro.stats.power`` do, inside the functions that need a distribution.
A fresh interpreter is the only place ``sys.modules`` can say so.
"""

import os
import subprocess
import sys

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


def test_engine_imports_do_not_load_scipy():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c", PROBE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    here = welch_t_test([1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 5.5])
    assert done.stdout.strip() == repr(here.p_value)
