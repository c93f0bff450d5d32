"""The end-to-end benchmark's tracer still finds every entry point it wraps.

``benchmarks/e2e/tracer.py`` patches each ``WRAPS`` entry through its
owner's ``__dict__``, so an entry point that is renamed, deleted or only
inherited would otherwise surface only when a traced round runs.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "tracer.py"


def test_every_wrapped_attribute_is_in_its_owners_dict():
    spec = importlib.util.spec_from_file_location("e2e_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, owner, attr, *_ in tracer.WRAPS:
        module = importlib.import_module(module_name)
        target = module if owner is None else getattr(module, owner)
        if attr not in vars(target):
            missing.append(f"{module_name}:{owner or ''}.{attr}")
    assert tracer.WRAPS and missing == []
