"""The surface census stays clean: tests alone reach no module or public name
of ``src/repro``, whatever its length, and tests alone set no knob, unless
``tools/census.py``'s keep-table accounts for it; a package ``__init__``
re-exports only what a definition there or the ledger uses."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[2] / "tools" / "census.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("census", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_nothing_is_reached_by_tests_alone_without_a_reason(tool):
    # An entry here is deleted with its tests or given a KEEP reason; a
    # stale KEEP entry (gone, or reached from outside tests/) is dropped.
    assert tool.Census().problems() == []


def test_every_keep_entry_carries_one_of_three_reasons(tool):
    assert {code for code, _ in tool.KEEP.values()} <= {"K1", "K2", "K3"}
    assert all(why for _, why in tool.KEEP.values())


KNOBS = '''
import dataclasses
from dataclasses import dataclass


@dataclass
class Policy:
    name: str
    by_position: int = 1
    by_keyword: int = 2
    by_replace: int = 3
    tests_only: int = 4
    _private: int = 5


class Spread:
    def __init__(self, a=1, b=2):
        self.a, self.b = a, b


class Inner:
    def __init__(self, size=1):
        self.size = size


class Outer:
    def __init__(self, inner_size=3):
        self.inner = Inner(size=inner_size)


class Counted:
    def __init__(self, hits=0):
        self.hits = hits
'''

USES = '''
import dataclasses
from repro.knobs import Counted, Outer, Policy, Spread


def tweak(policy: Policy) -> Policy:
    return dataclasses.replace(policy, by_replace=7)


tweak(Policy("p", 5, by_keyword=6))
Spread(**{"a": 1})
Outer()
Counted().hits += 1
'''


@pytest.fixture
def tree(tool, tmp_path, monkeypatch):
    """A repository of one module, one example and one test; its DESIGN.md
    holds both generated tables, empty."""
    for path, text in {
        "src/repro/__init__.py": "",
        "src/repro/knobs.py": KNOBS,
        "examples/use.py": USES,
        "tests/test_knobs.py": "from repro.knobs import Inner, Policy\n"
                               "Policy('p', tests_only=1)\nInner(size=2)\n",
        "DESIGN.md": f"{tool.BEGIN}\n{tool.END}\n{tool.KNOBS_BEGIN}\n{tool.KNOBS_END}\n",
    }.items():
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text(text)
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    return tmp_path


def knob_problems(tool):
    return [p for p in tool.Census().problems() if p.startswith("knob ")]


def test_keyword_position_spread_and_replace_each_set_a_knob(tool, tree):
    census = tool.Census()
    setters = {k.rpartition(".")[2]: census.knob_setters(k) for k in census.knobs()}
    example = [tree / "examples" / "use.py"]
    assert setters == {
        "by_position": example, "by_keyword": example, "by_replace": example,
        "a": example, "b": example,  # a ``**`` spread sets every field
        "inner_size": [],  # Outer() passes none
        "size": [],  # Outer only passes its own unset knob on
        "tests_only": [],
        "hits": example,  # augmented after construction; ``self.hits = hits`` is not
    }


UNSET = [f"knob repro.knobs.{name}: nothing outside tests/ sets it"
         for name in ("Inner.size", "Outer.inner_size", "Policy.tests_only")]


def test_a_tests_only_knob_the_table_does_not_list_fails_the_check(tool, tree):
    """DESIGN.md's knob table reports; it exempts nothing, even once it lists
    the knob."""
    assert knob_problems(tool) == UNSET
    assert tool.main(["--write"]) == 1
    assert "| `knobs.Policy.tests_only` | — |" in (tree / "DESIGN.md").read_text()
    assert knob_problems(tool) == UNSET


def test_a_listed_knob_that_leaves_passes(tool, tree):
    tool.main(["--write"])
    module = tree / "src" / "repro" / "knobs.py"
    module.write_text(module.read_text().replace("    tests_only: int = 4\n", ""))
    assert knob_problems(tool) == UNSET[:2]


def test_an_attribute_assignment_sets_a_knob_but_an_init_storing_it_does_not(tool, tree):
    setters = tool.Census().knob_setters
    assert setters("repro.knobs.Counted.hits") == [tree / "examples" / "use.py"]
    assert setters("repro.knobs.Inner.size") == []  # only ``self.size = size``


def test_an_underscore_field_is_not_a_knob(tool, tree):
    assert "repro.knobs.Policy._private" not in tool.Census().knobs()


def test_a_tests_only_knob_passes_only_with_a_keep_entry(tool, tree, monkeypatch):
    keep = dict.fromkeys(("repro.knobs.Policy.tests_only", "repro.knobs.Inner"),
                         ("K1", "a reason"))
    monkeypatch.setattr(tool, "KEEP", keep)
    assert knob_problems(tool) == UNSET[1:2]  # a class entry covers its knobs
    assert [p for p in tool.Census().problems() if p.startswith("KEEP ")] == []


def test_a_keep_entry_for_a_knob_set_outside_tests_is_stale(tool, tree, monkeypatch):
    monkeypatch.setattr(tool, "KEEP", {"repro.knobs.Policy.by_keyword": ("K1", "a reason")})
    assert ("KEEP entry repro.knobs.Policy.by_keyword: nothing it names is reached or set "
            "by tests alone") in tool.Census().problems()


def test_a_short_name_only_tests_reach_is_refused(tool, tree):
    module = tree / "src" / "repro" / "knobs.py"
    module.write_text(module.read_text() + '\n\ndef helper():\n    """Tests call it."""\n'
                                           '    return 1\n')
    test = tree / "tests" / "test_knobs.py"
    test.write_text(test.read_text() + "from repro.knobs import helper\nhelper()\n")
    assert ("name repro.knobs.helper (3 lines): referenced from test_knobs.py and nowhere "
            "else") in tool.Census().problems()


def test_a_reexport_fails_unless_a_definition_there_or_the_ledger_uses_it(tool, tree):
    (tree / "src" / "repro" / "__init__.py").write_text(
        "from repro.knobs import Inner, Outer, Policy\n\n\n"
        "def build():\n    return Outer()\n"
    )
    ledger = tree / "benchmarks" / "e2e" / "workloads.py"
    ledger.parent.mkdir(parents=True)
    ledger.write_text("from repro import Policy\n")
    assert tool.Census().reexports() == ["repro.Inner"]
    assert "re-export repro.Inner: import it from its module" in tool.Census().problems()
    ledger.write_text("from repro.knobs import Policy\n")
    assert tool.Census().reexports() == ["repro.Inner", "repro.Policy"]
