"""The surface census stays clean: tests alone reach nothing in ``src/repro``
that ``tools/census.py``'s keep-table does not account for."""

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
