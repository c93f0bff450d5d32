"""Replay the checked-in regression corpus.

Every entry under ``tests/regression_corpus/`` is a shrunk counterexample
the fuzzer once found; each must keep reproducing its violation with the
exact stored digest.  If an engine change legitimately fixes one, the
entry must be consciously regenerated or retired — this test existing is
what makes that a decision instead of an accident.
"""

from pathlib import Path

import pytest

from repro.scenarios.corpus import load_entry

CORPUS_DIR = Path(__file__).resolve().parent.parent / "regression_corpus"
CORPUS_FILES = sorted(CORPUS_DIR.glob("*.json"))


def test_corpus_is_not_empty():
    assert CORPUS_FILES, (
        f"no regression corpus under {CORPUS_DIR} — the fuzzer's known-bad "
        f"discoveries are supposed to live here forever"
    )


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_corpus_entry_replays_deterministically(path):
    entry = load_entry(path)
    violation = entry.replay()
    assert violation.invariant == entry.invariant
