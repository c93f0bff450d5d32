"""Compaction and tail truncation keep the surviving journal lines verbatim.

Both rewrite the storage; neither may re-encode what it keeps.  A record
appended with an ``int`` time reads ``"time":2`` and must still read so
after the rewrite (a decode/encode round trip would turn it into 2.0).
"""

import pytest

from repro.bifrost.journal import FileJournalStorage, Journal, MemoryJournalStorage


@pytest.fixture(params=["memory", "file"])
def storage(request, tmp_path):
    if request.param == "memory":
        return MemoryJournalStorage()
    return FileJournalStorage(str(tmp_path / "journal.jsonl"))


def fill(journal):
    journal.append("submitted", 0, {"strategy": "s", "start": 0})
    journal.append("tick", 2, {"checks": [], "errors": 0, "observed": 1})
    journal.append("tick", 3.0, {"checks": [], "errors": 1, "ratio": 1e16})


def test_compaction_keeps_lines_byte_equal(storage):
    journal = Journal(storage)
    fill(journal)
    before = storage.read_lines()
    assert '"time":2,' in before[1]
    assert journal.compact(1) == 1
    assert storage.read_lines() == before[1:]
    assert journal.append("tick", 4, {}).lsn == 4


def test_tail_truncation_keeps_lines_byte_equal(storage):
    journal = Journal(storage)
    fill(journal)
    before = storage.read_lines()
    storage.append_line(before[-1][: len(before[-1]) // 2])  # a torn write
    assert journal.truncate_corrupt_tail() == 1
    assert storage.read_lines() == before


def test_compaction_drops_a_corrupt_tail_too(storage):
    journal = Journal(storage)
    fill(journal)
    before = storage.read_lines()
    storage.append_line("garbage")
    assert journal.compact(2) == 2
    assert storage.read_lines() == before[2:]
