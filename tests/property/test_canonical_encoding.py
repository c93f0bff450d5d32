"""Property: the canonical writers equal ``json.dumps`` byte for byte.

Every journal line, recording line and digest is, by contract,
``json.dumps(doc, sort_keys=True, separators=(",", ":"))``.  The writers
reuse one encoder (:func:`repro.obs.canonical.dump`), fill the journal
envelope piecewise (:func:`encode_record`) and write ``tick`` payloads
from a template (:func:`tick_payload`); the plain ``json.dumps`` call
lives on here as the oracle they are held to.
"""

import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bifrost.checks import CheckResult
from repro.bifrost.engine import tick_payload
from repro.bifrost.journal import JournalRecord, decode_record, encode_record
from repro.bifrost.model import Check, CheckOutcome, check_to_dict
from repro.obs import canonical
from repro.obs.canonical import dump, floats, number, quote, quoted


def oracle(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e16, 1e-7, 5e-324, 2.0**53]

texts = st.text(
    st.characters(codec="utf-8", exclude_categories=("Cs",))
    | st.sampled_from("\x00\x1f\"\\ é€😀"),
    max_size=12,
)
scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(EDGE_FLOATS)
    | texts
)
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=5),
    max_leaves=25,
)
numbers = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(EDGE_FLOATS)
    | st.integers(min_value=-(2**64), max_value=2**64)
)


class TestDump:
    @settings(max_examples=300, deadline=None)
    @given(doc=documents)
    @example(doc={"b": True, "a": False, "n": None, "i": 1, "f": 1.0})
    @example(doc=[math.nan, math.inf, -math.inf, -0.0, 1e16, 2**70, "é\x00\n"])
    def test_equals_json_dumps(self, doc):
        assert dump(doc) == oracle(doc)

    def test_booleans_stay_booleans(self):
        assert dump([True, False, 1, 0]) == "[true,false,1,0]"

    @given(value=st.none() | st.booleans() | numbers)
    @example(value=True)
    @example(value=-0.0)
    def test_number_equals_json_dumps(self, value):
        assert number(value) == oracle(value)

    @given(text=texts)
    def test_quote_equals_json_dumps(self, text):
        assert quote(text) == oracle(text)

    @given(column=st.lists(numbers.filter(lambda x: isinstance(x, float)), max_size=8))
    def test_floats_equal_json_dumps(self, column):
        assert "[%s]" % ",".join(floats(column)) == oracle(column)

    @given(column=st.lists(texts, max_size=8))
    def test_quoted_equals_json_dumps(self, column):
        assert "[%s]" % ",".join(quoted(column)) == oracle(column)

    def test_python_fallback_without_the_c_encoder(self, monkeypatch):
        monkeypatch.setattr(json.encoder, "c_make_encoder", None)
        fallback = canonical.canonical_encoder()
        assert isinstance(getattr(fallback, "__self__", None), json.JSONEncoder)
        doc = {"z": [1, 2.5, math.nan, -math.inf, None, True], "a": {"é": "\x01"}}
        assert fallback(doc) == oracle(doc)


class TestRecordEnvelope:
    @settings(max_examples=300, deadline=None)
    @given(
        lsn=st.integers(min_value=0, max_value=2**70),
        kind=texts,
        time=numbers,
        data=st.dictionaries(texts, documents, max_size=5),
    )
    @example(lsn=7, kind="tick", time=31.0, data={"errors": 0})
    @example(lsn=2, kind="tick", time=2, data={})
    def test_equals_json_dumps(self, lsn, kind, time, data):
        line = encode_record(JournalRecord(lsn, kind, time, data))
        assert line == oracle(
            {"v": 1, "lsn": lsn, "kind": kind, "time": time, "data": data}
        )

    def test_text_payload_is_spliced_verbatim(self):
        data = {"b": [1.5, None], "a": "x"}
        assert encode_record(JournalRecord(3, "tick", 1.0, dump(data))) == (
            encode_record(JournalRecord(3, "tick", 1.0, data))
        )
        assert decode_record(encode_record(JournalRecord(3, "tick", 1.0, data))).data == data


CHECKS = [
    Check("errors", "svc", "2.0.0", "error", threshold=0.05, window_seconds=20.0),
    Check(
        "latency", "svc", "2.0.0", "response_time", aggregation="p95", operator="<=",
        baseline_version="1.0.0", tolerance=1.2, interval_seconds=5.0,
    ),
    Check("név-\"quoted\"", "svcé", "v\x01", "error", threshold=-0.0),
]

observations = st.none() | numbers


class TestTickTemplate:
    @settings(max_examples=200, deadline=None)
    @given(
        strategy=texts,
        phase=texts,
        rows=st.lists(
            st.tuples(
                st.sampled_from(CHECKS),
                st.sampled_from(list(CheckOutcome)),
                observations,
                observations,
                numbers,
            ),
            max_size=4,
        ),
        errors=st.integers(min_value=0, max_value=10),
    )
    def test_equals_json_dumps(self, strategy, phase, rows, errors):
        results = [
            CheckResult(check, 1.0, outcome, observed, reference)
            for check, outcome, observed, reference, _ in rows
        ]
        got = tick_payload(
            strategy,
            phase,
            zip([dump(check_to_dict(check)) for check, *_ in rows], results,
                [due for *_, due in rows]),
            errors,
        )
        assert got == oracle(
            {
                "strategy": strategy,
                "phase": phase,
                "checks": [
                    {
                        "check": check_to_dict(check),
                        "outcome": outcome.value,
                        "observed": observed,
                        "reference": reference,
                        "next_due": due,
                    }
                    for check, outcome, observed, reference, due in rows
                ],
                "errors": errors,
            }
        )

    @pytest.mark.parametrize("outcome", list(CheckOutcome))
    def test_every_outcome_with_no_observation(self, outcome):
        check = CHECKS[0]
        result = CheckResult(check, 10.0, outcome, None, None)
        got = tick_payload("s", "p", [(dump(check_to_dict(check)), result, 20.0)], 0)
        assert got == oracle(
            {
                "strategy": "s",
                "phase": "p",
                "checks": [
                    {
                        "check": check_to_dict(check),
                        "outcome": outcome.value,
                        "observed": None,
                        "reference": None,
                        "next_due": 20.0,
                    }
                ],
                "errors": 0,
            }
        )
