"""Property: the record -> save -> load -> replay -> digest chain on columns
and byte streams equals the per-object chain it replaced.

``run_digest`` used to hash ``json.dumps`` of ``MetricStore.snapshot()``; a
``Recording`` used to hold one frozen ``RecordedRequest``/``RecordedSpan``
per request and span, each with its own ``as_dict``/``from_dict``; REPLAY
walked those objects.  All of that lives on here, verbatim, as oracles:
the streamed digest, the lines formatted off ``RecordedRequests``' columns,
the columns parsed back from lines and the samples REPLAY lands must be
byte-equal to what the old code produced — every recording on disk and
the golden digests of ``tests/integration/test_scalar_golden.py`` depend
on it.
"""

import hashlib
import io
import json
import math
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bifrost.engine import BifrostEngine
from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import strategy_from_dict
from repro.errors import ValidationError
from repro.exec import recording as recording_module
from repro.exec.recording import (
    RecordedRequest,
    RecordedRequests,
    RecordedSpan,
    Recording,
    RecordingTap,
    run_digest,
)
from repro.exec.replay import ReplayBackend
from repro.exec.router import ExecutionRouter
from repro.microservices.resilience import ResilienceLayer
from repro.microservices.runtime import Runtime
from repro.obs.observer import Observer
from repro.routing.proxy import VersionRouter
from repro.simulation.clock import SimulationClock
from repro.simulation.engine import SimulationEngine
from repro.telemetry.monitor import SpanSampleBuffer
from repro.telemetry.store import MetricStore
from repro.tracing.collector import TraceCollector
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator
from tests.property.test_batch_equivalence import (
    POLICIES,
    TIGHT_BREAKER,
    UNTIL,
    build_app,
    build_strategy,
    make_workload,
)

# -- oracles: the per-object chain, verbatim ----------------------------------


def reference_run_digest(store, executions) -> str:
    """``run_digest`` as it was: one JSON text of the whole snapshot."""
    body = {
        "store": store.snapshot(),
        "strategies": [
            {
                "name": execution.strategy.name,
                "state": execution.state,
                "outcome": execution.outcome.value,
                "winner": execution.winner,
                "finished_at": execution.finished_at,
                "phase_entries": execution.phase_entries,
                "transitions": [
                    [r.time, r.source, r.target, r.trigger, r.action.value]
                    for r in execution.transitions
                ],
                "checks": [
                    [r.time, r.check.name, r.outcome.value, r.observed, r.reference]
                    for r in execution.check_log
                ],
            }
            for execution in sorted(
                executions, key=lambda e: e.strategy.name
            )
        ],
    }
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def span_as_list(self) -> list:
    return [self.service, self.version, self.start, self.duration_ms, self.error]


def span_from_list(doc) -> RecordedSpan:
    service, version, start, duration_ms, error = doc
    return RecordedSpan(
        service=str(service),
        version=str(version),
        start=float(start),
        duration_ms=float(duration_ms),
        error=bool(error),
    )


def request_as_dict(self) -> dict:
    return {
        "type": "request",
        "t": self.timestamp,
        "user": self.user_id,
        "group": self.group,
        "entry": self.entry,
        "headers": dict(self.headers),
        "spans": [span_as_list(span) for span in self.spans],
        "duration_ms": self.duration_ms,
        "error": self.error,
    }


def request_from_dict(doc) -> RecordedRequest:
    try:
        return RecordedRequest(
            timestamp=float(doc["t"]),
            user_id=str(doc["user"]),
            group=str(doc["group"]),
            entry=str(doc["entry"]),
            headers=dict(doc.get("headers", {})),
            spans=tuple(
                span_from_list(span) for span in doc.get("spans", ())
            ),
            duration_ms=float(doc.get("duration_ms", 0.0)),
            error=bool(doc.get("error", False)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed recorded request: {exc}") from exc


def reference_record_outcome(outcome) -> RecordedRequest:
    """``repro.exec.sim._record_outcome`` as it was: the recording tap."""
    request = outcome.request
    return RecordedRequest(
        timestamp=request.timestamp,
        user_id=request.user_id,
        group=request.group,
        entry=request.entry,
        headers=dict(request.headers),
        spans=tuple(
            RecordedSpan(
                service=span.service,
                version=span.version,
                start=span.start,
                duration_ms=span.duration_ms,
                error=span.error,
            )
            for span in outcome.trace.spans
        ),
        duration_ms=outcome.duration_ms,
        error=outcome.error,
    )


def reference_add(
    self, timestamp, user_id, group, entry, headers, spans, duration_ms, error
) -> None:
    """``RecordedRequests.add`` as it was: a tuple per span, zipped back."""
    reference_commit(
        self, timestamp, user_id, group, entry, sorted(headers.items()),
        [(s.service, s.version, s.start, s.duration_ms, s.error) for s in spans],
        duration_ms, error,
    )


def reference_commit(
    self, timestamp, user_id, group, entry, headers, spans, duration_ms, error
) -> None:
    """``RecordedRequests._commit`` as it was: the one column writer."""
    for key, value in headers:
        self.header_keys.append(key)
        self.header_values.append(value)
    if spans:
        services, versions, starts, durations, errors = zip(*spans)
        self.span_services.extend(services)
        self.span_versions.extend(versions)
        self.span_starts.extend(starts)
        self.span_durations.extend(durations)
        self.span_errors.extend(map(bool, errors))
    self.timestamps.append(timestamp)
    self.users.append(user_id)
    self.groups.append(group)
    self.entries.append(entry)
    self.durations.append(duration_ms)
    self.errors.append(bool(error))
    self.header_ends.append(len(self.header_keys))
    self.span_ends.append(len(self.span_starts))


def reference_tap(outcomes) -> RecordedRequests:
    """``SimBackend.execute``'s recording tap as it was: it walked each
    outcome's trace through ``RecordedRequests.add``."""
    requests = RecordedRequests()
    for outcome in outcomes:
        request = outcome.request
        reference_add(
            requests,
            request.timestamp, request.user_id, request.group,
            request.entry, request.headers, outcome.trace,
            outcome.duration_ms, outcome.error,
        )
    return requests


def reference_request_line(request: RecordedRequest) -> str:
    """One ``request`` line as ``Recording.jsonl_lines`` dumped it."""
    return json.dumps(request_as_dict(request), sort_keys=True, separators=(",", ":"))


def reference_replay(requests, recording, application_factory):
    """``ReplayBackend.execute``'s stack and per-object loop as they were."""
    simulation = SimulationEngine(SimulationClock())
    store = MetricStore()
    engine = BifrostEngine(
        simulation=simulation,
        application=application_factory(),
        router=VersionRouter(),
        store=store,
        observer=Observer(enabled=True),
    )
    engine.submit(strategy_from_dict(recording.strategy_doc), at=recording.submit_at)
    samples = SpanSampleBuffer()
    for request in requests:
        target = max(request.timestamp, simulation.now)
        due = simulation.queue.peek_time()
        if due is not None and due <= target:
            samples.flush(store)
        simulation.run_until(target)
        samples.add_spans(request.spans)
    samples.flush(store)
    simulation.run_until(max(recording.end_time, simulation.now))
    return store, engine


# -- strategies ---------------------------------------------------------------

# Names that need every kind of JSON escape: quotes, backslashes, control
# characters, non-ASCII (escaped as \uXXXX) and astral code points
# (escaped as a surrogate pair).
NAMES = st.one_of(
    st.sampled_from(["frontend", "catalog", 'a"b', "back\\slash", "naïve", "服务", "🚀", ""]),
    st.text(max_size=6),
)
FINITE = st.floats(allow_nan=False, allow_infinity=False, width=64)
TIMES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1.5, 2.0]),  # ties and the signed zero
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, math.nan, math.inf, -math.inf, 1e22, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True, width=64),
)


@st.composite
def metric_stores(draw):
    """0-12 keys; empty series, ties, ``-0.0``, non-finite values."""
    store = MetricStore()
    keys = draw(
        st.lists(st.tuples(NAMES, NAMES, NAMES), max_size=12, unique=True)
    )
    for service, version, metric in keys:
        samples = draw(st.lists(st.tuples(TIMES, VALUES), max_size=8))
        if not samples:
            store.extend_columns(service, version, metric, [], [])  # empty series
        for timestamp, value in samples:
            store.record(service, version, metric, timestamp, value)
    return store


@st.composite
def span_stores(draw):
    """Stores shaped like a run's: ``error`` and ``response_time`` landed
    through ``SpanSampleBuffer`` (so they share a time column) over 1-3
    flushes, ``resilience.*`` series at other times under the same keys, a
    key whose ``error`` times equal its ``response_time`` times under ``==``
    but not as bytes (a zero of the other sign, maybe a NaN time), and
    empty series."""
    store = MetricStore()
    keys = draw(st.lists(st.tuples(NAMES, NAMES), min_size=1, max_size=4, unique=True))
    samples = SpanSampleBuffer()
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        for service, version in draw(st.lists(st.sampled_from(keys), max_size=10)):
            samples.add(service, version, draw(TIMES), draw(VALUES), draw(st.booleans()))
        samples.flush(store)
    for service, version in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        metric = draw(st.sampled_from(["resilience.retry", "resilience.breaker_open"]))
        for timestamp in draw(st.lists(TIMES, max_size=4)):
            store.record(service, version, metric, timestamp, 1.0)
    if draw(st.booleans()):
        service, version = draw(st.sampled_from(keys))
        times = sorted(draw(st.lists(TIMES, max_size=4)) + [0.0, 0.0])
        if draw(st.booleans()):
            times.append(math.nan)
        # 0.0 <-> -0.0 at a drawn subset of the zeros (at least one).
        flips = draw(st.lists(st.booleans(), min_size=len(times), max_size=len(times)))
        flips[times.index(0.0)] = True
        signed = [-t if flip and t == 0 else t for t, flip in zip(times, flips)]
        durations = [draw(VALUES) for _ in times]
        store.extend_columns(service + "~", version, "response_time", times, durations)
        store.extend_columns(service + "~", version, "error", signed, [0.0] * len(times))
    for service, version in draw(st.lists(st.sampled_from(keys), max_size=2)):
        metric = draw(st.sampled_from(["error", "resilience.retry", "response_time"]))
        store.extend_columns(service, version, metric, [], [])  # a no-op if it has samples
    return store


def enum(value):
    return SimpleNamespace(value=value)


@st.composite
def executions(draw):
    """What ``run_digest`` reads of a ``StrategyExecution``, 0-3 of them."""
    optional_float = st.one_of(st.none(), VALUES)
    out = []
    for name in draw(st.lists(NAMES, max_size=3, unique=True)):
        out.append(
            SimpleNamespace(
                strategy=SimpleNamespace(name=name),
                state=draw(NAMES),
                outcome=enum(draw(st.sampled_from(["running", "completed", "rolled_back"]))),
                winner=draw(st.one_of(st.none(), NAMES)),
                finished_at=draw(st.one_of(st.none(), FINITE)),
                phase_entries=draw(st.integers(min_value=0, max_value=9)),
                transitions=[
                    SimpleNamespace(
                        time=draw(FINITE), source=draw(NAMES), target=draw(NAMES),
                        trigger=draw(NAMES), action=enum(draw(NAMES)),
                    )
                    for _ in range(draw(st.integers(min_value=0, max_value=3)))
                ],
                check_log=[
                    SimpleNamespace(
                        time=draw(FINITE), check=SimpleNamespace(name=draw(NAMES)),
                        outcome=enum(draw(st.sampled_from(["pass", "fail", "inconclusive"]))),
                        observed=draw(optional_float), reference=draw(optional_float),
                    )
                    for _ in range(draw(st.integers(min_value=0, max_value=3)))
                ],
            )
        )
    return out


SPANS = st.builds(
    RecordedSpan,
    service=NAMES,
    version=NAMES,
    start=FINITE,
    duration_ms=VALUES,
    error=st.booleans(),
)
REQUESTS = st.builds(
    RecordedRequest,
    timestamp=FINITE,
    user_id=NAMES,
    group=NAMES,
    entry=NAMES,
    headers=st.dictionaries(NAMES, NAMES, max_size=3),
    spans=st.lists(SPANS, max_size=4).map(tuple),
    duration_ms=VALUES,
    error=st.booleans(),
)


def make_recording(requests) -> Recording:
    return Recording(
        strategy_dsl="strategy s\n", seed=3, submit_at=1.0, end_time=9.0,
        requests=requests, digest="d" * 64, outcomes={"s": "completed"},
    )


def saved(recording: Recording) -> str:
    buffer = io.StringIO()
    recording.save(buffer)
    return buffer.getvalue()


def column_lengths(requests: RecordedRequests) -> dict[str, int]:
    """The length of every column (every attribute is one)."""
    return {name: len(column) for name, column in vars(requests).items()}


# -- (a) the streamed digest ---------------------------------------------------


class TestStreamedDigestEqualsSnapshotDigest:
    @settings(max_examples=150, deadline=None)
    @given(store=metric_stores(), runs=executions())
    def test_digest_bytes_are_the_snapshot_json(self, store, runs):
        assert run_digest(store, runs) == reference_run_digest(store, runs)

    def test_every_non_finite_spelling(self):
        store = MetricStore()
        for i, value in enumerate([math.nan, math.inf, -math.inf, -0.0, 1e-7, 1e16]):
            store.record("svc", "1.0.0", "m", float(i), value)
        assert run_digest(store, []) == reference_run_digest(store, [])


class TestDigestOfSpanShapedStores:
    """``run_digest`` spells a time column once per ``(service, version)``
    and reuses it for each series whose times are the same bytes."""

    @settings(max_examples=150, deadline=None)
    @given(store=span_stores(), runs=executions())
    def test_digest_bytes_are_the_snapshot_json(self, store, runs):
        assert run_digest(store, runs) == reference_run_digest(store, runs)

    @pytest.mark.parametrize("nan", [False, True], ids=["zeros", "zeros+nan"])
    def test_times_equal_under_eq_are_not_reused(self, nan):
        store = MetricStore()
        times = [0.0, 1.0, math.nan] if nan else [0.0, 1.0]
        store.extend_columns("s", "v", "response_time", times, [5.0, 6.0, 7.0][: len(times)])
        store.extend_columns("s", "v", "error", [-0.0, *times[1:]], [0.0] * len(times))
        assert store.series("s", "v", "error").timestamps[0] == 0.0  # equal under ==
        assert run_digest(store, []) == reference_run_digest(store, [])

    def test_shared_times_and_one_double_columns(self):
        store = MetricStore()
        samples = SpanSampleBuffer()
        for i in range(6):
            samples.add("inventory", "1.0.0", i / 7, 4.0, False)  # one double each
            samples.add("catalog", "1.0.0", i / 3, 10.0 + i, i == 2)
        samples.flush(store)
        store.record("catalog", "1.0.0", "resilience.retry", 0.5, 1.0)
        store.extend_columns("catalog", "2.0.0", "error", [], [])
        assert run_digest(store, []) == reference_run_digest(store, [])


# -- (b) lines off the columns, columns off the lines --------------------------


class TestRequestColumnsEqualRequestObjects:
    @settings(max_examples=150, deadline=None)
    @given(requests=st.lists(REQUESTS, max_size=6))
    def test_lines_parse_and_fixed_point(self, requests):
        columns = RecordedRequests(requests)
        lines = list(columns.jsonl_lines())
        assert lines == [reference_request_line(r) for r in requests]

        recording = make_recording(requests)
        text = saved(recording)
        assert text.splitlines()[1:-1] == lines
        loaded = Recording.from_jsonl(text.splitlines())
        objects = [request_from_dict(json.loads(line)) for line in lines]
        # repr is stricter than ==: nan equals nan, -0.0 differs from 0.0.
        assert list(map(repr, loaded.requests)) == list(map(repr, objects))
        assert list(map(repr, columns)) == list(map(repr, objects))
        if all("nan" not in line.lower() for line in lines):
            assert loaded.requests == objects == list(columns)
            assert loaded == recording
        assert saved(loaded) == text

    def test_reads_as_a_sequence(self):
        first = RecordedRequest(
            1.0, "u1", "eu", "frontend.index", {"b": "2", "a": "1"},
            (RecordedSpan("frontend", "1.0.0", 1.0, 5.0, False),), 5.0, False,
        )
        second = RecordedRequest(2.0, "u2", "us", "frontend.index")
        requests = RecordedRequests([first, second])
        assert len(requests) == 2
        assert requests[0] == first and requests[-1] == second
        assert requests[1:] == [second] and list(requests) == [first, second]
        assert requests == [first, second] and requests == (first, second)
        assert requests == RecordedRequests([first, second])
        assert requests != [first] and requests != [second, first]
        assert first in requests
        with pytest.raises(IndexError):
            requests[2]
        assert make_recording([first, second]).requests == requests


# -- (c) a bad request line appends nothing ------------------------------------

GOOD = RecordedRequest(
    2.0, "u1", "eu", "frontend.index", {"user-id": "u1"},
    (
        RecordedSpan("frontend", "1.0.0", 2.0, 12.5, False),
        RecordedSpan("catalog", "2.0.0", 2.1, 8.0, True),
    ),
    12.5, False,
)
META = '{"type":"meta","strategy_dsl":"","seed":1,"submit_at":0.0,"end_time":1.0}'


def broken_docs():
    """Parsed request lines that must be refused, by what is wrong."""
    good = request_as_dict(GOOD)
    span = good["spans"][0]
    return {
        "no timestamp": {k: v for k, v in good.items() if k != "t"},
        "no user": {k: v for k, v in good.items() if k != "user"},
        "timestamp not a number": {**good, "t": "soon"},
        "duration not a number": {**good, "duration_ms": None},
        "span too short": {**good, "spans": [span, span[:4]]},
        "span too long": {**good, "spans": [span, span + [0]]},
        "span not a list": {**good, "spans": [span, 7]},
        "last span's duration not a number": {
            **good, "spans": [span, span[:3] + ["slow", False]]
        },
        "spans not a list": {**good, "spans": 3},
        "headers not a mapping": {**good, "headers": ["user-id"]},
    }


class TestMalformedLineLeavesColumnsUntouched:
    @pytest.mark.parametrize("problem", sorted(broken_docs()))
    def test_bad_document_is_all_or_nothing(self, problem):
        requests = RecordedRequests([GOOD, GOOD])
        before = column_lengths(requests)
        snapshot = list(requests)
        with pytest.raises(ValidationError, match="malformed recorded request"):
            requests.add_docs([broken_docs()[problem]])
        assert len(requests) == 2
        assert column_lengths(requests) == before
        assert list(requests) == snapshot
        requests.add_docs([request_as_dict(GOOD)])  # and it still accepts a good one
        assert list(requests) == [GOOD, GOOD, GOOD]

    def test_oracle_refuses_the_same_documents(self):
        for problem, doc in broken_docs().items():
            if problem == "headers not a mapping":
                continue  # dict(["user-id"]) raised too, the rest is shared
            with pytest.raises(ValidationError):
                request_from_dict(doc)

    @settings(max_examples=60, deadline=None)
    @given(cut=st.integers(min_value=1, max_value=10_000), garble=st.booleans())
    def test_truncated_or_garbled_line_is_refused(self, cut, garble):
        line = reference_request_line(GOOD)
        cut = 1 + cut % (len(line) - 1)  # a proper, non-empty prefix
        bad = line[:cut] + "\x00" + line[cut + 1:] if garble else line[:cut]
        with pytest.raises(ValidationError):
            Recording.from_jsonl([META, line, bad])


# -- (d) REPLAY over columns vs the per-object loop ----------------------------


def record(kind: str, canary_error: float, seed: int, workload: str, breaker=False):
    """A SIM run recorded under *kind* (``clean``, ``shadow`` for every user
    shadowed, a ``POLICIES`` name, or ``<policy>+shadow``; with a tight
    breaker if *breaker*) and its oracle: the same ``Request`` objects
    through ``Bifrost.run`` on an equal middleware, whose outcomes carry
    each request's trace.  Returns (factory, report, oracle middleware,
    oracle outcomes)."""
    policy, _, shadowed = kind.partition("+")
    shadow = "all" if "shadow" in (policy, shadowed) else None

    def resilience():
        if policy not in POLICIES and not breaker:
            return None
        layer = ResilienceLayer(TIGHT_BREAKER if breaker else None)
        if policy in POLICIES:
            layer.set_policy(*POLICIES[policy])
        return layer

    def factory():
        return build_app(canary_error, 0.6, False)

    generator = WorkloadGenerator(
        UserPopulation(300, DEFAULT_GROUPS, seed=1), entry="frontend.index", seed=seed
    )
    requests = list(make_workload(generator, workload))
    report = ExecutionRouter(factory, seed=7, sim_kwargs={"resilience": resilience()}).run(
        build_strategy(0.3, shadow),
        workload=requests,
        until=UNTIL,
        submit_at=1.0,
        record=True,
    )
    oracle = Bifrost(
        factory(), seed=7, resilience=resilience(), observer=Observer(enabled=True)
    )
    oracle.engine.submit(build_strategy(0.3, shadow), at=1.0)
    outcomes = oracle.run(requests, until=UNTIL)
    return factory, report, oracle, outcomes


class TestReplayOverColumnsEqualsPerObjectLoop:
    @settings(max_examples=9, deadline=None)
    @given(
        kind=st.sampled_from(["clean", "shadow", "retry"]),
        canary_error=st.sampled_from([0.0, 0.4]),
        seed=st.integers(min_value=0, max_value=2**16),
        # "constant" puts a request on every engine tick: arrivals every
        # 1/40 s from 0, ticks every 2 s from submit_at=1.0.
        workload=st.sampled_from(["constant", "poisson"]),
    )
    def test_tap_and_replay_match_the_object_chain(
        self, kind, canary_error, seed, workload
    ):
        factory, report, oracle, outcomes = record(kind, canary_error, seed, workload)
        recording = report.recording
        objects = [reference_record_outcome(o) for o in outcomes]
        assert list(recording.requests) == objects
        assert list(recording.requests.jsonl_lines()) == [
            reference_request_line(r) for r in objects
        ]
        assert recording.digest == reference_run_digest(
            report.details.middleware.store, report.details.executions
        )
        assert recording.digest == run_digest(oracle.store, oracle.engine.executions)

        loaded = Recording.from_jsonl(saved(recording).splitlines())
        replayed = ReplayBackend(factory).execute(loaded)
        store, engine = reference_replay(objects, recording, factory)
        assert replayed.middleware.store.snapshot() == store.snapshot()
        assert replayed.digest == reference_run_digest(store, engine.executions)
        assert replayed.digest == run_digest(store, engine.executions)
        if kind != "retry":
            # A retry run's store also holds ``resilience.*`` event samples,
            # which are not span samples and so are not in a recording:
            # its replay never was digest-equal to it, on either chain.
            assert replayed.digest == recording.digest


class TestTapEqualsTraceWalkingTap:
    """SIM's tap writes the recording's result columns off the kernel's
    columns; the trace-walking tap (``reference_tap``) over ``Bifrost.run``'s
    outcomes for the same requests is its oracle, on every call policy
    with and without a shadow route, so retry attempts, fallbacks and
    dark-launch duplicates all pass through it."""

    def assert_equals_oracle(self, report, oracle, outcomes) -> None:
        tapped, reference = report.recording.requests, reference_tap(outcomes)
        assert {name: repr(column) for name, column in vars(tapped).items()} == {
            name: repr(column) for name, column in vars(reference).items()
        }
        assert list(tapped.jsonl_lines()) == list(reference.jsonl_lines())
        assert report.recording.digest == run_digest(
            oracle.store, oracle.engine.executions
        )
        assert report.requests == len(outcomes)
        assert report.errors == sum(outcome.error for outcome in outcomes)

    @pytest.mark.parametrize("shadow", ["", "+shadow"], ids=["primary", "shadow"])
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    def test_columns_and_lines_equal_the_old_tap(self, policy, shadow):
        _, report, oracle, outcomes = record(policy + shadow, 0.4, 11, "poisson")
        self.assert_equals_oracle(report, oracle, outcomes)
        tags = [span.tags for outcome in outcomes for span in outcome.trace]
        assert len(report.recording.requests.span_services) == len(tags) > len(outcomes)
        assert any("shadow" in t for t in tags) == bool(shadow)
        if policy == "retry":
            assert any("retry_attempt" in t for t in tags)

    def test_breaker_storm_reaches_both_entry_points(self):
        """Rows after a breaker cut run the general hop, whose traces reach
        the tap's ``on_trace``; the rest arrive as columns."""
        entries = []

        def count(name, function):
            def call(*args):
                entries.append(name)
                return function(*args)

            return call

        with mock.patch.object(
            RecordingTap, "on_trace", count("trace", RecordingTap.on_trace)
        ), mock.patch.object(
            RecordingTap, "on_columns", count("columns", RecordingTap.on_columns)
        ):
            _, report, oracle, outcomes = record("retry", 0.4, 11, "poisson", breaker=True)
        assert "trace" in entries and "columns" in entries
        assert any(
            span.tags.get("breaker") == "open"
            for outcome in outcomes
            for span in outcome.trace
        )
        self.assert_equals_oracle(report, oracle, outcomes)


# -- (e) nothing per-request is built on the bulk path -------------------------


def test_cycle_builds_no_request_objects_and_no_snapshot(tmp_path):
    def factory():
        return build_app(0.01, 0.6, False)

    generator = WorkloadGenerator(
        UserPopulation(300, DEFAULT_GROUPS, seed=1), entry="frontend.index", seed=5
    )
    router = ExecutionRouter(factory, seed=7)
    path = str(tmp_path / "run.jsonl")
    with mock.patch.object(
        recording_module, "RecordedRequest", wraps=RecordedRequest
    ) as requests_built, mock.patch.object(
        recording_module, "RecordedSpan", wraps=RecordedSpan
    ) as spans_built, mock.patch.object(
        MetricStore, "snapshot", autospec=True, side_effect=MetricStore.snapshot
    ) as snapshots:
        recorded = router.run(
            build_strategy(0.3),
            workload=generator.constant(0.01, 2_000),
            until=30.0,
            submit_at=1.0,
            record=True,
        )
        recorded.recording.save(path)
        loaded = Recording.load(path)
        replayed = router.run(recording=loaded)
        assert replayed.replay.identical and replayed.replay.digest_match
        assert replayed.requests == len(loaded.requests) == 2_000
        assert replayed.errors == recorded.errors
        assert requests_built.call_count == 0
        assert spans_built.call_count == 0
        assert snapshots.call_count == 0
        # The spies do see a materialisation when one is asked for.
        first = loaded.requests[0]
        assert requests_built.call_count == 1
        assert spans_built.call_count == len(first.spans) > 0


@pytest.mark.parametrize("record", [False, True], ids=["run", "record"])
def test_sim_runs_no_request_object_and_records_no_trace(record):
    """On a clean workload SIM runs every row on the kernel's columnar
    slice: no ``Runtime.execute`` (the ``Request`` hop), no trace."""

    def factory():
        return build_app(0.01, 0.6, False)

    generator = WorkloadGenerator(
        UserPopulation(300, DEFAULT_GROUPS, seed=1), entry="frontend.index", seed=5
    )
    with mock.patch.object(
        Runtime, "execute", autospec=True, side_effect=Runtime.execute
    ) as executed, mock.patch.object(
        TraceCollector, "record_trace", autospec=True, side_effect=TraceCollector.record_trace
    ) as traced:
        report = ExecutionRouter(factory, seed=7).run(
            build_strategy(0.3),
            workload=generator.constant(0.01, 2_000),
            until=30.0,
            submit_at=1.0,
            record=record,
        )
    assert report.requests == 2_000
    assert (report.recording is not None) is record
    assert executed.call_count == 0
    assert traced.call_count == 0
