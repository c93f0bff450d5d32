"""Recordings: the portable artifact the REPLAY backend re-drives.

A :class:`Recording` is everything one SIM (or LIVE) run observed,
serialized as one JSONL stream of typed lines:

- one ``meta`` line — the strategy as DSL text, the seed, the submit
  time, and the horizon, so a replay reconstructs the exact experiment;
- one ``event`` line per :class:`~repro.obs.events.Event` the observer
  captured (the full glass-box stream, not just the retained ring);
- one ``request`` line per executed request — its identity, arrival
  timestamp, and the *observed spans* ``(service, version, start,
  duration_ms, error)`` whose metrics the runtime stored from it (in
  memory these are the columns of :class:`RecordedRequests`, not one
  object per request and span);
- one ``digest`` line — the content digest of the run's decision-
  relevant state (full :meth:`MetricStore.snapshot`, transitions, check
  log, terminal outcomes) plus the final logical clock.

The span lines are the load-bearing part: re-feeding them into a fresh
:class:`~repro.telemetry.store.MetricStore` at their original logical
timestamps reproduces the exact store every check evaluation read, so a
replayed engine makes the same decisions at the same times — which is
what :func:`run_digest` equality certifies.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from collections.abc import Sequence
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice
from operator import eq
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Mapping

import numpy as np

from repro.errors import ValidationError
from repro.obs.canonical import BOOL, dump, floats, quote, quoted
from repro.obs.events import Event, event_from_dict, stream_truncation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bifrost.engine import StrategyExecution
    from repro.telemetry.store import MetricStore
    from repro.tracing.trace import Trace

FORMAT_VERSION = 1

#: Lines ``save`` writes at once, and parsed ``request`` lines ``from_jsonl``
#: holds for ``add_docs``: few enough to stay under the cyclic GC's trigger.
_CHUNK = 64

_DECODER = json.JSONDecoder()

#: ``[t,v]`` pairs :func:`run_digest` hashes at once.
_PAIRS = 1024

#: :class:`RecordedRequests`' identity columns, one slot per request.
_IDENTITY = ("timestamps", "users", "groups", "entries")
#: Its result columns, one slot per request or span.
_RESULTS = (
    "durations", "errors",
    "span_services", "span_versions", "span_starts", "span_durations", "span_errors",
)


def _runs(items: Iterator, ends: array) -> Iterator[Iterator]:
    """Per row, the run of *items* that ends at its offset in *ends*; each
    run must be drained before the next is taken."""
    start = 0
    for end in ends:
        yield islice(items, end - start)
        start = end


def _ends(runs: list, start: int) -> Iterator[int]:
    """The end offset of each run after *start*, by the runs' lengths."""
    return islice(accumulate(map(len, runs), initial=start), 1, None)


@dataclass(frozen=True)
class RecordedSpan:
    """One observed span, reduced to the fields the metric store consumes."""

    service: str
    version: str
    start: float
    duration_ms: float
    error: bool


@dataclass(frozen=True)
class RecordedRequest:
    """One executed request: arrival identity plus observed spans."""

    timestamp: float
    user_id: str
    group: str
    entry: str
    headers: Mapping[str, str] = field(default_factory=dict)
    spans: tuple[RecordedSpan, ...] = ()
    duration_ms: float = 0.0
    error: bool = False


class RecordedRequests(Sequence):
    """A recording's executed requests, held as columns.

    One slot per request in ``timestamps``/``durations`` (``array('d')``),
    ``users``/``groups``/``entries`` (``list[str]``) and ``errors``
    (``bytearray``); one slot per observed span in ``span_services``/
    ``span_versions`` (``list[str]``), ``span_starts``/``span_durations``
    (``array('d')``) and ``span_errors`` (``bytearray``); one slot per
    header in ``header_keys``/``header_values`` (``list[str]``, each
    request's sorted by key).  Request *i* owns the spans
    ``span_ends[i - 1]:span_ends[i]`` and the headers
    ``header_ends[i - 1]:header_ends[i]``, so one without headers adds
    nothing to them.  No column holds a per-request container for the
    cyclic GC to count or walk, which is the point: a 10 000-request
    recording is 15 objects, not 50 000.

    It still reads as a sequence of :class:`RecordedRequest` — ``len``,
    index, slice, iteration and ``==`` against any other sequence of them —
    each one materialised on access; bulk readers (:meth:`jsonl_lines`,
    REPLAY's stretches) walk the columns instead.  Writers fill whole
    columns too: SIM writes the identity columns in one pass
    (:meth:`add_identity`) and its :class:`RecordingTap` the result
    columns a sub-block of rows at a time, and :meth:`add_docs` converts
    a chunk of parsed lines a column at a time, so none builds a row per
    request or span.  :meth:`jsonl_lines`
    escapes each distinct string once and spells each double once per
    place it takes in a line.

    Byte-compatibility contract: :meth:`jsonl_lines` yields, per request,
    exactly ``json.dumps(doc, sort_keys=True, separators=(",", ":"))`` of
    the format-1 document ``{"type": "request", "t", "user", "group",
    "entry", "headers", "spans": [[service, version, start, duration_ms,
    error], ...], "duration_ms", "error"}``, and :meth:`add_docs` reads that
    document back to the same columns.  Numbers are stored as doubles, so
    an ``int`` timestamp is written ``2.0``.
    """

    def __init__(self, requests: Iterable[RecordedRequest] = ()) -> None:
        self.timestamps = array("d")
        self.users: list[str] = []
        self.groups: list[str] = []
        self.entries: list[str] = []
        self.durations = array("d")
        self.errors = bytearray()
        self.header_ends = array("q")
        self.header_keys: list[str] = []
        self.header_values: list[str] = []
        self.span_ends = array("q")
        self.span_services: list[str] = []
        self.span_versions: list[str] = []
        self.span_starts = array("d")
        self.span_durations = array("d")
        self.span_errors = bytearray()
        requests = list(requests)
        self.add_identity(requests)
        self.add_results(requests, [r.spans for r in requests])

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, index):
        picked = range(len(self))[index]
        if isinstance(picked, range):
            return [self._request(i) for i in picked]
        return self._request(picked)

    def __iter__(self) -> Iterator[RecordedRequest]:
        return map(self._request, range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def _request(self, i: int) -> RecordedRequest:
        headers = slice(self.header_ends[i - 1] if i else 0, self.header_ends[i])
        spans = range(self.span_ends[i - 1] if i else 0, self.span_ends[i])
        return RecordedRequest(
            timestamp=self.timestamps[i],
            user_id=self.users[i],
            group=self.groups[i],
            entry=self.entries[i],
            headers=dict(zip(self.header_keys[headers], self.header_values[headers])),
            spans=tuple(
                RecordedSpan(
                    self.span_services[j],
                    self.span_versions[j],
                    self.span_starts[j],
                    self.span_durations[j],
                    bool(self.span_errors[j]),
                )
                for j in spans
            ),
            duration_ms=self.durations[i],
            error=bool(self.errors[i]),
        )

    def add_identity(self, requests: list) -> None:
        """Append the identity columns of *requests*, objects with
        ``timestamp``, ``user_id``, ``group``, ``entry`` and ``headers``;
        :meth:`add_results` (or the tap) appends their result columns."""
        self._identity(
            (sorted(request.headers.items()) if request.headers else () for request in requests),
            (request.timestamp for request in requests),
            (request.user_id for request in requests),
            (request.group for request in requests),
            (request.entry for request in requests),
        )

    def add_results(self, results: list, spans: list) -> None:
        """Append the result columns of one request per item of the
        parallel lists: *results* give ``duration_ms`` and ``error``, and
        *spans* an iterable of objects with ``service``, ``version``,
        ``start``, ``duration_ms`` and ``error`` (a :class:`Trace` is one).
        Each column is filled straight from them, one at a time."""
        flat = [span for request_spans in spans for span in request_spans]
        self._results(
            _ends(spans, len(self.span_starts)),
            (result.duration_ms for result in results),
            (bool(result.error) for result in results),
            (span.service for span in flat),
            (span.version for span in flat),
            (span.start for span in flat),
            (span.duration_ms for span in flat),
            (bool(span.error) for span in flat),
        )

    def add_docs(self, docs: list[Mapping]) -> None:
        """Append parsed ``request`` lines, all or nothing: a malformed
        document raises :class:`ValidationError` and appends to no column.
        Spans are read a field at a time, by a strict ``zip`` over them."""
        try:
            spans = [doc.get("spans", ()) for doc in docs]
            flat = list(chain.from_iterable(spans))
            services, versions, starts, lengths, failed = (
                zip(*flat, strict=True) if flat else ((),) * 5
            )
            identity = (
                [
                    sorted((str(k), str(v)) for k, v in items) if items else ()
                    for items in [doc.get("headers", {}).items() for doc in docs]
                ],
                [float(doc["t"]) for doc in docs],
                [str(doc["user"]) for doc in docs],
                [str(doc["group"]) for doc in docs],
                [str(doc["entry"]) for doc in docs],
            )
            results = (
                list(_ends(spans, len(self.span_starts))),
                [float(doc.get("duration_ms", 0.0)) for doc in docs],
                [bool(doc.get("error", False)) for doc in docs],
                list(map(str, services)),
                list(map(str, versions)),
                list(map(float, starts)),
                list(map(float, lengths)),
                list(map(bool, failed)),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed recorded request: {exc}") from exc
        self._identity(*identity)
        self._results(*results)

    def _identity(self, headers, *columns) -> None:
        """The identity column writer: per request a sorted list of (key,
        value) *headers*, then the new values of each of :data:`_IDENTITY`."""
        for rows in headers:
            for key, value in rows:
                self.header_keys.append(key)
                self.header_values.append(value)
            self.header_ends.append(len(self.header_keys))
        for name, values in zip(_IDENTITY, columns, strict=True):
            getattr(self, name).extend(values)

    def _results(self, span_ends, *columns) -> None:
        """The result column writer: per request its span end offset, then
        the new values of each of :data:`_RESULTS`, in order."""
        self.span_ends.extend(span_ends)
        for name, values in zip(_RESULTS, columns, strict=True):
            getattr(self, name).extend(values)

    def jsonl_lines(self) -> Iterator[str]:
        """One canonical ``request`` line per request, off the columns."""
        headers = map(
            "%s:%s".__mod__,
            zip(quoted(self.header_keys), quoted(self.header_values)),
        )
        spans = map(
            "[%s,%s,%s,%s,%s]".__mod__,
            zip(
                quoted(self.span_services),
                quoted(self.span_versions),
                floats(self.span_starts),
                floats(self.span_durations),
                map(BOOL.__getitem__, self.span_errors),
            ),
        )
        return map(
            '{"duration_ms":%s,"entry":%s,"error":%s,"group":%s,"headers":{%s},'
            '"spans":[%s],"t":%s,"type":"request","user":%s}'.__mod__,
            zip(
                floats(self.durations),
                quoted(self.entries),
                map(BOOL.__getitem__, self.errors),
                quoted(self.groups),
                map(",".join, _runs(headers, self.header_ends)),
                map(",".join, _runs(spans, self.span_ends)),
                floats(self.timestamps),
                quoted(self.users),
            ),
        )


class RecordingTap:
    """SIM's recording tap: a trace-collector subscriber that appends each
    executed request's result columns to :attr:`requests` — its
    ``duration_ms`` and ``error`` (the root hop's) and its spans in
    completion order, as a :class:`~repro.tracing.trace.Trace` iterates
    them.  Rows arrive in run order through either entry point:
    :meth:`on_columns` for the columnar slice's sub-blocks, :meth:`on_trace`
    for the rows the general hop runs (after a breaker cut, under a
    partition).  The identity columns are the caller's
    (:meth:`RecordedRequests.add_identity`)."""

    def __init__(self, requests: RecordedRequests) -> None:
        self.requests = requests

    def on_trace(self, trace: "Trace") -> None:
        """One request's results, off its trace."""
        self.requests.add_results([trace.root], [trace])

    def on_columns(self, keys, rows, hops, starts, ends, ranks) -> None:
        """A sub-block's results (the layout is
        :attr:`~repro.tracing.collector.TraceCollector.column_subscribers`'s):
        a row's root is its first hop in walk order, and its spans are its
        hops in ascending completion rank."""
        _, callees, durations, errors = hops
        count = len(ends)
        heads = np.searchsorted(rows, np.arange(count))
        order = np.lexsort((ranks, rows))
        callees = callees[order].tolist()
        requests = self.requests
        requests._results(
            (np.searchsorted(rows, np.arange(1, count + 1)) + len(requests.span_starts)).tolist(),
            durations[heads].tolist(),
            errors[heads].tolist(),
            map([key[0] for key in keys].__getitem__, callees),
            map([key[1] for key in keys].__getitem__, callees),
            starts[order].tolist(),
            durations[order].tolist(),
            errors[order].tolist(),
        )


def _samples(times: list[str], values: array) -> Iterator[str]:
    """A series' ``[t,v]`` pairs as text, a block of pairs per piece (a
    piece per series would hold the whole series' text twice over), given
    its times spelled; a value column of one double (by its bytes) is
    spelled once and joined in."""
    one = values.tobytes() == values[:1].tobytes() * len(values)
    value = "," + next(floats(values[:1]), "")
    for lo in range(0, len(times), _PAIRS):
        block = times[lo : lo + _PAIRS]
        if one:
            text = f"{value}],[".join(block) + value
        else:
            text = "],[".join(map(",".join, zip(block, floats(values[lo : lo + _PAIRS]))))
        yield f"{',' if lo else ''}[{text}]"


def run_digest(
    store: "MetricStore", executions: Iterable["StrategyExecution"]
) -> str:
    """Content digest of a run's decision-relevant state.

    Covers the full metric-store snapshot, every transition record,
    every check evaluation (minus wall-clock evaluation cost, which is
    explicitly non-semantic), and each strategy's terminal outcome.  Two
    runs with equal digests made the same decisions at the same logical
    times on the same observed data.

    Byte-compatibility contract: the value is
    ``sha256(json.dumps({"store": store.snapshot(), "strategies": [...]},
    sort_keys=True, separators=(",", ":")))``, and every recording on disk
    and every golden digest in the tests holds it to that.  The bytes are
    streamed into the hash instead of being built, a block of samples at a
    time, written straight off the columns, so neither ``snapshot()``'s
    list per sample nor a series' JSON text ever exists.

    Spelling doubles (``repr``) is the cost, so each is spelled as few
    times as the text allows.  A ``(service, version)``'s keys are adjacent
    and its ``error`` and ``throughput`` hold ``response_time``'s times:
    each distinct time column of a ``(service, version)`` is spelled once,
    reused by every series whose times are the same *bytes* (``==`` takes
    ``-0.0`` for ``0.0``).  A value column of one double is spelled once.
    """
    sha = hashlib.sha256()
    sha.update(b'{"store":{"series":[')
    owner, spelled = None, {}
    for index, key in enumerate(store.keys()):
        times, values = store.series(key.service, key.version, key.metric).columns
        if owner != (key.service, key.version):
            owner, spelled = (key.service, key.version), {}
        raw = times.tobytes()
        if raw not in spelled:
            spelled[raw] = list(floats(times))
        head = f'{"," if index else ""}{{"metric":{quote(key.metric)},"samples":['
        sha.update(head.encode("ascii"))
        for piece in _samples(spelled[raw], values):
            sha.update(piece.encode("ascii"))
        tail = f'],"service":{quote(key.service)},"version":{quote(key.version)}}}'
        sha.update(tail.encode("ascii"))
    sha.update(b']},"strategies":')
    strategies = [
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
        for execution in sorted(executions, key=lambda e: e.strategy.name)
    ]
    sha.update(dump(strategies).encode("ascii"))
    sha.update(b"}")
    return sha.hexdigest()


@dataclass
class Recording:
    """One recorded experiment run, replayable and diffable.

    ``strategy_dsl`` is the human-readable artifact; ``strategy_doc``
    (the lossless :func:`~repro.bifrost.model.strategy_to_dict` form) is
    what replays actually rebuild from, so strategies that exercise
    corners the DSL defaults away still re-run exactly.

    ``requests`` is a :class:`RecordedRequests` (any iterable of
    :class:`RecordedRequest` given to the constructor is copied into one).
    Byte-compatibility contract: :meth:`save` writes file format 1 —
    every line ``json.dumps(doc, sort_keys=True, separators=(",", ":"))``
    of a typed document — and :meth:`from_jsonl` refuses any other
    ``format``; holding the requests as columns changed no persisted byte.
    """

    strategy_dsl: str
    seed: int
    submit_at: float
    end_time: float
    events: list[Event] = field(default_factory=list)
    requests: RecordedRequests = field(default_factory=RecordedRequests)
    digest: str = ""
    outcomes: dict[str, str] = field(default_factory=dict)
    mode: str = "sim"
    strategy_doc: dict | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.requests, RecordedRequests):
            self.requests = RecordedRequests(self.requests)

    @property
    def truncated(self) -> Event | None:
        """The truncation sentinel in the event stream, if any."""
        return stream_truncation(self.events)

    def provenance(self, *, allow_truncated: bool = False):
        """Reconstruct the run's decision-provenance graph.

        Folds the recorded event stream through
        :func:`repro.obs.provenance.build_provenance` — the exact fold
        the recording engine ran live, so the result is digest-equal to
        the engine-side graph (and to a faithful replay's).
        """
        from repro.obs.provenance import build_provenance

        return build_provenance(self.events, allow_truncated=allow_truncated)

    def jsonl_lines(self) -> Iterator[str]:
        """The recording as typed JSON lines (``meta`` first)."""
        meta = {
            "type": "meta",
            "format": FORMAT_VERSION,
            "mode": self.mode,
            "strategy_dsl": self.strategy_dsl,
            "seed": self.seed,
            "submit_at": self.submit_at,
            "end_time": self.end_time,
        }
        if self.strategy_doc is not None:
            meta["strategy"] = self.strategy_doc
        yield dump(meta)
        for event in self.events:
            yield dump({"type": "event", **event.as_dict()})
        yield from self.requests.jsonl_lines()
        yield dump(
            {"type": "digest", "value": self.digest, "outcomes": dict(self.outcomes)}
        )

    def save(self, target: str | IO[str]) -> int:
        """Write the recording as JSONL, a chunk of lines per write; returns
        the line count."""
        opened = (
            open(target, "w", encoding="utf-8")
            if isinstance(target, str)
            else nullcontext(target)
        )
        count = 0
        lines = self.jsonl_lines()
        with opened as handle:
            while chunk := list(islice(lines, _CHUNK)):
                chunk.append("")
                handle.write("\n".join(chunk))
                count += len(chunk) - 1
        return count

    @classmethod
    def from_jsonl(cls, lines: Iterable[str]) -> "Recording":
        """Rebuild a recording from its :meth:`jsonl_lines` form.

        Raises :class:`ValidationError` for a line that does not parse and
        for a ``format`` other than :data:`FORMAT_VERSION` (a meta line
        without the field is format 1): a later format is refused, not
        re-driven as if it were understood.
        """
        meta: dict | None = None
        events: list[Event] = []
        requests = RecordedRequests()
        pending: list[dict] = []
        digest = ""
        outcomes: dict[str, str] = {}
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                # json.loads on a stripped line, without its per-call checks.
                doc, end = _DECODER.raw_decode(line)
                if end != len(line):
                    raise json.JSONDecodeError("Extra data", line, end)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"undecodable recording line: {exc}") from exc
            kind = doc.get("type")
            if kind == "meta":
                meta = doc
                found = doc.get("format", FORMAT_VERSION)
                if found != FORMAT_VERSION:
                    raise ValidationError(
                        f"recording is format {found!r}; this build reads "
                        f"format {FORMAT_VERSION} only"
                    )
            elif kind == "event":
                events.append(event_from_dict(doc))
            elif kind == "request":
                pending.append(doc)
                if len(pending) == _CHUNK:
                    requests.add_docs(pending)
                    pending.clear()
            elif kind == "digest":
                digest = str(doc.get("value", ""))
                outcomes = {str(k): str(v) for k, v in doc.get("outcomes", {}).items()}
            else:
                raise ValidationError(f"unknown recording line type: {kind!r}")
        requests.add_docs(pending)
        if meta is None:
            raise ValidationError("recording is missing its meta line")
        try:
            return cls(
                strategy_dsl=str(meta["strategy_dsl"]),
                seed=int(meta["seed"]),
                submit_at=float(meta["submit_at"]),
                end_time=float(meta["end_time"]),
                events=events,
                requests=requests,
                digest=digest,
                outcomes=outcomes,
                mode=str(meta.get("mode", "sim")),
                strategy_doc=meta.get("strategy"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed recording meta: {exc}") from exc

    @classmethod
    def load(cls, path: str) -> "Recording":
        """Read a recording file from disk."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return cls.from_jsonl(handle)
        except OSError as exc:
            raise ValidationError(f"cannot read recording {path!r}: {exc}") from exc
