"""A batch slice's rows: vectorized variant assignment, the columnar
executor (a sub-block of rows at a time) and the general hop over rows."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice, repeat
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.microservices.kernel.core import LOAD_WINDOW_SECONDS, _Route, _split_entry
from repro.microservices.kernel.plan import (
    _Block,
    _chain,
    _expected_draws,
    _hop_order,
    _Position,
    _site_table,
    fold_columns,
    plan,
)
from repro.microservices.resilience import FALLBACK, RETRY, ResilienceEvent
from repro.simulation.rng import random_block

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.microservices.kernel.core import RequestKernel
    from repro.traffic.batch import RequestBatch

#: Rows per columnar sub-block: bounds the block's tables (not a knob).
_SUB_BLOCK = 4096
#: Extra uniforms drawn per block beyond the expected need.
_BLOCK_SLACK = 64


@dataclass(slots=True, eq=False)
class _SubBlock:
    """One sub-block's rows in flight: what they read, and what their
    hops leave for the commit, keyed and ordered for :func:`_before`."""

    users: np.ndarray  # user index per row
    codes: dict  # position -> version code per row, at certain routed positions
    masks: dict  # id(gate) -> whether the gate admits each row
    arrivals: dict = field(default_factory=dict)  # id(deque) -> (deque, [(pre, rows, starts)])
    samples: dict = field(default_factory=dict)  # id(buffer) -> (node, [(post, rows, ...)])
    events: list = field(default_factory=list)  # (row, done, order, ResilienceEvent)
    reached: list = field(default_factory=list)  # (route, rows) its rows assign lazily


def _latency(recipe, block: _Block, offsets: np.ndarray, load):
    """A latency column for hops whose draws start at *offsets*, with the
    scalar sampler's float operations (``exp`` and ``**`` as Python
    floats); returns it and the offsets of the hops' error draws."""
    draw, a, b, ops = recipe
    n = len(offsets)
    if draw == "const":
        column = np.full(n, a)
    elif draw == "normal":
        pairs = block.first[offsets]
        column = np.fromiter(map(math.exp, (a + block.z[pairs] * b).tolist()), float, n)
        offsets = pairs + 2
    else:
        exponents = repeat(-1.0 / b, n)
        column = a * np.fromiter(
            map(pow, (1.0 - block.u[offsets]).tolist(), exponents), float, n
        )
        offsets = offsets + 1
    for op, arg in ops:
        if op == "scale":
            column = column * arg
        else:
            column = column * (1.0 + arg * np.maximum(0.0, load - 1.0))
    return column, offsets


def _loads(arrivals, starts: np.ndarray, window: float) -> np.ndarray:
    """The load deque's length each hop starting at *starts* sees after
    its append and expiry, leaving the deque as it is.  Hop *i* pops while
    the head is before its cutoff, so the head stops at an arrival no
    earlier cutoff passes either: after hop *i* it is the first arrival
    at or after the running maximum of the cutoffs, a searchsorted over
    the arrivals' running maximum.  Only the deque's head that can expire
    is read."""
    cutoffs = np.maximum.accumulate(starts - window)
    size = len(arrivals)
    take = min(size, 2 * len(starts))
    while True:
        head = np.fromiter(islice(arrivals, take), float, take)
        if take == size or head.max() >= cutoffs[-1]:
            break
        take = min(size, 2 * take)
    peaks = np.maximum.accumulate(np.concatenate((head, starts)))
    return size + np.arange(1, len(starts) + 1) - np.searchsorted(peaks, cutoffs)


def _arrive(arrivals, starts: list, window: float) -> None:
    """Leave a load deque as the hops starting at *starts* would, one
    append and expiry each: by :func:`_loads`' argument, one expiry
    against the latest start's cutoff after every append."""
    arrivals.extend(starts)
    cutoff = max(starts) - window
    popleft = arrivals.popleft
    while arrivals[0] < cutoff:
        popleft()


def _before(entries: list, cut: int) -> list:
    """*entries* ``(order, rows, *columns)`` cut to the rows before *cut*
    (each entry's rows ascend)."""
    kept = []
    for order, rows, *columns in entries:
        k = int(np.searchsorted(rows, cut))
        if k:
            kept.append((order, rows[:k], *(column[:k] for column in columns)))
    return kept


def run_slice(
    kernel: "RequestKernel", batch: "RequestBatch", lo: int, hi: int, now: float
) -> tuple[float, list, int]:
    """Execute rows [lo, hi); returns (clock, durations, error count).

    The rows run as columns when the kernel's hop is not the general one
    and :func:`~.plan.plan` accepts the entry's call tree, else on the
    general hop.  Trace ids match a ``Request``-by-``Request`` run: one
    is formatted per request when spans are materialized, otherwise the
    same number is burned in O(1).
    """
    _prefill(kernel, batch, lo, hi)
    positions = None if kernel._general else plan(kernel, batch.entry)
    if positions is not None:
        now, durations, errors = _run_columns(kernel, positions, batch, lo, hi, now)
    else:
        now, durations, errors = _run_rows(kernel, batch, lo, hi, now)
    if not kernel._spans:
        kernel._runtime.advance_trace_ids(len(durations))
    kernel._runtime.requests_executed += len(durations)
    return now, durations, errors


def _prefill(kernel: "RequestKernel", batch: "RequestBatch", lo: int, hi: int) -> None:
    """Vectorize variant assignment for certainly-reached services.

    For every routed service that *every* row of ``[lo, hi)`` traverses
    (:func:`_certain_services`), bucket the distinct users in one
    :meth:`~repro.routing.assignment.StickyAssigner.assign_many` call;
    the route keeps the sorted users and each one's index into
    ``(*variants, stable)`` as columns.  Other services stay lazy, so
    the assigner only ever sees users a request-by-request run would
    have assigned.  A partition or a breaker can cut any call short, so
    with either configured every assignment stays lazy: the columnar
    slice records its rows' users when they land (:func:`_record`), the
    general hop when it routes them.
    """
    router = kernel._router
    if router is None or kernel._breakers or kernel._network is not None or lo >= hi:
        return
    routed = router.routed_services
    if not routed:
        return
    certain = _certain_services(kernel, batch.entry)
    # Sorted distinct users; numpy 2.4's hashing np.unique is ≈ 18× slower.
    users = np.sort(batch.user_indices[lo:hi])
    distinct = users[np.concatenate(((True,), users[1:] != users[:-1]))]
    for service in routed:
        if service not in certain:
            continue
        route = router.active_route(service)
        if not route.variants:
            continue
        rec = kernel._route(service, route)
        picks = _picks(kernel, rec, distinct, True)
        rec.prefilled = (distinct, picks, (*(v.version for v in rec.variants), rec.stable))


def _certain_services(kernel: "RequestKernel", entry: str) -> set[str]:
    """Services every request entering at *entry* traverses for sure.

    Follows only calls with probability >= 1 that appear in *every*
    version a service might serve with (stable plus any routed
    variants) — the conservative closure under which vectorized
    assignment is safe.
    """
    router = kernel._router
    seen: set[tuple[str, str]] = set()
    stack = [_split_entry(entry)]
    services: set[str] = set()
    while stack:
        svc_name, ep = stack.pop()
        if (svc_name, ep) in seen:
            continue
        seen.add((svc_name, ep))
        services.add(svc_name)
        svc = kernel._app.service(svc_name)
        version_names = {svc.stable_version}
        route = router.active_route(svc_name) if router is not None else None
        if route is not None:
            version_names.update(v.version for v in route.variants)
        shared: set[tuple[str, str]] | None = None
        for version_name in version_names:
            try:
                spec = svc.get(version_name).endpoint(ep)
            except ConfigurationError:  # no such version or endpoint
                shared = set()
                break
            calls = {
                (c.service, c.endpoint)
                for c in spec.calls
                if c.probability >= 1.0
            }
            shared = calls if shared is None else shared & calls
        for child in shared or ():
            stack.append(child)
    return services


def _picks(kernel: "RequestKernel", rec: _Route, users: np.ndarray, record: bool) -> np.ndarray:
    """Each user's version at *rec*'s service as ``RequestKernel._assign``
    gives it, as an index into ``(*variants, stable)``: a variant for the
    users in the route's audience (recorded in the assigner if
    *record*), the stable version for the rest."""
    picks = np.full(len(users), len(rec.variants))
    if not rec.variants:
        return picks
    kept = slice(None) if rec.eligible is None else _admits(kernel, rec, users)
    chosen = users[kept]
    if len(chosen):
        pick = rec.assigner.assign_many if record else rec.assigner.pick_many
        picks[kept] = pick(chosen, rec.variants, kernel._population)
    return picks


def _admits(kernel: "RequestKernel", rec: _Route, users: np.ndarray) -> np.ndarray:
    """Whether each user is in *rec*'s audience (``rec.eligible`` is not
    None): ``RequestKernel._matches`` over a column, as one lookup of the
    users' group codes in the route's per-code table."""
    return np.frombuffer(rec.eligible, bool)[kernel._group_codes[users]]


def _codes(kernel: "RequestKernel", pos: _Position, users: np.ndarray) -> np.ndarray:
    """Each user's version at *pos* as an index into ``pos.versions``:
    read from the prefilled columns when they hold every user, else
    from the memo or, for users not in it, picked as ``_assign`` picks
    but recorded nowhere but ``route.peeked`` (:func:`_record` records
    the committed rows that reached the position)."""
    rec = pos.route
    codes = [pos.codes[v.version] for v in rec.variants] + [pos.codes[rec.stable]]
    if rec.prefilled is not None:
        distinct, picks, _ = rec.prefilled
        at = np.minimum(np.searchsorted(distinct, users), len(distinct) - 1)
        if np.array_equal(distinct[at], users):
            return np.array(codes)[picks[at]]
    memo, peeked = rec.memo, rec.peeked
    unseen = [u for u in dict.fromkeys(users.tolist()) if u not in memo and u not in peeked]
    if unseen:
        unseen = np.array(unseen, np.int64)
        peeked.update(zip(unseen.tolist(), _picks(kernel, rec, unseen, False).tolist()))
    return np.fromiter(
        (pos.codes[memo[u]] if u in memo else codes[peeked[u]] for u in users.tolist()),
        np.intp,
        len(users),
    )


def _run_rows(kernel: "RequestKernel", batch: "RequestBatch", lo: int, hi: int, now: float):
    """Rows [lo, hi) on the general hop, one at a time."""
    runtime = kernel._runtime
    timestamps = batch.timestamps[lo:hi].tolist()
    user_indices = batch.user_indices[lo:hi].tolist()
    group_codes = kernel._group_codes[batch.user_indices[lo:hi]].tolist()
    edge = kernel.entry_edge(batch.entry)
    durations = []
    append = durations.append
    errors = 0
    population = kernel._population
    group_names = population.group_names
    collector = runtime.collector
    call = kernel._call
    # A router asked per hop gets the row's Request.
    subjects = (
        map(batch.request, range(lo, hi)) if kernel._route_per_hop else user_indices
    )
    trace_id = spans = None
    for ts, user, group_code, subject in zip(timestamps, user_indices, group_codes, subjects):
        if ts > now:
            now = ts
        if kernel._spans:
            trace_id = runtime.next_trace_id()
            spans = []
        # Per-request context: user index (or the Request), group
        # code, trace id, span sink (None = no spans), group name,
        # user id (formatted only for the span tags that carry it).
        ctx = (
            subject,
            group_code,
            trace_id,
            spans,
            group_names[group_code],
            population.user_at(user) if spans is not None else None,
        )
        duration, error, _ = call(edge, None, None, now, 0, False, None, ctx, 0)
        if spans is not None:
            collector.record_trace(trace_id, spans)
        append(duration)
        if error:
            errors += 1
    return now, durations, errors


def _run_columns(
    kernel: "RequestKernel", positions: list, batch: "RequestBatch", lo: int, hi: int, now: float
):
    """Rows [lo, hi) as columns, a sub-block at a time: one bulk draw,
    each row's draw offsets from the composed table, then every
    position's hops at once.  Under breakers, each sub-block's outcomes
    replay the breakers' windows first (:func:`_trip_row`); the rows
    before the first one that would move a breaker land, and the rows
    from it on run the general hop one at a time until every breaker is
    closed again."""
    raw = kernel.raw
    root = positions[0]
    width = len(positions)
    routed = [pos for pos in positions if pos.route is not None and pos.certain]
    gates = {id(pos.gate): pos.gate for pos in positions if pos.gate is not None}
    # A policy's decisions read the versions at its routed positions.
    judged = {
        id(pos.route): pos
        for pos in positions
        if pos.judged and pos.route is not None and len(pos.versions) > 1
    }
    per_row = _expected_draws(root) * 1.05
    durations: list = []
    errors = 0
    limit, general = _SUB_BLOCK, False
    while lo < hi:
        if general or (kernel._breakers and kernel._resilience.tripped()):
            now, took, failed = _run_rows(kernel, batch, lo, lo + 1, now)
            durations += took
            errors += failed
            lo, general = lo + 1, False
            continue
        rows = min(limit, hi - lo)
        users = batch.user_indices[lo : lo + rows]
        codes = {pos: _codes(kernel, pos, users) for pos in routed}
        for pos in routed:
            codes.update(dict.fromkeys(pos.attempts, codes[pos]))
        # Rows whose gates admit the same duplicates and that take the
        # same versions where a policy decides share a composed table.
        masks = {key: _admits(kernel, rec, users) for key, rec in gates.items()}
        picked = {
            key: codes[pos] if pos in codes else _codes(kernel, pos, users)
            for key, pos in judged.items()
        }
        combos = list(zip(*(c.tolist() for c in (*masks.values(), *picked.values()))))
        size = max(2, math.ceil(rows * per_row) + _BLOCK_SLACK)
        while True:
            state = raw.getstate()
            block = _Block(random_block(raw, size))
            if combos:
                tables = {
                    combo: _site_table(root, block, (
                        {k for k, on in zip(masks, combo) if on},
                        dict(zip(picked, combo[len(masks) :])),
                    ))[0].item
                    for combo in dict.fromkeys(combos)
                }
                steps = map(tables.__getitem__, combos)
            else:
                steps = repeat(_site_table(root, block, ((), {}))[0].item, rows)
            offsets = _chain(steps, block.over)
            raw.setstate(state)
            if len(offsets) > 1:
                break
            size *= 2
        done = len(offsets) - 1
        starts = np.maximum.accumulate(
            np.concatenate(((now,), batch.timestamps[lo : lo + done]))
        )[1:]
        sub = _SubBlock(users, codes, masks)
        duration, error, _ = _site(
            kernel, root, np.arange(done), starts, np.array(offsets[:-1]), block, sub
        )
        outcomes = [(node, _hop_order(entries, width)) for node, entries in sub.samples.values()]
        cut = _trip_row(kernel, outcomes, done) if kernel._breakers else done
        # Keep exactly the draws the committed rows consumed.
        raw.getrandbits(64 * offsets[cut])
        if cut:
            _commit(kernel, positions, sub, outcomes, cut)
            durations.extend(duration[:cut].tolist())
            errors += int(np.count_nonzero(error[:cut]))
            now = starts[cut - 1].item()
            lo += cut
        general = cut < done
        limit = min(_SUB_BLOCK, 2 * cut + 1 if general else 2 * limit)
    return now, durations, errors


def _trip_row(kernel: "RequestKernel", outcomes: list, rows: int) -> int:
    """The first row one of whose outcomes would move a breaker, or
    *rows*: each (service, version) window replayed over the
    sub-block's outcomes in (row, post) order, as ``record`` sees
    them while every breaker is closed."""
    cut = rows
    for node, (at, _, _, failed) in outcomes:
        index = kernel._resilience.opens_at(node.service, node.version, failed)
        if index < len(failed):
            cut = min(cut, int(at[index]))
    return cut


def _commit(kernel: "RequestKernel", positions: list, sub: _SubBlock, outcomes: list, cut: int):
    """Land the sub-block's rows before *cut*: load deques, samples,
    breaker windows (breakers created as ``admit`` creates them),
    assignments, resilience events and column folds."""
    width = len(positions)
    for deque_, entries in sub.arrivals.values():
        entries = _before(entries, cut)
        if entries:
            _arrive(deque_, _hop_order(entries, width)[1].tolist(), LOAD_WINDOW_SECONDS)
    for node, (at, starts, took, failed) in outcomes:
        k = int(np.searchsorted(at, cut))
        if k:
            service, version = node.service, node.version
            kernel.samples.add_columns(service, version, starts[:k], took[:k], failed[:k])
            if kernel._breakers:
                kernel._resilience.breaker(service, version).absorb(failed[:k])
    _record(_before(sub.reached, cut), sub.users, kernel._population)
    # Policy events in row order, then in the order attempts return.
    emit = kernel._resilience.emit
    for event in sorted(event for event in sub.events if event[0] < cut):
        emit(event[-1])
    if kernel._folds:
        kept = {key: (node, _before(entries, cut)) for key, (node, entries) in sub.samples.items()}
        fold_columns(kernel, positions, kept, cut)
        kernel._runtime.advance_trace_ids(cut)


def _record(reached: list, users: np.ndarray, population) -> None:
    """Memo the users new to a route among the committed rows that
    reached one of its positions, and record those in its audience in
    its assigner (as ``_assign`` would have, row by row), taking their
    picks out of ``route.peeked``."""
    by_rec: dict = {}
    for rec, rows in reached:
        by_rec.setdefault(id(rec), (rec, []))[1].append(users[rows])
    for rec, parts in by_rec.values():
        memo, peeked = rec.memo, rec.peeked
        fresh = [u for u in dict.fromkeys(np.concatenate(parts).tolist()) if u not in memo]
        if not fresh:
            continue
        picks = np.array([peeked.pop(u) for u in fresh], np.intp)
        names = (*(v.version for v in rec.variants), rec.stable)
        memo.update(zip(fresh, map(names.__getitem__, picks.tolist())))
        kept = picks < len(rec.variants)
        if kept.any():
            rec.assigner.record_many(
                np.array(fresh, np.int64)[kept], picks[kept], names[:-1], population
            )


def _site(kernel: "RequestKernel", pos: _Position, rows, start, offsets, block: _Block, sub):
    """:func:`_hop` for a whole call site: under its call policy, the
    retry attempts of the rows whose attempt failed, timed and charged
    with ``call_with_policy``'s float operations; the durations
    returned are its elapsed times.  Its events wait in *sub* for the
    commit."""
    duration, error, after = _hop(kernel, pos, rows, start, offsets, block, sub)
    policy = pos.policy
    if policy is None:
        return duration, error, after
    service, endpoint = pos.key

    def note(attempt, order, kind, n, at, times, details):
        """Queue *kind* events of rows *at*, keyed (row, attempt's
        ``done``, order) for the commit's sort."""
        versions = repeat(pos.versions[0])
        if pos.route is not None:
            codes = _codes(kernel, pos, sub.users[rows[at]]).tolist()
            versions = map(pos.versions.__getitem__, codes)
        sub.events.extend(
            (row, attempt.done, order, ResilienceEvent(kind, t, service, v, endpoint, n, d))
            for row, t, v, d in zip(rows[at].tolist(), times.tolist(), versions, details)
        )

    elapsed = np.zeros(len(rows))
    at = np.arange(len(rows))  # the rows still trying
    for n, attempt in enumerate((pos, *pos.attempts)):
        if n:
            begin = start[at] + elapsed[at] / 1000.0
            duration, error, after[at] = _hop(
                kernel, attempt, rows[at], begin, after[at], block, sub
            )
        elapsed[at] += duration
        at = at[error]
        if n == policy.max_retries or not len(at):
            break
        backoff = policy.backoff_ms(n + 1)
        if policy.jitter_ms > 0:
            backoff = backoff + (0.0 + policy.jitter_ms * block.u[after[at]])
            after[at] += 1
        elapsed[at] += backoff
        details = [f"backoff={b:.1f}ms" for b in np.broadcast_to(backoff, len(at)).tolist()]
        note(attempt, 0, RETRY, n + 1, at, start[at] + elapsed[at] / 1000.0, details)
    failed = np.zeros(len(rows), bool)
    if not policy.fallback:
        failed[at] = True
    elif len(at):
        note(attempt, 1, FALLBACK, n, at, start[at] + elapsed[at] / 1000.0, repeat(""))
    return elapsed, failed, after


def _hop(kernel: "RequestKernel", pos: _Position, rows, start, offsets, block: _Block, sub):
    """*pos*'s hops for *rows* (ascending sub-block indices) starting at
    *start* with their first draw at *offsets*, children included;
    returns their durations, errors and next draw offsets.  Load
    deques, samples, assignments and events wait in *sub*."""
    n = len(rows)
    if pos.route is None:
        picks = None
    else:
        picks = sub.codes[pos][rows] if pos in sub.codes else _codes(kernel, pos, sub.users[rows])
        if pos.route.prefilled is None:
            sub.reached.append((pos.route, rows))
    own = np.empty(n)
    error = np.empty(n, bool)
    after = np.empty(n, np.intp)
    groups = []
    for code, version in enumerate(pos.versions):
        if picks is None:
            sel = slice(None)
        else:
            sel = np.flatnonzero(picks == code)
            if not len(sel):
                continue
        node = kernel._node(*pos.key, version, pos.proxy)
        begin = start[sel]
        groups.append((node, sel, begin))
        load = None
        if node.needs_load:
            counts = _loads(node.arrivals, begin, LOAD_WINDOW_SECONDS)
            capacity = node.capacity
            load = (
                counts / LOAD_WINDOW_SECONDS / capacity
                if capacity > 0
                else np.zeros(len(counts))
            )
        sub.arrivals.setdefault(id(node.arrivals), (node.arrivals, []))[1].append(
            (pos.pre, rows[sel], begin)
        )
        own[sel], drawn = _latency(node.recipe, block, offsets[sel], load)
        error[sel] = block.u[drawn] < node.error_rate
        after[sel] = drawn + 1
    if pos.children:
        child_start = start + 0.3 * own / 1000.0
        total = np.zeros(n)
        slowest = np.zeros(n)
        for probability, child in pos.children:
            taken = slice(None)
            if probability < 1.0:
                taken = np.flatnonzero(block.u[after] < probability)
                after = after + 1
                if not len(taken):
                    continue
            begin = child_start[taken]
            if not pos.parallel:
                begin = begin + total[taken] / 1000.0
            took, failed, after[taken] = _site(
                kernel, child, rows[taken], begin, after[taken], block, sub
            )
            total[taken] += took
            slowest[taken] = np.maximum(slowest[taken], took)
            error[taken] |= failed
        duration = own + pos.proxy + (slowest if pos.parallel else total)
    else:
        duration = own + pos.proxy
    for node, sel, begin in groups:
        sub.samples.setdefault(id(node.start_buf), (node, []))[1].append(
            (pos.post, rows[sel], begin, duration[sel], error[sel])
        )
    # Duplicates start with the primary; their durations and errors
    # stay their own.
    for shadow in pos.shadows:
        taken = slice(None)
        if shadow.gate is not None:
            taken = np.flatnonzero(sub.masks[id(shadow.gate)][rows])
            if not len(taken):
                continue
        _, _, after[taken] = _hop(
            kernel, shadow, rows[taken], start[taken], after[taken], block, sub
        )
    return duration, error, after
