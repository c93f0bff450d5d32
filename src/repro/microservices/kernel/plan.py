"""The columnar slice's plan: a slice's call tree as call sites, the
draw-offset tables composed over it, and the fold that hands the
columns' hops to the column subscribers."""

from __future__ import annotations

import math
from random import NV_MAGICCONST

import numpy as np

from repro.errors import ConfigurationError
from repro.microservices.kernel.core import _MAX_CALL_DEPTH, _recipe, _split_entry


class _Position:
    """One call site of a slice's plan: the versions rows can take there,
    their one draw kind and error rates, the child call sites in call
    order, the dark-launch duplicates (``shadows``) replayed after them
    and, under a call policy, the retry ``attempts`` placed after those.
    A duplicate runs for the rows its *gate* (the primary's route,
    None when every user is in its audience) admits, attempt k for the
    rows whose attempt k − 1 failed.  A policy reads the error of every
    ``judged`` position; ``kids`` are the positions of the spans whose
    parent is this one's, in span order, and ``done`` counts the
    positions that finish before this one's policy events."""

    __slots__ = (
        "key", "route", "versions", "codes", "kind", "rates", "certain",
        "children", "shadows", "gate", "parallel", "proxy", "pre", "post",
        "policy", "attempts", "judged", "kids", "done",
    )


def _walk(pos: _Position, orders: dict, order: list) -> None:
    """Append the pres of *pos*'s subtree in ``Trace.walk`` order: each
    position's kids in ``orders[pos]``'s order (by start, stably in span
    order), else in span order."""
    order.append(pos.pre)
    kids = pos.kids
    for index in orders.get(pos, range(len(kids))):
        _walk(kids[index], orders, order)


def _hop_order(entries: list, positions: int) -> list:
    """The array columns ``(rows, *columns)`` of one or more positions'
    entries ``(order, rows, *columns)``, in global hop order: by row,
    then by *order* in the row."""
    if len(entries) == 1:
        return entries[0][1:]
    key = np.concatenate([rows * positions + order for order, rows, *_ in entries])
    order = np.argsort(key)
    return [
        np.concatenate([entry[i] for entry in entries])[order]
        for i in range(1, len(entries[0]))
    ]


#: Kinderman–Monahan acceptance tests within this relative distance of
#: the boundary are decided with ``math.log``, not ``np.log``.
_LOG_GUARD = 1e-12
#: Expected uniforms per latency sample (K–M: two per pair, ≈ 1.37 pairs).
_DRAWS = {"const": 0.0, "normal": 2.74, "pareto": 1.0}


class _Block:
    """One sub-block's uniforms and the draw-offset tables over them.

    An offset indexes ``u``; ``over`` (its length + 1) marks a walk that
    ran past the block, and every table maps it to itself.  ``first[s]``
    is the first accepted Kinderman–Monahan pair at or after *s* in steps
    of two, ``z`` the pair's normal deviate.
    """

    __slots__ = ("u", "z", "first", "km", "step", "over")

    def __init__(self, u: np.ndarray) -> None:
        n = len(u)
        self.over = over = n + 1
        # Past the end a probability draw is never taken; its walk is
        # already ``over`` either way.
        self.u = np.concatenate((u, (2.0, 2.0)))
        self.step = np.minimum(np.arange(1, n + 3), over)
        u2 = 1.0 - u[1:]
        self.z = z = NV_MAGICCONST * (u[:-1] - 0.5) / u2
        zz = z * z / 4.0
        bound = -np.log(u2)
        accept = zz <= bound
        for j in np.flatnonzero(np.abs(zz - bound) <= _LOG_GUARD * bound).tolist():
            accept[j] = zz[j] <= -math.log(u2[j])
        first = np.full(n + 2, n - 1)
        first[: n - 1] = np.where(accept, np.arange(n - 1), n - 1)
        for parity in (0, 1):
            lane = first[parity : n - 1 : 2]
            lane[:] = np.minimum.accumulate(lane[::-1])[::-1]
        self.first = first
        self.km = first + 2


def _expected_draws(pos: _Position) -> float:
    draws = _DRAWS[pos.kind] + 1.0
    for probability, child in pos.children:
        below = _expected_draws(child)
        draws += below if probability >= 1.0 else 1.0 + probability * below
    draws += sum(map(_expected_draws, pos.shadows))
    if pos.attempts:
        # A retry follows a failure: its jitter draw and its subtree again.
        lost = max(pos.rates)
        again = sum(lost**k for k in range(1, len(pos.attempts) + 1))
        draws += again * (draws + (pos.policy.jitter_ms > 0))
    return draws


def _table(pos: _Position, block: _Block, combo) -> tuple:
    """Draw offset after *pos*'s subtree and its duplicates, for every
    start offset, for rows whose gates are the ids in ``combo[0]`` and
    whose versions are ``combo[1]`` (id of a route -> code); with the
    error a call policy reads, if ``judged`` (else None)."""
    admitted, picked = combo
    # The error draw's offset: the start offset itself for a constant.
    at = None if pos.kind == "const" else block.km if pos.kind == "normal" else block.step
    table = block.step if at is None else block.step[at]
    failed = None
    if pos.judged:
        rate = pos.rates[picked.get(id(pos.route), 0)]
        failed = (block.u if at is None else block.u[at]) < rate
    for probability, child in pos.children:
        end, fail = _site_table(child, block, combo)
        at, taken = table, True
        if probability < 1.0:
            at, taken = block.step[table], block.u[table] < probability
            table = np.where(taken, end[at], at)
        else:
            table = end[at]
        if failed is not None:
            failed = failed | (fail[at] & taken)
    for shadow in pos.shadows:
        if shadow.gate is None or id(shadow.gate) in admitted:
            table = _table(shadow, block, combo)[0][table]
    return table, failed


def _site_table(pos: _Position, block: _Block, combo) -> tuple:
    """:func:`_table` of a whole call site: under its call policy, attempt
    k + 1 runs from where attempt k ended (after a jitter draw) for the
    offsets whose attempt k failed.  Every attempt of a row draws as
    attempt 0 would from the same offset, so one table serves them all."""
    end, failed = _table(pos, block, combo)
    policy = pos.policy
    if policy is None:
        return end, failed
    table, lost = end, failed
    for _ in range(policy.max_retries):
        at = block.step[table] if policy.jitter_ms > 0 else table
        table = np.where(lost, end[at], table)
        lost = lost & failed[at]
    return table, np.zeros_like(lost) if policy.fallback else lost


def _chain(steps, over: int) -> list:
    """Each row's first draw offset while the rows fit the block, then the
    offset after the last one; *steps* maps each row's first offset to
    the next row's."""
    offsets = [0]
    append = offsets.append
    offset = 0
    for step in steps:
        offset = step(offset)
        if offset == over:
            break
        append(offset)
    return offsets


def plan(kernel, entry: str):
    """The entry's call tree as positions in pre-order, each call site's
    dark-launch duplicates right after its subtree and its retry
    attempts after those, or None when the columnar slice cannot
    express the slice and the general hop runs it: a latency model
    without a recipe, a cycle, a load deque shared by two positions
    where one reads the load, a call site whose versions differ in
    their calls or their draw kinds."""
    positions: list = []
    state = (positions, [], {})
    if _position(kernel, *_split_entry(entry), True, (), state) is None:
        return None
    for count, reads in state[2].values():
        if count > 1 and reads:
            return None
    return positions


def _position(
    kernel, service: str, endpoint: str, certain: bool, path, state, forced=None,
    replay=False, judged=False, retry=False,
):
    """One call site (a duplicate forced to version *forced*, a retry
    attempt when *retry*) and its subtree; *path* holds one call site
    per level of depth.  As in ``RequestKernel._dispatch``, no policy applies
    to the entry call (its caller is the user) or under a shadow
    *replay*; below a policy every position is *judged*."""
    positions, finished, deques = state
    if len(path) > _MAX_CALL_DEPTH or (forced is None and (service, endpoint) in path):
        return None
    replay = replay or forced is not None
    policy = (
        None if replay or retry or not path
        else kernel._resilience.policy_for(service, endpoint)
    )
    judged = judged or policy is not None
    router = kernel._router
    route = router.active_route(service) if router is not None else None
    try:
        svc = kernel._app.service(service)
        if forced is not None:
            rec, versions = None, (forced,)
        elif route is None:
            rec, versions = None, (svc.stable_version,)
        else:
            rec = kernel._route(service, route)
            versions = tuple(dict.fromkeys((rec.stable, *(v.version for v in rec.variants))))
        specs = [svc.get(version).endpoint(endpoint) for version in versions]
    except ConfigurationError:  # raised by the general hop, if reached
        return None
    recipes = [_recipe(spec.latency) for spec in specs]
    calls = {
        tuple((c.probability, c.service, c.endpoint) for c in spec.calls)
        for spec in specs
    }
    kinds = {None if recipe is None else recipe[0] for recipe in recipes}
    if (
        None in kinds
        or len(kinds) > 1
        or len(calls) > 1
        or len({bool(spec.parallel_calls) for spec in specs}) > 1
    ):
        return None
    for version, recipe in zip(versions, recipes):
        use = deques.setdefault((service, version), [0, False])
        use[0] += 1
        use[1] = use[1] or any(op == "load" for op, _ in recipe[3])
    pos = _Position()
    pos.key, pos.route, pos.versions, pos.kind = (service, endpoint), rec, versions, kinds.pop()
    pos.codes = {version: code for code, version in enumerate(versions)}
    pos.rates = tuple(spec.error_rate for spec in specs)
    pos.certain, pos.parallel = certain, bool(specs[0].parallel_calls)
    pos.proxy = 0.0 if rec is None else kernel._proxy_ms
    pos.policy, pos.judged = policy, judged
    pos.gate = None
    pos.pre = len(positions)
    positions.append(pos)
    below = (*path, (service, endpoint))
    children = []
    for probability, child_service, child_endpoint in calls.pop():
        child = _position(
            kernel, child_service, child_endpoint, certain and probability >= 1.0,
            below, state, replay=replay, judged=judged,
        )
        if child is None:
            return None
        children.append((probability, child))
    pos.children = tuple(children)
    pos.post = len(finished)
    finished.append(pos)
    # ``_call`` replays each duplicate after the primary's subtree, one
    # level deeper, forced and without the proxy; rows outside the
    # route's audience skip it, and so no row reaches it for sure.
    shadows = []
    if rec is not None:
        gate = rec if rec.eligible is not None else None
        for version in route.shadow_versions:
            if svc.has_version(version):
                shadow = _position(kernel, service, endpoint, False, below, state, version)
                if shadow is None:
                    return None
                shadow.gate = gate
                shadows.append(shadow)
    pos.shadows = tuple(shadows)
    pos.kids = (*(a for _, c in children for a in (c, *c.attempts)), *shadows)
    pos.done = len(finished)
    # ``call_with_policy`` runs attempt k after attempt k - 1 returned,
    # duplicates included: a sibling of attempt 0, never certain.
    attempts = []
    for _ in range(policy.max_retries if policy is not None else 0):
        again = _position(
            kernel, service, endpoint, False, path, state, judged=True, retry=True
        )
        if again is None:
            return None
        attempts.append(again)
    pos.attempts = tuple(attempts)
    return pos


def fold_columns(kernel, positions: list, samples: dict, rows: int) -> None:
    """Hand the sub-block's hops, in the order ``Trace.walk`` visits the
    spans the general hop builds, to the column subscribers, with each
    hop's completion rank (its position's ``post``: the general hop
    appends a row's spans in ascending rank)."""
    keys: dict = {}
    width = len(positions)
    ids = np.full((width, rows), -1)  # key index per position and row
    begins = np.full((width, rows), np.nan)
    parents = np.full(width, -1)
    parts = []
    by_post = {pos.post: pos for pos in positions}
    for pos in positions:
        for kid in pos.kids:
            parents[kid.pre] = pos.pre
    for node, node_entries in samples.values():
        for post, at, starts, durations, errors in node_entries:
            pos = by_post[post]
            key = (node.service, node.version, pos.key[1])
            ids[pos.pre, at] = keys.setdefault(key, len(keys))
            begins[pos.pre, at] = starts
            parts.append((pos.pre, at, starts, durations, errors))
    # Walk order per row: a span's children by start, stably in span
    # order.  A duplicate ties with a 0 ms primary's children, a retry
    # can start after a later sibling, so each position's kids are
    # sorted per row and the walk built per distinct pattern.
    forks = [pos for pos in positions if len(pos.kids) > 1]
    patterns = [
        np.argsort(begins[[kid.pre for kid in fork.kids]].T, axis=1, kind="stable")
        for fork in forks
    ]
    walks, walk_of = (
        np.unique(np.concatenate(patterns, axis=1), axis=0, return_inverse=True)
        if forks
        else (np.zeros((1, 0), np.intp), np.zeros(rows, np.intp))
    )
    ranks = np.empty((len(walks), width), np.intp)
    for rank, walk in zip(ranks, walks.tolist()):
        orders, at = {}, 0
        for fork in forks:
            orders[fork] = walk[at : at + len(fork.kids)]
            at += len(fork.kids)
        order: list = []
        _walk(positions[0], orders, order)
        rank[order] = np.arange(width)
    entries = [
        (ranks[walk_of[at], pre], at, np.full(len(at), pre), starts, durations, errors)
        for pre, at, starts, durations, errors in parts
    ]
    at, pres, starts, durations, errors = _hop_order(entries, width)
    callers = np.where(parents[pres] < 0, -1, ids[parents[pres], at])
    root = pres == 0
    ends = starts[root] + durations[root] / 1000.0
    hops = (callers, ids[pres, at], durations, errors)
    ranks = np.array([pos.post for pos in positions])[pres]
    for fold in kernel._folds:
        fold(list(keys), at, hops, starts, ends, ranks)
