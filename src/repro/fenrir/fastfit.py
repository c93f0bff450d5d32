"""Fenrir evaluation performance layer: memoized and incremental scoring.

Search algorithms spend their whole budget inside
:func:`repro.fenrir.fitness.evaluate`, yet the candidates they produce are
almost never *new*: GA offspring differ from a parent in a handful of
genes, elites are re-scored verbatim every generation, and hill
climbing/annealing mutate exactly one gene per step.  This module
exploits that structure two ways:

- :class:`FitnessCache` — **memoization**.  An LRU cache keyed by the
  canonical chromosome fingerprint (:meth:`Schedule.key`).  A cache hit
  does *not* consume evaluation budget (the work was never done);
  :data:`SEED_OPTIONS` has no cache, so there every requested evaluation
  is charged — the paper's accounting.
- :class:`DeltaEvaluator` — **incremental evaluation**.  Given a parent
  schedule's cached evaluation state and the set of changed gene indices,
  it recomputes only the affected per-experiment scores and constraint
  checks and patches only the touched cells of the slot×group usage grid.
  Results are bit-identical to the full evaluator: untouched components
  are reused verbatim and touched usage cells are re-accumulated in gene
  index order, the same association order the full pass uses.

:class:`EvaluatorOptions` switches the two on or off and is threaded
through :class:`repro.fenrir.base.BudgetedEvaluator`, which reads top to
bottom as cache → delta-or-full → incumbent, so all four algorithms
benefit transparently.  See ``docs/FENRIR_PERF.md`` for the design and
determinism guarantees.
"""

from __future__ import annotations

from bisect import insort
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from repro.errors import ConfigurationError
from repro.fenrir.fitness import (
    FitnessWeights,
    ScheduleEvaluation,
    _finalize,
    _gene_constraints,
    _gene_objectives,
    _oversubscription_message,
)
from repro.fenrir.model import SchedulingProblem
from repro.fenrir.schedule import Gene, Schedule
from repro.obs.observer import Observer


# ---------------------------------------------------------------------------
# Observability


@dataclass
class EvalStats:
    """Evaluation counters of one search run.

    ``full_evals + delta_evals`` is the number of fitness computations
    actually performed; ``cache_hits`` were answered from memory.
    ``wall_time_s`` is the time spent inside the evaluator (computation
    plus cache handling), not the whole search loop.
    """

    full_evals: int = 0
    delta_evals: int = 0
    cache_hits: int = 0
    wall_time_s: float = 0.0

    @property
    def computed_evals(self) -> int:
        """Evaluations that ran fitness code (full + delta)."""
        return self.full_evals + self.delta_evals

    def as_dict(self) -> dict[str, float]:
        """Counter name → value, the exported telemetry vocabulary."""
        return {
            "full_evals": float(self.full_evals),
            "delta_evals": float(self.delta_evals),
            "cache_hits": float(self.cache_hits),
            "wall_time_s": self.wall_time_s,
        }

    def copy(self) -> "EvalStats":
        """Snapshot for embedding in an immutable result."""
        return replace(self)


# ---------------------------------------------------------------------------
# Memoization


class FitnessCache:
    """LRU cache of schedule fingerprint → :class:`ScheduleEvaluation`."""

    def __init__(self, maxsize: int = 4096) -> None:
        if maxsize <= 0:
            raise ConfigurationError("fitness cache maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: OrderedDict[tuple, ScheduleEvaluation] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> ScheduleEvaluation | None:
        """The cached evaluation for *key*, refreshing its recency."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: tuple, evaluation: ScheduleEvaluation) -> None:
        """Insert or refresh one entry, evicting the least recently used."""
        self._entries[key] = evaluation
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)


# ---------------------------------------------------------------------------
# Incremental (delta) evaluation


class _EvalState:
    """Cached by-parts evaluation of one schedule, forkable for deltas.

    No usage matrix is kept: touched cells are re-accumulated from the
    per-slot cover lists, and :attr:`over` carries the oversubscribed
    cells forward, so untouched cell values never need to be stored.
    """

    __slots__ = (
        "genes",
        "gene_gidxs",
        "gene_violations",
        "gene_scores",
        "gene_shortfalls",
        "slot_cover",
        "over",
        "evaluation",
    )

    def __init__(
        self,
        genes: list[Gene],
        gene_gidxs: list[list[int]],
        gene_violations: list[tuple[str, ...]],
        gene_scores: list[float],
        gene_shortfalls: list[float],
        slot_cover: list[list[int]],
        over: dict[int, tuple[float, str]],
        evaluation: ScheduleEvaluation,
    ) -> None:
        self.genes = genes
        self.gene_gidxs = gene_gidxs
        self.gene_violations = gene_violations
        self.gene_scores = gene_scores
        self.gene_shortfalls = gene_shortfalls
        self.slot_cover = slot_cover
        self.over = over
        self.evaluation = evaluation


class DeltaEvaluator:
    """Incremental schedule evaluation against cached parent states.

    Exactness guarantee: for any parent state and changed-gene set, the
    produced :class:`ScheduleEvaluation` is **bit-identical** to a full
    :func:`repro.fenrir.fitness.evaluate` of the same schedule — same
    floats, same violation strings in the same order.  Per-gene components
    reuse the very helpers the full evaluator runs, and touched usage
    cells are re-accumulated over genes in index order, matching the full
    pass's floating-point association order.
    """

    def __init__(
        self,
        problem: SchedulingProblem,
        weights: FitnessWeights | None = None,
        state_size: int = 512,
        max_delta_fraction: float = 0.5,
    ) -> None:
        if state_size <= 0:
            raise ConfigurationError("delta state_size must be positive")
        self.problem = problem
        self.weights = weights or FitnessWeights()
        self.state_size = state_size
        n = len(problem.experiments)
        # Beyond this many changed genes a full pass is cheaper than the
        # patch-and-rescan bookkeeping.
        self.max_changed = max(1, int(n * max_delta_fraction)) if n else 0
        # Insertion-ordered with oldest-first eviction; a plain dict keeps
        # writes cheaper than an OrderedDict on this hot path.
        self._states: dict[tuple, _EvalState] = {}

    # -- public API --------------------------------------------------------

    def evaluate(
        self,
        schedule: Schedule,
        parent: Schedule | None = None,
        changed: Iterable[int] | None = None,
        key: tuple | None = None,
    ) -> tuple[ScheduleEvaluation, bool]:
        """Evaluate *schedule*, by delta from *parent* when possible.

        Returns ``(evaluation, used_delta)``.  The delta path runs when a
        cached state exists for *parent* and the changed-gene set is small
        enough; otherwise a full evaluation (re)builds the state.
        *changed* may name a superset of the differing indices (it is
        sanitized against the actual genes); when ``None`` the diff is
        computed.  Either way the state store is updated so the schedule
        can serve as a parent later.
        """
        key = key if key is not None else schedule.key()
        parent_state = self._states.get(parent.key()) if parent is not None else None
        if parent_state is not None:
            genes = schedule.genes
            if changed is None:
                # Schedules derived via ``replaced`` share untouched Gene
                # objects with their parent, so identity short-circuits
                # most comparisons.
                diff = [
                    i
                    for i, (g, pg) in enumerate(zip(genes, parent_state.genes))
                    if g is not pg and g != pg
                ]
            else:
                diff = sorted(
                    {
                        i
                        for i in changed
                        if genes[i] is not parent_state.genes[i]
                        and genes[i] != parent_state.genes[i]
                    }
                )
            if len(diff) <= self.max_changed:
                state = self._delta_state(parent_state, schedule, diff)
                self._store(key, state)
                return state.evaluation, True
        state = self._full_state(schedule)
        self._store(key, state)
        return state.evaluation, False

    def has_state(self, schedule: Schedule) -> bool:
        """Whether *schedule* can currently serve as a delta parent."""
        return schedule.key() in self._states

    # -- internals ---------------------------------------------------------

    def _store(self, key: tuple, state: _EvalState) -> None:
        states = self._states
        states[key] = state
        if len(states) > self.state_size:
            del states[next(iter(states))]

    def _full_state(self, schedule: Schedule) -> _EvalState:
        problem = self.problem
        horizon = problem.horizon
        group_index = problem.group_index
        group_names = problem.group_names
        n_groups = len(group_names)
        gene_violations: list[tuple[str, ...]] = []
        gene_scores: list[float] = []
        gene_shortfalls: list[float] = []
        gene_gidxs: list[list[int]] = []
        for spec, gene in zip(problem.experiments, schedule.genes):
            violations, shortfall = _gene_constraints(problem, spec, gene)
            gene_violations.append(tuple(violations))
            gene_shortfalls.append(shortfall)
            gene_scores.append(
                spec.weight * _gene_objectives(spec, gene, horizon, self.weights)
            )
            gene_gidxs.append(sorted(group_index[g] for g in gene.groups))
        usage = [0.0] * (horizon * n_groups)
        slot_cover: list[list[int]] = [[] for _ in range(horizon)]
        for index, (gene, gidxs) in enumerate(zip(schedule.genes, gene_gidxs)):
            fraction = gene.fraction
            for slot in range(gene.start, min(gene.end, horizon)):
                slot_cover[slot].append(index)
                base = slot * n_groups
                for gi in gidxs:
                    usage[base + gi] += fraction
        over: dict[int, tuple[float, str]] = {}
        for flat, used in enumerate(usage):
            if used > 1.0 + 1e-9:
                slot, gi = divmod(flat, n_groups)
                over[flat] = (
                    used - 1.0,
                    _oversubscription_message(slot, group_names[gi], used),
                )
        state = _EvalState(
            genes=list(schedule.genes),
            gene_gidxs=gene_gidxs,
            gene_violations=gene_violations,
            gene_scores=gene_scores,
            gene_shortfalls=gene_shortfalls,
            slot_cover=slot_cover,
            over=over,
            evaluation=None,  # assembled below
        )
        state.evaluation = self._assemble(state)
        return state

    def _delta_state(
        self, parent: _EvalState, schedule: Schedule, changed: Sequence[int]
    ) -> _EvalState:
        problem = self.problem
        horizon = problem.horizon
        group_index = problem.group_index
        group_names = problem.group_names
        n_groups = len(group_names)
        genes = list(schedule.genes)
        # The outer slot_cover list is copied, the per-slot inner lists are
        # shared with the parent and copied-on-write where a changed gene
        # enters or leaves a slot.
        state = _EvalState(
            genes=genes,
            gene_gidxs=list(parent.gene_gidxs),
            gene_violations=list(parent.gene_violations),
            gene_scores=list(parent.gene_scores),
            gene_shortfalls=list(parent.gene_shortfalls),
            slot_cover=parent.slot_cover.copy(),
            over=dict(parent.over),
            evaluation=None,
        )
        # Only cells whose accumulated value can differ from the parent's
        # need recomputation: where exactly one of (old, new) gene covers
        # the cell, or both cover it with different fractions.  A cell
        # covered by both with the same fraction receives the identical
        # contribution at the identical gene position, so its float is
        # unchanged bit-for-bit.
        slot_cover = state.slot_cover
        single = len(changed) == 1
        # (lo, hi, touched group indices) slot ranges needing
        # recomputation.  For a single changed gene the segments are
        # disjoint slot ranges sharing their touched lists; only
        # multi-gene deltas pay for per-slot set merging.
        pending: list[tuple[int, int, Sequence[int]]] = []
        slot_groups: dict[int, set[int]] = {}
        for i in changed:
            spec = problem.experiments[i]
            old, new = parent.genes[i], genes[i]
            violations, shortfall = _gene_constraints(problem, spec, new)
            state.gene_violations[i] = tuple(violations)
            state.gene_shortfalls[i] = shortfall
            state.gene_scores[i] = spec.weight * _gene_objectives(
                spec, new, horizon, self.weights
            )
            old_gidxs = parent.gene_gidxs[i]
            if new.groups == old.groups:
                new_gidxs = old_gidxs
            else:
                new_gidxs = sorted(group_index[g] for g in new.groups)
            state.gene_gidxs[i] = new_gidxs
            o_lo = old.start
            o_hi = o_lo + old.duration
            if o_hi > horizon:
                o_hi = horizon
            n_lo = new.start
            n_hi = n_lo + new.duration
            if n_hi > horizon:
                n_hi = horizon
            # Groups touched where both genes cover a slot: with an equal
            # fraction only the symmetric group difference changes; with a
            # different fraction every covered group does.
            if new_gidxs is old_gidxs:
                both_gidxs = () if old.fraction == new.fraction else old_gidxs
            elif old.fraction == new.fraction:
                both_gidxs = sorted(set(old_gidxs) ^ set(new_gidxs))
            else:
                both_gidxs = sorted(set(old_gidxs) | set(new_gidxs))
            lo = o_lo if o_lo > n_lo else n_lo
            hi = o_hi if o_hi < n_hi else n_hi
            touch_segments = (
                (lo, hi, both_gidxs),  # covered by both genes
                (o_lo, n_lo if n_lo < o_hi else o_hi, old_gidxs),  # old-only left
                (o_lo if o_lo > n_hi else n_hi, o_hi, old_gidxs),  # old-only right
                (n_lo, o_lo if o_lo < n_hi else n_hi, new_gidxs),  # new-only left
                (n_lo if n_lo > o_hi else o_hi, n_hi, new_gidxs),  # new-only right
            )
            if single:
                pending.extend(
                    seg for seg in touch_segments if seg[0] < seg[1] and seg[2]
                )
            else:
                for lo, hi, touched in touch_segments:
                    if lo >= hi or not touched:
                        continue
                    for slot in range(lo, hi):
                        bucket = slot_groups.get(slot)
                        if bucket is None:
                            slot_groups[slot] = set(touched)
                        else:
                            bucket.update(touched)
            # Keep the per-slot cover lists in sync: gene *i* leaves the
            # old-only slots and enters the new-only slots.
            for lo, hi, entering in (
                (o_lo, n_lo if n_lo < o_hi else o_hi, False),
                (o_lo if o_lo > n_hi else n_hi, o_hi, False),
                (n_lo, o_lo if o_lo < n_hi else n_hi, True),
                (n_lo if n_lo > o_hi else o_hi, n_hi, True),
            ):
                for slot in range(lo, hi):
                    cover = list(slot_cover[slot])
                    if entering:
                        insort(cover, i)
                    else:
                        cover.remove(i)
                    slot_cover[slot] = cover
        if slot_groups:
            pending.extend(
                (slot, slot + 1, gis) for slot, gis in slot_groups.items()
            )
        if pending:
            gene_gidxs = state.gene_gidxs
            over = state.over
            fractions = [g.fraction for g in genes]
            for lo, hi, gis in pending:
                for slot in range(lo, hi):
                    base = slot * n_groups
                    cover = slot_cover[slot]
                    for gi in gis:
                        # Re-accumulate the touched cell over the slot's
                        # covering genes in index order — the same float
                        # association order as the full pass.
                        used = 0.0
                        for j in cover:
                            if gi in gene_gidxs[j]:
                                used += fractions[j]
                        flat = base + gi
                        if used > 1.0 + 1e-9:
                            over[flat] = (
                                used - 1.0,
                                _oversubscription_message(
                                    slot, group_names[gi], used
                                ),
                            )
                        elif flat in over:
                            del over[flat]
        state.evaluation = self._assemble(state)
        return state

    def _assemble(self, state: _EvalState) -> ScheduleEvaluation:
        problem = self.problem
        violations: list[str] = []
        for gene_violations in state.gene_violations:
            violations.extend(gene_violations)
        overlap_penalty = 0.0
        if state.over:
            over = state.over
            for flat in sorted(over):
                excess, message = over[flat]
                violations.append(message)
                overlap_penalty += excess
        return _finalize(
            state.gene_scores,
            violations,
            sum(state.gene_shortfalls),
            overlap_penalty,
            problem.total_weight,
        )


# ---------------------------------------------------------------------------
# Configuration bundle


@dataclass(frozen=True)
class EvaluatorOptions:
    """Knobs of the evaluation performance layer.

    Attributes:
        use_cache: memoize evaluations by chromosome fingerprint; a hit
            is free, so the budget bounds *computed* evaluations.
        use_delta: evaluate children incrementally from cached parent
            states where possible.
        observer: a glass-box :class:`~repro.obs.observer.Observer` the
            search emits per-generation progress and completion events
            into (logical timestamp = evaluations consumed), bridging
            :class:`EvalStats` into registry metrics.  ``None`` runs
            dark.
    """

    use_cache: bool = True
    use_delta: bool = True
    observer: Observer | None = None


#: Seed-faithful configuration: every evaluation is a full recomputation
#: and every request is charged — the pre-fastfit behaviour.
SEED_OPTIONS = EvaluatorOptions(use_cache=False, use_delta=False)
