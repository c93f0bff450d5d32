"""Fenrir evaluation performance layer: memoized scoring.

Search algorithms spend their whole budget scoring candidates, yet the
candidates they produce are almost never *new*: GA offspring share most
genes with their parents, elites are re-scored verbatim every
generation, and hill climbing/annealing mutate one gene per step.
:class:`Scorer` exploits that structure per gene: each gene's
constraint checks, objective score and usage cells are computed once per
gene value at its index, and the slot × group usage grid is summed in
one order-preserving :func:`numpy.bincount`.  Results are bit-identical
to :func:`repro.fenrir.fitness.evaluate`, which stays the readable
reference.  The memo saves work, never budget: every evaluation a search
requests is charged, the paper's accounting.

:class:`repro.fenrir.base.BudgetedEvaluator` reads top to bottom as
scorer → incumbent, so all four algorithms go through the same code.
See ``docs/FENRIR_PERF.md`` for the design and determinism guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

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


# ---------------------------------------------------------------------------
# Observability


@dataclass
class EvalStats:
    """Evaluation counters of one search run.

    ``full_evals`` is the number of evaluations performed, each one
    charged to the budget.  ``delta_evals`` and ``cache_hits`` are kept
    for readers of older counter sets and are always 0.
    ``wall_time_s`` is the time spent inside the evaluator, not the
    whole search loop.
    """

    full_evals: int = 0
    delta_evals: int = 0
    cache_hits: int = 0
    wall_time_s: float = 0.0

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
# Scoring


#: Cap on memoized per-gene entries of one :class:`Scorer`; reaching it
#: clears the memo.  Searches whose candidates share genes stay well
#: below it; random sampling, whose draws share none, refills it.
_MEMO_LIMIT = 16_384


class Scorer:
    """Scores schedules of one problem, bit-identical to ``fitness.evaluate``.

    Per-gene components — violations, sample shortfall, weighted score,
    the flat usage cells the gene's groups start at and its run length
    clipped to the horizon — are memoized per (index, gene) value:
    search candidates share most genes with schedules already scored.
    The slot × group usage grid is summed by one
    :func:`numpy.bincount` over the genes' cells listed in gene-index
    order; ``bincount`` adds its weights sequentially from 0.0, the
    association order of the reference's ``usage[cell] += fraction``
    loop, so every float, every violation string and their order come
    out exactly as :func:`repro.fenrir.fitness.evaluate` makes them.
    """

    def __init__(
        self, problem: SchedulingProblem, weights: FitnessWeights | None = None
    ) -> None:
        self.problem = problem
        self.weights = weights or FitnessWeights()
        self._memo: dict[tuple[int, Gene], tuple] = {}

    def evaluate(self, schedule: Schedule) -> ScheduleEvaluation:
        """The evaluation of *schedule*, a schedule of :attr:`problem`."""
        problem = self.problem
        n_groups = len(problem.group_names)
        memo = self._memo
        violations: list[str] = []
        scores: list[float] = []
        shortfall_penalty = 0.0
        # One entry per (gene, group) run, gene by gene: its first flat
        # cell, its length in slots and the gene's fraction.
        starts: list[int] = []
        lengths: list[int] = []
        fractions: list[float] = []
        for index, gene in enumerate(schedule.genes):
            key = (index, gene)
            parts = memo.get(key)
            if parts is None:
                if len(memo) >= _MEMO_LIMIT:
                    memo.clear()
                parts = memo[key] = self._parts(index, gene)
            gene_violations, shortfall, score, firsts, runs, fracs = parts
            violations.extend(gene_violations)
            shortfall_penalty += shortfall
            scores.append(score)
            starts.extend(firsts)
            lengths.extend(runs)
            fractions.extend(fracs)
        # Cell j of a run is its first cell plus j slots (n_groups cells
        # each); runs are laid end to end, so j = position - run offset.
        run_lengths = np.array(lengths, dtype=np.intp)
        offsets = np.cumsum(run_lengths) - run_lengths
        firsts = np.array(starts, dtype=np.intp) - n_groups * offsets
        cells = np.repeat(firsts, run_lengths)
        cells += np.arange(0, n_groups * cells.size, n_groups)
        weights = np.repeat(np.array(fractions), run_lengths)
        usage = np.bincount(
            cells, weights=weights, minlength=problem.horizon * n_groups
        )
        over = np.flatnonzero(usage > 1.0 + 1e-9)
        overlap_penalty = 0.0
        group_names = problem.group_names
        for flat, used in zip(over.tolist(), usage[over].tolist()):
            slot, gi = divmod(flat, n_groups)
            violations.append(_oversubscription_message(slot, group_names[gi], used))
            overlap_penalty += used - 1.0
        return _finalize(
            scores, violations, shortfall_penalty, overlap_penalty,
            problem.total_weight,
        )

    def _parts(self, index: int, gene: Gene) -> tuple:
        problem = self.problem
        horizon = problem.horizon
        n_groups = len(problem.group_names)
        group_index = problem.group_index
        spec = problem.experiments[index]
        violations, shortfall = _gene_constraints(problem, spec, gene)
        score = spec.weight * _gene_objectives(spec, gene, horizon, self.weights)
        first = gene.start * n_groups
        firsts = tuple(first + group_index[g] for g in gene.groups)
        k = len(firsts)
        run = max(0, min(gene.end, horizon) - gene.start)
        return (
            tuple(violations), shortfall, score, firsts, (run,) * k, (gene.fraction,) * k
        )
