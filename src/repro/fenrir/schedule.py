"""Schedules and their chromosome representation.

Fig 3.1: a schedule is value-encoded as one *gene* per experiment —
(start slot, duration, traffic fraction, user groups).  The whole
chromosome is simply the tuple of genes in experiment order, which makes
one-point crossover at experiment boundaries (Fig 3.2) trivial.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

from repro.errors import ValidationError
from repro.fenrir.model import ExperimentSpec, SchedulingProblem


@dataclass(frozen=True)
class Gene:
    """Execution plan of one experiment.

    Attributes:
        start: first slot the experiment runs in.
        duration: number of consecutive slots (non-interrupted).
        fraction: share of the selected groups' traffic consumed per slot.
        groups: the user groups the experiment runs on.
    """

    start: int
    duration: int
    fraction: float
    groups: frozenset[str]

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValidationError(f"gene start must be >= 0, got {self.start}")
        if self.duration < 1:
            raise ValidationError(f"gene duration must be >= 1, got {self.duration}")
        if not 0.0 < self.fraction <= 1.0:
            raise ValidationError(
                f"gene fraction must be in (0, 1], got {self.fraction}"
            )
        if not self.groups:
            raise ValidationError("gene needs at least one user group")

    @property
    def end(self) -> int:
        """Exclusive end slot."""
        return self.start + self.duration

    def slots(self) -> range:
        """The slots the experiment occupies."""
        return range(self.start, self.end)

    def with_(self, **changes: object) -> "Gene":
        """Return a modified copy (mutation helper)."""
        return replace(self, **changes)  # type: ignore[arg-type]


class Schedule:
    """A full schedule: one gene per experiment, in problem order."""

    def __init__(self, problem: SchedulingProblem, genes: list[Gene]) -> None:
        if len(genes) != len(problem.experiments):
            raise ValidationError(
                f"schedule needs {len(problem.experiments)} genes, got {len(genes)}"
            )
        self.problem = problem
        self.genes = list(genes)

    def __iter__(self) -> Iterator[tuple[ExperimentSpec, Gene]]:
        return iter(zip(self.problem.experiments, self.genes))

    def __len__(self) -> int:
        return len(self.genes)

    def replaced(self, index: int, gene: Gene) -> "Schedule":
        """Copy of the schedule with gene *index* replaced."""
        genes = list(self.genes)
        genes[index] = gene
        return Schedule(self.problem, genes)

    def samples_collected(self, index: int) -> float:
        """Expected data points experiment *index* collects under its gene."""
        gene = self.genes[index]
        return (
            self.problem.window_volume(gene.start, gene.end, gene.groups)
            * gene.fraction
        )

    def consumption_per_slot(self) -> dict[int, float]:
        """Total request volume consumed per slot (Fig 3.3's second series)."""
        out: dict[int, float] = {}
        horizon = self.problem.horizon
        for index, gene in enumerate(self.genes):
            for slot in gene.slots():
                if slot >= horizon:
                    break
                volume = (
                    self.problem.group_volume(slot, gene.groups) * gene.fraction
                )
                out[slot] = out.get(slot, 0.0) + volume
        return out

    def group_usage(self) -> dict[tuple[int, str], float]:
        """Summed traffic fractions per (slot, group) — the overlap ledger."""
        usage: dict[tuple[int, str], float] = {}
        horizon = self.problem.horizon
        for gene in self.genes:
            for slot in gene.slots():
                if slot >= horizon:
                    break
                for group in gene.groups:
                    key = (slot, group)
                    usage[key] = usage.get(key, 0.0) + gene.fraction
        return usage

    def copy(self) -> "Schedule":
        """Shallow copy (genes are immutable)."""
        return Schedule(self.problem, list(self.genes))
