"""Property: ``pack_repair`` is bit-identical to its per-cell reference.

``pack_repair`` reads capacity off one usage column per group with
slices; :func:`reference_pack_repair` below is the implementation it
replaced, kept verbatim as the oracle.  For every ``(schedule, seed,
locked)`` the two must return genes equal by ``==`` on every field
(floats included) and leave the RNG in the same state.  The search
algorithms built on top must then not be able to tell the two apart.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fenrir import annealing, genetic, local_search, operators
from repro.fenrir.annealing import SimulatedAnnealing
from repro.fenrir.generator import SampleSizeBand, random_experiments
from repro.fenrir.genetic import GeneticAlgorithm
from repro.fenrir.local_search import LocalSearch
from repro.fenrir.model import ExperimentSpec, SchedulingProblem
from repro.fenrir.operators import (
    mutate_gene,
    pack_repair,
    random_schedule,
    repair_gene,
    required_fraction,
)
from repro.fenrir.random_sampling import RandomSampling
from repro.fenrir.schedule import Gene, Schedule
from repro.simulation.rng import SeededRng
from repro.traffic.profile import TrafficProfile, UserGroup, diurnal_profile, flat_profile
from tests.property.test_properties import scheduling_problems


def reference_pack_repair(
    schedule: Schedule, rng: SeededRng, locked: frozenset[int] = frozenset()
) -> Schedule:
    """``pack_repair`` as it was before the column rewrite (the oracle)."""
    problem = schedule.problem
    horizon = problem.horizon
    group_names = problem.group_names
    n_groups = len(group_names)
    group_index = problem.group_index
    free = [i for i in range(len(schedule.genes)) if i not in locked]
    rng.shuffle(free)
    # Locked genes claim their capacity first and are never moved.
    order = [i for i in range(len(schedule.genes)) if i in locked] + free
    # Flat usage array indexed [slot * n_groups + group] — the hot loop.
    usage = [0.0] * (horizon * n_groups)
    new_genes: list[Gene | None] = [None] * len(schedule.genes)

    def scan(start: int, end: int, gidxs: list[int]) -> tuple[float, int | None]:
        """(min remaining capacity, first partially-used slot) in window."""
        left = 1.0
        first_partial: int | None = None
        for slot in range(start, min(end, horizon)):
            base = slot * n_groups
            for gi in gidxs:
                available = 1.0 - usage[base + gi]
                if available < left:
                    left = available
                if available < 1.0 - 1e-12 and first_partial is None:
                    first_partial = slot
        return left, first_partial

    def commit(index: int, gene: Gene) -> None:
        new_genes[index] = gene
        gidxs = [group_index[g] for g in gene.groups]
        for slot in range(gene.start, min(gene.end, horizon)):
            base = slot * n_groups
            for gi in gidxs:
                usage[base + gi] += gene.fraction

    def feasible_at(
        spec: ExperimentSpec, gene: Gene, start: int, duration: int, left: float
    ) -> Gene | None:
        """A sample-feasible, capacity-respecting gene, or None."""
        if left <= 0:
            return None
        needed = required_fraction(problem, spec, start, duration, gene.groups)
        fraction = min(
            max(gene.fraction, needed, spec.min_traffic_fraction),
            spec.max_traffic_fraction,
            left,
        )
        if fraction >= needed and fraction >= spec.min_traffic_fraction:
            return Gene(start, duration, fraction, gene.groups)
        return None

    for index in order:
        spec = problem.experiments[index]
        gene = schedule.genes[index]
        if index in locked:
            commit(index, gene)
            continue
        gidxs = [group_index[g] for g in gene.groups]
        placed = False
        start = gene.start
        while start + spec.min_duration_slots <= horizon:
            duration = min(gene.duration, horizon - start)
            left, partial = scan(start, start + duration, gidxs)
            candidate = feasible_at(spec, gene, start, duration, left)
            if candidate is None:
                # A longer window needs a smaller fraction; retry at the
                # maximal duration before giving up on this start.
                max_dur = min(spec.max_duration_slots, horizon - start)
                if max_dur > duration:
                    ext_left, _ = scan(start + duration, start + max_dur, gidxs)
                    candidate = feasible_at(
                        spec, gene, start, max_dur, min(left, ext_left)
                    )
            if candidate is not None:
                commit(index, candidate)
                placed = True
                break
            start = (partial if partial is not None else start) + 1
        if not placed:
            # Nowhere to fit: keep the (repaired) original plan; the
            # evaluation penalty steers the search away from it.
            commit(index, repair_gene(problem, spec, gene))
    assert all(g is not None for g in new_genes)
    return Schedule(problem, [g for g in new_genes if g is not None])


def assert_equivalent(
    schedule: Schedule, seed: int, locked: frozenset[int] = frozenset()
) -> Schedule:
    """Both implementations on one input; returns the shipped one's result."""
    rng, reference_rng = SeededRng(seed), SeededRng(seed)
    expected = reference_pack_repair(schedule, reference_rng, locked)
    actual = pack_repair(schedule, rng, locked)
    assert actual.genes == expected.genes  # dataclass ==: every float exactly
    assert rng.raw.getstate() == reference_rng.raw.getstate()
    return actual


def mutated(schedule: Schedule, rng: SeededRng, count: int) -> Schedule:
    """*schedule* with *count* random genes mutated — the GA's repair input."""
    problem = schedule.problem
    for _ in range(count):
        index = rng.randint(0, len(schedule.genes) - 1)
        gene = mutate_gene(problem, problem.experiments[index], schedule.genes[index], rng)
        schedule = schedule.replaced(index, gene)
    return schedule


@st.composite
def dense_problems(draw):
    """Instances built like the ``plan_schedule`` workload's, at every size."""
    profile = draw(st.builds(diurnal_profile, days=st.integers(1, 7), seed=st.integers(0, 50)))
    specs = random_experiments(
        profile,
        draw(st.integers(5, 40)),
        draw(st.sampled_from(list(SampleSizeBand))),
        seed=draw(st.integers(0, 50)),
    )
    return SchedulingProblem(profile, specs)


@st.composite
def repair_inputs(draw, problems):
    """(schedule, seed, locked) in one of the shapes repair meets or dreads."""
    problem = draw(problems)
    rng = SeededRng(draw(st.integers(0, 10_000)))
    shape = draw(st.sampled_from(["unpacked", "packed", "mutated", "crowded", "late"]))
    schedule = random_schedule(problem, rng, packed=shape in ("packed", "mutated"))
    if shape == "mutated":
        schedule = mutated(schedule, rng, draw(st.integers(1, 4)))
    elif shape == "crowded":
        # Everyone as early as allowed: long walks, and fallbacks when dense.
        schedule = Schedule(
            problem, [g.with_(start=spec.earliest_start) for spec, g in schedule]
        )
    elif shape == "late":
        # Starts in the last slots: clipped windows and the horizon fallback.
        back = draw(st.integers(1, 8))
        schedule = Schedule(
            problem, [g.with_(start=max(0, problem.horizon - back)) for g in schedule.genes]
        )
    # Any subset may be locked — of an unpacked schedule too, where the
    # locked genes alone can oversubscribe, as running experiments handed
    # to reevaluation can.
    locked = draw(st.frozensets(st.integers(0, len(schedule.genes) - 1)))
    return schedule, draw(st.integers(0, 10_000)), locked


class TestEquivalenceProperty:
    @settings(max_examples=150, deadline=None)
    @given(repair_inputs(scheduling_problems()))
    def test_small_problems(self, case):
        assert_equivalent(*case)

    @settings(max_examples=200, deadline=None)
    @given(repair_inputs(dense_problems()))
    def test_dense_problems(self, case):
        assert_equivalent(*case)


GROUPS = (UserGroup("eu", 0.6), UserGroup("na", 0.4))
EU = frozenset({"eu"})


def pinned_problem(horizon: int, *specs: ExperimentSpec) -> SchedulingProblem:
    """Flat 1000 requests/slot, so ``eu`` carries 600 per slot."""
    return SchedulingProblem(flat_profile(horizon, 1000.0, GROUPS), list(specs))


def blocker(name: str = "blocker") -> ExperimentSpec:
    """Spec of a gene that is locked in place to use up capacity."""
    return ExperimentSpec(name, required_samples=1.0, max_traffic_fraction=1.0)


class TestPinnedBranches:
    """One hand-built case per branch of the walk."""

    def test_first_window_fit_returns_the_input_genes(self):
        spec = ExperimentSpec("a", 600.0, 2, 10)
        problem = pinned_problem(24, spec, ExperimentSpec("b", 600.0, 2, 10))
        genes = [Gene(0, 5, 0.3, EU), Gene(5, 5, 0.3, EU)]
        packed = assert_equivalent(Schedule(problem, genes), seed=1)
        assert all(after is before for after, before in zip(packed.genes, genes))

    def test_fraction_thinned_to_remaining_capacity(self):
        problem = pinned_problem(24, blocker(), ExperimentSpec("a", 600.0, 2, 10))
        genes = [Gene(0, 10, 0.7, EU), Gene(0, 10, 0.5, EU)]
        packed = assert_equivalent(Schedule(problem, genes), 2, frozenset({0}))
        assert packed.genes[1] == Gene(0, 10, 1.0 - 0.7, EU)

    def test_extension_to_max_duration(self):
        # 500 samples need 0.208 of eu over 4 slots but 0.042 over 20; 0.1 is left.
        spec = ExperimentSpec("a", 500.0, 2, 20)
        problem = pinned_problem(24, blocker(), spec)
        genes = [Gene(0, 24, 0.9, EU), Gene(0, 4, 0.3, EU)]
        packed = assert_equivalent(Schedule(problem, genes), 3, frozenset({0}))
        assert packed.genes[1] == Gene(0, 20, 1.0 - 0.9, EU)

    def test_refused_when_the_extension_is_full(self):
        # The first window has room but not enough; the extension hits a
        # full slot, which refuses the extended attempt as well.
        spec = ExperimentSpec("a", 500.0, 2, 8)
        problem = pinned_problem(24, blocker(), blocker("wall"), spec)
        genes = [Gene(0, 12, 0.9, EU), Gene(6, 6, 0.1, EU), Gene(0, 4, 0.3, EU)]
        packed = assert_equivalent(Schedule(problem, genes), 4, frozenset({0, 1}))
        assert packed.genes[2].start == 12

    def test_long_walk(self):
        # Full for 20 slots, then 0.4 left for 20 more: 0.45 needed, so
        # neither fits; 40 candidate starts later the gene lands on free slots.
        spec = ExperimentSpec("a", 810.0, 2, 3)
        problem = pinned_problem(48, blocker(), blocker("half"), spec)
        genes = [Gene(0, 20, 1.0, EU), Gene(20, 20, 0.6, EU), Gene(0, 3, 0.45, EU)]
        packed = assert_equivalent(Schedule(problem, genes), 5, frozenset({0, 1}))
        assert packed.genes[2] == Gene(40, 3, 0.45, EU)

    def test_walk_jumps_only_past_the_first_partial_slot(self):
        # Slots 0-1 are free, 2-9 full.  From start 0 the walk must resume
        # at 3 (first partial slot + 1), not at 1 and not past the block.
        spec = ExperimentSpec("a", 600.0, 3, 3)
        problem = pinned_problem(24, blocker(), spec)
        genes = [Gene(2, 8, 1.0, EU), Gene(0, 3, 0.4, EU)]
        packed = assert_equivalent(Schedule(problem, genes), 6, frozenset({0}))
        assert packed.genes[1] == Gene(10, 3, 0.4, EU)

    def test_extension_scan_never_steers_the_jump(self):
        # Slot 0 carries next to no traffic, so [0, 2) is empty yet too
        # thin; the extension to 4 slots meets the full slot 3.  The next
        # start is 1 — the full slot lies outside the *first* window.
        spec = ExperimentSpec("a", 600.0, 2, 4, max_traffic_fraction=0.6)
        profile = TrafficProfile([10.0] + [1000.0] * 23, GROUPS)
        problem = SchedulingProblem(profile, [blocker(), spec])
        genes = [Gene(3, 1, 1.0, EU), Gene(0, 2, 0.5, EU)]
        packed = assert_equivalent(Schedule(problem, genes), 12, frozenset({0}))
        assert (packed.genes[1].start, packed.genes[1].duration) == (1, 2)

    def test_nowhere_fits_falls_back_to_the_repaired_gene(self):
        spec = ExperimentSpec("a", 600.0, 2, 10)
        problem = pinned_problem(24, blocker(), spec)
        genes = [Gene(0, 24, 1.0, EU), Gene(3, 5, 0.3, EU)]
        packed = assert_equivalent(Schedule(problem, genes), 7, frozenset({0}))
        assert packed.genes[1] == repair_gene(problem, spec, genes[1])
        assert packed.genes[1] == genes[1]

    def test_fallback_may_widen_the_groups(self):
        # 0.5 of eu over 4 slots is 1200 samples at most; repair widens to na.
        spec = ExperimentSpec("a", 1500.0, 2, 4)
        problem = pinned_problem(24, blocker(), spec, ExperimentSpec("b", 100.0, 2, 4))
        genes = [Gene(0, 24, 1.0, EU), Gene(0, 4, 0.5, EU), Gene(0, 4, 0.2, frozenset({"na"}))]
        packed = assert_equivalent(Schedule(problem, genes), 8, frozenset({0}))
        assert packed.genes[1].groups == frozenset({"eu", "na"})

    def test_start_within_min_duration_of_the_horizon(self):
        spec = ExperimentSpec("a", 600.0, 4, 10)
        problem = pinned_problem(24, spec)
        gene = Gene(22, 4, 0.3, EU)
        packed = assert_equivalent(Schedule(problem, [gene]), seed=9)
        assert packed.genes[0] == repair_gene(problem, spec, gene)
        assert packed.genes[0].start == 20

    def test_window_clipped_at_the_horizon(self):
        spec = ExperimentSpec("a", 600.0, 2, 10)
        problem = pinned_problem(24, spec)
        packed = assert_equivalent(Schedule(problem, [Gene(20, 10, 0.5, EU)]), seed=10)
        assert packed.genes[0] == Gene(20, 4, 0.5, EU)

    def test_locked_genes_that_oversubscribe_on_their_own(self):
        spec = ExperimentSpec("a", 600.0, 2, 10)
        problem = pinned_problem(24, blocker(), blocker("twin"), spec)
        # Slots 6-11 carry 1.4: remaining capacity there is negative.
        genes = [Gene(0, 12, 0.7, EU), Gene(6, 30, 0.7, EU), Gene(4, 5, 0.5, EU)]
        packed = assert_equivalent(Schedule(problem, genes), 11, frozenset({0, 1}))
        assert all(after is before for after, before in zip(packed.genes[:2], genes))
        assert packed.genes[2] == Gene(12, 5, 1.0 - 0.7, EU)


ALGORITHMS = {
    "ga": lambda: GeneticAlgorithm(population_size=12),
    "local": LocalSearch,
    "annealing": SimulatedAnnealing,
    "random": RandomSampling,
}
INSTANCES = {
    "15-medium": (15, SampleSizeBand.MEDIUM, 150),
    "40-high": (40, SampleSizeBand.HIGH, 120),
}


class TestAlgorithmsSeeNoDifference:
    """A whole search is the same search on either repair."""

    @pytest.mark.parametrize("restart", [False, True], ids=["fresh", "initial+locked"])
    @pytest.mark.parametrize("instance", INSTANCES)
    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_search_result_equal(self, name, instance, restart, monkeypatch):
        count, band, budget = INSTANCES[instance]
        profile = diurnal_profile(days=7, seed=11)
        problem = SchedulingProblem(profile, random_experiments(profile, count, band, seed=21))
        initial, locked = None, frozenset()
        if restart:
            initial = random_schedule(problem, SeededRng(5))
            locked = frozenset(range(0, count, 4))

        def search():
            return ALGORITHMS[name]().optimize(
                problem, budget=budget, seed=3, initial=initial, locked=locked
            )

        shipped = search()
        # random_sampling reaches pack_repair through operators.random_schedule.
        for module in (operators, genetic, local_search, annealing):
            monkeypatch.setattr(module, "pack_repair", reference_pack_repair)
        reference = search()

        assert shipped.history == reference.history
        assert shipped.best_schedule.genes == reference.best_schedule.genes
        assert shipped.fitness == reference.fitness
        assert shipped.evaluations_used == reference.evaluations_used
        for counter in ("full_evals", "delta_evals", "cache_hits"):
            assert getattr(shipped.eval_stats, counter) == getattr(
                reference.eval_stats, counter
            ), counter
