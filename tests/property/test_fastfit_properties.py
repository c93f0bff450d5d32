"""Property: the memoized scorer is exactly the reference evaluation.

For random problems and random chains of search children — mutation,
crossover and ``pack_repair`` — one :class:`Scorer` held across the whole
chain (so its per-gene memo is warm) must return evaluations *equal* to a
fresh :func:`evaluate` — same fitness, penalized score, validity,
violations (as sequences, hence also as multisets), and per-experiment
scores.  Genes are deliberately allowed to be infeasible (beyond the
horizon, out of bounds, oversubscribed) so every violation kind flows
through the scorer.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fenrir import fastfit
from repro.fenrir.fastfit import Scorer
from repro.fenrir.fitness import FitnessWeights, evaluate
from repro.fenrir.model import ExperimentSpec, SchedulingProblem
from repro.fenrir.operators import crossover, mutate_gene, pack_repair, random_schedule
from repro.fenrir.schedule import Gene, Schedule
from repro.simulation.rng import SeededRng
from repro.traffic.profile import UserGroup, flat_profile

GROUP_NAMES = ("alpha", "beta", "gamma", "delta")


@st.composite
def problems(draw):
    n_groups = draw(st.integers(min_value=1, max_value=4))
    shares = draw(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0),
            min_size=n_groups,
            max_size=n_groups,
        )
    )
    total = sum(shares)
    groups = tuple(
        UserGroup(name, share / total)
        for name, share in zip(GROUP_NAMES, shares)
    )
    num_slots = draw(st.integers(min_value=6, max_value=28))
    volume = draw(st.floats(min_value=10.0, max_value=5000.0))
    profile = flat_profile(num_slots, volume, groups)

    n_exp = draw(st.integers(min_value=1, max_value=6))
    specs = []
    names = [g.name for g in groups]
    for i in range(n_exp):
        min_dur = draw(st.integers(min_value=1, max_value=4))
        max_dur = draw(st.integers(min_value=min_dur, max_value=num_slots))
        min_frac = draw(st.floats(min_value=0.01, max_value=0.3))
        max_frac = draw(st.floats(min_value=min_frac, max_value=1.0))
        preferred = draw(
            st.frozensets(st.sampled_from(names), max_size=len(names))
        )
        specs.append(
            ExperimentSpec(
                name=f"exp-{i}",
                required_samples=draw(st.floats(min_value=1.0, max_value=1e5)),
                min_duration_slots=min_dur,
                max_duration_slots=max_dur,
                min_traffic_fraction=min_frac,
                max_traffic_fraction=max_frac,
                preferred_groups=preferred,
                earliest_start=draw(
                    st.integers(min_value=0, max_value=num_slots - 1)
                ),
                weight=draw(st.floats(min_value=0.1, max_value=5.0)),
            )
        )
    return SchedulingProblem(profile, specs)


def raw_genes(problem: SchedulingProblem):
    """Arbitrary (possibly infeasible, possibly horizon-clipped) genes."""
    names = list(problem.group_names)
    horizon = problem.horizon
    return st.builds(
        Gene,
        start=st.integers(min_value=0, max_value=horizon + 4),
        duration=st.integers(min_value=1, max_value=horizon + 4),
        fraction=st.floats(min_value=0.001, max_value=1.0),
        groups=st.frozensets(
            st.sampled_from(names), min_size=1, max_size=len(names)
        ),
    )


#: One step of a chain: a child of the previous schedule and a pool member.
MOVES = ("mutate", "crossover", "repair", "patch")


@st.composite
def search_chains(draw):
    """A problem, a pool of starting schedules, and a chain of moves."""
    problem = draw(problems())
    gene = raw_genes(problem)
    n = len(problem.experiments)
    pool = [
        Schedule(problem, draw(st.lists(gene, min_size=n, max_size=n)))
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    steps = draw(
        st.lists(
            st.tuples(
                st.sampled_from(MOVES),
                st.integers(min_value=0, max_value=n - 1),
                gene,
            ),
            min_size=1,
            max_size=12,
        )
    )
    return problem, pool, steps, draw(st.integers(min_value=0, max_value=2**16))


def chain(problem, pool, steps, seed):
    """The schedules a search would score: the pool, then one child a step."""
    rng = SeededRng(seed)
    yield from pool
    current = pool[0]
    for move, index, gene in steps:
        if move == "mutate":
            spec = problem.experiments[index]
            current = current.replaced(
                index, mutate_gene(problem, spec, current.genes[index], rng)
            )
        elif move == "crossover":
            current, _ = crossover(current, pool[index % len(pool)], rng)
        elif move == "repair":
            current = pack_repair(current, rng)
        else:
            current = current.replaced(index, gene)
        yield current


def assert_equivalent(got, want):
    assert got.fitness == want.fitness
    assert got.penalized == want.penalized
    assert got.valid == want.valid
    assert got.per_experiment == want.per_experiment
    assert got.violations == want.violations
    assert Counter(got.violations) == Counter(want.violations)
    assert got == want


class TestScorerExactness:
    @settings(max_examples=60, deadline=None)
    @given(search_chains())
    def test_chain_equals_reference(self, case):
        problem, pool, steps, seed = case
        scorer = Scorer(problem)
        for schedule in chain(problem, pool, steps, seed):
            assert_equivalent(scorer.evaluate(schedule), evaluate(schedule))

    @settings(max_examples=30, deadline=None)
    @given(search_chains())
    def test_nondefault_weights(self, case):
        problem, pool, steps, seed = case
        weights = FitnessWeights(duration=0.2, start=0.3, coverage=0.5)
        scorer = Scorer(problem, weights)
        for schedule in chain(problem, pool, steps, seed):
            assert_equivalent(scorer.evaluate(schedule), evaluate(schedule, weights))


def one_group_problem(n_experiments: int, num_slots: int = 4) -> SchedulingProblem:
    profile = flat_profile(num_slots, 100.0, (UserGroup("all", 1.0),))
    specs = [ExperimentSpec(f"exp-{i}", 10.0) for i in range(n_experiments)]
    return SchedulingProblem(profile, specs)


class CollidingName(str):
    """A group name hashing like every other: sets of them iterate in
    insertion order, so equal sets can iterate differently — as any hash
    seed can make real names do."""

    def __hash__(self):
        return 0


def colliding_problem() -> tuple[SchedulingProblem, tuple[str, ...]]:
    names = tuple(map(CollidingName, "abcd"))
    groups = [UserGroup(name, share) for name, share in zip(names, (0.1, 0.2, 0.3, 0.4))]
    problem = SchedulingProblem(
        flat_profile(4, 1000.0, groups), [ExperimentSpec("x", 5000.0)]
    )
    return problem, names


class TestPinnedCases:
    def test_usage_is_summed_in_gene_order(self):
        # 0.1 + 0.7 + 0.3 is 1.0999999999999999 left to right and 1.1
        # right to left: the overlap penalty tells the two orders apart.
        problem = one_group_problem(3)
        all_ = frozenset({"all"})
        schedule = Schedule(
            problem, [Gene(0, 1, f, all_) for f in (0.1, 0.7, 0.3)]
        )
        assert schedule.group_usage()[(0, "all")] == 1.0999999999999999
        want = evaluate(schedule)
        assert_equivalent(Scorer(problem).evaluate(schedule), want)
        reversed_order = Schedule(problem, schedule.genes[::-1])
        assert evaluate(reversed_order).penalized != want.penalized

    def test_memo_clears_do_not_change_results(self, monkeypatch):
        monkeypatch.setattr(fastfit, "_MEMO_LIMIT", 2)
        problem = SchedulingProblem(
            flat_profile(24, 500.0),
            [ExperimentSpec(f"exp-{i}", 2000.0, 2, 12) for i in range(5)],
        )
        rng = SeededRng(3)
        scorer = Scorer(problem)
        schedules = [random_schedule(problem, rng, packed=i % 2 == 0) for i in range(6)]
        for first, second in zip(schedules, schedules[1:]):
            child, _ = crossover(first, second, rng)
            for schedule in (first, child, pack_repair(child, rng)):
                assert_equivalent(scorer.evaluate(schedule), evaluate(schedule))
                assert len(scorer._memo) <= 2

    def test_group_share_sums_in_profile_order(self):
        _, (a, b, c, _) = colliding_problem()
        forward, backward = frozenset([a, b, c]), frozenset([c, b, a])
        assert list(forward) != list(backward)
        for groups in (backward, forward):
            problem, _ = colliding_problem()  # a fresh group_share memo
            # 0.1 + 0.2 + 0.3 is 0.6000000000000001; 0.3 + 0.2 + 0.1 is 0.6.
            assert problem.group_share(groups) == (0.1 + 0.2) + 0.3

    def test_equal_genes_any_order_share_an_entry(self):
        problem, (a, b, c, _) = colliding_problem()
        forward = Schedule(problem, [Gene(0, 3, 0.5, frozenset([a, b, c]))])
        backward = Schedule(problem, [Gene(0, 3, 0.5, frozenset([c, b, a]))])
        assert evaluate(forward) == evaluate(backward)
        scorer = Scorer(problem)
        for schedule in (forward, backward, forward):
            assert_equivalent(scorer.evaluate(schedule), evaluate(schedule))
        assert len(scorer._memo) == 1  # one _parts call served both genes

    @pytest.mark.parametrize("start", [3, 4, 9], ids=["clipped", "at-horizon", "beyond"])
    def test_genes_past_the_horizon(self, start):
        problem = one_group_problem(2)
        all_ = frozenset({"all"})
        schedule = Schedule(problem, [Gene(start, 3, 0.6, all_), Gene(0, 4, 0.6, all_)])
        assert_equivalent(Scorer(problem).evaluate(schedule), evaluate(schedule))
