"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fenrir.fitness import evaluate
from repro.fenrir.model import ExperimentSpec, SchedulingProblem
from repro.fenrir.operators import pack_repair, random_schedule, repair_gene
from repro.fenrir.schedule import Gene
from repro.simulation.executor import SimulatedExecutor
from repro.simulation.rng import SeededRng
from repro.stats.descriptive import mean, median, percentile, stddev
from repro.stats.ranking import dcg, idcg, ndcg
from repro.stats.timeseries import TimeSeries
from repro.traffic.profile import TrafficProfile, UserGroup
from repro.toggles.store import FeatureToggle
from repro.traffic.users import bucket_user

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
samples = st.lists(finite_floats, min_size=1, max_size=60)
positive_samples = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=60
)


class TestDescriptiveProperties:
    @given(samples)
    def test_mean_between_min_and_max(self, xs):
        assert min(xs) - 1e-9 <= mean(xs) <= max(xs) + 1e-9

    @given(samples)
    def test_median_between_min_and_max(self, xs):
        assert min(xs) <= median(xs) <= max(xs)

    @given(samples)
    def test_stddev_nonnegative(self, xs):
        assert stddev(xs) >= 0.0

    @given(samples, st.floats(min_value=0, max_value=100))
    def test_percentile_monotone_in_q(self, xs, q):
        lower = percentile(xs, max(0.0, q - 10))
        upper = percentile(xs, min(100.0, q + 10))
        assert lower <= upper + 1e-9

    @given(samples)
    def test_shift_invariance_of_stddev(self, xs):
        shifted = [x + 100.0 for x in xs]
        assert stddev(shifted) == pytest_approx(stddev(xs))


def pytest_approx(value, rel=1e-6, absolute=1e-6):
    import pytest

    return pytest.approx(value, rel=rel, abs=absolute)


class TestNdcgProperties:
    grades = st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=20,
    )

    @given(grades)
    def test_ndcg_bounded(self, relevances):
        assert 0.0 <= ndcg(relevances) <= 1.0 + 1e-12

    @given(grades)
    def test_ideal_order_scores_one(self, relevances):
        ordered = sorted(relevances, reverse=True)
        assert ndcg(ordered) == pytest_approx(1.0)

    @given(grades)
    def test_dcg_never_exceeds_idcg(self, relevances):
        assert dcg(relevances) <= idcg(relevances) + 1e-9

    @given(grades, st.integers(min_value=1, max_value=25))
    def test_truncation_monotone(self, relevances, k):
        assert dcg(relevances, k) <= dcg(relevances) + 1e-9


class TestBucketingProperties:
    user_ids = st.text(min_size=1, max_size=20)

    @given(user_ids, st.text(min_size=1, max_size=10))
    def test_bucket_stable(self, user, salt):
        assert bucket_user(user, salt) == bucket_user(user, salt)

    @given(user_ids, st.text(min_size=1, max_size=10), st.integers(1, 1000))
    def test_bucket_in_range(self, user, salt, buckets):
        assert 0 <= bucket_user(user, salt, buckets) < buckets

    @given(
        user_ids,
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_rollout_monotone_in_fraction(self, user, f1, f2):
        low, high = min(f1, f2), max(f1, f2)
        if FeatureToggle("exp", "svc", rollout_fraction=low).evaluate(user):
            assert FeatureToggle("exp", "svc", rollout_fraction=high).evaluate(user)


class TestTimeSeriesProperties:
    points = st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1e4, allow_nan=False),
            finite_floats,
        ),
        min_size=1,
        max_size=50,
    )

    @given(points)
    def test_always_sorted(self, pts):
        series = TimeSeries()
        series.extend_columns(*map(list, zip(*pts)))
        times = series.timestamps
        assert times == sorted(times)

    @given(points)
    def test_window_subset_of_values(self, pts):
        series = TimeSeries()
        series.extend_columns(*map(list, zip(*pts)))
        window = series.window(100.0, 500.0)
        all_values = series.values
        for value in window:
            assert value in all_values

    @given(points)
    def test_full_window_returns_everything(self, pts):
        series = TimeSeries()
        series.extend_columns(*map(list, zip(*pts)))
        assert len(series.window(-1.0, 1e9)) == len(pts)


class TestExecutorProperties:
    tasks = st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=0, max_value=5, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    )

    @given(tasks)
    def test_fifo_no_overlap_and_nonnegative_delay(self, arrivals):
        executor = SimulatedExecutor()
        previous_finish = 0.0
        for arrival, cost in sorted(arrivals, key=lambda p: p[0]):
            record = executor.submit(arrival, cost)
            assert record.delay >= 0.0
            assert record.start >= previous_finish - 1e-12
            previous_finish = record.finish

    @given(tasks)
    def test_busy_time_equals_total_cost(self, arrivals):
        executor = SimulatedExecutor()
        total = 0.0
        for arrival, cost in sorted(arrivals, key=lambda p: p[0]):
            executor.submit(arrival, cost)
            total += cost
        assert executor.busy_time == pytest_approx(total)


@st.composite
def scheduling_problems(draw):
    """Random small scheduling problems with matching traffic."""
    n_groups = draw(st.integers(min_value=1, max_value=3))
    shares = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=1.0),
            min_size=n_groups,
            max_size=n_groups,
        )
    )
    total = sum(shares)
    groups = [
        UserGroup(f"g{i}", share / total) for i, share in enumerate(shares)
    ]
    horizon = draw(st.integers(min_value=8, max_value=24))
    volume = draw(st.floats(min_value=100, max_value=5000))
    profile = TrafficProfile([volume] * horizon, groups)
    n_specs = draw(st.integers(min_value=1, max_value=4))
    specs = []
    for i in range(n_specs):
        specs.append(
            ExperimentSpec(
                name=f"e{i}",
                required_samples=draw(
                    st.floats(min_value=1.0, max_value=volume * horizon * 0.05)
                ),
                min_duration_slots=draw(st.integers(1, 2)),
                max_duration_slots=draw(st.integers(4, horizon)),
                min_traffic_fraction=0.01,
                max_traffic_fraction=draw(st.floats(0.3, 0.9)),
                earliest_start=draw(st.integers(0, horizon // 2)),
            )
        )
    return SchedulingProblem(profile, specs)


class TestFenrirProperties:
    @settings(max_examples=30, deadline=None)
    @given(scheduling_problems(), st.integers(0, 1000))
    def test_repair_gene_always_in_bounds(self, problem, seed):
        rng = SeededRng(seed)
        for spec in problem.experiments:
            wild = Gene(
                rng.randint(0, problem.horizon * 2),
                rng.randint(1, problem.horizon * 2),
                rng.uniform(1e-6, 1.0),
                frozenset({problem.profile.group_names[0]}),
            )
            repaired = repair_gene(problem, spec, wild)
            assert repaired.end <= problem.horizon
            assert repaired.duration >= spec.min_duration_slots
            assert (
                spec.min_traffic_fraction
                <= repaired.fraction
                <= spec.max_traffic_fraction
            )

    @settings(max_examples=30, deadline=None)
    @given(scheduling_problems(), st.integers(0, 1000))
    def test_pack_repair_never_oversubscribes_placed_genes(self, problem, seed):
        rng = SeededRng(seed)
        schedule = random_schedule(problem, rng, packed=False)
        packed = pack_repair(schedule, rng)
        evaluation = evaluate(packed)
        # pack_repair may fail to place genes (penalized), but whenever it
        # claims validity the schedule truly satisfies every constraint.
        if evaluation.valid:
            usage = packed.group_usage()
            assert all(v <= 1.0 + 1e-9 for v in usage.values())

    @settings(max_examples=30, deadline=None)
    @given(scheduling_problems(), st.integers(0, 1000))
    def test_evaluation_consistency(self, problem, seed):
        rng = SeededRng(seed)
        schedule = random_schedule(problem, rng)
        evaluation = evaluate(schedule)
        assert evaluation.valid == (len(evaluation.violations) == 0)
        assert 0.0 <= evaluation.fitness <= 1.0
        assert not math.isnan(evaluation.penalized)
        if evaluation.valid:
            # Strict fitness equals the weighted objective score.
            total_weight = sum(s.weight for s in problem.experiments)
            raw = sum(evaluation.per_experiment) / total_weight
            assert evaluation.fitness == pytest_approx(raw)
