"""Property tests for the fleet layer.

Two contracts hold under adversarial inputs:

1. **No over-admission** — for any set of requests and reservations, in
   any arrival order, the admission controller never lets a (slot,
   group) cell exceed the budget, every request is accounted for exactly
   once (admitted, queued, or shed with a reason), and the decision is
   independent of arrival order.  Satellite of ISSUE 7's acceptance
   criteria: "per-slot admitted traffic never exceeds budgets under
   shuffled arrival orders".

2. **Crash-consistent recovery** — an orchestrator killed before an
   arbitrary fleet-WAL append and recovered from the surviving journals
   finishes with a result digest identical to the run that never
   crashed, injected engine faults and all.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bifrost.journal import Journal, MemoryJournalStorage
from repro.fleet.admission import AdmissionController, AdmissionRequest, usage_within_budget
from repro.fleet.orchestrator import ExperimentFaults, FleetOrchestrator, OrchestratorKilled
from repro.fleet.recovery import recover_fleet
from tests.unit.test_fleet_orchestrator import fast_config, make_schedule

GROUPS = ("eu", "na", "apac")


@st.composite
def admission_requests(draw):
    count = draw(st.integers(min_value=1, max_value=12))
    requests = []
    for i in range(count):
        group_mask = draw(
            st.lists(
                st.sampled_from(GROUPS), min_size=1, max_size=3, unique=True
            )
        )
        requests.append(
            AdmissionRequest(
                name=f"exp{i}",
                fraction=draw(
                    st.floats(min_value=0.01, max_value=1.0,
                              allow_nan=False, allow_infinity=False)
                ),
                groups=tuple(group_mask),
                weight=draw(st.floats(min_value=0.1, max_value=5.0,
                                      allow_nan=False)),
                latest_start=draw(
                    st.one_of(st.none(), st.integers(min_value=0, max_value=10))
                ),
                deferrals=draw(st.integers(min_value=0, max_value=6)),
            )
        )
    return requests


class TestNoOverAdmission:
    @given(
        requests=admission_requests(),
        reserved=admission_requests(),
        slot=st.integers(min_value=0, max_value=10),
        budget=st.floats(min_value=0.2, max_value=1.0, allow_nan=False),
        max_defer=st.one_of(st.none(), st.integers(min_value=0, max_value=5)),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_budget_and_accounting(
        self, requests, reserved, slot, budget, max_defer, order
    ):
        controller = AdmissionController(GROUPS, budget=budget,
                                         max_defer=max_defer)
        shuffled = list(requests)
        order.shuffle(shuffled)
        decision = controller.decide(slot, shuffled, reserved=reserved)

        # Every request lands in exactly one bucket; sheds carry reasons.
        landed = (
            list(decision.admitted)
            + list(decision.queued)
            + [name for name, _ in decision.shed]
        )
        assert sorted(landed) == sorted(r.name for r in requests)
        assert all(reason for _, reason in decision.shed)

        # The admitted set (reservations included) never overdraws any
        # group — *unless* the pre-existing reservations alone already
        # did, which admission cannot retroactively fix but must also
        # never worsen.
        reserved_usage = {g: 0.0 for g in GROUPS}
        for holder in reserved:
            for g in holder.groups:
                reserved_usage[g] += holder.fraction
        admitted_usage = dict(reserved_usage)
        by_name = {r.name: r for r in requests}
        for name in decision.admitted:
            for g in by_name[name].groups:
                admitted_usage[g] += by_name[name].fraction
        for g in GROUPS:
            if reserved_usage[g] <= budget:
                assert admitted_usage[g] <= budget + 1e-9
            else:
                assert admitted_usage[g] <= reserved_usage[g] + 1e-9
        # The reported usage matches the reconstruction (modulo float
        # summation order) and respects the budget whenever the
        # reservations themselves did.
        reported = dict(decision.usage)
        for g in GROUPS:
            assert abs(reported[g] - admitted_usage[g]) < 1e-6
        if usage_within_budget(reserved_usage, budget):
            assert usage_within_budget(reported, budget)

    @given(
        requests=admission_requests(),
        slot=st.integers(min_value=0, max_value=10),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_arrival_order_irrelevant(self, requests, slot, order):
        controller = AdmissionController(GROUPS, budget=1.0, max_defer=4)
        shuffled = list(requests)
        order.shuffle(shuffled)
        assert controller.decide(slot, requests) == controller.decide(
            slot, shuffled
        )


class TestCrashConsistency:
    @given(
        kill_at=st.integers(min_value=1, max_value=20),
        seed=st.integers(min_value=0, max_value=3),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_recovery_digest_equality(self, kill_at, seed):
        schedule = make_schedule(4, looper=0, looper_duration=6)
        config = fast_config(restart_max=2, seed=seed)
        faults = {
            "exp0": ExperimentFaults(crash_loop=True),
            "exp2": ExperimentFaults(check_error_slots=tuple(range(16))),
            "exp3": ExperimentFaults(crash_slots=(2,)),
        }
        world = {"exp1": 0.4}
        baseline = FleetOrchestrator(
            schedule, world=world, faults=faults, config=config
        ).run().digest()

        fleet_storage = MemoryJournalStorage()
        exp_storages: dict[str, MemoryJournalStorage] = {}

        def factory(name):
            storage = exp_storages.setdefault(name, MemoryJournalStorage())
            return Journal(storage)

        try:
            result = FleetOrchestrator(
                schedule,
                world=world,
                faults=faults,
                config=config,
                fleet_journal=Journal(fleet_storage),
                journal_factory=factory,
                crash_after_appends=kill_at,
            ).run()
            # The kill point lay beyond the run: nothing to recover.
            assert result.digest() == baseline
            return
        except OrchestratorKilled:
            pass

        recovered = recover_fleet(Journal(fleet_storage), factory)
        result = recovered.run()
        assert result.recovered
        assert result.digest() == baseline
