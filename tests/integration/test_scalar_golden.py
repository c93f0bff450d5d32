"""Golden digests of scalar ``Bifrost.run``: the hop's absolute oracle.

``Runtime.execute`` and ``run_batches`` drive one hop implementation, so
their equality (``tests/property/test_batch_equivalence.py``) no longer
says what the hop *should* draw.  The constants below were recorded from
the last commit that still had the independent scalar implementation
(``Runtime._dispatch``/``_call``), over a fixed-seed matrix of every
hostile feature; a change to the draw order, the float association, the
breaker bookkeeping or the span/version order of any hop moves at least
one of them.  Regenerate (``python tests/integration/test_scalar_golden.py``)
only for a change that is *meant* to alter request-path behaviour.
"""

import hashlib

import pytest

from repro.exec.recording import run_digest
from repro.routing.proxy import RoutingDecision
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator

from tests.property.test_batch_equivalence import (
    UNTIL,
    Hostile,
    build_bifrost,
    dump_traces,
    make_workload,
)


class _ParityRouter:
    """A router the kernel cannot inspect: even-numbered users get the
    catalog canary behind two proxies, odd ones shadow inventory 2.0.0."""

    def route(self, request, service):
        even = int(request.user_id[1:]) % 2 == 0
        if service == "catalog" and even:
            return RoutingDecision(version="2.0.0", proxy_hops=2)
        if service == "inventory" and not even:
            return RoutingDecision(shadow_versions=("2.0.0", "9.9.9"), proxy_hops=1)
        return RoutingDecision()


def _use_parity_router(bifrost):
    bifrost.runtime.router = _ParityRouter()


# name -> (params, hostile, extra set-up); params are (canary_error,
# call_probability, parallel, fraction, workload seed, arrival kind).
CASES = {
    "clean": ((0.01, 0.6, False, 0.1, 5, "poisson"), Hostile(), None),
    "shadow-all": ((0.0, 1.0, False, 0.3, 17, "poisson"), Hostile(shadow="all"), None),
    "shadow-group": (
        (0.05, 0.6, True, 0.3, 23, "heavy_tail"),
        Hostile(shadow=DEFAULT_GROUPS[0].name),
        None,
    ),
    "retry-jitter": ((0.4, 1.0, False, 0.3, 11, "poisson"), Hostile(policy="retry"), None),
    "fallback": ((0.4, 1.0, True, 0.3, 31, "poisson"), Hostile(policy="fallback"), None),
    "breaker": (
        (0.4, 1.0, False, 0.3, 11, "poisson"),
        Hostile(policy="retry", breaker=True),
        None,
    ),
    "partition": ((0.0, 0.6, False, 0.3, 37, "poisson"), Hostile(partition=True), None),
    "faults": ((0.0, 1.0, False, 0.1, 99, "poisson"), Hostile(faults=True), None),
    "subscriber": ((0.01, 1.0, False, 0.3, 41, "poisson"), Hostile(subscriber=True), None),
    "custom-router": ((0.05, 0.6, False, 0.3, 43, "poisson"), Hostile(), _use_parity_router),
    "everything": (
        (0.4, 0.6, True, 0.3, 53, "heavy_tail"),
        Hostile(
            shadow="all",
            policy="retry",
            breaker=True,
            partition=True,
            faults=True,
            subscriber=True,
            live_health=True,
        ),
        None,
    ),
}


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def observe(name: str) -> dict:
    """Drive one case through scalar ``Bifrost.run`` and summarize it."""
    params, hostile, extra = CASES[name]
    bifrost, _, seen = build_bifrost(params, hostile)
    if extra is not None:
        extra(bifrost)
    generator = WorkloadGenerator(
        UserPopulation(300, DEFAULT_GROUPS, seed=1),
        entry="frontend.index",
        seed=params[4],
    )
    outcomes = bifrost.run(make_workload(generator, params[5]), until=UNTIL)
    paths = [outcome.version_path for outcome in outcomes]
    transitions = [
        (t.time, t.service, t.version, t.source.value, t.target.value)
        for t in bifrost.resilience.breaker_transitions()
    ]
    return {
        "run_digest": run_digest(bifrost.store, bifrost.engine.executions)[:16],
        "resilience_events": len(bifrost.resilience.events),
        "breaker_transitions": (len(transitions), _sha(transitions)),
        "version_paths": (sum(map(len, paths)), _sha(paths)),
        "traces": _sha(dump_traces(bifrost.collector)),
        "subscriber_stream": _sha(seen),
    }


GOLDEN = {
    "clean": {
        "run_digest": "33a826065ebf9f1e",
        "resilience_events": 0,
        "breaker_transitions": (0, "4f53cda18c2baa0c"),
        "version_paths": (1726, "bbc27e4f3f2ab3ed"),
        "traces": "91e66a03f53585e3",
        "subscriber_stream": "4f53cda18c2baa0c",
    },
    "shadow-all": {
        "run_digest": "be581bf4df272525",
        "resilience_events": 0,
        "breaker_transitions": (0, "4f53cda18c2baa0c"),
        "version_paths": (1980, "1c2aa07010dbb3f4"),
        "traces": "b88a713969213048",
        "subscriber_stream": "4f53cda18c2baa0c",
    },
    "shadow-group": {
        "run_digest": "62d2302f3d7e07b6",
        "resilience_events": 0,
        "breaker_transitions": (0, "4f53cda18c2baa0c"),
        "version_paths": (1776, "89242b75266b5266"),
        "traces": "10018ea7951e1901",
        "subscriber_stream": "4f53cda18c2baa0c",
    },
    "retry-jitter": {
        "run_digest": "ca129ea943ff7e4e",
        "resilience_events": 22,
        "breaker_transitions": (0, "4f53cda18c2baa0c"),
        "version_paths": (1924, "575338e3f4348892"),
        "traces": "d44e69e87f9ce486",
        "subscriber_stream": "4f53cda18c2baa0c",
    },
    "fallback": {
        "run_digest": "0135d72e8154dda2",
        "resilience_events": 15,
        "breaker_transitions": (0, "4f53cda18c2baa0c"),
        "version_paths": (1898, "8c1860428a8006ea"),
        "traces": "7cb97eacd0111167",
        "subscriber_stream": "4f53cda18c2baa0c",
    },
    "breaker": {
        "run_digest": "067a4b37701b496c",
        "resilience_events": 117,
        "breaker_transitions": (8, "4cf7fb4739751d82"),
        "version_paths": (1655, "d8f5f40f0b28580a"),
        "traces": "3369593de6597c75",
        "subscriber_stream": "4f53cda18c2baa0c",
    },
    "partition": {
        "run_digest": "ce41fb35b18c2d9f",
        "resilience_events": 0,
        "breaker_transitions": (0, "4f53cda18c2baa0c"),
        "version_paths": (1822, "c3208cfed3d8b3d6"),
        "traces": "f2621e78358359a6",
        "subscriber_stream": "4f53cda18c2baa0c",
    },
    "faults": {
        "run_digest": "06d89e1abfe8a218",
        "resilience_events": 0,
        "breaker_transitions": (0, "4f53cda18c2baa0c"),
        "version_paths": (2004, "f859970a4bcc0a60"),
        "traces": "2c492a376f204d8c",
        "subscriber_stream": "4f53cda18c2baa0c",
    },
    "subscriber": {
        "run_digest": "f81ee8a3a8da6963",
        "resilience_events": 0,
        "breaker_transitions": (0, "4f53cda18c2baa0c"),
        "version_paths": (1972, "cf86477e4499bec2"),
        "traces": "7755a0587d5e5f7b",
        "subscriber_stream": "1900ba050c0858dc",
    },
    "custom-router": {
        "run_digest": "8b3fcfa15478ba44",
        "resilience_events": 0,
        "breaker_transitions": (0, "4f53cda18c2baa0c"),
        "version_paths": (1865, "9f8b6a02642a99c1"),
        "traces": "6f9c2683db202bda",
        "subscriber_stream": "4f53cda18c2baa0c",
    },
    "everything": {
        "run_digest": "6f34d9651053b860",
        "resilience_events": 384,
        "breaker_transitions": (44, "362624d6655ffdce"),
        "version_paths": (1142, "4db7c2b4d59dfd41"),
        "traces": "8ddca37c45e5c150",
        "subscriber_stream": "ab32260a76b655b3",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_scalar_run_matches_the_recorded_bytes(name):
    assert observe(name) == GOLDEN[name]


def test_the_matrix_reaches_every_branch():
    """The golden cases would pin nothing if the features never fired."""
    assert GOLDEN["retry-jitter"]["resilience_events"] > 0
    assert GOLDEN["fallback"]["resilience_events"] > 0
    assert GOLDEN["breaker"]["breaker_transitions"][0] >= 3
    assert GOLDEN["everything"]["breaker_transitions"][0] >= 3
    hops = {name: GOLDEN[name]["version_paths"][0] for name in GOLDEN}
    # A partition refuses catalog -> inventory for three seconds.
    assert hops["partition"] != hops["clean"]


if __name__ == "__main__":  # regenerate the constants
    import pprint

    pprint.pprint({name: observe(name) for name in CASES}, sort_dicts=False)
