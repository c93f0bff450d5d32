"""The bulk uniform draw against ``random.Random``, and the columnar
slice's two rarely taken branches.

``random_block`` relies on CPython's ``getrandbits`` filling its result
with Mersenne-Twister words least significant first; the tier-1 matrix
runs these tests on every supported CPython, so a change of that word
order fails here first.
"""

import math
import random
from unittest import mock

import numpy as np
import pytest

from repro.microservices.kernel import columns, plan
from repro.simulation.rng import random_block
from tests.property.test_columnar_slice import assert_same_state, plain_app, run_both


def advanced(seed: int, offset: int, gauss: bool) -> random.Random:
    rng = random.Random(seed)
    for _ in range(offset):
        rng.random()
    if gauss:
        rng.gauss(0.0, 1.0)  # caches the second variate in gauss_next
    return rng


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
@pytest.mark.parametrize("offset", [0, 1, 5, 624, 1000])
@pytest.mark.parametrize("gauss", [False, True])
def test_block_equals_successive_random_calls(seed, offset, gauss):
    bulk, scalar = advanced(seed, offset, gauss), advanced(seed, offset, gauss)
    for n in (0, 1, 2, 3, 311, 700):
        block = random_block(bulk, n)
        assert block.dtype == np.float64
        assert block.tolist() == [scalar.random() for _ in range(n)]
        assert bulk.getstate() == scalar.getstate()
    assert bulk.gauss(0.0, 1.0) == scalar.gauss(0.0, 1.0)


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("gauss", [False, True])
def test_keeping_the_first_k_draws_leaves_the_k_call_state(seed, gauss):
    for k in (0, 1, 17, 400):
        bulk, scalar = advanced(seed, 9, gauss), advanced(seed, 9, gauss)
        state = bulk.getstate()
        random_block(bulk, 400)
        bulk.setstate(state)
        bulk.getrandbits(64 * k)
        for _ in range(k):
            scalar.random()
        assert bulk.getstate() == scalar.getstate()
        assert bulk.random() == scalar.random()
        assert bulk.gauss(0.0, 1.0) == scalar.gauss(0.0, 1.0)


def kinderman_monahan_pairs(u):
    """The first accepted pair at each start offset, by the scalar loop."""
    out = []
    for start in range(len(u)):
        j = start
        while j + 1 < len(u):
            u2 = 1.0 - u[j + 1]
            z = random.NV_MAGICCONST * (u[j] - 0.5) / u2
            if z * z / 4.0 <= -math.log(u2):
                break
            j += 2
        out.append(j if j + 1 < len(u) else None)
    return out


@pytest.mark.parametrize("guard", [plan._LOG_GUARD, math.inf])
def test_block_tables_match_the_scalar_acceptance_loop(guard):
    """``math.inf`` sends every acceptance test down the ``math.log`` path."""
    u = random_block(random.Random(5), 3_000)
    with mock.patch.object(plan, "_LOG_GUARD", guard):
        block = plan._Block(u)
    n = len(u)
    for start, pair in enumerate(kinderman_monahan_pairs(u.tolist())):
        if pair is None:
            assert block.km[start] == block.over
        else:
            assert block.first[start] == pair and block.km[start] == pair + 2
            u2 = 1.0 - u[pair + 1]
            assert block.z[pair] == random.NV_MAGICCONST * (u[pair] - 0.5) / u2
    assert block.km[n] == block.km[n + 1] == block.over
    assert block.step[n - 1] == n and block.step[n] == block.over


def test_near_boundary_log_and_short_blocks_stay_exact():
    """Every acceptance decided by ``math.log``, and blocks so short that
    rows run past them: sub-blocks end early and grow until a row fits."""
    with mock.patch.object(plan, "_LOG_GUARD", math.inf), mock.patch.object(
        columns, "_BLOCK_SLACK", -(10**9)
    ):
        assert_same_state(*run_both(plain_app, sub_block=50))
