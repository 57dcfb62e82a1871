"""The seed registry, ``seeds.py``: one block of seeds per statistical test."""

import itertools

import pytest

from seeds import BLOCKS, BUDGET, SHARED


def test_seed_blocks_are_disjoint():
    """No seed serves two blocks of one namespace, except the pairs in ``SHARED``."""
    shared = {
        (a.test, b.test) for a, b in itertools.combinations(BLOCKS, 2)
        if a.namespace == b.namespace and set(a.seeds) & set(b.seeds)
    }
    assert shared == SHARED
    assert len({block.test for block in BLOCKS}) == len(BLOCKS)


@pytest.mark.xfail(strict=True, reason="the gates fail a correct program 1.6e-2 of the time")
def test_false_alarm_rates_stay_within_budget():
    rates = [rate for block in BLOCKS for rate in block.rates]
    assert all(0.0 <= rate < 1.0 for rate in rates)
    assert sum(rates) <= BUDGET
