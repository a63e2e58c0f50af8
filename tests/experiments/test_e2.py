"""E2 claim checks: smart cameras learn to be different (DESIGN.md E2).

Shape checks: in every scenario the learned-heterogeneous network stays
within 15% of the best homogeneous assignment (which differs across
scenarios), no single homogeneous strategy does that everywhere, and the
learned network develops non-zero strategy diversity.
"""

import pytest

from . import claim_tables


@pytest.fixture(scope="module")
def table():
    return claim_tables.e2()


def _rows_for(table, controller):
    return [r for r in table.rows if r["controller"] == controller]


def test_self_aware_near_best_everywhere(table):
    for row in _rows_for(table, "self-aware"):
        assert row["vs_best_homog"] >= 0.85, row


def test_no_homogeneous_strategy_is_robust(table):
    from repro.smartcamera.strategies import ALL_STRATEGIES
    # At least one fixed strategy should collapse (<80% of best) in some
    # scenario -- the design-time choice is a gamble.
    collapses = [row for s in ALL_STRATEGIES
                 for row in _rows_for(table, s.value)
                 if row["vs_best_homog"] < 0.8]
    assert collapses


def test_learned_network_is_heterogeneous(table):
    for row in _rows_for(table, "self-aware"):
        assert row["diversity_bits"] > 0.5


def test_homogeneous_networks_have_zero_diversity(table):
    from repro.smartcamera.strategies import ALL_STRATEGIES
    for s in ALL_STRATEGIES:
        for row in _rows_for(table, s.value):
            assert row["diversity_bits"] == 0.0
