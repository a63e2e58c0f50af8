"""E4 claim checks: volunteer composition awareness ordering (DESIGN.md E4).

Shape check: random < static-rank < stimulus-aware < self-aware on
request success rate, and the design-time ranking degrades late in the
run as reliabilities drift away from their measured values.
"""

import pytest

from . import claim_tables


@pytest.fixture(scope="module")
def table():
    return claim_tables.e4()


def test_awareness_ordering(table):
    rates = {row["selector"]: row["success_rate"] for row in table.rows}
    assert rates["self-aware"] > rates["stimulus-aware"]
    assert rates["stimulus-aware"] > rates["static-rank"]
    assert rates["static-rank"] > rates["random"]


def test_self_aware_improvement_factor(table):
    assert table.row_by("selector", "self-aware")["vs_random"] > 1.4


def test_self_aware_keeps_its_edge_late(table):
    aware = table.row_by("selector", "self-aware")["late_success_rate"]
    stim = table.row_by("selector", "stimulus-aware")["late_success_rate"]
    assert aware > stim
