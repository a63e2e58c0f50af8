"""E5 claim checks: run-time multi-core management (DESIGN.md E5).

Shape checks: the self-aware governor matches or beats every baseline on
goal utility while keeping the thermal constraint satisfied (the
max-frequency design violates it), and in the goal-change table it is
the governor that actually reduces energy when asked to.
"""

import pytest

from . import claim_tables


@pytest.fixture(scope="module")
def table():
    return claim_tables.e5()


@pytest.fixture(scope="module")
def change_table():
    return claim_tables.e5_goal_change()


def test_self_aware_utility_competitive(table):
    best_baseline = max(row["utility"] for row in table.rows
                        if row["governor"] != "self-aware")
    aware = table.row_by("governor", "self-aware")["utility"]
    assert aware >= 0.97 * best_baseline


def test_self_aware_respects_thermal_constraint(table):
    aware = table.row_by("governor", "self-aware")
    assert aware["thermal_violation_rate"] <= 0.01
    assert aware["throttle_fraction"] <= 0.01


def test_static_max_is_thermally_dirty_or_wasteful(table):
    static = table.row_by("governor", "static-max")
    aware = table.row_by("governor", "self-aware")
    assert (static["thermal_violation_rate"] > aware["thermal_violation_rate"]
            or static["energy"] > 1.2 * aware["energy"])


def test_goal_change_energy_reduction(change_table):
    aware = change_table.row_by("governor", "self-aware")
    static = change_table.row_by("governor", "static-max")
    assert aware["energy_reduction"] > static["energy_reduction"] + 0.1
    assert aware["energy_after"] < aware["energy_before"]
