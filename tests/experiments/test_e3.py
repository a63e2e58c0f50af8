"""E3 claim checks: self-aware cloud autoscaling (DESIGN.md E3).

Shape checks: the self-aware scaler reaches near-oracle utility, beats
the under-provisioned static cluster outright, provisions far fewer
servers than the over-provisioned one, and -- in the goal-change table --
is the scaler that actually cuts cost when stakeholders re-weight.
"""

import pytest

from . import claim_tables


@pytest.fixture(scope="module")
def table():
    return claim_tables.e3()


@pytest.fixture(scope="module")
def change_table():
    return claim_tables.e3_goal_change()


def test_self_aware_near_oracle(table):
    assert table.row_by("scaler", "self-aware")["vs_oracle"] >= 0.95


def test_self_aware_beats_underprovisioned(table):
    aware = table.row_by("scaler", "self-aware")["utility"]
    static = table.row_by("scaler", "static-4")["utility"]
    assert aware > static + 0.2


def test_self_aware_cheaper_than_overprovisioned(table):
    aware = table.row_by("scaler", "self-aware")["mean_servers"]
    static = table.row_by("scaler", "static-15")["mean_servers"]
    assert aware < 0.85 * static


def test_goal_change_followed_only_by_goal_reader(change_table):
    aware = change_table.row_by("scaler", "self-aware")
    static = change_table.row_by("scaler", "static-15")
    reactive = change_table.row_by("scaler", "reactive")
    assert aware["utility_after"] > static["utility_after"]
    assert aware["utility_after"] > reactive["utility_after"]
    assert aware["cost_after"] < 0.6 * static["cost_after"]
