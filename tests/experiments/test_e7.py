"""E7 claim checks: attention under an energy budget (DESIGN.md E7).

Shape checks: under a tight budget the salience (self-aware) policy
tracks the field at least as well as every unaware policy and far better
than naive truncation; with an ample budget the policies converge (when
everything is affordable, attention stops mattering).
"""

import pytest

from repro.experiments import e7_attention

from . import claim_tables
from .claim_tables import E7_BUDGETS as BUDGETS


@pytest.fixture(scope="module")
def table():
    return claim_tables.e7()


def _row(table, policy, budget):
    for row in table.rows:
        if row["policy"] == policy and row["budget"] == budget:
            return row
    raise KeyError((policy, budget))


def test_salience_beats_truncation_under_constraint(table):
    for budget in (2.0, 4.0):
        sal = _row(table, "salience(self-aware)", budget)["error"]
        full = _row(table, "full(truncated)", budget)["error"]
        assert sal < 0.5 * full


def test_salience_at_least_matches_random(table):
    for budget in (2.0, 4.0):
        sal = _row(table, "salience(self-aware)", budget)["error"]
        rnd = _row(table, "random", budget)["error"]
        assert sal <= rnd * 1.1


def test_policies_converge_when_budget_ample(table):
    errors = [_row(table, p, 8.0)["error"]
              for p in ("round-robin", "random", "salience(self-aware)")]
    assert max(errors) < 2.5 * min(errors)


def test_error_decreases_with_budget(table):
    sal = [_row(table, "salience(self-aware)", b)["error"] for b in BUDGETS]
    assert sal[0] > sal[-1]


@pytest.fixture(scope="module")
def detection_table():
    return e7_attention.run_detection_table(seeds=(0, 1), budgets=(2.0,),
                                            steps=1200)


def test_deadline_policy_wins_detection(detection_table):
    rows = {r["policy"]: r for r in detection_table.rows}
    deadline = rows["deadline(mission-aware)"]["weighted_detection"]
    for other in ("round-robin", "random", "salience(tracking)"):
        assert deadline >= rows[other]["weighted_detection"] + 0.05


def test_tracking_salience_is_mismatched_to_events(detection_table):
    # The E7b lesson: the tracking policy does not dominate here the way
    # it does on the tracking mission -- attention must fit the mission.
    rows = {r["policy"]: r for r in detection_table.rows}
    salience = rows["salience(tracking)"]["weighted_detection"]
    deadline = rows["deadline(mission-aware)"]["weighted_detection"]
    assert salience < deadline
