"""E1 claim checks: levels-of-self-awareness ablation (DESIGN.md E1).

Regenerates the E1 table at reduced size and checks its shape: utility
should not degrade as levels are added, the static baseline should have
the worst trade-off management under change, and the goal level should
provide a clear jump once stakeholders change their minds mid-run.
"""

import pytest

from . import claim_tables


@pytest.fixture(scope="module")
def table():
    return claim_tables.e1()


def test_static_baseline_has_worst_phase_management(table):
    worst = table.column("worst_phase_utility")
    static = table.row_by("profile", "static")["worst_phase_utility"]
    assert static == min(worst)


def test_goal_awareness_jump(table):
    below = table.row_by("profile",
                         "stimulus+interaction+time")["mean_utility"]
    with_goal = table.row_by(
        "profile", "stimulus+interaction+time+goal")["mean_utility"]
    assert with_goal > below + 0.02


def test_full_stack_beats_stimulus_only(table):
    stim = table.row_by("profile", "stimulus")["mean_utility"]
    full = table.row_by(
        "profile", "stimulus+interaction+time+goal+meta")["mean_utility"]
    assert full > stim + 0.02


def test_meta_level_actually_switches(table):
    meta_row = table.row_by("profile",
                            "stimulus+interaction+time+goal+meta")
    assert meta_row["switches"] >= 1.0

