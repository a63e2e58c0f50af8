"""E8 claim checks: meta-self-awareness under concept drift (DESIGN.md E8).

Shape checks: each fixed plasticity loses one era (stable loses the
turbulent one badly); the meta controllers match or beat the best fixed
learner overall, recover the stable learner's calm-era quality, and
actually switch strategies.
"""

import pytest

from . import claim_tables


@pytest.fixture(scope="module")
def table():
    return claim_tables.e8()


def test_stable_loses_turbulent_era(table):
    stable = table.row_by("learner", "stable(fixed)")
    plastic = table.row_by("learner", "plastic(fixed)")
    assert stable["reward_turbulent"] < plastic["reward_turbulent"] - 0.1


def test_meta_matches_best_fixed_overall(table):
    best_fixed = max(
        table.row_by("learner", "stable(fixed)")["mean_reward"],
        table.row_by("learner", "plastic(fixed)")["mean_reward"])
    for name in ("meta(detector)", "meta(window)"):
        assert table.row_by("learner", name)["mean_reward"] >= \
            best_fixed - 0.02


def test_meta_recovers_calm_era_quality(table):
    plastic = table.row_by("learner", "plastic(fixed)")["reward_calm"]
    for name in ("meta(detector)", "meta(window)"):
        assert table.row_by("learner", name)["reward_calm"] >= plastic - 0.02


def test_meta_switches(table):
    for name in ("meta(detector)", "meta(window)"):
        assert table.row_by("learner", name)["switches"] >= 1.0


def test_regret_ordering(table):
    stable = table.row_by("learner", "stable(fixed)")["normalised_regret"]
    meta = min(table.row_by("learner", n)["normalised_regret"]
               for n in ("meta(detector)", "meta(window)"))
    assert meta < stable
