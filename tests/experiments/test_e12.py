"""E12 claim checks: swarm structural self-adaptation (DESIGN.md extension).

Shape checks: the self-aware swarm detects the most events overall,
keeps its detection rate after the hotspots shift and after robots die
(where the static formation's holes persist), and the structureless
patrol is the floor.
"""

import pytest

from repro.experiments import e12_swarm

SEEDS = (0, 1)
STEPS = 600


@pytest.fixture(scope="module")
def table():
    return e12_swarm.run(seeds=SEEDS, steps=STEPS)


def test_self_aware_best_overall(table):
    aware = table.row_by("controller", "self-aware")["overall"]
    for name in ("static-formation", "random-patrol"):
        assert aware > table.row_by("controller", name)["overall"]


def test_self_aware_survives_failures_better_than_static(table):
    aware = table.row_by("controller", "self-aware")["after_failures"]
    static = table.row_by("controller", "static-formation")["after_failures"]
    assert aware > static + 0.1


def test_self_aware_tracks_hotspot_shift(table):
    aware = table.row_by("controller", "self-aware")
    # Adaptation: post-shift performance stays within reach of initial.
    assert aware["after_shift"] > 0.75 * aware["initial"]


def test_random_patrol_is_the_floor(table):
    patrol = table.row_by("controller", "random-patrol")["overall"]
    aware = table.row_by("controller", "self-aware")["overall"]
    assert aware > 1.2 * patrol
