"""E9 claim checks: collective self-awareness architectures (DESIGN.md E9).

Shape checks: without failures all three schemes make (nearly) every
node aware of the global quantity; when the scheme's most critical node
fails, the central hub blinds *everyone*, the hierarchy blinds a
subtree, and gossip keeps every surviving node aware; the central hub
is the message hot-spot and its load grows with N.
"""

import pytest

from . import claim_tables
from .claim_tables import E9_SIZES as SIZES


@pytest.fixture(scope="module")
def table():
    return claim_tables.e9()


def _row(table, scheme, n, failure):
    for row in table.rows:
        if (row["scheme"] == scheme and row["n"] == n
                and row["failure"] == failure):
            return row
    raise KeyError((scheme, n, failure))


def test_all_schemes_accurate_without_failure(table):
    for scheme in ("gossip", "hierarchical", "central"):
        for n in SIZES:
            row = _row(table, scheme, n, "none")
            assert row["aware_fraction"] == 1.0
            assert row["mean_error"] < 0.05


def test_central_failure_blinds_everyone(table):
    for n in SIZES:
        row = _row(table, "central", n, "critical-node")
        assert row["aware_fraction"] == 0.0


def test_hierarchy_failure_blinds_only_a_subtree(table):
    for n in SIZES:
        row = _row(table, "hierarchical", n, "critical-node")
        assert 0.0 < row["aware_fraction"] < 1.0


def test_gossip_survives_any_failure(table):
    for n in SIZES:
        row = _row(table, "gossip", n, "critical-node")
        assert row["aware_fraction"] == 1.0
        assert row["mean_error"] < 0.15


def test_central_hub_is_the_hotspot(table):
    for n in SIZES:
        central = _row(table, "central", n, "none")["max_node_load"]
        tree = _row(table, "hierarchical", n, "none")["max_node_load"]
        assert central > tree
    # ... and the hot-spot grows with N while the tree's does not.
    small = _row(table, "central", SIZES[0], "none")["max_node_load"]
    large = _row(table, "central", SIZES[-1], "none")["max_node_load"]
    assert large > 2 * small
