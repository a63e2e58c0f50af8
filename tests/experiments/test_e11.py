"""E11 claim checks: self-explanation quality and overhead (DESIGN.md E11).

Shape checks: deliberative (model-holding) nodes produce evidence-backed
explanations for every decision -- the static system can only say "I was
built this way" (no evidence, no alternatives); the journalling overhead
stays small relative to the run.
"""

import pytest

from . import claim_tables


@pytest.fixture(scope="module")
def table():
    return claim_tables.e11()


def test_every_decision_is_explainable(table):
    for row in table.rows:
        assert row["coverage"] == 1.0


def test_only_model_holders_give_evidence(table):
    static = table.row_by("profile", "static")
    for name in ("goal-aware", "full-stack"):
        row = table.row_by("profile", name)
        assert row["evidence_rate"] == 1.0
        assert row["mean_candidates"] >= 3.0
    assert static["evidence_rate"] == 0.0


def test_narratives_cite_reasoning_ingredients(table):
    for name in ("goal-aware", "full-stack"):
        row = table.row_by("profile", name)
        assert row["narrative_ingredients"] >= 3.0


def test_journal_overhead_is_modest(table):
    for row in table.rows:
        assert row["journal_overhead_pct"] < 30.0
