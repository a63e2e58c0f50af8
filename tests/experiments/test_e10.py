"""E10 claim checks: design-time priors vs run-time learning (DESIGN.md E10).

Shape checks: the run-time learner recovers most of the exact-prior
utility with zero design-time model; a stale prior is substantially
worse and never recovers; blending a stale prior with learning repairs
most of the damage by the end of the run.
"""

import pytest

from . import claim_tables


@pytest.fixture(scope="module")
def table():
    return claim_tables.e10()


def test_learner_recovers_most_of_exact_prior(table):
    assert table.row_by("model", "learned-only")["vs_exact_prior"] >= 0.9


def test_stale_prior_pays_heavily(table):
    stale = table.row_by("model", "prior-stale")["vs_exact_prior"]
    learned = table.row_by("model", "learned-only")["vs_exact_prior"]
    assert stale < learned - 0.05


def test_stale_prior_never_recovers(table):
    stale = table.row_by("model", "prior-stale")
    # A non-learning model shows no late improvement beyond noise.
    assert stale["late_utility"] < stale["mean_utility"] + 0.1


def test_blending_repairs_a_stale_prior(table):
    blended = table.row_by("model", "blended(stale+learning)")
    stale = table.row_by("model", "prior-stale")
    assert blended["late_utility"] > stale["late_utility"] + 0.05
