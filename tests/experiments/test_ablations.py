"""Claim checks for the DESIGN.md design-choice ablations (A1, A2, A4, A5)."""

import pytest

from repro.experiments import ablations


@pytest.fixture(scope="module")
def aggregation_table():
    return ablations.run_aggregation(seeds=(0, 1), steps=900)


@pytest.fixture(scope="module")
def forecaster_table():
    return ablations.run_forecasters(seeds=(0, 1), steps=400)


@pytest.fixture(scope="module")
def pricing_table():
    return ablations.run_auction_pricing(n_auctions=1000)


class TestAggregation:
    def test_weighted_sum_follows_reweighting_at_least_as_well(
            self, aggregation_table):
        ws = aggregation_table.row_by("aggregation", "weighted-sum")
        knee = aggregation_table.row_by("aggregation", "pareto-knee")
        assert ws["utility_after_reweight"] >= \
            knee["utility_after_reweight"] - 0.02

    def test_both_schemes_functional(self, aggregation_table):
        for row in aggregation_table.rows:
            assert row["mean_utility"] > 0.4


class TestForecasters:
    def test_all_families_functional(self, forecaster_table):
        for row in forecaster_table.rows:
            assert row["utility"] > 0.7
            assert row["qos"] > 0.8

    def test_family_choice_is_second_order(self, forecaster_table):
        # The ablation's finding: on this workload the family matters
        # far less than having time-awareness at all.
        utilities = forecaster_table.column("utility")
        assert max(utilities) - min(utilities) < 0.08


class TestKnowledgeRepresentation:
    @pytest.fixture(scope="class")
    def kr_table(self):
        return ablations.run_knowledge_representation(
            seeds=(0, 1, 2), steps=900, granularities=(1, 3, 41))

    def test_moderate_granularity_beats_context_free(self, kr_table):
        coarse = kr_table.row_by("levels_per_feature", 1)["mean_utility"]
        moderate = kr_table.row_by("levels_per_feature", 3)["mean_utility"]
        assert moderate > coarse

    def test_extreme_granularity_starves(self, kr_table):
        moderate = kr_table.row_by("levels_per_feature", 3)["mean_utility"]
        fine = kr_table.row_by("levels_per_feature", 41)["mean_utility"]
        assert moderate > fine

    def test_bin_count_grows_with_granularity(self, kr_table):
        bins = kr_table.column("bins_used")
        assert bins == sorted(bins)


class TestAuctionPricing:
    def test_allocation_identical(self, pricing_table):
        vickrey = pricing_table.row_by("rule", "second-price(Vickrey)")
        first = pricing_table.row_by("rule", "first-price")
        assert vickrey["trade_rate"] == pytest.approx(first["trade_rate"])

    def test_vickrey_leaves_winner_surplus(self, pricing_table):
        vickrey = pricing_table.row_by("rule", "second-price(Vickrey)")
        first = pricing_table.row_by("rule", "first-price")
        assert vickrey["winner_surplus"] > 0.1
        assert first["winner_surplus"] == 0.0
        assert vickrey["mean_price"] < first["mean_price"]
