"""Tests for the handover market and sociality strategies."""

import pytest

from repro.smartcamera.market import Bid, HandoverMarket
from repro.smartcamera.strategies import ALL_STRATEGIES


class TestHandoverMarket:
    def test_highest_bidder_wins_pays_second_price(self):
        market = HandoverMarket()
        outcome = market.run_auction(
            0, seller=9, bids=[Bid(1, 0.8), Bid(2, 0.5)], reserve=0.2)
        assert outcome.winner == 1
        assert outcome.price == pytest.approx(0.5)
        assert outcome.sold

    def test_single_bid_pays_reserve(self):
        market = HandoverMarket()
        outcome = market.run_auction(0, seller=9, bids=[Bid(1, 0.8)], reserve=0.3)
        assert outcome.winner == 1
        assert outcome.price == pytest.approx(0.3)

    def test_bids_below_reserve_rejected(self):
        market = HandoverMarket()
        outcome = market.run_auction(0, seller=9, bids=[Bid(1, 0.1)], reserve=0.5)
        assert outcome.winner is None
        assert not outcome.sold

    def test_seller_cannot_win_own_auction(self):
        market = HandoverMarket()
        outcome = market.run_auction(0, seller=1, bids=[Bid(1, 0.9)], reserve=0.0)
        assert outcome.winner is None

    def test_tie_breaks_to_lowest_id(self):
        market = HandoverMarket()
        outcome = market.run_auction(
            0, seller=9, bids=[Bid(5, 0.5), Bid(2, 0.5)], reserve=0.0)
        assert outcome.winner == 2

    def test_statistics(self):
        market = HandoverMarket()
        market.run_auction(0, 9, [Bid(1, 0.8)], reserve=0.0)
        market.run_auction(1, 9, [], reserve=0.0)
        assert market.auctions_run == 2
        assert market.trades == 1
        assert market.trade_rate == pytest.approx(0.5)

    def test_negative_bid_rejected(self):
        with pytest.raises(ValueError):
            Bid(1, -0.1)

    def test_negative_reserve_rejected(self):
        with pytest.raises(ValueError):
            HandoverMarket().run_auction(0, 9, [], reserve=-1.0)


class TestStrategies:
    def test_four_strategies_on_two_axes(self):
        assert len(ALL_STRATEGIES) == 4
        actives = [s for s in ALL_STRATEGIES if s.is_active]
        broadcasts = [s for s in ALL_STRATEGIES if s.is_broadcast]
        assert len(actives) == 2 and len(broadcasts) == 2
