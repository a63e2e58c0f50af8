"""Integration tests for the smart-camera simulation."""

import dataclasses

import numpy as np
import pytest

from repro.api import CameraConfig, CameraSimulator
from repro.smartcamera.controller import (FixedStrategyController,
                                          SelfAwareStrategyController,
                                          strategy_entropy)
from repro.smartcamera.sim import CameraSimulation
from repro.smartcamera.strategies import ALL_STRATEGIES, Strategy


def small_config(**kwargs):
    defaults = dict(rows=2, cols=2, n_objects=4, steps=100, seed=0)
    defaults.update(kwargs)
    return CameraConfig(**defaults)


def run_fixed(config, strategy):
    """Every camera pinned to ``strategy`` over ``config``."""
    return CameraSimulator(dataclasses.replace(
        config, controller="fixed", strategy=strategy.name)).run()


def run_learning(config, epsilon=0.1):
    """Self-aware (learning) cameras over ``config``."""
    return CameraSimulator(dataclasses.replace(
        config, controller="self_aware", epsilon=epsilon)).run()


def comm_weight_at(config):
    """The price schedule a simulation over ``config`` steps under."""
    return CameraSimulation(
        config, lambda cid, rng: FixedStrategyController(
            cid, Strategy.PASSIVE_SMOOTH)).comm_weight_at


class TestSimulationMechanics:
    def test_run_produces_records(self):
        result = run_fixed(small_config(), Strategy.PASSIVE_SMOOTH)
        assert len(result.records) == 100
        assert all(r.tracking_utility >= 0 for r in result.records)

    def test_ownership_conservation(self):
        sim = CameraSimulation(
            small_config(),
            controller_factory=lambda cid, rng: FixedStrategyController(
                cid, Strategy.ACTIVE_BROADCAST))
        for t in range(50):
            record = sim.step(float(t))
            # Every object is either owned or lost, never double-counted.
            assert record.owned_objects + record.lost_objects == 4
            # Owners must currently see their objects.
            for object_id, cam_id in sim.ownership.items():
                obj = sim.population.by_id(object_id)
                assert obj is not None
                assert sim.network.cameras[cam_id].sees(obj)

    def test_broadcast_sends_more_messages_than_smooth(self):
        loud = run_fixed(small_config(), Strategy.ACTIVE_BROADCAST)
        quiet = run_fixed(small_config(), Strategy.PASSIVE_SMOOTH)
        assert loud.mean_messages() > quiet.mean_messages()

    def test_active_tracks_no_worse_than_passive(self):
        active = run_fixed(small_config(steps=300, seed=3),
                           Strategy.ACTIVE_BROADCAST)
        passive = run_fixed(small_config(steps=300, seed=3),
                            Strategy.PASSIVE_SMOOTH)
        assert (active.mean_tracking_utility()
                >= passive.mean_tracking_utility() - 0.1)

    def test_comm_weight_breaks_apply(self):
        config = small_config(comm_cost_weight=0.01,
                              comm_weight_breaks=[(50.0, 0.5)])
        weight_at = comm_weight_at(config)
        assert weight_at(0.0) == 0.01
        assert weight_at(60.0) == 0.5
        result = run_fixed(config, Strategy.ACTIVE_BROADCAST)
        weights = {r.comm_weight for r in result.records}
        assert weights == {0.01, 0.5}

    def test_comm_weight_breaks_unsorted_input(self):
        # Breakpoints are sorted once at construction; out-of-order input
        # must give the same schedule as sorted input, and the caller's
        # list must not be reordered under them.
        breaks = [(200.0, 0.9), (50.0, 0.5)]
        config = small_config(comm_cost_weight=0.01,
                              comm_weight_breaks=breaks)
        weight_at = comm_weight_at(config)
        assert weight_at(0.0) == 0.01
        assert weight_at(50.0) == 0.5
        assert weight_at(199.9) == 0.5
        assert weight_at(200.0) == 0.9
        assert weight_at(1e9) == 0.9
        assert breaks == [(200.0, 0.9), (50.0, 0.5)]

    def test_comm_weight_no_breaks_is_constant(self):
        config = small_config(comm_cost_weight=0.07)
        weight_at = comm_weight_at(config)
        assert weight_at(0.0) == 0.07
        assert weight_at(1e6) == 0.07

    def test_detection_rate_zero_loses_objects_forever(self):
        # With no auctions (passive_smooth threshold 0 disables them) and no
        # re-detection, objects that escape their owner stay lost.
        config = small_config(detection_rate=0.0, auction_threshold=0.0,
                              steps=300, object_speed=0.05)
        result = run_fixed(config, Strategy.PASSIVE_SMOOTH)
        assert result.records[-1].lost_objects > 0

    def test_reproducible_under_seed(self):
        a = run_learning(small_config(seed=5))
        b = run_learning(small_config(seed=5))
        assert a.mean_tracking_utility() == b.mean_tracking_utility()
        assert a.mean_messages() == b.mean_messages()


class TestSelfAwareLearning:
    def test_learner_develops_diversity(self):
        result = run_learning(small_config(steps=400, seed=2))
        assert result.diversity_bits() > 0.5

    def test_homogeneous_network_has_zero_entropy(self):
        result = run_fixed(small_config(), Strategy.PASSIVE_SMOOTH)
        assert result.diversity_bits() == 0.0

    def test_learner_efficiency_is_competitive(self):
        # The self-aware network must land within 15% of the best
        # homogeneous assignment without knowing which one it is.
        config_kwargs = dict(steps=600, seed=4, random_placement=True,
                             rows=3, cols=3, n_objects=8)
        best = max(
            run_fixed(small_config(**config_kwargs), s).efficiency()
            for s in ALL_STRATEGIES)
        learned = run_learning(small_config(**config_kwargs),
                               epsilon=0.05).efficiency()
        assert learned > 0.85 * best

    def test_preferred_strategy_reported(self):
        ctrl = SelfAwareStrategyController(0, rng=np.random.default_rng(0))
        for _ in range(40):
            s = ctrl.choose(0.0)
            ctrl.feedback(1.0 if s is Strategy.PASSIVE_SMOOTH else 0.0)
        assert ctrl.preferred_strategy() is Strategy.PASSIVE_SMOOTH

    def test_strategy_entropy_bounds(self):
        c1 = FixedStrategyController(0, Strategy.ACTIVE_SMOOTH)
        for _ in range(10):
            c1.record_usage(c1.strategy)
        assert strategy_entropy([c1]) == 0.0
        c2 = FixedStrategyController(1, Strategy.PASSIVE_SMOOTH)
        for _ in range(10):
            c2.record_usage(c2.strategy)
        assert strategy_entropy([c1, c2]) == pytest.approx(1.0)
