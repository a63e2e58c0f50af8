"""Optimised hot paths must equal their retained naive references.

Every optimisation in the kernel pass (spatial grids, gated Dijkstra,
memoised window statistics, pure-python bandits, bounded attribution)
keeps the pre-optimisation implementation selectable.  These tests drive
both variants over identical seeded scenarios and require *exact*
equality -- the experiment tables must be byte-identical, so "close" is
not good enough.
"""

import json
import math

import numpy as np

from repro.core.knowledge import History
from repro.core.spans import Scope
from repro.cpn.routing import OracleRouter
from repro.cpn.sim import default_flows, routing_step
from repro.cpn.topology import CPNetwork
from repro.learning.bandits import EpsilonGreedy
from repro.smartcamera.network import CameraNetwork
from repro.smartcamera.objects import MovingObject
from repro.swarm.robots import SelfAwareSwarm
from repro.swarm.sim import SwarmMission, SwarmMissionConfig


def _record_dict(record):
    slots = getattr(type(record), "__slots__", None)
    if slots:
        return {name: getattr(record, name) for name in slots}
    return dict(record.__dict__)


class TestCameraGridEquivalence:
    def _objects(self, n=40, seed=9):
        rng = np.random.default_rng(seed)
        return [MovingObject(i, rng.uniform(0, 1), rng.uniform(0, 1),
                             speed=0.02, rng=np.random.default_rng(100 + i))
                for i in range(n)]

    def test_queries_match_naive_scan(self):
        cams = CameraNetwork.random(30, radius=0.2, seed=2, use_grid=True)
        naive = CameraNetwork(list(cams.cameras.values()), use_grid=False)
        for obj in self._objects():
            assert cams.observers(obj) == naive.observers(obj)
            assert cams.best_observer(obj) == naive.best_observer(obj)

    def test_grid_matches_on_grid_layout(self):
        cams = CameraNetwork.grid(5, 5, radius=0.3, use_grid=True)
        naive = CameraNetwork.grid(5, 5, radius=0.3, use_grid=False)
        for obj in self._objects(seed=11):
            assert cams.observers(obj) == naive.observers(obj)
            assert cams.best_observer(obj) == naive.best_observer(obj)


class TestCameraSimEquivalence:
    def _run(self, optimised):
        from repro.learning import bandits
        from repro.smartcamera.controller import SelfAwareStrategyController
        from repro.smartcamera.sim import CameraSimConfig, CameraSimulation

        config = CameraSimConfig(rows=4, cols=4, n_objects=18, steps=150,
                                 object_speed=0.04, detection_rate=0.2,
                                 random_placement=True, seed=3)
        prev = bandits.USE_FAST_BANDIT
        bandits.USE_FAST_BANDIT = optimised
        try:
            sim = CameraSimulation(
                config,
                controller_factory=lambda cid, rng: SelfAwareStrategyController(
                    cid, epsilon=0.1, rng=rng))
        finally:
            bandits.USE_FAST_BANDIT = prev
        if not optimised:
            sim.network = CameraNetwork(list(sim.network.cameras.values()),
                                        use_grid=False)
        return sim.run()

    def test_full_sim_records_identical(self):
        # End to end over the whole market/learning stack: the grid
        # (observer queries + bid-loop pruning) and the fast bandits must
        # reproduce every step record of the naive run exactly.
        fast = self._run(True)
        naive = self._run(False)
        assert len(fast.records) == len(naive.records)
        for a, b in zip(fast.records, naive.records):
            assert _record_dict(a) == _record_dict(b)


class TestSwarmFastEquivalence:
    def _run(self, fast):
        controller = SelfAwareSwarm(rng=np.random.default_rng(7), fast=fast)
        config = SwarmMissionConfig(n_robots=14, steps=160,
                                    events_per_step=4.0, seed=1)
        mission = SwarmMission(controller, config, use_grid=fast)
        return [mission.step(float(t)) for t in range(config.steps)]

    def test_mission_records_identical(self):
        fast = self._run(True)
        naive = self._run(False)
        assert len(fast) == len(naive)
        for a, b in zip(fast, naive):
            assert _record_dict(a) == _record_dict(b)


class TestGatedOracleEquivalence:
    def _run(self, gated):
        network = CPNetwork.random_geometric(n=24, seed=5)
        network.schedule_random_disturbances(horizon=4000.0, count=8)
        router = OracleRouter(network, gated=gated)
        flows = default_flows(network, n_flows=5, seed=5)
        return [routing_step(network, router, flows, float(t))
                for t in range(250)]

    def test_routing_records_identical(self):
        gated = self._run(True)
        naive = self._run(False)
        for a, b in zip(gated, naive):
            da, db = _record_dict(a), _record_dict(b)
            # NaN (no delivery that step) compares unequal to itself.
            na, nb = da.pop("mean_delay"), db.pop("mean_delay")
            assert da == db
            assert (na == nb) or (math.isnan(na) and math.isnan(nb))


class TestWindowStatsEquivalence:
    def test_memoised_stats_equal_naive(self):
        history = History(Scope("load"), maxlen=64)
        rng = np.random.default_rng(3)
        for t in range(200):
            history.record(float(t), float(rng.normal()))
            for window in (None, 1, 5, 32, 64, 500):
                assert history.values(window) == history.values_naive(window)
                assert history.mean(window) == history.mean_naive(window)
                assert history.std(window) == history.std_naive(window)
                assert history.trend(window) == history.trend_naive(window)

    def test_cache_invalidated_by_record(self):
        history = History(Scope("x"))
        history.record(0.0, 1.0)
        assert history.mean(4) == 1.0
        history.record(1.0, 3.0)
        assert history.mean(4) == 2.0


class TestBanditFastEquivalence:
    def test_decision_stream_identical(self):
        fast = EpsilonGreedy(5, epsilon=0.2, discount=0.97,
                             rng=np.random.default_rng(42), fast=True)
        naive = EpsilonGreedy(5, epsilon=0.2, discount=0.97,
                              rng=np.random.default_rng(42), fast=False)
        reward_rng = np.random.default_rng(7)
        for _ in range(500):
            a, b = fast.select(), naive.select()
            assert a == b
            reward = float(reward_rng.normal(0.1 * a, 0.3))
            fast.update(a, reward)
            naive.update(b, reward)
        for arm in range(5):
            assert fast.value(arm) == naive.value(arm)


class TestMissionTablesJSONStable:
    def test_detection_rates_serialise_identically(self):
        # End-to-end guard on the numbers that reach the E12 table: the
        # aggregated detection rates must serialise to identical JSON
        # under the fast and naive paths.
        from repro.api import SwarmSimulator

        def run(fast):
            controller = SelfAwareSwarm(rng=np.random.default_rng(500),
                                        fast=fast)
            config = SwarmMissionConfig(n_robots=9, steps=120, seed=0)
            result = SwarmSimulator(mission_config=config,
                                    controller=controller,
                                    use_grid=fast).run()
            return [result.detection_rate(),
                    result.detection_rate(0.0, 48.0),
                    result.detection_rate(54.0, 84.0)]

        assert (json.dumps(run(True), sort_keys=True)
                == json.dumps(run(False), sort_keys=True))
