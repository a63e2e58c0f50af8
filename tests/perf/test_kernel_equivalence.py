"""Optimised hot paths must equal their pinned reference payloads.

Every optimisation in the kernel pass (spatial grids, gated Dijkstra,
memoised window statistics, pure-python bandits, bounded attribution)
was checked against the pre-optimisation implementation on identical
seeded scenarios.  Those reference implementations are gone; what they
produced on these scenarios is pinned in ``golden_path_payloads.json``
(see :mod:`tests.perf.goldens`) and the one remaining path must
reproduce it *exactly* -- the experiment tables must be byte-identical,
so "close" is not good enough.  ``History``'s memoised window
statistics are still compared live, against the full-copy references
below.
"""

import math

import numpy as np

from repro.api import SwarmConfig
from repro.core.knowledge import History
from repro.core.spans import Scope
from repro.cpn.routing import OracleRouter
from repro.cpn.sim import default_flows, routing_step
from repro.cpn.topology import CPNetwork
from repro.learning.bandits import EpsilonGreedy
from repro.smartcamera.network import CameraNetwork
from repro.smartcamera.objects import MovingObject
from repro.swarm.robots import SelfAwareSwarm
from repro.swarm.sim import SwarmMission

from . import goldens


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

    def _queries(self, network, objects):
        return [(network.observers(obj), network.best_observer(obj))
                for obj in objects]

    def test_queries_match_naive_scan(self):
        cams = CameraNetwork.random(30, radius=0.2, seed=2)
        goldens.assert_matches_path_golden(
            "camera.queries.random", self._queries(cams, self._objects()))

    def test_grid_matches_on_grid_layout(self):
        cams = CameraNetwork.grid(5, 5, radius=0.3)
        goldens.assert_matches_path_golden(
            "camera.queries.grid",
            self._queries(cams, self._objects(seed=11)))


class TestCameraSimEquivalence:
    def test_full_sim_records_identical(self):
        # End to end over the whole market/learning stack: the column
        # scans, the merged utility+auction step and the list-based
        # bandits must reproduce every step record of the reference run.
        from repro.smartcamera.controller import SelfAwareStrategyController
        from repro.api import CameraConfig
        from repro.smartcamera.sim import CameraSimulation

        config = CameraConfig(rows=4, cols=4, n_objects=18, steps=150,
                              object_speed=0.04, detection_rate=0.2,
                              random_placement=True, seed=3)
        sim = CameraSimulation(
            config,
            controller_factory=lambda cid, rng: SelfAwareStrategyController(
                cid, epsilon=0.1, rng=rng))
        records = [sim.step(float(t)) for t in range(config.steps)]
        goldens.assert_matches_path_golden(
            "camera.sim.records", [_record_dict(r) for r in records])


class TestSwarmFastEquivalence:
    def test_mission_records_identical(self):
        controller = SelfAwareSwarm(rng=np.random.default_rng(7))
        config = SwarmConfig(n_robots=14, steps=160, events_per_step=4.0,
                             seed=1)
        mission = SwarmMission(controller, config)
        records = [mission.step(float(t)) for t in range(config.steps)]
        goldens.assert_matches_path_golden(
            "swarm.mission.records", [_record_dict(r) for r in records])


class TestGatedOracleEquivalence:
    def test_routing_records_identical(self):
        # The change-gated tables against the recompute-every-step
        # reference's records (NaN mean delays compare as JSON text).
        network = CPNetwork.random_geometric(n=24, seed=5)
        network.schedule_random_disturbances(horizon=4000.0, count=8)
        router = OracleRouter(network)
        flows = default_flows(network, n_flows=5, seed=5)
        records = [routing_step(network, router, flows, float(t))
                   for t in range(250)]
        goldens.assert_matches_path_golden(
            "cpn.oracle.records", [_record_dict(r) for r in records])


def _window_naive(history, window):
    """Reference window extraction: a fresh full copy of the buffer."""
    obs = list(history)
    if window is not None and window < len(obs):
        obs = obs[-window:]
    return obs


def _mean_naive(history, window):
    vals = [o.value for o in _window_naive(history, window)]
    return sum(vals) / len(vals) if vals else math.nan


def _std_naive(history, window):
    vals = [o.value for o in _window_naive(history, window)]
    if not vals:
        return math.nan
    mu = sum(vals) / len(vals)
    return math.sqrt(sum((v - mu) ** 2 for v in vals) / len(vals))


def _trend_naive(history, window):
    obs = _window_naive(history, window)
    if len(obs) < 2:
        return 0.0
    n = len(obs)
    mean_t = sum(o.time for o in obs) / n
    mean_v = sum(o.value for o in obs) / n
    sxx = sum((o.time - mean_t) ** 2 for o in obs)
    if sxx == 0.0:
        return 0.0
    return sum((o.time - mean_t) * (o.value - mean_v) for o in obs) / sxx


class TestWindowStatsEquivalence:
    def test_memoised_stats_equal_naive(self):
        history = History(Scope("load"), maxlen=64)
        rng = np.random.default_rng(3)
        for t in range(200):
            history.record(float(t), float(rng.normal()))
            for window in (None, 1, 5, 32, 64, 500):
                assert history.values(window) == [
                    o.value for o in _window_naive(history, window)]
                assert history.mean(window) == _mean_naive(history, window)
                assert history.std(window) == _std_naive(history, window)
                assert history.trend(window) == _trend_naive(history, window)

    def test_cache_invalidated_by_record(self):
        history = History(Scope("x"))
        history.record(0.0, 1.0)
        assert history.mean(4) == 1.0
        history.record(1.0, 3.0)
        assert history.mean(4) == 2.0


class TestBanditFastEquivalence:
    def test_decision_stream_identical(self):
        bandit = EpsilonGreedy(5, epsilon=0.2, discount=0.97,
                               rng=np.random.default_rng(42))
        reward_rng = np.random.default_rng(7)
        arms = []
        for _ in range(500):
            arm = bandit.select()
            arms.append(arm)
            bandit.update(arm, float(reward_rng.normal(0.1 * arm, 0.3)))
        goldens.assert_matches_path_golden(
            "bandit.epsilon_greedy",
            {"arms": arms, "values": [bandit.value(a) for a in range(5)]})


class TestMissionTablesJSONStable:
    def test_detection_rates_serialise_identically(self):
        # End-to-end guard on the numbers that reach the E12 table: the
        # aggregated detection rates must serialise to the reference
        # path's JSON.
        from repro.api import SwarmSimulator

        controller = SelfAwareSwarm(rng=np.random.default_rng(500))
        config = SwarmConfig(n_robots=9, steps=120, seed=0)
        result = SwarmSimulator(config, controller=controller).run()
        goldens.assert_matches_path_golden(
            "swarm.detection_rates",
            [result.detection_rate(), result.detection_rate(0.0, 48.0),
             result.detection_rate(54.0, 84.0)])
