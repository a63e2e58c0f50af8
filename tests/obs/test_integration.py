"""End-to-end observability: the acceptance criteria of the obs subsystem.

A deterministic control-loop run with telemetry enabled must produce a
JSONL trace with per-step phase timings and decision events; counters and
histogram percentiles must be assertable from the run; each of the six
simulators must register at least one domain metric; and the meta level's
switch decisions must be reproducible from the event stream alone.
"""

import math

import numpy as np
import pytest

from repro.core import (CapabilityProfile, Goal, Objective, Sensor,
                        SensorSuite, build_node, narrate, private,
                        run_control_loop, switches_from_events)
from repro.obs import TelemetrySession, read_trace


class RegimeWorld:
    """Deterministic two-action environment (quickstart's world, seeded)."""

    def __init__(self, seed=7):
        self._rng = np.random.default_rng(seed)
        self.pressure = 0.2

    def candidate_actions(self, now):
        return ["economy", "turbo"]

    def sensed_pressure(self):
        return self.pressure

    def apply(self, action, now):
        self.pressure = float(np.clip(
            self.pressure + self._rng.normal(0.0, 0.02), 0.0, 1.0))
        if action == "turbo":
            perf, cost = 0.9, 0.7
        else:
            perf, cost = 0.9 - 0.8 * self.pressure, 0.2
        return {"perf": perf + float(self._rng.normal(0, 0.02)), "cost": cost}


def run_demo(steps=250, trace_path=None, consume=False):
    world = RegimeWorld(seed=7)
    goal = Goal(objectives=[Objective("perf"),
                            Objective("cost", maximise=False)],
                weights={"perf": 0.7, "cost": 0.3}, name="itest")
    sensors = SensorSuite([
        Sensor(private("pressure"), world.sensed_pressure, noise_std=0.05,
               rng=np.random.default_rng(1)),
    ])
    node = build_node("demo", CapabilityProfile.full_stack(), sensors, goal,
                      rng=np.random.default_rng(0))
    session = TelemetrySession(trace_path=trace_path)
    with session:
        if consume:
            node.log.consume(session.bus)
        trace = run_control_loop(node, world, goal, steps=steps)
    return node, trace, session


class TestControlLoopTelemetry:
    def test_trace_contains_per_step_phase_timings(self, tmp_path):
        path = str(tmp_path / "loop.jsonl")
        _, _, _ = run_demo(steps=50, trace_path=path)
        records = read_trace(path)
        steps = [r for r in records if r["event"] == "node.step"]
        assert len(steps) == 50
        for record in steps:
            for phase in ("sense", "model", "reason", "act"):
                assert record[phase] >= 0.0
        decisions = [r for r in records if r["event"] == "node.decision"]
        assert len(decisions) == 50
        assert all(r["action"] in ("economy", "turbo") for r in decisions)
        # The trace is self-contained: final record is the metric snapshot.
        assert records[-1]["event"] == "metrics.snapshot"

    def test_counters_and_percentiles_from_deterministic_run(self):
        steps = 250
        node, trace, session = run_demo(steps=steps)
        snap = session.snapshot()

        # Counter values are exact.
        assert snap["counters"]["steps{node=demo,sim=core}"] == float(steps)
        assert session.registry.total("steps") == float(steps)

        # The utility histogram summarises exactly the realised utilities.
        hist = snap["histograms"]["loop.utility{node=demo}"]
        utilities = trace.utilities()
        assert hist["count"] == float(steps)
        assert hist["sum"] == pytest.approx(sum(utilities))
        assert hist["min"] == min(utilities)
        assert hist["max"] == max(utilities)
        for p in (0.5, 0.95, 0.99):
            exact = float(np.quantile(utilities, p))
            spread = max(utilities) - min(utilities)
            assert abs(hist[f"p{round(p * 100)}"] - exact) < 0.1 * spread

        # Phase histograms cover every step for every phase.
        for phase in ("sense", "model", "reason", "act", "environment"):
            key = f"phase_seconds{{node=demo,phase={phase}}}"
            assert snap["histograms"][key]["count"] == float(steps)

    def test_disabled_run_emits_nothing(self):
        world = RegimeWorld()
        goal = Goal(objectives=[Objective("perf"),
                                Objective("cost", maximise=False)],
                    weights={"perf": 0.7, "cost": 0.3}, name="off")
        sensors = SensorSuite([
            Sensor(private("pressure"), world.sensed_pressure)])
        node = build_node("off", CapabilityProfile.full_stack(), sensors,
                          goal, rng=np.random.default_rng(0))
        from repro.obs import get_bus, get_registry
        before = len(get_bus())
        run_control_loop(node, world, goal, steps=20)
        assert len(get_bus()) == before
        assert get_registry().total("steps") == 0.0


class TestMetaFromEventStream:
    def test_switches_reproducible_from_events(self, tmp_path):
        path = str(tmp_path / "meta.jsonl")
        node, _, session = run_demo(steps=400, trace_path=path)
        actual = node.reasoner.switches
        assert actual, "expected at least one strategy switch in this run"

        # From the in-memory event stream.
        rebuilt = switches_from_events(session.bus.events())
        assert rebuilt == actual

        # From the JSONL trace alone (no live objects).
        from_trace = switches_from_events(read_trace(path))
        assert from_trace == actual

        # The meta level measured each strategy through the registry.
        hists = session.snapshot()["histograms"]
        observed = sum(
            h["count"] for key, h in hists.items()
            if key.startswith("meta.strategy_utility"))
        assert observed == 400.0
        assert session.snapshot()["counters"]["meta.switches"] == float(
            len(actual))


class TestExplanationReadsTelemetry:
    def test_narration_cites_phase_timings(self):
        node, _, _ = run_demo(steps=30)
        text = node.explain()
        assert "Measured phase timings" in text
        assert "sense" in text and "reason" in text

    def test_consumed_switch_events_are_narrated(self):
        node, _, _ = run_demo(steps=400, consume=True)
        assert node.reasoner.switches
        switched_steps = [s for s in node.log.steps() if s.events]
        assert switched_steps
        text = narrate(switched_steps[0])
        assert "switched my reasoning strategy" in text


class TestSimulatorDomainMetrics:
    """Every substrate registers at least one domain metric."""

    def test_smartcamera(self):
        from repro.api import CameraConfig, CameraSimulator
        with TelemetrySession() as session:
            CameraSimulator(CameraConfig(steps=15, n_objects=4)).run()
        snap = session.snapshot()
        assert snap["counters"]["steps{sim=smartcamera}"] == 15.0
        assert "camera.handovers" in snap["counters"]
        assert snap["histograms"]["camera.tracking_utility"]["count"] == 15.0

    def test_cloud(self):
        from repro.cloud.cluster import ServiceCluster
        with TelemetrySession() as session:
            cluster = ServiceCluster()
            cluster.request_scale(8)
            for t in range(10):
                cluster.step(float(t), 30.0)
        snap = session.snapshot()
        assert snap["counters"]["steps{sim=cloud}"] == 10.0
        assert snap["counters"]["cloud.scaling_actions"] == 1.0
        assert snap["histograms"]["cloud.qos"]["count"] == 10.0
        assert not math.isnan(snap["gauges"]["cloud.active_servers"])

    def test_cpn(self):
        from repro.api import CPNConfig, CPNSimulator
        from repro.cpn.routing import CPNRouter
        from repro.cpn.sim import default_flows
        from repro.cpn.topology import CPNetwork
        network = CPNetwork.grid(3, 3, seed=0)
        with TelemetrySession() as session:
            CPNSimulator(CPNConfig(steps=10), network=network,
                         router=CPNRouter(network),
                         flows=default_flows(network, 3)).run()
        snap = session.snapshot()
        assert snap["counters"]["steps{sim=cpn}"] == 10.0
        assert snap["counters"]["cpn.packets_sent"] > 0
        assert snap["histograms"]["cpn.packet_delay"]["count"] > 0

    def test_multicore(self):
        from repro.api import MulticoreConfig, MulticoreSimulator
        with TelemetrySession() as session:
            MulticoreSimulator(
                MulticoreConfig(steps=12, governor="ondemand")).run()
        snap = session.snapshot()
        assert snap["counters"]["steps{sim=multicore}"] == 12.0
        assert snap["histograms"]["multicore.throughput"]["count"] == 12.0
        assert not math.isnan(snap["gauges"]["multicore.max_temperature"])

    def test_swarm(self):
        from repro.api import SwarmConfig, SwarmSimulator
        with TelemetrySession() as session:
            SwarmSimulator(SwarmConfig(steps=15, n_robots=4,
                                       controller="static")).run()
        snap = session.snapshot()
        assert snap["counters"]["steps{sim=swarm}"] == 15.0
        assert snap["counters"]["swarm.events"] > 0
        # The default mission kills robots 0 and 1 at 70% of the run.
        assert snap["gauges"]["swarm.alive_robots"] == 2.0

    def test_sensornet(self):
        from repro.api import SensornetConfig, SensornetSimulator
        from repro.core.attention import RoundRobinAttention
        from repro.sensornet.field import ChannelField, mixed_channel_specs
        field = ChannelField(mixed_channel_specs(4, seed=1),
                             rng=np.random.default_rng(0))
        with TelemetrySession() as session:
            SensornetSimulator(SensornetConfig(steps=15, budget=2.0),
                               field=field,
                               attention=RoundRobinAttention()).run()
        snap = session.snapshot()
        assert snap["counters"]["steps{sim=sensornet}"] == 15.0
        assert snap["counters"]["sensornet.energy_spent"] > 0
        assert snap["histograms"]["sensornet.error"]["count"] == 15.0
