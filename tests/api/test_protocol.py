"""The uniform Simulator facade: protocol, configs, registry, replay."""

import dataclasses
import json

import pytest

from repro.api import (SIMULATORS, CameraConfig, CameraSimulator,
                       CloudConfig, CloudSimulator, ClusterConfig,
                       CPNConfig, MulticoreConfig, SensornetConfig,
                       SensornetSimulator, ServeConfig, Simulator,
                       SwarmConfig, SwarmSimulator, make_simulator)
from repro.twin import SCHEMA, TraceWorkload

SMALL = {
    "smartcamera": CameraConfig(steps=30, n_objects=4, seed=2),
    "cloud": CloudConfig(steps=40, seed=2),
    "multicore": MulticoreConfig(steps=40, seed=2),
    "cpn": CPNConfig(steps=30, n_nodes=12, n_flows=2, seed=2),
    "swarm": SwarmConfig(steps=30, n_robots=4, seed=2),
    "sensornet": SensornetConfig(steps=40, n_channels=4, seed=2),
    "serve": ServeConfig(steps=60, warmup=10, seed=2),
    "cluster": ClusterConfig(steps=60, warmup=10, nodes=2, sessions=6,
                             worker_budget=4, offered_load=10.0, seed=2),
}


def _trace(substrate, ticks=20):
    """A twin replay source for ``serve`` / ``cluster``: a live object,
    so the adapter reuses it across resets."""
    header = {"schema": SCHEMA, "substrate": substrate, "ticks": ticks,
              "sessions": ["s0", "s1", "s2"]}
    records = []
    for t in range(ticks):
        offered = (7 * t) % 13
        records.append({"t": t, "offered": offered,
                        "by_session": {"s0": offered // 3,
                                       "s2": offered - offered // 3}})
    return TraceWorkload(header, records)


def _stepped(sim, k=5):
    """``sim``'s metrics and snapshot after ``k`` more steps, as text."""
    for _ in range(k):
        sim.step()
    return json.dumps([sim.metrics(), sim.snapshot()], sort_keys=True,
                      default=repr)


class TestRegistry:
    def test_every_substrate_registered(self):
        assert set(SIMULATORS) == set(SMALL)

    def test_make_simulator_builds_the_right_adapter(self):
        for substrate, (config_cls, adapter_cls) in SIMULATORS.items():
            assert isinstance(SMALL[substrate], config_cls)
            sim = make_simulator(substrate, SMALL[substrate])
            assert isinstance(sim, adapter_cls)

    def test_unknown_substrate_names_the_known_ones(self):
        with pytest.raises(ValueError, match="mainframe") as excinfo:
            make_simulator("mainframe")
        # The message lists every registered substrate, sorted.
        for substrate in SIMULATORS:
            assert substrate in str(excinfo.value)

    def test_default_config_per_substrate(self):
        # No config at all must give a runnable simulator.
        sim = make_simulator("sensornet")
        assert isinstance(sim, SensornetSimulator)
        sim.step()


class TestProtocol:
    @pytest.mark.parametrize("substrate", sorted(SMALL))
    def test_adapters_satisfy_simulator(self, substrate):
        sim = make_simulator(substrate, SMALL[substrate])
        assert isinstance(sim, Simulator)

    @pytest.mark.parametrize("substrate", sorted(SMALL))
    def test_step_snapshot_metrics_shapes(self, substrate):
        sim = make_simulator(substrate, SMALL[substrate])
        for _ in range(5):
            sim.step()
        snapshot = sim.snapshot()
        assert snapshot["substrate"] == substrate
        assert snapshot["steps_taken"] == 5
        metrics = sim.metrics()
        assert metrics and all(isinstance(v, float)
                               for v in metrics.values())


class TestConfigs:
    def test_frozen(self):
        config = CloudConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.steps = 7

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            CloudConfig(600)

    def test_replace_for_sweeps(self):
        base = CameraConfig(steps=100)
        bumped = dataclasses.replace(base, seed=5)
        assert bumped.seed == 5 and bumped.steps == 100

    def test_camera_fixed_needs_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            CameraSimulator(CameraConfig(controller="fixed"))


class TestDeterministicReplay:
    @pytest.mark.parametrize("substrate", sorted(SMALL))
    def test_reset_replays_byte_identically(self, substrate):
        sim = make_simulator(substrate, SMALL[substrate])
        first = (sim.run(), sim.metrics(), sim.snapshot())
        sim.reset(SMALL[substrate].seed)
        second = (sim.run(), sim.metrics(), sim.snapshot())
        assert first[1] == second[1]
        assert first[2] == second[2]

    @pytest.mark.parametrize("substrate", sorted(SMALL))
    def test_constructor_already_resets_to_the_config_seed(self, substrate):
        """The serving layer builds simulators without a further
        ``reset``: a fresh adapter must already sit at ``reset(seed)``."""
        built = make_simulator(substrate, SMALL[substrate])
        reset = make_simulator(substrate, SMALL[substrate])
        reset.reset(SMALL[substrate].seed)
        assert _stepped(built) == _stepped(reset)

    @pytest.mark.parametrize(
        "substrate", sorted(SMALL) + ["serve-trace", "cluster-trace"])
    def test_reset_seed_equals_a_fresh_run_at_that_seed(self, substrate):
        """Every adapter honours ``reset(s)`` the same way: after steps
        at the config seed, ``reset(s)`` replays exactly what a fresh
        adapter over ``replace(config, seed=s)`` does -- also when a
        serving adapter replays one trace object across the reset."""
        substrate, _, replay = substrate.partition("-")
        live = {"workload": _trace(substrate)} if replay else {}
        config = SMALL[substrate]
        seed = config.seed + 7
        reset = make_simulator(substrate, config, **live)
        _stepped(reset, 3)
        reset.reset(seed)
        fresh = make_simulator(substrate, dataclasses.replace(config,
                                                              seed=seed),
                               **live)
        assert _stepped(reset) == _stepped(fresh)

    def test_different_seed_differs(self):
        sim = CloudSimulator(SMALL["cloud"])
        sim.run()
        base = sim.metrics()
        sim.reset(99)
        sim.run()
        assert sim.metrics() != base

    def test_two_instances_agree(self):
        a = SwarmSimulator(SMALL["swarm"])
        b = SwarmSimulator(SMALL["swarm"])
        a.run()
        b.run()
        assert a.metrics() == b.metrics()
