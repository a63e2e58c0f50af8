"""Byte-identical experiment tables and fault runs vs committed goldens.

``golden_shard_payloads.json`` was generated from the pre-optimisation
code.  The optimisation pass must not move a single float, so a fresh
run of the same shards must serialise to exactly the committed JSON.
These are the slowest tests in the suite but the strongest guarantee
the paper tables survived the kernel rewrite.

The fault-armed runs below pin the injection semantics of each
substrate step: which draws the injector makes, in which order, and
what they do to the run (see :mod:`tests.perf.goldens`).
"""

import json

import pytest

from repro.api import (CameraConfig, CameraSimulator, ClusterConfig,
                       ClusterSimulator, SensornetConfig, SensornetSimulator,
                       ServeConfig, ServeSimulator, SwarmConfig,
                       SwarmSimulator)
from repro.experiments import (ablations, e1_levels, e2_camera, e6_cpn,
                               e7_attention, e12_swarm, e13_resilience,
                               e14_serving, e16_cluster)
from repro.faults.injector import FaultInjector
from repro.faults.plan import (CLOCK_SKEW, CRASH, FAULT_KINDS,
                               SENSOR_DROPOUT, SENSOR_NOISE, WORKLOAD_SPIKE,
                               FaultPlan, FaultSpec)
from repro.obs.export import TelemetrySession
from repro.twin import TraceRecorder, TraceWorkload

from . import goldens

SHARDS = {
    "E1": lambda: e1_levels.run_shard(0, steps=200),
    "E2": lambda: e2_camera.run_shard(0, steps=120),
    "E6": lambda: e6_cpn.run_shard(0, n_nodes=20, steps=150),
    "E12": lambda: e12_swarm.run_shard(0, steps=200, n_robots=9),
    # Quick-suite sizes: the scalar clamps (A5), the batched sensornet
    # walk (E7) and the serving p95s (E14, E16).
    "A5": lambda: ablations.run_knowledge_representation_shard(
        0, steps=500, granularities=(1, 3, 5, 11, 41)),
    "E7": lambda: e7_attention.run_shard(0, budgets=(2.0, 6.0), steps=250),
    "E14": lambda: e14_serving.run_shard(0, steps=300, loads=(4.0, 16.0)),
    "E16": lambda: e16_cluster.run_shard(0, steps=250,
                                         tiers=("skewed", "flash")),
    # Fault-armed: camera crashes and bid corruption, cloud surges.
    "E13": lambda: e13_resilience.run_shard(0, steps=200),
    "E13/seed1": lambda: e13_resilience.run_shard(1, steps=200),
}


@pytest.fixture(scope="module")
def golden():
    return goldens.load(goldens.SHARD_GOLDEN_PATH)


@pytest.mark.parametrize("experiment", sorted(SHARDS))
def test_shard_payload_matches_golden(golden, experiment):
    fresh = json.dumps(SHARDS[experiment](), sort_keys=True)
    committed = json.dumps(golden[experiment], sort_keys=True)
    assert fresh == committed, (
        f"{experiment} shard payload drifted from the committed golden -- "
        f"an optimisation changed experiment arithmetic")


def _plan(kind, intensity, start, end, seed):
    return FaultPlan(specs=(FaultSpec(kind=kind, start=start, end=end,
                                      intensity=intensity),), seed=seed)


# -- smart camera: one spec per kind, both controller families ----------

def _camera_runs():
    runs = []
    for i, kind in enumerate(FAULT_KINDS):
        for j, controller in enumerate(("self_aware", "fixed")):
            runs.append((kind, controller, (0.2, 0.5, 0.9)[(2 * i + j) % 3],
                         (0, 4)[(i + j) % 2]))
    return runs


CAMERA_RUNS = _camera_runs()


def _camera_fault_payload(kind, controller, intensity, seed):
    config = CameraConfig(rows=4, cols=4, radius=0.24, n_objects=30,
                          object_speed=0.035, detection_rate=0.2,
                          random_placement=True, steps=120, seed=seed,
                          controller=controller,
                          strategy=("active_broadcast"
                                    if controller == "fixed" else None))
    injector = FaultInjector(_plan(kind, intensity, 30.0, 90.0, seed + 7),
                             run_seed=seed)
    sim = CameraSimulator(config, faults=injector)
    sim.run()
    return {"metrics": sim.metrics(), "snapshot": sim.snapshot(),
            "state": goldens.camera_state(sim._sim),
            "fault_rng": injector._rng.bit_generator.state}


@pytest.mark.parametrize("kind,controller,intensity,seed", CAMERA_RUNS,
                         ids=[f"{k}-{c}" for k, c, _, _ in CAMERA_RUNS])
def test_camera_fault_run_matches_golden(kind, controller, intensity, seed):
    goldens.assert_matches_path_golden(
        f"camera.faults.{kind}.{controller}",
        _camera_fault_payload(kind, controller, intensity, seed))


# -- sensornet: every kind at four intensities, plus the policy path ----

def _sensornet_runs():
    runs = []
    index = 0
    for kind in FAULT_KINDS:
        for intensity in (0.0, 0.3, 0.7, 1.0):
            runs.append(("salience", kind, intensity, index % 3,
                         (4, 16)[index % 2]))
            index += 1
    runs.append(("round_robin", SENSOR_DROPOUT, 0.5, 1, 8))
    runs.append(("random", CLOCK_SKEW, 0.7, 2, 8))
    return runs


SENSORNET_RUNS = _sensornet_runs()


def _sensornet_fault_payload(attention, kind, intensity, seed, n_channels):
    config = SensornetConfig(steps=250, seed=seed, n_channels=n_channels,
                             budget=n_channels * 0.4, attention=attention)
    injector = FaultInjector(_plan(kind, intensity, 50.0, 200.0, seed + 3),
                             run_seed=seed)
    sim = SensornetSimulator(config, faults=injector)
    sim.run()
    return {"records": [(r.time, r.error, r.energy_spent,
                         r.channels_sampled) for r in sim.records],
            "metrics": sim.metrics(), "snapshot": sim.snapshot(),
            "state": goldens.sensornet_state(sim._node),
            "fault_rng": injector._rng.bit_generator.state}


@pytest.mark.parametrize(
    "attention,kind,intensity,seed,n_channels", SENSORNET_RUNS,
    ids=[f"{a}-{k}-{i:g}" for a, k, i, _, _ in SENSORNET_RUNS])
def test_sensornet_fault_run_matches_golden(attention, kind, intensity,
                                            seed, n_channels):
    goldens.assert_matches_path_golden(
        f"sensornet.faults.{attention}.{kind}.{intensity:g}",
        _sensornet_fault_payload(attention, kind, intensity, seed,
                                 n_channels))


# -- swarm: crash-and-recover through the mission -----------------------

def test_swarm_crash_run_matches_golden():
    plan = FaultPlan(specs=(
        FaultSpec(kind=CRASH, start=40.0, end=100.0, intensity=0.4),
        FaultSpec(kind=SENSOR_NOISE, start=40.0, end=100.0, intensity=0.5),
    ), seed=21)
    injector = FaultInjector(plan, run_seed=2)
    sim = SwarmSimulator(SwarmConfig(n_robots=9, steps=150, seed=2),
                         faults=injector)
    sim.run()
    mission = sim._mission
    goldens.assert_matches_path_golden("swarm.faults.crash", {
        "records": [(r.time, r.events, r.witnessed, r.alive)
                    for r in mission.records],
        "robots": [(r.robot_id, r.x, r.y, r.alive) for r in mission.robots],
        "metrics": sim.metrics(), "snapshot": sim.snapshot(),
        "fault_rng": injector._rng.bit_generator.state,
        "controller_rng": mission.controller._rng.bit_generator.state,
    })


# -- serving: the simulated node and the cluster of them -----------------

def _serve_config(**overrides):
    return ServeConfig(**{"steps": 240, "seed": 1, "offered_load": 14.0,
                          "warmup": 40, **overrides})


def _cluster_config(**overrides):
    return ClusterConfig(**{"steps": 240, "seed": 2, "warmup": 40,
                            **overrides})


def _serving_payload(sim, injector=None):
    sim.run()
    payload = goldens.serving_state(sim)
    if injector is not None:
        payload["fault_rng"] = injector._rng.bit_generator.state
    return payload


def _replay_payload(make_sim, live_config, replay_config):
    """A live run recorded with telemetry on, then replayed as a trace."""
    recorder = TraceRecorder(source="golden")
    with TelemetrySession() as session:
        recorder.attach(session.bus)
        live = _serving_payload(make_sim(live_config))
        recorder.detach()
    workload = TraceWorkload.from_recorder(recorder)
    replay = _serving_payload(make_sim(replay_config, workload=workload))
    return {"live": live, "replay": replay}


SERVE_RUNS = {
    "self_aware": dict(governor="self_aware"),
    "static": dict(governor="static"),
    "scenario.flash_crowd": dict(scenario="flash_crowd"),
}


@pytest.mark.parametrize("case", sorted(SERVE_RUNS))
def test_serve_run_matches_golden(case):
    goldens.assert_matches_path_golden(
        f"serve.{case}",
        _serving_payload(ServeSimulator(_serve_config(**SERVE_RUNS[case]))))


SERVE_FAULTS = (CRASH, SENSOR_NOISE, WORKLOAD_SPIKE)


def _serve_fault_payload(kind):
    injector = FaultInjector(_plan(kind, 0.5, 60.0, 180.0, 9), run_seed=1)
    return _serving_payload(
        ServeSimulator(_serve_config(), faults=injector), injector)


@pytest.mark.parametrize("kind", SERVE_FAULTS)
def test_serve_fault_run_matches_golden(kind):
    goldens.assert_matches_path_golden(f"serve.faults.{kind}",
                                       _serve_fault_payload(kind))


def test_serve_replay_matches_golden():
    goldens.assert_matches_path_golden("serve.replay", _replay_payload(
        ServeSimulator, _serve_config(), _serve_config(seed=7)))


CLUSTER_RUNS = [(arm, traffic) for arm in ("collective", "per_node", "static")
                for traffic in ("skewed", "flash")]


@pytest.mark.parametrize("arm,traffic", CLUSTER_RUNS)
def test_cluster_run_matches_golden(arm, traffic):
    sim = ClusterSimulator(_cluster_config(governor=arm, traffic=traffic))
    goldens.assert_matches_path_golden(f"cluster.{arm}.{traffic}",
                                       _serving_payload(sim))


def test_cluster_replay_matches_golden():
    goldens.assert_matches_path_golden("cluster.replay", _replay_payload(
        ClusterSimulator, _cluster_config(traffic="flash"),
        _cluster_config(traffic="flash", seed=5)))


def test_fault_runs_differ_from_clean_runs():
    """The counter-check: each pinned fault kind really reaches the step."""
    for kind in (CRASH, SENSOR_NOISE, SENSOR_DROPOUT):
        faulted = _camera_fault_payload(kind, "self_aware", 0.5, 0)
        clean = _camera_fault_payload(kind, "self_aware", 0.0, 0)
        assert faulted["state"] != clean["state"], kind
    for kind in (SENSOR_DROPOUT, CLOCK_SKEW):
        faulted = _sensornet_fault_payload("salience", kind, 0.7, 0, 4)
        clean = _sensornet_fault_payload("salience", kind, 0.0, 0, 4)
        assert faulted["records"] != clean["records"], kind
    clean = _serving_payload(ServeSimulator(_serve_config()))
    for kind in SERVE_FAULTS:
        assert _serve_fault_payload(kind)["records"] != clean["records"], kind
