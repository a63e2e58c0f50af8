"""The Simulator contract: ``metrics()`` and ``snapshot()`` are fresh and
JSON-native.

JSON-native: ``json.loads(json.dumps(x)) == x`` with identical types at
every level (NaN allowed).  Fresh: a value taken at step k is unchanged
by later steps, and mutating it does not change the next call's answer.
The serving layer caches and encodes these values as they are, so a
substrate breaking either half would corrupt served replies.
"""

import copy
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (SIMULATORS, CameraConfig, CloudConfig, ClusterConfig,
                       CPNConfig, MulticoreConfig, SensornetConfig,
                       ServeConfig, SwarmConfig, make_simulator)
from repro.envgen import SCENARIOS

SEEDS = st.integers(0, 2 ** 16)
SCENARIO = st.sampled_from([""] + sorted(SCENARIOS))

#: Each substrate's config space: every named arm, small sizes.
CONFIGS = {
    "smartcamera": st.builds(
        CameraConfig, seed=SEEDS, rows=st.integers(1, 3),
        cols=st.integers(1, 3), n_objects=st.integers(1, 6),
        random_placement=st.booleans(),
        comm_weight_breaks=st.sampled_from([None, ((0.5, 0.05),)]),
        controller=st.sampled_from(["self_aware", "fixed"]),
        strategy=st.sampled_from(["active_broadcast", "active_smooth",
                                  "passive_broadcast", "passive_smooth"])),
    "cloud": st.builds(
        CloudConfig, seed=SEEDS, steps=st.integers(30, 60),
        scaler=st.sampled_from(["self_aware", "reactive", "static"]),
        boot_delay=st.integers(0, 5), scenario=SCENARIO),
    "multicore": st.builds(
        MulticoreConfig, seed=SEEDS, n_big=st.integers(0, 2),
        n_little=st.integers(1, 4), phase_length=st.integers(5, 50),
        governor=st.sampled_from(["self_aware", "ondemand", "static"])),
    "cpn": st.builds(
        CPNConfig, seed=SEEDS, n_nodes=st.integers(6, 14),
        n_flows=st.integers(1, 3), n_disturbances=st.integers(0, 3),
        disturbance_horizon=st.just(30.0),
        router=st.sampled_from(["self_aware", "static", "oracle"])),
    "swarm": st.builds(
        SwarmConfig, seed=SEEDS, steps=st.integers(30, 60),
        n_robots=st.integers(2, 6),
        controller=st.sampled_from(["self_aware", "static", "patrol"])),
    "sensornet": st.builds(
        SensornetConfig, seed=SEEDS, n_channels=st.integers(1, 8),
        budget=st.floats(0.5, 6.0),
        attention=st.sampled_from(["salience", "round_robin", "random",
                                   "full"])),
    "serve": st.builds(
        ServeConfig, seed=SEEDS, steps=st.integers(30, 60),
        warmup=st.integers(0, 20), govern_every=st.integers(1, 4),
        governor=st.sampled_from(["self_aware", "static"]),
        scenario=SCENARIO),
    "cluster": st.builds(
        ClusterConfig, seed=SEEDS, steps=st.integers(30, 60),
        nodes=st.integers(1, 3), sessions=st.integers(1, 8),
        warmup=st.integers(0, 20), worker_budget=st.integers(3, 8),
        traffic=st.sampled_from(["skewed", "flash", "uniform"]),
        flash_at=st.integers(0, 20),
        governor=st.sampled_from(["collective", "per_node", "static"]),
        scenario=SCENARIO),
}


def same(a, b) -> bool:
    """Equal with identical types at every level; NaN equals NaN."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return (list(a) == list(b)
                and all(same(a[key], b[key]) for key in a))
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def scramble(value) -> None:
    """Mutate every container reachable from ``value`` in place."""
    if isinstance(value, dict):
        for item in list(value.values()):
            scramble(item)
        value.clear()
        value["scrambled"] = True
    elif isinstance(value, list):
        for item in value:
            scramble(item)
        value.append("scrambled")


def test_every_substrate_has_a_config_space():
    assert set(CONFIGS) == set(SIMULATORS)


@pytest.mark.parametrize("substrate", sorted(CONFIGS))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), steps=st.integers(0, 30), more=st.integers(1, 5))
def test_metrics_and_snapshot_are_fresh_and_json_native(substrate, data,
                                                         steps, more):
    sim = make_simulator(substrate,
                         data.draw(CONFIGS[substrate], label="config"))
    for _ in range(steps):
        sim.step()
    for read in (sim.metrics, sim.snapshot):
        value = read()
        assert isinstance(value, dict)
        assert same(json.loads(json.dumps(value)), value), value
        kept = copy.deepcopy(value)
        scramble(value)
        assert same(read(), kept), f"{read.__name__}() aliases state"
    taken = [sim.metrics(), sim.snapshot()]
    kept = copy.deepcopy(taken)
    for _ in range(more):
        sim.step()
    assert same(taken, kept), "a later step changed an earlier value"
