"""Byte-identical experiment tables: shard payloads vs committed golden.

``golden_shard_payloads.json`` was generated from the pre-optimisation
code.  The optimisation pass must not move a single float, so a fresh
run of the same shards must serialise to exactly the committed JSON.
These are the slowest tests in the suite but the strongest guarantee
the paper tables survived the kernel rewrite.
"""

import json
import os

import pytest

from repro.experiments import (ablations, e1_levels, e2_camera, e6_cpn,
                               e7_attention, e12_swarm, e14_serving,
                               e16_cluster)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__),
                           "golden_shard_payloads.json")

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
}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("experiment", sorted(SHARDS))
def test_shard_payload_matches_golden(golden, experiment):
    fresh = json.dumps(SHARDS[experiment](), sort_keys=True)
    committed = json.dumps(golden[experiment], sort_keys=True)
    assert fresh == committed, (
        f"{experiment} shard payload drifted from the committed golden -- "
        f"an optimisation changed experiment arithmetic")
