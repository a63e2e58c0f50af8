"""Swarm shard payloads: byte-identical across jobs and across paths.

The SoA swarm rewrite is only admissible if the E12 tables cannot tell
it happened.  Two axes of identity, both at JSON-byte granularity:

- **jobs-1 vs jobs-4** -- the engine's worker pool must not perturb a
  single float;
- **fast vs naive** -- the struct-of-arrays controller and the gridded
  witness scan against the payloads the object-graph reference scans
  produced before they were deleted (pinned in
  ``golden_path_payloads.json``).
"""

import numpy as np

from repro.api import SwarmConfig
from repro.experiments import e12_swarm
from repro.experiments.engine import (SuiteJob, canonical_suite_text,
                                      run_suite)
from repro.swarm.robots import SelfAwareSwarm
from repro.swarm.sim import SwarmMission

from . import goldens


def _e12_job(seeds):
    return [SuiteJob(name="E12", module="repro.experiments.e12_swarm",
                     shard_fn="run_shard", reduce_fn="reduce",
                     seeds=tuple(seeds),
                     params={"steps": 120, "n_robots": 9})]


class TestSwarmShardsAcrossJobs:
    def test_jobs_1_vs_4_payloads_identical(self):
        seeds = (0, 1, 2, 3)
        serial = [e12_swarm.run_shard(s, steps=120, n_robots=9)
                  for s in seeds]
        parallel = run_suite(_e12_job(seeds), n_jobs=4)
        engine_serial = run_suite(_e12_job(seeds), n_jobs=1)
        assert (canonical_suite_text(engine_serial.tables)
                == canonical_suite_text(parallel.tables))
        # The reduced table equals reducing the in-process payloads,
        # so the worker-pool payloads were byte-identical too.
        direct = e12_swarm.reduce(serial, seeds=seeds, steps=120,
                                  n_robots=9)
        assert (canonical_suite_text([direct])
                == canonical_suite_text(parallel.tables))


class TestSwarmShardsFastVsNaive:
    def test_shard_payload_identical_fast_vs_naive(self):
        goldens.assert_matches_path_golden(
            "E12.shard.seed0", e12_swarm.run_shard(0, steps=120, n_robots=9))

    def test_scalar_soa_backend_identical_too(self):
        """The SoA mission on a denser event stream, robot positions
        included."""
        config = SwarmConfig(n_robots=9, steps=120, events_per_step=4.0,
                             seed=3)
        run = SwarmMission(SelfAwareSwarm(rng=np.random.default_rng(11)),
                           config)
        records = [run.step(float(t)) for t in range(120)]
        goldens.assert_matches_path_golden("swarm.mission.dense", {
            "records": [(r.time, r.events, r.witnessed, r.alive)
                        for r in records],
            "robots": [(r.robot_id, r.x, r.y, r.alive) for r in run.robots],
        })
