"""Sensornet shard payloads: byte-identical across jobs and across paths.

The batched channel field and column-resolved sensing step are only
admissible if the E7 tables cannot tell they happened.  Same two axes
as the swarm and camera suites: jobs-1 vs jobs-4 through the engine's
worker pool, and fast vs naive at JSON-byte granularity -- the naive
side being the payloads the scalar field and node steps produced before
they were deleted (pinned in ``golden_path_payloads.json``).
"""

from repro.experiments import e7_attention
from repro.experiments.engine import (SuiteJob, canonical_suite_text,
                                      run_suite)

from . import goldens

BUDGETS = (2.0, 4.0)


def _e7_job(seeds):
    return [SuiteJob(name="E7", module="repro.experiments.e7_attention",
                     shard_fn="run_shard", reduce_fn="reduce",
                     seeds=tuple(seeds),
                     params={"budgets": BUDGETS, "steps": 120})]


class TestSensornetShardsAcrossJobs:
    def test_jobs_1_vs_4_payloads_identical(self):
        seeds = (0, 1, 2, 3)
        serial = [e7_attention.run_shard(s, budgets=BUDGETS, steps=120)
                  for s in seeds]
        parallel = run_suite(_e7_job(seeds), n_jobs=4)
        engine_serial = run_suite(_e7_job(seeds), n_jobs=1)
        assert (canonical_suite_text(engine_serial.tables)
                == canonical_suite_text(parallel.tables))
        direct = e7_attention.reduce(serial, seeds=seeds, budgets=BUDGETS,
                                     steps=120)
        assert (canonical_suite_text([direct])
                == canonical_suite_text(parallel.tables))


class TestSensornetShardsFastVsNaive:
    def test_shard_payload_identical_fast_vs_naive(self):
        goldens.assert_matches_path_golden(
            "E7.shard.seed0",
            e7_attention.run_shard(0, budgets=BUDGETS, steps=120))

    def test_batched_field_alone_identical_too(self):
        """Seed 1, where the reference's batched field under a scalar
        node matched too."""
        goldens.assert_matches_path_golden(
            "E7.shard.seed1",
            e7_attention.run_shard(1, budgets=BUDGETS, steps=120))
