"""Camera shard payloads: byte-identical across jobs and across paths.

The struct-of-arrays camera rewrite is only admissible if the E2 tables
cannot tell it happened.  Two axes of identity, both at JSON-byte
granularity:

- **jobs-1 vs jobs-4** -- the engine's worker pool must not perturb a
  single float;
- **fast vs naive** -- the columnised observer/best-observer scans and
  the merged utility+auction step against the payloads the object-graph
  reference produced, with and without the spatial grid, before it was
  deleted (pinned in ``golden_path_payloads.json``).
"""

from repro.experiments import e2_camera
from repro.experiments.engine import (SuiteJob, canonical_suite_text,
                                      run_suite)

from . import goldens


def _e2_job(seeds):
    return [SuiteJob(name="E2", module="repro.experiments.e2_camera",
                     shard_fn="run_shard", reduce_fn="reduce",
                     seeds=tuple(seeds), params={"steps": 120})]


class TestCameraShardsAcrossJobs:
    def test_jobs_1_vs_4_payloads_identical(self):
        seeds = (0, 1, 2, 3)
        serial = [e2_camera.run_shard(s, steps=120) for s in seeds]
        parallel = run_suite(_e2_job(seeds), n_jobs=4)
        engine_serial = run_suite(_e2_job(seeds), n_jobs=1)
        assert (canonical_suite_text(engine_serial.tables)
                == canonical_suite_text(parallel.tables))
        # The reduced table equals reducing the in-process payloads,
        # so the worker-pool payloads were byte-identical too.
        direct = e2_camera.reduce(serial, seeds=seeds, steps=120)
        assert (canonical_suite_text([direct])
                == canonical_suite_text(parallel.tables))


class TestCameraShardsFastVsNaive:
    def test_shard_payload_identical_fast_vs_naive(self):
        goldens.assert_matches_path_golden(
            "E2.shard.seed0", e2_camera.run_shard(0, steps=120))

    def test_grid_alone_identical_too(self):
        """Seed 1, where the reference's grid and no-grid scans agreed."""
        goldens.assert_matches_path_golden(
            "E2.shard.seed1", e2_camera.run_shard(1, steps=120))
