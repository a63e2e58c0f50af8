"""The parallel engine: determinism, caching, telemetry merge, speedup.

The two guarantees the engine makes -- tables are byte-identical at any
worker count, and a warm cache satisfies every shard without executing
anything -- are exactly what these tests pin down, on small real
experiments (E3 and E9, both fully deterministic).  Two speedup claims
ride on them: on a box with at least four cores ``--jobs 4`` beats
``--jobs 1`` by a wide margin on a quick-suite slice, and a warm cache
beats a cold run by an order of magnitude (disk reads replace
simulation).  Timing-derived values (the wall/step-rate provenance
note, E11's measured overhead column) honestly vary run to run and sit
outside the guarantee; the ``canonical_*`` helpers strip the note
before comparing.
"""

import math
import os
import time

import pytest

from repro.experiments.engine import (EngineReport, ShardCache, ShardSpec,
                                      SuiteJob, canonical_suite_text,
                                      canonical_table_text, code_fingerprint,
                                      run_suite, shard_cache_key)
from repro.experiments.harness import ExperimentTable, format_table
from repro.experiments.run_all import suite_jobs
from repro.obs import TelemetrySession
from repro.obs.metrics import MergedHistogram, MetricsRegistry


def _small_jobs():
    """Two real, deterministic experiments at smoke size."""
    return [
        SuiteJob(name="E3", module="repro.experiments.e3_cloud",
                 shard_fn="run_shard", reduce_fn="reduce",
                 seeds=(0, 1), params={"steps": 120}),
        SuiteJob(name="E9", module="repro.experiments.e9_collective",
                 shard_fn="run_shard", reduce_fn="reduce",
                 seeds=(0, 1), params={"sizes": (10,), "gossip_rounds": 10}),
    ]


class TestDeterminismAcrossJobs:
    def test_serial_and_parallel_tables_identical(self):
        serial = run_suite(_small_jobs(), n_jobs=1)
        parallel = run_suite(_small_jobs(), n_jobs=4)
        assert serial.executed_shards == parallel.executed_shards == 4
        assert (canonical_suite_text(serial.tables)
                == canonical_suite_text(parallel.tables))

    def test_parallel_matches_module_run(self):
        """The engine path reproduces the plain run() entry point."""
        from repro.experiments import e3_cloud
        direct = e3_cloud.run(seeds=(0, 1), steps=120)
        engine = run_suite(_small_jobs()[:1], n_jobs=4).tables[0]
        assert canonical_table_text(direct) == canonical_table_text(engine)

    def test_telemetry_identical_serial_vs_parallel(self):
        with TelemetrySession() as s1:
            run_suite(_small_jobs(), n_jobs=1, telemetry=s1)
        with TelemetrySession() as s2:
            run_suite(_small_jobs(), n_jobs=4, telemetry=s2)
        snap1, snap2 = s1.snapshot(), s2.snapshot()
        assert snap1["counters"] == snap2["counters"]
        assert snap1["gauges"] == snap2["gauges"]
        events1 = [(e.name, e.fields) for e in s1.bus.events()]
        events2 = [(e.name, e.fields) for e in s2.bus.events()]
        assert events1 == events2


class TestProvenanceNote:
    def test_wall_note_without_telemetry(self):
        notes = run_suite(_small_jobs()[:1], n_jobs=1).tables[0].notes
        assert "wall " in notes
        assert "steps/s" not in notes

    def test_telemetry_adds_step_rate(self):
        with TelemetrySession() as session:
            report = run_suite(_small_jobs()[:1], n_jobs=1, telemetry=session)
        assert "steps/s [telemetry]" in report.tables[0].notes


class TestShardCache:
    def test_warm_cache_executes_zero_shards(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = run_suite(_small_jobs(), n_jobs=1, cache=True,
                         cache_dir=cache_dir)
        assert cold.executed_shards == 4 and cold.cached_shards == 0
        warm = run_suite(_small_jobs(), n_jobs=1, cache=True,
                         cache_dir=cache_dir)
        assert warm.executed_shards == 0 and warm.cached_shards == 4
        assert (canonical_suite_text(cold.tables)
                == canonical_suite_text(warm.tables))

    def test_cached_tables_note_reuse(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_suite(_small_jobs()[:1], cache=True, cache_dir=cache_dir)
        warm = run_suite(_small_jobs()[:1], cache=True, cache_dir=cache_dir)
        assert "2/2 shards cached" in warm.tables[0].notes

    def test_param_change_misses(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        run_suite(_small_jobs()[:1], cache=True, cache_dir=cache_dir)
        bumped = [SuiteJob(name="E3", module="repro.experiments.e3_cloud",
                           shard_fn="run_shard", reduce_fn="reduce",
                           seeds=(0, 1), params={"steps": 121})]
        again = run_suite(bumped, cache=True, cache_dir=cache_dir)
        assert again.executed_shards == 2 and again.cached_shards == 0

    def test_key_depends_on_code_fingerprint_and_inputs(self):
        spec = ShardSpec(job_name="E3", module="repro.experiments.e3_cloud",
                         shard_fn="run_shard", seed=0,
                         params=(("steps", 120),))
        other_seed = ShardSpec(job_name="E3",
                               module="repro.experiments.e3_cloud",
                               shard_fn="run_shard", seed=1,
                               params=(("steps", 120),))
        key = shard_cache_key(spec, "fp-a")
        assert key != shard_cache_key(spec, "fp-b")
        assert key != shard_cache_key(other_seed, "fp-a")
        assert key == shard_cache_key(spec, "fp-a")

    def test_code_fingerprint_tracks_sources(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "a.py").write_text("x = 1\n")
        before = code_fingerprint(str(pkg))
        assert before == code_fingerprint(str(pkg))
        (pkg / "a.py").write_text("x = 2\n")
        assert before != code_fingerprint(str(pkg))

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ShardCache(root=str(tmp_path), fingerprint="fp")
        spec = ShardSpec(job_name="J", module="m", shard_fn="f", seed=0,
                         params=())
        assert cache.load(spec) is None
        path = cache._path(spec)
        import os
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            handle.write("{not json")
        assert cache.load(spec) is None
        assert cache.misses == 2


class TestTelemetryMerge:
    def test_merge_snapshot_counters_and_gauges(self):
        worker = MetricsRegistry()
        worker.counter("steps", sim="cloud").increment(100.0)
        worker.gauge("servers").set(7.0)
        parent = MetricsRegistry()
        parent.counter("steps", sim="cloud").increment(50.0)
        parent.merge_snapshot(worker.snapshot())
        assert parent.total("steps") == 150.0
        assert parent.gauge("servers").value == 7.0

    def test_merge_snapshot_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for value in (1.0, 2.0, 3.0):
            a.histogram("latency").observe(value)
        for value in (10.0, 20.0, 30.0):
            b.histogram("latency").observe(value)
        parent = MetricsRegistry()
        parent.merge_snapshot(a.snapshot())
        parent.merge_snapshot(b.snapshot())
        summary = parent.snapshot()["histograms"]["latency"]
        assert summary["count"] == 6.0
        assert summary["sum"] == pytest.approx(66.0)
        assert summary["min"] == 1.0 and summary["max"] == 30.0
        assert summary["mean"] == pytest.approx(11.0)

    def test_merged_histogram_quantiles_weighted(self):
        merged = MergedHistogram()
        merged.absorb_summary({"count": 1.0, "sum": 1.0, "min": 1.0,
                               "max": 1.0, "p50": 1.0})
        merged.absorb_summary({"count": 3.0, "sum": 15.0, "min": 5.0,
                               "max": 5.0, "p50": 5.0})
        assert merged.quantile(0.5) == pytest.approx(4.0)
        assert merged.summary()["p50"] == pytest.approx(4.0)

    def test_merged_histogram_empty(self):
        merged = MergedHistogram()
        merged.absorb_summary({"count": 0.0, "sum": 0.0})
        assert merged.count == 0
        assert math.isnan(merged.mean)

    def test_session_absorb_replays_events(self):
        with TelemetrySession() as session:
            session.absorb([{"event": "sim.tick", "seq": 9, "t": 1},
                            {"event": "sim.tick", "seq": 10, "t": 2}])
        events = session.bus.events("sim.tick")
        assert [e.fields["t"] for e in events] == [1, 2]
        # Parent assigns fresh sequence numbers.
        assert [e.seq for e in events] == [0, 1]


class TestCanonicalText:
    def test_strips_only_volatile_notes(self):
        table = ExperimentTable(experiment_id="T", title="t",
                                columns=["a"], rows=[{"a": 1.0}],
                                notes="fixed context; more context")
        table.append_note("wall 1.23s, 500 steps, 405 steps/s [telemetry]")
        text = canonical_table_text(table)
        assert "wall" not in text
        assert "fixed context; more context" in text
        assert format_table(table) != text

    def test_note_free_table_passthrough(self):
        table = ExperimentTable(experiment_id="T", title="t",
                                columns=["a"], rows=[{"a": 1.0}])
        assert canonical_table_text(table) == format_table(table)


class TestEngineReport:
    def test_total_shards(self):
        report = EngineReport(tables=[], executed_shards=3, cached_shards=2)
        assert report.total_shards == 5


#: A parallel-friendly slice of the quick suite: enough shards to keep
#: four workers busy, small enough to time in a test.
_SPEEDUP_NAMES = ("E3", "E3-goal", "E5", "E6", "E9", "A2")


def _speedup_jobs():
    return [job for job in suite_jobs(quick=True)
            if job.name in _SPEEDUP_NAMES]


def _timed(**kwargs):
    start = time.perf_counter()
    report = run_suite(_speedup_jobs(), **kwargs)
    return report, time.perf_counter() - start


class TestSpeedup:
    @pytest.mark.skipif((os.cpu_count() or 1) < 4,
                        reason="pool speedup needs at least 4 cores")
    def test_jobs4_at_least_1_8x_faster_than_serial(self):
        # Warm-up: imports and any lazy module state, so both timed runs
        # pay identical fixed costs.
        run_suite(_speedup_jobs()[:1], n_jobs=1)
        serial, serial_wall = _timed(n_jobs=1)
        parallel, parallel_wall = _timed(n_jobs=4)
        assert (canonical_suite_text(serial.tables)
                == canonical_suite_text(parallel.tables))
        assert serial_wall / parallel_wall >= 1.8, (
            f"serial {serial_wall:.2f}s vs 4 workers {parallel_wall:.2f}s")

    def test_warm_cache_at_least_5x_faster_than_cold(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold, cold_wall = _timed(n_jobs=1, cache=True, cache_dir=cache_dir)
        warm, warm_wall = _timed(n_jobs=1, cache=True, cache_dir=cache_dir)
        assert cold.cached_shards == 0
        assert warm.executed_shards == 0
        assert (canonical_suite_text(cold.tables)
                == canonical_suite_text(warm.tables))
        assert cold_wall / warm_wall >= 5.0, (
            f"cold {cold_wall:.2f}s vs warm {warm_wall:.2f}s")
