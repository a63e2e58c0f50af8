"""TraceRecorder + trace schema: ingestion, round-trip, validation."""

import json

import pytest

from repro.api import ClusterSimulator, ServeSimulator
from repro.api.configs import ClusterConfig, ServeConfig
from repro.obs.export import TelemetrySession
from repro.twin import (SCHEMA, TraceRecorder, TraceSchemaError,
                        TraceWorkload)


class _Event:
    """A minimal stand-in for repro.obs.events.Event."""

    def __init__(self, name, **fields):
        self.name = name
        self.fields = fields


def _record_serve(steps=120, seed=2, **config_kwargs):
    recorder = TraceRecorder(source="test")
    with TelemetrySession() as session:
        recorder.attach(session.bus)
        sim = ServeSimulator(
            ServeConfig(steps=steps, seed=seed, **config_kwargs))
        sim.run()
        recorder.detach()
    return recorder, sim


class TestRecorderIngestion:
    def test_records_simulated_serve_run(self):
        recorder, sim = _record_serve()
        assert recorder.substrate == "serve"
        assert recorder.ticks == 120
        assert recorder.total_offered == sum(
            int(r["offered"]) for r in sim.result())

    def test_records_cluster_run_with_sessions(self):
        recorder = TraceRecorder(source="test")
        with TelemetrySession() as session:
            recorder.attach(session.bus)
            ClusterSimulator(ClusterConfig(steps=80, seed=1)).run()
            recorder.detach()
        assert recorder.substrate == "cluster"
        assert recorder.ticks == 80
        assert len(recorder.sessions()) > 0

    def test_live_server_events_bucket_by_wall_clock(self):
        recorder = TraceRecorder(tick_seconds=0.5)
        recorder(_Event("serve.request", op="step", t=10.0, ok=True,
                        session="s1"))
        recorder(_Event("serve.request", op="step", t=10.4, ok=True,
                        session="s1"))
        recorder(_Event("serve.request", op="run", t=11.1, ok=False,
                        session="s2"))
        assert recorder.ticks == 3  # buckets 0 and 2 of width 0.5s
        assert recorder.total_offered == 3
        assert recorder.total_ok == 2
        assert recorder.sessions() == ["s1", "s2"]

    def test_control_plane_ops_are_not_load(self):
        recorder = TraceRecorder()
        recorder(_Event("serve.request", op="stats", t=1.0, ok=True))
        recorder(_Event("serve.request", op="create", t=1.1, ok=True))
        assert recorder.total_offered == 0

    def test_detach_stops_ingestion(self):
        recorder = TraceRecorder()
        with TelemetrySession() as session:
            recorder.attach(session.bus)
            recorder.detach()
            ServeSimulator(ServeConfig(steps=10, seed=0)).run()
        assert recorder.total_offered == 0

    def test_tick_seconds_must_be_positive(self):
        with pytest.raises(ValueError, match="tick_seconds"):
            TraceRecorder(tick_seconds=0.0)


class TestRoundTrip:
    def test_write_then_load_preserves_everything(self, tmp_path):
        recorder, _ = _record_serve(steps=60)
        path = str(tmp_path / "trace.jsonl")
        written = recorder.write(path)
        assert written == 60
        workload = TraceWorkload.load(path)
        assert workload.ticks == recorder.ticks
        assert workload.total_offered == recorder.total_offered
        assert workload.header["schema"] == SCHEMA

    def test_from_recorder_equals_file_round_trip(self, tmp_path):
        recorder, _ = _record_serve(steps=40)
        path = str(tmp_path / "trace.jsonl")
        recorder.write(path)
        direct = TraceWorkload.from_recorder(recorder)
        loaded = TraceWorkload.load(path)
        for t in range(45):
            assert direct.offered(t) == loaded.offered(t)

    def test_header_is_the_first_line_and_sorted(self, tmp_path):
        recorder, _ = _record_serve(steps=10)
        path = str(tmp_path / "trace.jsonl")
        recorder.write(path)
        with open(path) as handle:
            header = json.loads(handle.readline())
        assert header["schema"] == SCHEMA
        assert header["ticks"] == 10


class TestSchemaValidation:
    def _load(self, tmp_path, content):
        path = tmp_path / "bad.jsonl"
        path.write_text(content)
        return TraceWorkload.load(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceSchemaError, match="cannot read"):
            TraceWorkload.load(str(tmp_path / "nope.jsonl"))

    def test_empty_file(self, tmp_path):
        with pytest.raises(TraceSchemaError, match="is empty"):
            self._load(tmp_path, "")

    def test_non_json_header(self, tmp_path):
        with pytest.raises(TraceSchemaError, match="line 1 is not JSON"):
            self._load(tmp_path, "not json at all\n")

    def test_foreign_file_names_the_telemetry_alternative(self, tmp_path):
        with pytest.raises(TraceSchemaError, match="repro.explain"):
            self._load(tmp_path, json.dumps({"event": "x"}) + "\n")

    def test_wrong_schema_version(self, tmp_path):
        content = json.dumps({"schema": "repro.twin/v9"}) + "\n"
        with pytest.raises(TraceSchemaError,
                           match="schema 'repro.twin/v9'"):
            self._load(tmp_path, content)

    def test_corrupt_record_names_the_line(self, tmp_path):
        content = (json.dumps({"schema": SCHEMA}) + "\n"
                   + json.dumps({"t": 0, "offered": 1}) + "\n{oops\n")
        with pytest.raises(TraceSchemaError, match="line 3: corrupt"):
            self._load(tmp_path, content)

    def test_record_missing_fields(self, tmp_path):
        content = (json.dumps({"schema": SCHEMA}) + "\n"
                   + json.dumps({"x": 1}) + "\n")
        with pytest.raises(TraceSchemaError, match="needs 't' and"):
            self._load(tmp_path, content)


class TestWorkloadReplayApi:
    def _workload(self):
        header = {"schema": SCHEMA, "substrate": "cluster",
                  "sessions": ["a", "b", "c"], "ticks": 3}
        records = [{"t": 0, "offered": 6,
                    "by_session": {"a": 1, "b": 2, "c": 3}},
                   {"t": 1, "offered": 4, "by_session": {"b": 3}},
                   {"t": 2, "offered": 0}]
        return TraceWorkload(header, records)

    def test_offered_is_zero_out_of_range(self):
        workload = self._workload()
        assert workload.offered(-1) == 0
        assert workload.offered(2) == 0
        assert workload.offered(99) == 0
        assert workload.offered(1) == 4

    def test_session_counts_map_by_sorted_rank(self):
        counts = self._workload().session_counts(0, 3)
        assert counts.tolist() == [1, 2, 3]

    def test_extra_sessions_wrap_modulo_n(self):
        counts = self._workload().session_counts(0, 2)
        assert counts.tolist() == [1 + 3, 2]  # "c" wraps onto slot 0

    def test_unattributed_arrivals_land_on_slot_zero(self):
        counts = self._workload().session_counts(1, 3)
        assert counts.tolist() == [1, 3, 0]  # 4 offered, only 3 attributed

    def test_counts_conserve_offered(self):
        workload = self._workload()
        for t in range(3):
            assert workload.session_counts(t, 3).sum() \
                == workload.offered(t)
