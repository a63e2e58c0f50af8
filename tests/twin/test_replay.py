"""TraceWorkload replay: determinism, conservation, evaluation."""

import json

import pytest

from repro.api.adapters import ClusterSimulator, ServeSimulator
from repro.api.configs import ClusterConfig, ServeConfig
from repro.obs.export import TelemetrySession
from repro.twin import (TraceRecorder, TraceWorkload, evaluate_candidates,
                        parse_candidate, rank_candidates, render_table)


def _serve_workload(steps=160, seed=3, **config_kwargs):
    recorder = TraceRecorder(source="test")
    with TelemetrySession() as session:
        recorder.attach(session.bus)
        sim = ServeSimulator(
            ServeConfig(steps=steps, seed=seed, **config_kwargs))
        sim.run()
        recorder.detach()
    return TraceWorkload.from_recorder(recorder), sim


class TestServeReplay:
    def test_same_trace_same_seed_is_byte_identical(self):
        workload, _ = _serve_workload()
        config = ServeConfig(steps=160, seed=11)
        first = ServeSimulator(config, workload=workload).run()
        second = ServeSimulator(config, workload=workload).run()
        assert json.dumps(first) == json.dumps(second)

    def test_replay_offers_exactly_the_recorded_arrivals(self):
        workload, live = _serve_workload()
        replay = ServeSimulator(ServeConfig(steps=160, seed=0),
                                workload=workload).run()
        assert sum(r["offered"] for r in replay) == workload.total_offered
        assert [r["offered"] for r in replay] \
            == [r["offered"] for r in live.result()]

    def test_replay_tracks_live_goodput_for_the_recorded_arm(self):
        """Replaying the recording arm's own trace stays close to its
        live score: same arrivals, same control plane, only the service
        rng stream differs."""
        workload, live = _serve_workload(steps=300)
        warmup = min(80, 300 // 5)
        results = evaluate_candidates(workload, ["self_aware"], seed=3,
                                      warmup=warmup)
        live_goodput = live.metrics()["goodput"]
        assert results[0].goodput == pytest.approx(live_goodput, rel=0.25)

    def test_different_seeds_differ_but_arrivals_do_not(self):
        workload, _ = _serve_workload()
        a = ServeSimulator(ServeConfig(steps=160, seed=1),
                           workload=workload).run()
        b = ServeSimulator(ServeConfig(steps=160, seed=2),
                           workload=workload).run()
        assert [r["offered"] for r in a] == [r["offered"] for r in b]
        assert json.dumps(a) != json.dumps(b)

    def test_adapter_passes_the_workload_through(self):
        workload, _ = _serve_workload(steps=60)
        sim = ServeSimulator(ServeConfig(steps=60, seed=0),
                             workload=workload)
        records = sim.run()
        assert sum(r["offered"] for r in records) == workload.total_offered


class TestClusterReplay:
    def _workload(self, steps=100, seed=1):
        recorder = TraceRecorder(source="test")
        with TelemetrySession() as session:
            recorder.attach(session.bus)
            ClusterSimulator(ClusterConfig(steps=steps, seed=seed)).run()
            recorder.detach()
        return TraceWorkload.from_recorder(recorder)

    def test_replay_is_byte_identical(self):
        workload = self._workload()
        config = ClusterConfig(steps=100, seed=9)
        first = ClusterSimulator(config, workload=workload).run()
        second = ClusterSimulator(config, workload=workload).run()
        assert json.dumps(first) == json.dumps(second)

    def test_replay_conserves_offered(self):
        workload = self._workload()
        replay = ClusterSimulator(ClusterConfig(steps=100, seed=4),
                                  workload=workload).run()
        assert sum(r["offered"] for r in replay) == workload.total_offered

    def test_adapter_passes_the_workload_through(self):
        workload = self._workload(steps=40)
        sim = ClusterSimulator(ClusterConfig(steps=40, seed=0),
                               workload=workload)
        records = sim.run()
        assert sum(r["offered"] for r in records) == workload.total_offered


class TestEvaluate:
    def test_results_cover_candidates_with_regret(self):
        workload, _ = _serve_workload()
        results = evaluate_candidates(
            workload, ["self_aware", "static:2"], seed=0)
        assert [r.candidate for r in results] == ["self_aware", "static:2"]
        best = min(results, key=lambda r: r.regret)
        assert best.regret == 0.0
        assert all(r.regret >= 0.0 for r in results)

    def test_default_candidates_by_substrate(self):
        workload, _ = _serve_workload(steps=60)
        results = evaluate_candidates(workload, seed=0)
        assert [r.candidate for r in results] \
            == ["self_aware", "static:2", "static:4"]

    def test_rank_candidates_orders_by_goodput(self):
        workload, _ = _serve_workload()
        results = evaluate_candidates(
            workload, ["self_aware", "static:2"], seed=0)
        ranking = rank_candidates(results)
        by_goodput = sorted(results, key=lambda r: -r.goodput)
        assert ranking[0] == by_goodput[0].candidate

    def test_render_table_mentions_every_candidate(self):
        workload, _ = _serve_workload(steps=60)
        table = render_table(evaluate_candidates(
            workload, ["self_aware", "static:2"], seed=0))
        assert "self_aware" in table and "static:2" in table

    def test_short_traces_still_score_a_window(self):
        workload, _ = _serve_workload(steps=20)
        results = evaluate_candidates(workload, ["static:2"], seed=0)
        assert results[0].offered > 0.0

    def test_parse_candidate_rejects_nonsense(self):
        with pytest.raises(ValueError, match="unknown serve candidate"):
            parse_candidate("turbo", "serve")
        with pytest.raises(ValueError, match="integer N"):
            parse_candidate("static:lots", "serve")
        with pytest.raises(ValueError, match=">= 1"):
            parse_candidate("static:0", "serve")
        with pytest.raises(ValueError, match="unknown cluster candidate"):
            parse_candidate("self_aware:2", "cluster")

    def test_parse_candidate_static_n(self):
        assert parse_candidate("static:6", "serve") \
            == {"governor": "static", "static_workers": 6}
        assert parse_candidate("collective", "cluster") \
            == {"governor": "collective"}

    def test_empty_trace_is_rejected(self):
        workload = TraceWorkload({"schema": "repro.twin/v1",
                                  "substrate": "serve", "ticks": 0}, [])
        with pytest.raises(ValueError, match="empty"):
            evaluate_candidates(workload, ["static:2"])
