"""Tests for phase timing."""

import time

from repro.obs import TelemetrySession
from repro.obs.timers import phase_timer


class TestPhaseTimer:
    def test_measures_duration_even_when_disabled(self):
        with phase_timer("sense") as timer:
            time.sleep(0.002)
        assert timer.duration >= 0.002

    def test_sink_receives_duration(self):
        sink = {}
        with phase_timer("reason", sink=sink):
            pass
        assert "reason" in sink
        assert sink["reason"] >= 0.0

    def test_no_histogram_when_disabled(self):
        # Outside a session, the default registry must stay untouched.
        from repro.obs.metrics import MetricsRegistry, set_registry
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            with phase_timer("sense", node="n"):
                pass
            assert fresh.snapshot()["histograms"] == {}
        finally:
            set_registry(previous)

    def test_histogram_recorded_when_enabled(self):
        with TelemetrySession() as session:
            for _ in range(3):
                with phase_timer("sense", node="n"):
                    pass
        hists = session.snapshot()["histograms"]
        assert hists["phase_seconds{node=n,phase=sense}"]["count"] == 3.0

    def test_record_false_suppresses_histogram(self):
        with TelemetrySession() as session:
            sink = {}
            with phase_timer("sense", sink=sink, record=False):
                pass
        assert session.snapshot()["histograms"] == {}
        assert "sense" in sink
