"""Tests for trade-off management quality metrics."""

import pytest

from repro.core.goals import Constraint, Goal, Objective
from repro.core.loop import Trace, TraceStep
from repro.metrics.tradeoff import (adaptation_after, phase_utilities,
                                    stability, tradeoff_summary,
                                    violation_rate)


def make_trace(utilities, actions=None, metrics_fn=None):
    trace = Trace(node_name="n")
    for t, u in enumerate(utilities):
        action = actions[t] if actions else "a"
        metrics = metrics_fn(t, u) if metrics_fn else {"perf": u}
        trace.append(TraceStep(time=float(t), action=action, metrics=metrics,
                               utility=u, explored=False, sensing_cost=0.0))
    return trace


@pytest.fixture
def goal():
    return Goal([Objective("perf")],
                constraints=[Constraint("perf", "min", 0.2)])


class TestPhaseUtilities:
    def test_splits_at_change_points(self):
        trace = make_trace([1.0] * 10 + [0.0] * 10)
        phases = phase_utilities(trace, [10.0])
        assert phases[0] == pytest.approx(1.0, abs=0.01)
        assert phases[1] == pytest.approx(0.0, abs=0.11)

    def test_empty_trace(self):
        assert phase_utilities(Trace(node_name="n"), [5.0]) == []


class TestAdaptationAfter:
    def test_recovery_detected(self):
        # Good (0.9), dip to 0.1 for 10 steps, recover to 0.9.
        utilities = [0.9] * 50 + [0.1] * 10 + [0.9] * 60
        trace = make_trace(utilities)
        report = adaptation_after(trace, change_time=50.0, window=30.0)
        assert report.pre_change_utility == pytest.approx(0.9)
        assert report.dip_utility == pytest.approx(0.1)
        assert report.recovered
        assert 10.0 <= report.recovery_time <= 20.0

    def test_no_recovery(self):
        utilities = [0.9] * 50 + [0.1] * 100
        trace = make_trace(utilities)
        report = adaptation_after(trace, change_time=50.0, window=30.0)
        assert not report.recovered
        assert report.dip_depth == pytest.approx(0.8)


class TestViolationRate:
    def test_counts_constraint_violations(self, goal):
        trace = make_trace([0.5, 0.1, 0.5, 0.1])
        assert violation_rate(trace, goal) == pytest.approx(0.5)

    def test_zero_without_constraints(self):
        goal = Goal([Objective("perf")])
        trace = make_trace([0.0, 0.0])
        assert violation_rate(trace, goal) == 0.0


class TestStability:
    def test_never_changes(self):
        trace = make_trace([0.5] * 5)
        assert stability(trace) == 1.0

    def test_always_changes(self):
        trace = make_trace([0.5] * 4, actions=["a", "b", "a", "b"])
        assert stability(trace) == 0.0

    def test_short_trace(self):
        assert stability(make_trace([0.5])) == 1.0


class TestTradeoffSummary:
    def test_has_core_keys(self, goal):
        trace = make_trace([0.5] * 20)
        summary = tradeoff_summary(trace, goal)
        assert set(summary) >= {"mean_utility", "violation_rate", "stability",
                                "sensing_cost"}

    def test_change_point_keys_present_when_given(self, goal):
        trace = make_trace([0.9] * 50 + [0.1] * 10 + [0.9] * 60)
        summary = tradeoff_summary(trace, goal, change_times=[50.0])
        assert "worst_phase_utility" in summary
        assert "mean_recovery_time" in summary
        assert summary["recovered_fraction"] == 1.0
