"""Tests for reasoners: static and utility-based."""

import math

import numpy as np
import pytest

from repro.core.goals import Constraint, Goal, Objective
from repro.core.models import EmpiricalActionModel
from repro.core.reasoner import StaticPolicy, UtilityReasoner


@pytest.fixture
def goal():
    return Goal(objectives=[Objective("perf", maximise=True, lo=0, hi=10),
                            Objective("cost", maximise=False, lo=0, hi=10)],
                name="g")


class TestStaticPolicy:
    def test_always_same_action(self):
        p = StaticPolicy("a")
        for t in range(5):
            assert p.decide(float(t), {}, ["a", "b"]).action == "a"

    def test_falls_back_when_action_unavailable(self):
        p = StaticPolicy("z")
        assert p.decide(0.0, {}, ["a", "b"]).action == "a"

    def test_empty_actions_rejected(self):
        with pytest.raises(ValueError):
            StaticPolicy("a").decide(0.0, {}, [])


class TestUtilityReasoner:
    def _trained_reasoner(self, goal, epsilon=0.0):
        model = EmpiricalActionModel()
        # 'good' dominates 'bad' in both objectives.
        for _ in range(20):
            model.update({}, "good", {"perf": 9.0, "cost": 1.0})
            model.update({}, "bad", {"perf": 1.0, "cost": 9.0})
        return UtilityReasoner(goal, model, epsilon=epsilon,
                               rng=np.random.default_rng(0))

    def test_greedy_picks_dominant_action(self, goal):
        r = self._trained_reasoner(goal)
        d = r.decide(0.0, {}, ["good", "bad"])
        assert d.action == "good"
        assert not d.explored
        assert d.evaluations["good"].utility > d.evaluations["bad"].utility

    def test_decision_carries_evidence(self, goal):
        r = self._trained_reasoner(goal)
        d = r.decide(0.0, {}, ["good", "bad"])
        assert set(d.considered) == {"good", "bad"}
        assert d.goal_version == goal.version
        assert math.isfinite(d.margin())

    def test_exploration_rate_respected(self, goal):
        r = self._trained_reasoner(goal, epsilon=1.0)
        d = r.decide(0.0, {}, ["good", "bad"])
        assert d.explored and d.action == "bad"

    def test_low_confidence_doubles_exploration(self, goal):
        model = EmpiricalActionModel(confidence_scale=1e6)  # always unconfident
        r = UtilityReasoner(goal, model, epsilon=0.4, confidence_floor=0.5,
                            rng=np.random.default_rng(3))
        explored = sum(r.decide(0.0, {}, ["a", "b"]).explored for _ in range(500))
        assert 0.7 < explored / 500 < 0.9  # ~0.8 effective rate

    def test_constraint_filtering(self):
        goal = Goal(objectives=[Objective("perf", lo=0, hi=10)],
                    constraints=[Constraint("temp", "max", 50.0)])
        model = EmpiricalActionModel()
        for _ in range(10):
            model.update({}, "hot", {"perf": 9.0, "temp": 90.0})
            model.update({}, "cool", {"perf": 5.0, "temp": 30.0})
        r = UtilityReasoner(goal, model, epsilon=0.0, rng=np.random.default_rng(0))
        d = r.decide(0.0, {}, ["hot", "cool"])
        assert d.action == "cool"  # feasible beats higher-utility infeasible

    def test_least_violation_when_all_infeasible(self):
        goal = Goal(objectives=[Objective("perf", lo=0, hi=10)],
                    constraints=[Constraint("temp", "max", 50.0)])
        model = EmpiricalActionModel()
        for _ in range(10):
            model.update({}, "hot", {"perf": 9.0, "temp": 90.0})
            model.update({}, "warm", {"perf": 5.0, "temp": 60.0})
        r = UtilityReasoner(goal, model, epsilon=0.0, rng=np.random.default_rng(0))
        assert r.decide(0.0, {}, ["hot", "warm"]).action == "warm"

    def test_knee_mode_picks_balanced_tradeoff(self, goal):
        model = EmpiricalActionModel()
        for _ in range(10):
            model.update({}, "extreme_perf", {"perf": 10.0, "cost": 10.0})
            model.update({}, "extreme_cost", {"perf": 0.0, "cost": 0.0})
            model.update({}, "balanced", {"perf": 8.0, "cost": 2.0})
        r = UtilityReasoner(goal, model, epsilon=0.0, use_knee=True,
                            rng=np.random.default_rng(0))
        d = r.decide(0.0, {}, ["extreme_perf", "extreme_cost", "balanced"])
        assert d.action == "balanced"

    def test_live_goal_change_takes_effect(self, goal):
        model = EmpiricalActionModel()
        for _ in range(20):
            model.update({}, "fast", {"perf": 9.0, "cost": 9.0})
            model.update({}, "cheap", {"perf": 1.0, "cost": 1.0})
        r = UtilityReasoner(goal, model, epsilon=0.0, rng=np.random.default_rng(0))
        goal.set_weights({"perf": 1.0, "cost": 0.001})
        assert r.decide(0.0, {}, ["fast", "cheap"]).action == "fast"
        goal.set_weights({"perf": 0.001, "cost": 1.0})
        assert r.decide(1.0, {}, ["fast", "cheap"]).action == "cheap"

    def test_learn_feeds_model(self, goal):
        model = EmpiricalActionModel()
        r = UtilityReasoner(goal, model, epsilon=0.0, rng=np.random.default_rng(0))
        r.learn({}, "a", {"perf": 5.0})
        assert model.predict({}, "a")["perf"] == 5.0

    def test_invalid_epsilon(self, goal):
        with pytest.raises(ValueError):
            UtilityReasoner(goal, EmpiricalActionModel(), epsilon=1.5)
