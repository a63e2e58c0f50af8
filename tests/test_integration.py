"""Cross-module integration tests: the framework wired end-to-end."""


import numpy as np

from repro.core import (CapabilityProfile, Goal, Objective, Sensor,
                        SensorSuite, SimulationClock, build_node,
                        build_static_node, private, run_control_loop)
from repro.core.levels import SelfAwarenessLevel
from repro.core.meta import MetaReasoner


class SwitchingWorld:
    """Best action flips with a scheduled regime; sensors see the regime."""

    def __init__(self, change_at=150.0, noise=0.02, seed=0):
        self.change_at = change_at
        self._rng = np.random.default_rng(seed)
        self._now = 0.0

    def regime(self):
        return 1.0 if self._now >= self.change_at else 0.0

    def candidate_actions(self, now):
        return ["alpha", "beta"]

    def apply(self, action, now):
        self._now = now
        regime = self.regime()
        if action == "alpha":
            perf = 0.9 - 0.8 * regime
        else:
            perf = 0.1 + 0.8 * regime
        return {"perf": perf + float(self._rng.normal(0, 0.02))}


def make_goal():
    return Goal([Objective("perf")], name="integration")


def make_node(profile, world, seed=0):
    sensors = SensorSuite([Sensor(private("regime"), world.regime,
                                  noise_std=0.02)])
    return build_node("n", profile, sensors, make_goal(),
                      rng=np.random.default_rng(seed))


class TestEndToEndAdaptation:
    def test_full_stack_node_adapts_to_regime_change(self):
        world = SwitchingWorld(seed=1)
        goal = make_goal()
        node = make_node(CapabilityProfile.full_stack(), world, seed=1)
        trace = run_control_loop(node, world, goal, steps=400)
        # Converged behaviour in each regime.
        early = [s.action for s in trace.steps if 100 <= s.time < 150]
        late = [s.action for s in trace.steps if 350 <= s.time]
        assert early.count("alpha") > len(early) * 0.7
        assert late.count("beta") > len(late) * 0.7

    def test_static_node_cannot_adapt(self):
        world = SwitchingWorld(seed=2)
        goal = make_goal()
        sensors = SensorSuite([Sensor(private("regime"), world.regime)])
        node = build_static_node("s", sensors, action="alpha")
        trace = run_control_loop(node, world, goal, steps=400)
        late = trace.mean_utility_between(300.0, 401.0)
        assert late < 0.3  # alpha is wrong after the change

    def test_adaptation_beats_static_overall(self):
        results = {}
        for name, builder in [
            ("aware", lambda w: make_node(CapabilityProfile.full_stack(), w,
                                          seed=3)),
            ("static", lambda w: build_static_node(
                "s", SensorSuite([Sensor(private("regime"), w.regime)]),
                action="alpha")),
        ]:
            world = SwitchingWorld(seed=3)
            goal = make_goal()
            trace = run_control_loop(builder(world), world, goal, steps=400)
            results[name] = trace.mean_utility()
        assert results["aware"] > results["static"] + 0.1

    def test_meta_node_reports_its_own_state(self):
        world = SwitchingWorld(seed=4)
        goal = make_goal()
        node = make_node(CapabilityProfile.full_stack(), world, seed=4)
        run_control_loop(node, world, goal, steps=200)
        assert isinstance(node.reasoner, MetaReasoner)
        explanation = node.explain()
        assert "Meta: active strategy" in explanation

    def test_journal_covers_whole_run(self):
        world = SwitchingWorld(seed=5)
        goal = make_goal()
        node = make_node(CapabilityProfile.full_stack(), world, seed=5)
        run_control_loop(node, world, goal, steps=150)
        assert node.log.total_logged == 150
        report = node.log.report()
        assert report.coverage == 1.0
        assert report.evidence_rate == 1.0

    def test_knowledge_accumulates_history(self):
        world = SwitchingWorld(seed=6)
        goal = make_goal()
        node = make_node(CapabilityProfile.full_stack(), world, seed=6)
        run_control_loop(node, world, goal, steps=200)
        history = node.knowledge.history(private("regime"))
        assert len(history) == 200
        # The regime stepped 0 -> 1 at t=150, inside this window.
        assert history.trend() > 0.0

    def test_two_episodes_share_one_clock(self):
        world = SwitchingWorld(seed=7)
        goal = make_goal()
        node = make_node(CapabilityProfile.full_stack(), world, seed=7)
        clock = SimulationClock()
        t1 = run_control_loop(node, world, goal, steps=50, clock=clock)
        t2 = run_control_loop(node, world, goal, steps=50, clock=clock)
        assert t2.steps[0].time == t1.steps[-1].time + 1.0


class TestCapabilityGatingEndToEnd:
    def test_stimulus_node_underperforms_contextual_node(self):
        # The regime is visible, but only contextual (interaction+) nodes
        # can condition their model on it.
        utilities = {}
        for name, level in [("stimulus", SelfAwarenessLevel.STIMULUS),
                            ("time", SelfAwarenessLevel.TIME)]:
            totals = []
            for seed in range(3):
                world = SwitchingWorld(seed=seed)
                goal = make_goal()
                node = make_node(CapabilityProfile.up_to(level), world,
                                 seed=seed)
                trace = run_control_loop(node, world, goal, steps=400)
                totals.append(trace.mean_utility())
            utilities[name] = float(np.mean(totals))
        assert utilities["time"] > utilities["stimulus"] + 0.01
