"""The injector: deterministic, isolated, provably inert at zero."""

import pytest

from repro.faults.injector import FaultInjector, make_injector
from repro.faults.plan import (CLOCK_SKEW, CRASH, LINK_DEGRADE,
                               SENSOR_DROPOUT, SENSOR_NOISE, WORKLOAD_SPIKE,
                               FaultPlan, FaultSpec)
from repro.obs import TelemetrySession


def _noise_plan(intensity=1.0, start=10.0, end=20.0, target=None, seed=0):
    return FaultPlan(specs=(
        FaultSpec(kind=SENSOR_NOISE, start=start, end=end,
                  intensity=intensity, target=target),), seed=seed)


class TestMakeInjector:
    def test_none_plan_gives_no_injector(self):
        assert make_injector(None) is None

    def test_inert_plan_gives_no_injector(self):
        assert make_injector(FaultPlan()) is None
        assert make_injector(_noise_plan(intensity=0.0)) is None

    def test_live_plan_gives_injector(self):
        injector = make_injector(_noise_plan(), run_seed=5)
        assert isinstance(injector, FaultInjector)
        assert injector.run_seed == 5


class TestDeterminism:
    def _perturb_series(self, plan_seed, run_seed):
        injector = FaultInjector(_noise_plan(seed=plan_seed),
                                 run_seed=run_seed)
        out = []
        for t in range(30):
            injector.begin_step(float(t))
            out.append(injector.perturb(1.0))
        return out

    def test_same_seeds_replay_identically(self):
        assert self._perturb_series(3, 7) == self._perturb_series(3, 7)

    def test_run_seed_and_plan_seed_both_matter(self):
        base = self._perturb_series(3, 7)
        assert base != self._perturb_series(3, 8)
        assert base != self._perturb_series(4, 7)


class TestIdentityOutsideWindows:
    """Hooks must be *exact* identities when nothing is active."""

    def test_all_hooks_identity_before_window(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind=SENSOR_NOISE, start=100.0, end=200.0,
                      intensity=2.0),
            FaultSpec(kind=SENSOR_DROPOUT, start=100.0, end=200.0,
                      intensity=0.9),
            FaultSpec(kind=LINK_DEGRADE, start=100.0, end=200.0,
                      intensity=0.5),
            FaultSpec(kind=WORKLOAD_SPIKE, start=100.0, end=200.0,
                      intensity=1.0),
            FaultSpec(kind=CLOCK_SKEW, start=100.0, end=200.0,
                      intensity=5.0),
        ), seed=0)
        injector = FaultInjector(plan)
        injector.begin_step(0.0)
        value = 0.123456789
        assert injector.perturb(value) == value  # bit-identical
        assert injector.dropped() is False
        assert injector.link_factor() == 1.0
        assert injector.link_loss_prob() == 0.0
        assert injector.link_lost() is False
        assert injector.demand_factor() == 1.0
        assert injector.spiked_count(3) == 3
        assert injector.clock_offset() == 0.0
        assert injector.perceived_time(value) == value
        assert injector.crashed_targets(range(5)) == frozenset()

    def test_no_rng_draw_when_inactive(self):
        injector = FaultInjector(_noise_plan(start=100.0, end=200.0))
        state_before = injector._rng.bit_generator.state
        injector.begin_step(0.0)
        injector.perturb(1.0)
        injector.dropped()
        injector.link_lost()
        injector.spiked_count(2)
        assert injector._rng.bit_generator.state == state_before

    def test_target_filtering(self):
        injector = FaultInjector(_noise_plan(target="demand"))
        injector.begin_step(15.0)
        assert injector.perturb(1.0, target="qos") == 1.0
        assert injector.perturb(1.0, target="demand") != 1.0


class TestActiveWindow:
    def test_active_and_just_started(self):
        injector = FaultInjector(_noise_plan(start=10.0, end=20.0))
        injector.begin_step(9.0)
        assert injector.active() == []
        assert not injector.just_started(SENSOR_NOISE)
        injector.begin_step(10.0)
        assert [s.kind for s in injector.active()] == [SENSOR_NOISE]
        assert injector.just_started(SENSOR_NOISE)
        injector.begin_step(11.0)
        assert not injector.just_started(SENSOR_NOISE)  # already open
        injector.begin_step(20.0)
        assert injector.active() == []

    def test_transition_events_on_bus(self):
        with TelemetrySession() as session:
            injector = FaultInjector(_noise_plan(start=10.0, end=20.0,
                                                 intensity=0.7))
            for t in range(25):
                injector.begin_step(float(t))
            starts = session.bus.events("fault.start")
            ends = session.bus.events("fault.end")
        assert len(starts) == 1 and len(ends) == 1
        assert starts[0].get("time") == 10.0
        assert starts[0].get("kind") == SENSOR_NOISE
        assert starts[0].get("intensity") == 0.7
        assert ends[0].get("time") == 20.0
        assert injector.events_emitted == 2

    def test_no_events_when_bus_disabled(self):
        injector = FaultInjector(_noise_plan())
        for t in range(25):
            injector.begin_step(float(t))
        assert injector.events_emitted == 0


class TestCrashCohorts:
    def _crash_plan(self, intensity, target=None, seed=0):
        return FaultPlan(specs=(
            FaultSpec(kind=CRASH, start=10.0, end=20.0,
                      intensity=intensity, target=target),), seed=seed)

    def test_cohort_stable_across_queries_and_steps(self):
        injector = FaultInjector(self._crash_plan(0.5), run_seed=1)
        population = list(range(10))
        injector.begin_step(10.0)
        first = injector.crashed_targets(population)
        assert len(first) == 5
        for t in (11.0, 15.0, 19.0):
            injector.begin_step(t)
            assert injector.crashed_targets(population) == first

    def test_cohort_independent_of_run_seed(self):
        population = list(range(10))
        cohorts = []
        for run_seed in (1, 2):
            injector = FaultInjector(self._crash_plan(0.4), run_seed=run_seed)
            injector.begin_step(12.0)
            cohorts.append(injector.crashed_targets(population))
        assert cohorts[0] == cohorts[1]  # keyed by plan seed, not run seed

    def test_nonzero_intensity_downs_at_least_one(self):
        injector = FaultInjector(self._crash_plan(0.01))
        injector.begin_step(12.0)
        assert len(injector.crashed_targets(range(8))) == 1

    def test_explicit_target(self):
        injector = FaultInjector(self._crash_plan(1.0, target="node"))
        injector.begin_step(12.0)
        assert injector.is_crashed("node", ("node",))
        assert not injector.is_crashed("other", ("node", "other"))

    def test_recovery_when_window_closes(self):
        injector = FaultInjector(self._crash_plan(1.0))
        injector.begin_step(12.0)
        assert injector.crashed_targets(range(4)) == frozenset(range(4))
        injector.begin_step(20.0)
        assert injector.crashed_targets(range(4)) == frozenset()


class TestLoadAndLinkHooks:
    def test_demand_factor_and_spiked_count(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind=WORKLOAD_SPIKE, start=0.0, end=10.0,
                      intensity=1.0),), seed=0)
        injector = FaultInjector(plan)
        injector.begin_step(0.0)
        assert injector.demand_factor() == 2.0
        assert injector.spiked_count(3) == 6  # whole multiple, no draw

    def test_spiked_count_fractional_resolves_by_draw(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind=WORKLOAD_SPIKE, start=0.0, end=10.0,
                      intensity=0.5),), seed=0)
        injector = FaultInjector(plan)
        injector.begin_step(0.0)
        counts = {injector.spiked_count(1) for _ in range(200)}
        assert counts == {1, 2}  # 1 * 1.5 -> 1 or 2, never else

    def test_link_degradation_compounds(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind=LINK_DEGRADE, start=0.0, end=10.0,
                      intensity=0.5),
            FaultSpec(kind=LINK_DEGRADE, start=0.0, end=10.0,
                      intensity=0.5),), seed=0)
        injector = FaultInjector(plan)
        injector.begin_step(0.0)
        assert injector.link_factor() == pytest.approx(2.25)
        assert injector.link_loss_prob() == pytest.approx(0.75)

    def test_clock_skew_shifts_perceived_time(self):
        plan = FaultPlan(specs=(
            FaultSpec(kind=CLOCK_SKEW, start=0.0, end=10.0,
                      intensity=3.0, target="scaler"),), seed=0)
        injector = FaultInjector(plan)
        injector.begin_step(5.0)
        assert injector.perceived_time(5.0, target="scaler") == 8.0
        assert injector.perceived_time(5.0, target="node") == 5.0
