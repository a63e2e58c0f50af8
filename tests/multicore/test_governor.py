"""Tests for the governor family."""

import numpy as np
import pytest

from repro.multicore.governor import (OndemandGovernor, SelfAwareGovernor,
                                      StaticGovernor, make_multicore_goal)
from repro.multicore.platform import DVFS_LEVELS
from repro.api import MulticoreConfig, MulticoreSimulator
from repro.multicore.sim import make_platform


class TestStaticGovernor:
    def test_sets_fixed_frequencies(self):
        p = make_platform()
        gov = StaticGovernor(freq_big=1.0, freq_little=0.5)
        gov.manage(0.0, p, None)
        for core in p.cores:
            expected = 1.0 if core.core_type.name == "big" else 0.5
            assert core.frequency == expected

    def test_dispatches_fifo(self):
        p = make_platform(n_big=1, n_little=1)
        from repro.envgen.workloads import Task
        tasks = [Task(i, 0.0, "vector", 10.0) for i in range(3)]
        p.submit(tasks)
        StaticGovernor().manage(0.0, p, None)
        assert len(p.queue) == 1  # two idle cores filled
        assert p.cores[0].task is tasks[0]


class TestOndemandGovernor:
    def test_raises_frequency_under_load(self):
        p = make_platform()
        gov = OndemandGovernor(high=1)
        from repro.envgen.workloads import Task
        p.submit([Task(i, 0.0, "vector", 50.0) for i in range(20)])
        gov.manage(0.0, p, None)
        assert all(c.frequency == max(DVFS_LEVELS) for c in p.cores)

    def test_lowers_frequency_when_idle(self):
        p = make_platform()
        gov = OndemandGovernor()
        for t in range(5):
            gov.manage(float(t), p, None)
        assert all(c.frequency == min(DVFS_LEVELS) for c in p.cores)

    def test_validation(self):
        with pytest.raises(ValueError):
            OndemandGovernor(high=0)


class TestSelfAwareGovernor:
    def test_learns_true_affinity_rates(self):
        gov = SelfAwareGovernor(make_multicore_goal(),
                                rng=np.random.default_rng(0))
        MulticoreSimulator(MulticoreConfig(steps=300, seed=0),
                           governor=gov).run()
        # True rates: vector on big = 8 * 1.2 = 9.6; on little = 3 * 0.4 = 1.2.
        assert gov.learned_rate("vector", "big", 8.0) == pytest.approx(9.6, abs=0.5)
        assert gov.learned_rate("vector", "little", 3.0) == pytest.approx(1.2, abs=0.3)
        assert gov.learned_rate("background", "little", 3.0) == pytest.approx(3.9, abs=0.4)

    def test_capacity_monotone_in_frequency(self):
        gov = SelfAwareGovernor(make_multicore_goal(),
                                rng=np.random.default_rng(0))
        MulticoreSimulator(MulticoreConfig(steps=100, seed=0),
                           governor=gov).run()
        assert gov.capacity((1.0, 1.0)) > gov.capacity((0.5, 0.5))

    def test_rarely_throttles_on_default_workload(self):
        # Exploration may occasionally probe max frequency in a warm
        # moment; sustained throttling must not occur.
        gov = SelfAwareGovernor(make_multicore_goal(),
                                rng=np.random.default_rng(1))
        result = MulticoreSimulator(MulticoreConfig(steps=600, seed=1),
                                    governor=gov).run()
        assert result.throttle_fraction() <= 0.01

    def test_beats_static_max_on_goal_utility(self):
        goal = make_multicore_goal()
        aware = MulticoreSimulator(
            MulticoreConfig(steps=800, seed=2),
            governor=SelfAwareGovernor(make_multicore_goal(),
                                       rng=np.random.default_rng(2))).run()
        static = MulticoreSimulator(
            MulticoreConfig(steps=800, seed=2),
            governor=StaticGovernor(1.0, 1.0)).run()
        assert aware.mean_utility(goal) > static.mean_utility(goal)

    def test_energy_weight_shift_lowers_consumption(self):
        goal = make_multicore_goal()
        gov = SelfAwareGovernor(goal, rng=np.random.default_rng(3))
        perf_run = MulticoreSimulator(
            MulticoreConfig(steps=400, seed=3), governor=gov).run()
        energy_before = perf_run.mean_energy()
        # Stakeholders now value energy heavily; the governor reads the
        # same live goal object.
        goal.set_weights({"throughput": 0.1, "energy": 0.8, "queue": 0.1})
        eco_run = MulticoreSimulator(
            MulticoreConfig(steps=400, seed=3), governor=gov).run()
        assert eco_run.mean_energy() < energy_before

    def test_validation(self):
        with pytest.raises(ValueError):
            SelfAwareGovernor(make_multicore_goal(), horizon=0)


class TestRunGovernor:
    def test_history_length(self):
        r = MulticoreSimulator(MulticoreConfig(steps=50, seed=0),
                               governor=StaticGovernor()).run()
        assert len(r.history) == 50

    def test_on_step_callback(self):
        seen = []
        MulticoreSimulator(MulticoreConfig(steps=10, seed=0),
                           governor=StaticGovernor(),
                           on_step=lambda t: seen.append(t)).run()
        assert seen == [float(t) for t in range(10)]

    def test_metrics_sane(self):
        r = MulticoreSimulator(MulticoreConfig(steps=200, seed=4),
                               governor=OndemandGovernor()).run()
        goal = make_multicore_goal()
        assert 0.0 <= r.mean_utility(goal) <= 1.0
        assert r.mean_energy() > 0
        assert r.mean_throughput() > 0
