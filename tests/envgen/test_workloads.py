"""Tests for workload generators."""

import numpy as np
import pytest

from repro.envgen.processes import Shock, ShockSchedule
from repro.envgen.workloads import (RequestRateWorkload, Task, TaskClass,
                                    TaskStreamWorkload)


class TestRequestRateWorkload:
    def test_rate_nonnegative_under_negative_shock(self):
        shocks = ShockSchedule([Shock(0.0, 100.0, -10.0)])
        wl = RequestRateWorkload(base_rate=50.0, shocks=shocks,
                                 rng=np.random.default_rng(0))
        assert wl.rate(10.0) == 0.0

    def test_shock_raises_rate(self):
        shocks = ShockSchedule([Shock(100.0, 50.0, 1.0)])
        wl = RequestRateWorkload(base_rate=50.0, seasonal_amplitude=0.0,
                                 noise_std=0.0, shocks=shocks,
                                 rng=np.random.default_rng(1))
        assert wl.rate(120.0) == pytest.approx(100.0)
        assert wl.rate(10.0) == pytest.approx(50.0)

    def test_arrivals_scale_with_rate(self):
        wl = RequestRateWorkload(base_rate=100.0, seasonal_amplitude=0.0,
                                 noise_std=0.0, rng=np.random.default_rng(2))
        counts = [wl.arrivals(float(t)) for t in range(500)]
        assert np.mean(counts) == pytest.approx(100.0, rel=0.05)

    def test_invalid_base_rate(self):
        with pytest.raises(ValueError):
            RequestRateWorkload(base_rate=0.0)


class TestTask:
    def test_validation(self):
        with pytest.raises(ValueError):
            Task(0, 0.0, "x", work=0.0)
        with pytest.raises(ValueError):
            Task(0, 0.0, "x", work=1.0, parallelism=0)


class TestTaskStreamWorkload:
    def _stream(self, seed=0, **kwargs):
        classes = [TaskClass("cpu", mean_work=5.0),
                   TaskClass("gpu", mean_work=10.0, parallelism=4)]
        return TaskStreamWorkload(classes, rng=np.random.default_rng(seed),
                                  **kwargs)

    def test_ids_unique_and_monotone(self):
        stream = self._stream()
        tasks = []
        for t in range(50):
            tasks.extend(stream.arrivals(float(t)))
        ids = [task.task_id for task in tasks]
        assert ids == sorted(set(ids))

    def test_arrival_rate_matches(self):
        stream = self._stream(rate=3.0)
        total = sum(len(stream.arrivals(float(t))) for t in range(500))
        assert total / 500 == pytest.approx(3.0, rel=0.1)

    def test_phase_changes_mix(self):
        stream = self._stream(phase_length=100)
        stream.arrivals(0.0)
        mix0 = stream.current_mix
        stream.arrivals(150.0)
        mix1 = stream.current_mix
        assert not np.allclose(mix0, mix1)

    def test_work_is_positive(self):
        stream = self._stream()
        for t in range(100):
            for task in stream.arrivals(float(t)):
                assert task.work > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            TaskStreamWorkload([], rate=1.0)
        with pytest.raises(ValueError):
            self._stream(rate=0.0)
        with pytest.raises(ValueError):
            TaskClass("x", mean_work=0.0)


class TestDriftGenerators:
    def test_drifting_bandit_changes_best_arm(self):
        from repro.envgen.driftgen import DriftingBandit
        bandit = DriftingBandit(n_arms=4, drift_every=100,
                                rng=np.random.default_rng(0))
        arms_over_time = {bandit.best_arm()}
        for _ in range(500):
            bandit.pull(0)
            arms_over_time.add(bandit.best_arm())
        assert bandit.drifts == 5
        assert len(arms_over_time) > 1

    def test_drifting_bandit_gradual_interpolates(self):
        from repro.envgen.driftgen import DriftingBandit
        bandit = DriftingBandit(n_arms=3, drift_every=100, mode="gradual",
                                rng=np.random.default_rng(1))
        m0 = bandit.means()
        for _ in range(50):
            bandit.pull(0)
        m_half = bandit.means()
        assert not np.allclose(m0, m_half)

    def test_drifting_bandit_reward_near_mean(self):
        from repro.envgen.driftgen import DriftingBandit
        bandit = DriftingBandit(n_arms=2, drift_every=10**6, reward_std=0.01,
                                rng=np.random.default_rng(2))
        mean = bandit.means()[0]
        rewards = [bandit.pull(0) for _ in range(100)]
        assert np.mean(rewards) == pytest.approx(mean, abs=0.01)
