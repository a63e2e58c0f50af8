"""Tests for the ε-greedy bandit policy."""

import numpy as np
import pytest

from repro.learning.bandits import EpsilonGreedy


def run_bandit(policy, means, steps, rng):
    """Drive a policy on a stationary Gaussian bandit; return pull counts."""
    counts = np.zeros(len(means), dtype=int)
    for _ in range(steps):
        arm = policy.select()
        reward = float(rng.normal(means[arm], 0.1))
        policy.update(arm, reward)
        counts[arm] += 1
    return counts


MEANS = [0.2, 0.8, 0.5]


class TestEpsilonGreedy:
    def test_finds_best_arm(self):
        rng = np.random.default_rng(0)
        policy = EpsilonGreedy(3, epsilon=0.1, rng=np.random.default_rng(1))
        counts = run_bandit(policy, MEANS, 1000, rng)
        assert counts[1] > 600

    def test_initial_pulls_cover_all_arms(self):
        policy = EpsilonGreedy(3, epsilon=0.0, rng=np.random.default_rng(0))
        pulled = set()
        for _ in range(3):
            arm = policy.select()
            pulled.add(arm)
            policy.update(arm, 0.0)
        assert pulled == {0, 1, 2}

    def test_discount_tracks_switch(self):
        rng = np.random.default_rng(2)
        plastic = EpsilonGreedy(2, epsilon=0.1, discount=0.95,
                                rng=np.random.default_rng(3))
        # Arm 0 good for 300 steps, then arm 1 becomes good.
        for t in range(600):
            arm = plastic.select()
            means = [0.9, 0.1] if t < 300 else [0.1, 0.9]
            plastic.update(arm, float(rng.normal(means[arm], 0.05)))
        assert plastic.value(1) > plastic.value(0)

    def test_value_accessor_and_bounds(self):
        policy = EpsilonGreedy(2)
        policy.update(0, 1.0)
        assert policy.value(0) == pytest.approx(1.0)
        with pytest.raises(IndexError):
            policy.update(5, 1.0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            EpsilonGreedy(0)
        with pytest.raises(ValueError):
            EpsilonGreedy(2, epsilon=-0.1)
        with pytest.raises(ValueError):
            EpsilonGreedy(2, discount=0.0)
