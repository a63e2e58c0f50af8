"""Multi-armed bandit policy: ε-greedy.

Bandit learners are the workhorse "common technique" for self-awareness
at the stimulus/goal levels: a system repeatedly chooses among discrete
configurations and learns their value from realised reward alone.  The
policy supports non-stationary worlds via optional exponential
discounting, because the environments of interest exhibit *ongoing
change* (paper Section II).  E8's meta-reasoner and the smart-camera
controller both learn with it.

API: ``select() -> arm index``; ``update(arm, reward)``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class EpsilonGreedy:
    """ε-greedy with optional discounting for non-stationary rewards.

    Parameters
    ----------
    n_arms:
        Number of options.
    epsilon:
        Exploration probability.
    discount:
        Per-update multiplicative decay applied to accumulated counts and
        value estimates of *all* arms; ``1.0`` is the stationary estimator.

    Counts and values are plain lists: arm counts are tiny (a handful of
    strategies), where numpy's per-call dispatch overhead dwarfs the
    arithmetic.  Argmax ties break toward the first maximum.
    """

    def __init__(self, n_arms: int, epsilon: float = 0.1, discount: float = 1.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        if n_arms <= 0:
            raise ValueError("n_arms must be positive")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if not 0.0 < discount <= 1.0:
            raise ValueError("discount must be in (0, 1]")
        self.n_arms = n_arms
        self.epsilon = epsilon
        self.discount = discount
        self._rng = rng if rng is not None else np.random.default_rng()
        self._counts = [0.0] * n_arms
        self._values = [0.0] * n_arms

    def select(self) -> int:
        """Index of the arm to pull next."""
        if self._rng.random() < self.epsilon:
            return int(self._rng.integers(self.n_arms))
        counts = self._counts
        for i in range(self.n_arms):
            if counts[i] == 0.0:
                return i
        values = self._values
        best, best_value = 0, values[0]
        for i in range(1, self.n_arms):
            if values[i] > best_value:
                best, best_value = i, values[i]
        return best

    def update(self, arm: int, reward: float) -> None:
        """Feed back the reward of pulling ``arm``."""
        self._check_arm(arm)
        if self.discount < 1.0:
            counts = self._counts
            discount = self.discount
            for i in range(self.n_arms):
                counts[i] *= discount
        self._counts[arm] += 1.0
        step = 1.0 / self._counts[arm]
        self._values[arm] += step * (reward - self._values[arm])

    def value(self, arm: int) -> float:
        """Current value estimate of ``arm``."""
        self._check_arm(arm)
        return float(self._values[arm])

    def _check_arm(self, arm: int) -> None:
        if not 0 <= arm < self.n_arms:
            raise IndexError(f"arm {arm} out of range [0, {self.n_arms})")
