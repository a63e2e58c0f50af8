"""Multi-armed bandit policies.

Bandit learners are the workhorse "common technique" for self-awareness
at the stimulus/goal levels: a system repeatedly chooses among discrete
configurations and learns their value from realised reward alone.  All
policies here support non-stationary worlds via optional exponential
discounting, because the environments of interest exhibit *ongoing
change* (paper Section II).

API: ``select() -> arm index``; ``update(arm, reward)``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Optional

import numpy as np


class BanditPolicy(ABC):
    """Chooses among ``n_arms`` discrete options from reward feedback."""

    def __init__(self, n_arms: int) -> None:
        if n_arms <= 0:
            raise ValueError("n_arms must be positive")
        self.n_arms = n_arms
        self.total_pulls = 0

    @abstractmethod
    def select(self) -> int:
        """Index of the arm to pull next."""

    @abstractmethod
    def update(self, arm: int, reward: float) -> None:
        """Feed back the reward of pulling ``arm``."""

    def _check_arm(self, arm: int) -> None:
        if not 0 <= arm < self.n_arms:
            raise IndexError(f"arm {arm} out of range [0, {self.n_arms})")


class EpsilonGreedy(BanditPolicy):
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
        super().__init__(n_arms)
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if not 0.0 < discount <= 1.0:
            raise ValueError("discount must be in (0, 1]")
        self.epsilon = epsilon
        self.discount = discount
        self._rng = rng if rng is not None else np.random.default_rng()
        self._counts = [0.0] * n_arms
        self._values = [0.0] * n_arms

    def select(self) -> int:
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
        self._check_arm(arm)
        self.total_pulls += 1
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


class UCB1(BanditPolicy):
    """UCB1: optimism in the face of uncertainty.

    ``discount < 1`` yields discounted-UCB, appropriate under drift.
    ``c`` scales the confidence bonus (classic value ``sqrt(2)``).
    """

    def __init__(self, n_arms: int, c: float = math.sqrt(2.0),
                 discount: float = 1.0) -> None:
        super().__init__(n_arms)
        if c < 0:
            raise ValueError("c must be non-negative")
        if not 0.0 < discount <= 1.0:
            raise ValueError("discount must be in (0, 1]")
        self.c = c
        self.discount = discount
        self._counts = np.zeros(n_arms)
        self._values = np.zeros(n_arms)

    def select(self) -> int:
        never_pulled = np.flatnonzero(self._counts == 0)
        if never_pulled.size:
            return int(never_pulled[0])
        total = float(self._counts.sum())
        bonus = self.c * np.sqrt(np.log(max(total, math.e)) / self._counts)
        return int(np.argmax(self._values + bonus))

    def update(self, arm: int, reward: float) -> None:
        self._check_arm(arm)
        self.total_pulls += 1
        if self.discount < 1.0:
            self._counts *= self.discount
        self._counts[arm] += 1.0
        step = 1.0 / self._counts[arm]
        self._values[arm] += step * (reward - self._values[arm])

    def value(self, arm: int) -> float:
        """Current value estimate of ``arm``."""
        self._check_arm(arm)
        return float(self._values[arm])


class ThompsonSampling(BanditPolicy):
    """Gaussian Thompson sampling with forgetting.

    Maintains a Normal posterior per arm over the mean reward (known-noise
    approximation).  ``forgetting < 1`` inflates posterior variance each
    update, keeping the sampler responsive to drift.
    """

    def __init__(self, n_arms: int, prior_mean: float = 0.0,
                 prior_var: float = 1.0, noise_var: float = 0.25,
                 forgetting: float = 1.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(n_arms)
        if prior_var <= 0 or noise_var <= 0:
            raise ValueError("variances must be positive")
        if not 0.0 < forgetting <= 1.0:
            raise ValueError("forgetting must be in (0, 1]")
        self.noise_var = noise_var
        self.forgetting = forgetting
        self.prior_var = prior_var
        self._rng = rng if rng is not None else np.random.default_rng()
        self._mean = np.full(n_arms, float(prior_mean))
        self._var = np.full(n_arms, float(prior_var))

    def select(self) -> int:
        samples = self._rng.normal(self._mean, np.sqrt(self._var))
        return int(np.argmax(samples))

    def update(self, arm: int, reward: float) -> None:
        self._check_arm(arm)
        self.total_pulls += 1
        if self.forgetting < 1.0:
            # Variance inflation toward (but capped at) the prior.
            self._var = np.minimum(self._var / self.forgetting, self.prior_var)
        var, mean = self._var[arm], self._mean[arm]
        precision = 1.0 / var + 1.0 / self.noise_var
        new_var = 1.0 / precision
        new_mean = new_var * (mean / var + reward / self.noise_var)
        self._var[arm] = new_var
        self._mean[arm] = new_mean

    def value(self, arm: int) -> float:
        """Posterior mean reward of ``arm``."""
        self._check_arm(arm)
        return float(self._mean[arm])
