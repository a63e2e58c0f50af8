"""Concept-drift task generators for the meta-self-awareness experiments.

E8 needs decision tasks whose *reward structure* changes over time, so
that a learner tuned for one concept degrades after the change and only a
meta-self-aware system (which watches its own performance) recovers
quickly.  :class:`DriftingBandit` is that task: K arms whose mean
rewards are re-drawn at drift points (abrupt) or interpolated (gradual).
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class DriftingBandit:
    """K-armed Gaussian bandit with scheduled concept drift.

    Parameters
    ----------
    n_arms:
        Number of arms.
    drift_every:
        Steps between drifts.
    mode:
        ``"abrupt"`` re-draws arm means at each drift point; ``"gradual"``
        linearly interpolates to the next concept over ``drift_every``.
    reward_std:
        Observation noise.
    """

    def __init__(self, n_arms: int = 5, drift_every: int = 300,
                 mode: str = "abrupt", reward_std: float = 0.1,
                 rng: Optional[np.random.Generator] = None) -> None:
        if n_arms < 2:
            raise ValueError("need at least 2 arms")
        if drift_every <= 0:
            raise ValueError("drift_every must be positive")
        if mode not in ("abrupt", "gradual"):
            raise ValueError("mode must be 'abrupt' or 'gradual'")
        self.n_arms = n_arms
        self.drift_every = drift_every
        self.mode = mode
        self.reward_std = reward_std
        self._rng = rng if rng is not None else np.random.default_rng()
        self._means = self._rng.uniform(0.0, 1.0, size=n_arms)
        self._next_means = self._rng.uniform(0.0, 1.0, size=n_arms)
        self.t = 0
        self.drifts = 0

    def means(self) -> np.ndarray:
        """Current true arm means (copy)."""
        if self.mode == "gradual":
            frac = (self.t % self.drift_every) / self.drift_every
            return (1.0 - frac) * self._means + frac * self._next_means
        return self._means.copy()

    def best_arm(self) -> int:
        """Index of the currently best arm."""
        return int(np.argmax(self.means()))

    def optimal_mean(self) -> float:
        """Mean reward of the currently best arm."""
        return float(np.max(self.means()))

    def pull(self, arm: int) -> float:
        """Sample a reward for ``arm`` and advance time (drifting as due)."""
        if not 0 <= arm < self.n_arms:
            raise IndexError(f"arm {arm} out of range")
        reward = float(self.means()[arm] + self._rng.normal(0.0, self.reward_std))
        self.t += 1
        if self.t % self.drift_every == 0:
            self.drifts += 1
            if self.mode == "abrupt":
                self._means = self._rng.uniform(0.0, 1.0, size=self.n_arms)
            else:
                self._means = self._next_means
                self._next_means = self._rng.uniform(0.0, 1.0, size=self.n_arms)
        return reward

