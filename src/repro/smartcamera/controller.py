"""Per-camera strategy controllers: fixed baselines vs. self-aware learners.

The heterogeneity experiment (E2) compares cameras that all run one
design-time strategy against cameras that each *learn their own* -- the
"learning to be different" result (ref [13]).  The self-aware controller
is a discounted bandit over the sociality strategies whose reward is the
camera's own trade-off between tracking utility earned and communication
spent, i.e. a private, local view: no global coordinator exists.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from typing import List, Optional

import numpy as np

from ..learning.bandits import EpsilonGreedy
from .strategies import ALL_STRATEGIES, Strategy


class CameraController(ABC):
    """Chooses a sociality strategy for one camera each step."""

    def __init__(self, cam_id: int) -> None:
        self.cam_id = cam_id
        self.usage: Counter = Counter()

    @abstractmethod
    def choose(self, t: float) -> Strategy:
        """Strategy to run this step."""

    def feedback(self, reward: float) -> None:
        """Realised local reward of the step (default: ignored)."""

    def record_usage(self, strategy: Strategy) -> None:
        """Bookkeeping used by the diversity metrics."""
        self.usage[strategy] += 1


class FixedStrategyController(CameraController):
    """Design-time baseline: one strategy forever."""

    def __init__(self, cam_id: int, strategy: Strategy) -> None:
        super().__init__(cam_id)
        self.strategy = strategy

    def choose(self, t: float) -> Strategy:
        return self.strategy


class SelfAwareStrategyController(CameraController):
    """Bandit learner over strategies, rewarded by the camera's own trade-off.

    Discounted ε-greedy so cameras keep adapting as the scene (and the
    other cameras' behaviour) changes -- each camera's environment
    includes its peers, so the collective co-adapts.
    """

    def __init__(self, cam_id: int, epsilon: float = 0.1,
                 discount: float = 0.995,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__(cam_id)
        self._bandit = EpsilonGreedy(
            n_arms=len(ALL_STRATEGIES), epsilon=epsilon, discount=discount,
            rng=rng if rng is not None else np.random.default_rng())
        self._last_arm: Optional[int] = None

    def choose(self, t: float) -> Strategy:
        self._last_arm = self._bandit.select()
        return ALL_STRATEGIES[self._last_arm]

    def feedback(self, reward: float) -> None:
        if self._last_arm is not None:
            self._bandit.update(self._last_arm, reward)

    def preferred_strategy(self) -> Strategy:
        """The strategy with the best current value estimate."""
        values = [self._bandit.value(i) for i in range(len(ALL_STRATEGIES))]
        return ALL_STRATEGIES[int(np.argmax(values))]


def strategy_entropy(controllers: List[CameraController],
                     tail_fraction: float = 1.0) -> float:
    """Shannon entropy (bits) of strategy usage across cameras.

    Zero for a perfectly homogeneous network, up to 2 bits when all four
    strategies are used equally -- the paper's diversity claim is that
    self-aware networks settle at *non-zero* entropy (entities learn to
    be different from each other).
    """
    total: Counter = Counter()
    for ctrl in controllers:
        total.update(ctrl.usage)
    count = sum(total.values())
    if count == 0:
        return 0.0
    entropy = 0.0
    for strategy in ALL_STRATEGIES:
        p = total[strategy] / count
        if p > 0:
            entropy -= p * np.log2(p)
    return float(entropy)
