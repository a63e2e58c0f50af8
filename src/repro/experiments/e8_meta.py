"""E8 -- meta-self-awareness: monitoring one's own learner under drift.

Paper Section IV: advanced systems are *meta-self-aware* -- aware of how
they themselves are aware, able to reason about and change their own
learning apparatus.  A drifting bandit task is faced by:

- fixed learners (a stable and a plastic ε-greedy -- the design-time
  choices a non-meta system is stuck with),
- a meta-self-aware controller holding both as a strategy portfolio,
  monitoring its own realised reward, and switching (two trigger
  mechanisms, the DESIGN.md ablation: drift detector vs. sliding-window
  comparison),
- an oracle that always pulls the currently best arm.

Reported: mean reward, normalised regret, and the tail regret slope
(a converged learner stops paying; a stale one keeps paying).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from ..envgen.driftgen import DriftingBandit
from ..learning.bandits import EpsilonGreedy
from ..learning.drift import PageHinkley
from ..metrics.regret import normalised_regret, regret_slope
from .harness import ExperimentTable

N_ARMS = 6

#: High observation noise: estimating arm means well requires long
#: averaging, which is precisely what a plastic (fast-forgetting) learner
#: gives up -- creating the calm-era/turbulent-era trade-off the meta
#: level arbitrates.
REWARD_STD = 0.4


def _bandit(discount: float, seed: int) -> EpsilonGreedy:
    """One strategy of the portfolio: an ε-greedy bandit over the arms."""
    return EpsilonGreedy(N_ARMS, epsilon=0.08, discount=discount,
                         rng=np.random.default_rng(seed))


class MetaBandit:
    """Meta controller over {stable, plastic} strategies.

    The metacognitive policy (Cox's loop in miniature): a drift detector
    watches the controller's *own reward stream*; a detection means the
    world has changed, so the plastic strategy takes over.  A sustained
    quiet period (no detection for ``quiet_period`` pulls) means the
    world has settled, so the stable strategy -- the better estimator
    under noise -- resumes.

    ``trigger`` selects the change signal (DESIGN.md ablation 3):
    ``"detector"`` runs Page-Hinkley on the reward stream;
    ``"window"`` declares change when the recent reward mean falls below
    the long-run mean by a margin.
    """

    def __init__(self, trigger: str, seed: int, quiet_period: int = 400,
                 margin: float = 0.08, window: int = 50) -> None:
        if trigger not in ("detector", "window"):
            raise ValueError("trigger must be 'detector' or 'window'")
        self.strategies = {
            "stable": _bandit(discount=1.0, seed=seed),
            "plastic": _bandit(discount=0.9, seed=seed + 1),
        }
        self.active = "stable"
        self.trigger = trigger
        self.quiet_period = quiet_period
        self.margin = margin
        self.window = window
        self._detector = self._fresh_detector()
        self._rewards: List[float] = []
        self.switches = 0
        self._since_change = 0

    @staticmethod
    def _fresh_detector() -> PageHinkley:
        return PageHinkley(delta=0.05, threshold=8.0, direction="decrease",
                           min_samples=30)

    def select(self) -> int:
        return self.strategies[self.active].select()

    def _change_signalled(self, reward: float) -> bool:
        if self.trigger == "detector":
            return self._detector.update(reward)
        self._rewards.append(reward)
        if len(self._rewards) < 4 * self.window:
            return False
        recent = float(np.mean(self._rewards[-self.window:]))
        longrun = float(np.mean(self._rewards[-4 * self.window:-self.window]))
        if recent < longrun - self.margin:
            self._rewards.clear()
            return True
        return False

    def update(self, arm: int, reward: float) -> None:
        for strategy in self.strategies.values():
            strategy.update(arm, reward)
        self._since_change += 1
        if self._change_signalled(reward):
            self._since_change = 0
            if self.active != "plastic":
                self.active = "plastic"
                self.switches += 1
        elif (self.active == "plastic"
              and self._since_change >= self.quiet_period):
            self.active = "stable"
            self.switches += 1


def _run_two_era(learner, seed: int, steps: int,
                 turbulent_drift: int) -> Dict[str, float]:
    """A calm era (no drift) followed by a turbulent one (rapid drift).

    Neither design-time plasticity setting is right for both eras: the
    stable learner wins the calm half (lower estimator variance) and then
    decays; the plastic learner pays variance in the calm half but tracks
    the turbulent one.  Only a meta-self-aware system -- which watches
    its own reward -- gets both.
    """
    achieved: List[float] = []
    optimal: List[float] = []
    half = steps // 2
    calm = DriftingBandit(n_arms=N_ARMS, drift_every=10 ** 9,
                          reward_std=REWARD_STD,
                          rng=np.random.default_rng(7000 + seed))
    turbulent = DriftingBandit(n_arms=N_ARMS, drift_every=turbulent_drift,
                               reward_std=REWARD_STD,
                               rng=np.random.default_rng(8000 + seed))
    for t in range(steps):
        bandit = calm if t < half else turbulent
        optimal.append(bandit.optimal_mean())
        arm = learner.select()
        reward = bandit.pull(arm)
        learner.update(arm, reward)
        achieved.append(reward)
    return {
        "reward": float(np.mean(achieved)),
        "reward_calm": float(np.mean(achieved[:half])),
        "reward_turbulent": float(np.mean(achieved[half:])),
        "regret": normalised_regret(optimal, achieved),
        "tail_slope": regret_slope(optimal, achieved, tail_fraction=0.2),
    }


def _learner_factories() -> Dict[str, Callable[[int], object]]:
    return {
        "stable(fixed)": lambda seed: _bandit(1.0, seed),
        "plastic(fixed)": lambda seed: _bandit(0.9, seed),
        "meta(detector)": lambda seed: MetaBandit("detector", seed),
        "meta(window)": lambda seed: MetaBandit("window", seed),
    }


def run_shard(seed: int, steps: int = 4000,
              turbulent_drift: int = 250) -> Dict[str, Dict[str, float]]:
    """One seed's worth of E8: two-era scores + switches per learner."""
    payload: Dict[str, Dict[str, float]] = {}
    for name, factory in _learner_factories().items():
        learner = factory(seed)
        scores = dict(_run_two_era(learner, seed, steps, turbulent_drift))
        scores["switches"] = float(getattr(learner, "switches", 0))
        payload[name] = scores
    return payload


def reduce(shards: Sequence[Dict[str, Dict[str, float]]],
           seeds: Sequence[int] = (), steps: int = 4000,
           turbulent_drift: int = 250) -> ExperimentTable:
    """Seed-average per-seed payloads into the E8 table."""
    table = ExperimentTable(
        experiment_id="E8",
        title="Meta-self-awareness under concept drift (two-era bandit)",
        columns=["learner", "mean_reward", "reward_calm", "reward_turbulent",
                 "normalised_regret", "tail_regret_slope", "switches"],
        notes=(f"{N_ARMS} arms; first half stationary, second half abrupt "
               f"drift every {turbulent_drift} pulls; regret vs the "
               "always-best-arm oracle"))
    for name in _learner_factories():
        scores = [shard[name] for shard in shards]
        table.add_row(
            learner=name,
            mean_reward=float(np.mean([s["reward"] for s in scores])),
            reward_calm=float(np.mean([s["reward_calm"] for s in scores])),
            reward_turbulent=float(np.mean(
                [s["reward_turbulent"] for s in scores])),
            normalised_regret=float(np.mean([s["regret"] for s in scores])),
            tail_regret_slope=float(np.mean([s["tail_slope"] for s in scores])),
            switches=float(np.mean([s["switches"] for s in scores])))
    return table


def run(seeds: Sequence[int] = (0, 1, 2, 3, 4), steps: int = 4000,
        turbulent_drift: int = 250) -> ExperimentTable:
    """One row per learner on the calm-then-turbulent bandit."""
    return reduce([run_shard(seed, steps=steps,
                             turbulent_drift=turbulent_drift)
                   for seed in seeds],
                  seeds=seeds, steps=steps, turbulent_drift=turbulent_drift)


if __name__ == "__main__":  # pragma: no cover
    from .harness import print_tables
    print_tables([run()])
