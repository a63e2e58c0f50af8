"""Volunteer service composition under churn (paper refs [14], [15]).

In volunteer clouds, the resources behind a service are donated machines
that come and go, and whose behaviour drifts.  A composer must pick, per
request, which volunteer provider to bind -- with stale information and
no central authority.

Providers have hidden state: a two-state (up/down) Markov availability
chain and a slowly drifting reliability.  What a selector can see is a
*heartbeat*: the provider's up/down state as of up to ``heartbeat_lag``
steps ago.  Selectors:

- :class:`RandomSelector` -- no awareness at all;
- :class:`StaticRankSelector` -- design-time ranking by the reliability
  measured before deployment (goes stale as reliabilities drift);
- :class:`StimulusAwareSelector` -- prefers providers whose (possibly
  stale) heartbeat says "up", random among them;
- :class:`SelfAwareSelector` -- stimulus- *and* time-aware: combines the
  heartbeat with discounted empirical success statistics per provider
  (learning who actually delivers, and forgetting as the world drifts).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence

import numpy as np

from ..envgen.processes import BoundedRandomWalk


class VolunteerProvider:
    """One donated machine offering the service.

    Parameters
    ----------
    provider_id:
        Identifier.
    availability_stay:
        Probability of staying in the current up/down state each step.
    reliability:
        Initial probability a request succeeds while the provider is up;
        drifts as a bounded random walk with ``reliability_sigma``.
    """

    def __init__(self, provider_id: int, availability_stay: float = 0.95,
                 reliability: float = 0.9, reliability_sigma: float = 0.01,
                 rng: Optional[np.random.Generator] = None) -> None:
        if not 0.0 < availability_stay < 1.0:
            raise ValueError("availability_stay must be in (0, 1)")
        if not 0.0 <= reliability <= 1.0:
            raise ValueError("reliability must be in [0, 1]")
        self.provider_id = provider_id
        self.availability_stay = availability_stay
        self._rng = rng if rng is not None else np.random.default_rng()
        self.up = bool(self._rng.random() < 0.8)
        self._reliability_walk = BoundedRandomWalk(
            mean=reliability, reversion=0.02, sigma=reliability_sigma,
            lo=0.05, hi=0.99, start=reliability, rng=self._rng)
        self.initial_reliability = reliability

    @property
    def reliability(self) -> float:
        """Current (hidden) success probability while up."""
        return self._reliability_walk.current

    def step(self) -> None:
        """Advance availability and reliability one step."""
        if self._rng.random() >= self.availability_stay:
            self.up = not self.up
        self._reliability_walk.step()

    def serve(self) -> bool:
        """Attempt one request; hidden truth decides success."""
        return self.up and (self._rng.random() < self.reliability)


@dataclass
class Heartbeat:
    """What a selector may see about one provider: a possibly stale state."""

    provider_id: int
    up: bool
    age: int


class VolunteerPool:
    """The provider population plus the heartbeat channel."""

    def __init__(self, n_providers: int = 10, heartbeat_lag: int = 5,
                 rng: Optional[np.random.Generator] = None,
                 reliability_spread: float = 0.3) -> None:
        if n_providers < 2:
            raise ValueError("need at least 2 providers")
        if heartbeat_lag < 0:
            raise ValueError("heartbeat_lag must be non-negative")
        self._rng = rng if rng is not None else np.random.default_rng()
        self.heartbeat_lag = heartbeat_lag
        self.providers: List[VolunteerProvider] = []
        for i in range(n_providers):
            rel = float(min(max(
                0.9 - reliability_spread * self._rng.random(), 0.1), 0.95))
            self.providers.append(VolunteerProvider(
                provider_id=i, reliability=rel,
                rng=np.random.default_rng(self._rng.integers(2 ** 31))))
        self._state_history: Deque[List[bool]] = deque(maxlen=heartbeat_lag + 1)
        self._state_history.append([p.up for p in self.providers])

    def step(self) -> None:
        """Advance all providers and the heartbeat pipeline."""
        for p in self.providers:
            p.step()
        self._state_history.append([p.up for p in self.providers])

    def heartbeats(self) -> List[Heartbeat]:
        """Stale view: provider states as of ``heartbeat_lag`` steps ago."""
        stale = self._state_history[0]
        age = len(self._state_history) - 1
        return [Heartbeat(provider_id=i, up=up, age=age)
                for i, up in enumerate(stale)]

    def __len__(self) -> int:
        return len(self.providers)


class ProviderSelector(ABC):
    """Picks a provider for each request."""

    @abstractmethod
    def select(self, heartbeats: Sequence[Heartbeat]) -> int:
        """Provider id to bind for this request."""

    def feedback(self, provider_id: int, success: bool) -> None:
        """Outcome of the bound request (default: ignored)."""


class RandomSelector(ProviderSelector):
    """Uniform random choice: the no-awareness floor."""

    def __init__(self, rng: Optional[np.random.Generator] = None) -> None:
        self._rng = rng if rng is not None else np.random.default_rng()

    def select(self, heartbeats: Sequence[Heartbeat]) -> int:
        return int(self._rng.integers(len(heartbeats)))


class StaticRankSelector(ProviderSelector):
    """Design-time ranking: always the provider measured best pre-deployment."""

    def __init__(self, initial_reliabilities: Sequence[float]) -> None:
        if not initial_reliabilities:
            raise ValueError("need at least one provider")
        self.best = int(np.argmax(initial_reliabilities))

    def select(self, heartbeats: Sequence[Heartbeat]) -> int:
        return self.best


class StimulusAwareSelector(ProviderSelector):
    """Random among providers whose heartbeat reports 'up'.

    Reacts to the current (stale) stimulus but learns nothing.
    """

    def __init__(self, rng: Optional[np.random.Generator] = None) -> None:
        self._rng = rng if rng is not None else np.random.default_rng()

    def select(self, heartbeats: Sequence[Heartbeat]) -> int:
        up = [h.provider_id for h in heartbeats if h.up]
        pool = up if up else [h.provider_id for h in heartbeats]
        return int(pool[self._rng.integers(len(pool))])


class SelfAwareSelector(ProviderSelector):
    """Discounted success statistics combined with the heartbeat stimulus.

    Per provider the selector keeps an exponentially discounted success
    rate *conditioned on the heartbeat having said "up"* (time-awareness
    of drifting reliability, uncontaminated by obvious downtime).
    Selection uses the stimulus first -- restrict to providers whose
    heartbeat reports up -- then picks the one with the best learned
    record, with ε-greedy exploration so knowledge stays current.
    """

    def __init__(self, n_providers: int, epsilon: float = 0.05,
                 discount: float = 0.99,
                 rng: Optional[np.random.Generator] = None) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if not 0.0 < discount <= 1.0:
            raise ValueError("discount must be in (0, 1]")
        self.epsilon = epsilon
        self.discount = discount
        self._rng = rng if rng is not None else np.random.default_rng()
        self._success = np.full(n_providers, 0.5)
        self._counts = np.zeros(n_providers)
        self._last_seen_up: Optional[bool] = None

    def select(self, heartbeats: Sequence[Heartbeat]) -> int:
        up = [h.provider_id for h in heartbeats if h.up]
        pool = up if up else [h.provider_id for h in heartbeats]
        if self._rng.random() < self.epsilon:
            choice = int(pool[self._rng.integers(len(pool))])
        else:
            choice = int(max(pool, key=lambda pid: self._success[pid]))
        self._last_seen_up = choice in up
        return choice

    def feedback(self, provider_id: int, success: bool) -> None:
        self._counts *= self.discount
        self._counts[provider_id] += 1.0
        step = 1.0 / self._counts[provider_id]
        self._success[provider_id] += step * (float(success)
                                              - self._success[provider_id])


@dataclass
class CompositionResult:
    """Outcome of one composition run."""

    successes: int
    requests: int
    success_by_window: List[float]

    @property
    def success_rate(self) -> float:
        """Overall request success fraction."""
        return self.successes / self.requests if self.requests else math.nan


def run_composition(selector: ProviderSelector, pool: VolunteerPool,
                    steps: int = 2000, window: int = 200) -> CompositionResult:
    """Drive one selector against a pool for ``steps`` requests."""
    successes = 0
    window_hits: List[int] = []
    success_by_window: List[float] = []
    for t in range(steps):
        pool.step()
        choice = selector.select(pool.heartbeats())
        ok = pool.providers[choice].serve()
        selector.feedback(choice, ok)
        successes += int(ok)
        window_hits.append(int(ok))
        if len(window_hits) == window:
            success_by_window.append(sum(window_hits) / window)
            window_hits = []
    return CompositionResult(successes=successes, requests=steps,
                             success_by_window=success_by_window)
