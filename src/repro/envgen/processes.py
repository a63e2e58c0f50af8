"""Stochastic processes modelling complex, uncertain, dynamic environments.

The paper's complexity challenges (Section II) -- uncertainty and ongoing
change -- are exercised in every experiment through these generators.
All are deterministic under a seeded ``numpy`` generator and share the
protocol ``value(t)`` (pure lookup/synthesis) or ``step() -> value``
(stateful evolution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np


class BoundedRandomWalk:
    """Mean-reverting random walk clipped to ``[lo, hi]``.

    Ornstein-Uhlenbeck-style: pulls toward ``mean`` with strength
    ``reversion`` plus Gaussian innovations.  Models slowly wandering
    quantities (ambient load, temperature, link quality).
    """

    def __init__(self, mean: float = 0.5, reversion: float = 0.05,
                 sigma: float = 0.05, lo: float = 0.0, hi: float = 1.0,
                 start: Optional[float] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        if not lo < hi:
            raise ValueError("need lo < hi")
        if not 0.0 <= reversion <= 1.0:
            raise ValueError("reversion must be in [0, 1]")
        self.mean = mean
        self.reversion = reversion
        self.sigma = sigma
        self.lo = lo
        self.hi = hi
        self._rng = rng if rng is not None else np.random.default_rng()
        self.current = float(start) if start is not None else mean

    def step(self) -> float:
        """Advance one step and return the new value."""
        drift = self.reversion * (self.mean - self.current)
        self.current = float(min(max(
            self.current + drift + self._rng.normal(0.0, self.sigma),
            self.lo), self.hi))
        return self.current

    def retarget(self, mean: float) -> None:
        """Move the attractor at run time (environment regime change)."""
        self.mean = mean


class SeasonalProcess:
    """Deterministic seasonality plus noise: ``base + amp*sin + noise``.

    The canonical diurnal workload shape used by the cloud experiments.
    """

    def __init__(self, base: float = 0.5, amplitude: float = 0.3,
                 period: float = 100.0, phase: float = 0.0,
                 noise_std: float = 0.02,
                 rng: Optional[np.random.Generator] = None) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        self.base = base
        self.amplitude = amplitude
        self.period = period
        self.phase = phase
        self.noise_std = noise_std
        self._rng = rng if rng is not None else np.random.default_rng()

    def value(self, t: float) -> float:
        """Value at time ``t`` (noise is freshly drawn per call)."""
        clean = self.base + self.amplitude * math.sin(
            2.0 * math.pi * t / self.period + self.phase)
        if self.noise_std > 0:
            clean += float(self._rng.normal(0.0, self.noise_std))
        return clean


@dataclass(frozen=True)
class Shock:
    """A step disturbance active on ``[start, start + duration)``."""

    start: float
    duration: float
    magnitude: float

    def active(self, t: float) -> bool:
        return self.start <= t < self.start + self.duration

    def contribution(self, t: float) -> float:
        return self.magnitude if self.active(t) else 0.0


class ShockSchedule:
    """A timetable of step shocks added onto any base signal.

    Models the paper's "external factors, such as the economy, climate or
    political events": abrupt, exogenous, and invisible until they hit.
    """

    def __init__(self, shocks: Sequence[Shock] = ()) -> None:
        self.shocks: List[Shock] = sorted(shocks, key=lambda s: s.start)

    @classmethod
    def random(cls, horizon: float, n_shocks: int, magnitude: float = 0.4,
               duration: float = 40.0,
               rng: Optional[np.random.Generator] = None) -> "ShockSchedule":
        """Uniformly scattered shocks of alternating sign."""
        rng = rng if rng is not None else np.random.default_rng()
        starts = np.sort(rng.uniform(0.0, horizon, size=n_shocks))
        shocks = [Shock(start=float(s), duration=duration,
                        magnitude=magnitude * (1 if i % 2 == 0 else -1))
                  for i, s in enumerate(starts)]
        return cls(shocks)

    def offset(self, t: float) -> float:
        """Total shock contribution at time ``t``."""
        return sum(s.contribution(t) for s in self.shocks)

    def any_active(self, t: float) -> bool:
        """Whether any shock is active at ``t``."""
        return any(s.active(t) for s in self.shocks)


class MarkovModulatedProcess:
    """A process whose regime follows a hidden Markov chain.

    Each regime pins a level; transitions occur per step with the given
    matrix.  This is the classic MMPP-style workload/availability model
    used for volunteer clouds and bursty request streams.

    Parameters
    ----------
    levels:
        Emission level per regime.
    transition:
        Row-stochastic matrix, ``transition[i][j]`` = P(next=j | now=i).
    noise_std:
        Gaussian noise added to the emitted level.
    """

    def __init__(self, levels: Sequence[float],
                 transition: Sequence[Sequence[float]],
                 noise_std: float = 0.0,
                 rng: Optional[np.random.Generator] = None,
                 start_state: int = 0) -> None:
        self.levels = [float(x) for x in levels]
        matrix = np.asarray(transition, dtype=float)
        if matrix.shape != (len(self.levels), len(self.levels)):
            raise ValueError("transition matrix shape must match levels")
        if not np.allclose(matrix.sum(axis=1), 1.0):
            raise ValueError("transition matrix rows must sum to 1")
        if np.any(matrix < 0):
            raise ValueError("transition probabilities must be non-negative")
        self.transition = matrix
        self.noise_std = noise_std
        self._rng = rng if rng is not None else np.random.default_rng()
        if not 0 <= start_state < len(self.levels):
            raise ValueError("start_state out of range")
        self.state = start_state

    def step(self) -> float:
        """Advance the chain one step and emit the (noisy) level."""
        self.state = int(self._rng.choice(len(self.levels),
                                          p=self.transition[self.state]))
        value = self.levels[self.state]
        if self.noise_std > 0:
            value += float(self._rng.normal(0.0, self.noise_std))
        return value

    @classmethod
    def two_state(cls, low: float = 0.2, high: float = 0.8,
                  stay: float = 0.95, **kwargs) -> "MarkovModulatedProcess":
        """Convenience: symmetric bursty two-regime process."""
        if not 0.0 < stay < 1.0:
            raise ValueError("stay must be in (0, 1)")
        return cls(levels=[low, high],
                   transition=[[stay, 1.0 - stay], [1.0 - stay, stay]],
                   **kwargs)

