"""The multi-core simulation loop and default workload."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..core.goals import Goal
from ..envgen.workloads import TaskClass, TaskStreamWorkload
from .platform import Platform, PlatformMetrics

#: Default workload classes with opposing core-type affinities.  Sized so
#: that even a vector-heavy phase is servable at thermally sustainable
#: frequencies *if* tasks are mapped to their preferred core type -- the
#: regime where run-time awareness can win without breaking the thermal
#: constraint.
DEFAULT_CLASSES = (
    TaskClass("vector", mean_work=13.0),
    TaskClass("background", mean_work=6.0),
)

#: Ground-truth affinity: vector code loves big cores, background tasks
#: run disproportionately well on little ones.  Governors never see this
#: table; self-aware ones must discover it from observed rates.
DEFAULT_AFFINITY: Dict[str, Dict[str, float]] = {
    "vector": {"big": 1.2, "little": 0.4},
    "background": {"big": 0.7, "little": 1.3},
}


def make_platform(n_big: int = 2, n_little: int = 4,
                  critical_temp: float = 85.0) -> Platform:
    """The standard experiment platform."""
    return Platform(n_big=n_big, n_little=n_little,
                    affinity=DEFAULT_AFFINITY, critical_temp=critical_temp)


def make_workload(rate: float = 1.2, phase_length: int = 250,
                  seed: int = 0) -> TaskStreamWorkload:
    """The standard phase-changing task stream."""
    return TaskStreamWorkload(list(DEFAULT_CLASSES), phase_length=phase_length,
                              rate=rate, rng=np.random.default_rng(seed))


@dataclass
class GovernorRunResult:
    """Outcome of driving one governor over a workload."""

    history: List[PlatformMetrics]
    platform: Platform

    def mean_utility(self, goal: Goal) -> float:
        """Time-averaged goal utility over the run."""
        if not self.history:
            return math.nan
        return sum(goal.utility(m.as_dict()) for m in self.history) / len(self.history)

    def mean_throughput(self) -> float:
        """Average work completed per step."""
        return sum(m.throughput for m in self.history) / max(1, len(self.history))

    def mean_energy(self) -> float:
        """Average power per step."""
        return sum(m.energy for m in self.history) / max(1, len(self.history))

    def throttle_fraction(self) -> float:
        """Fraction of steps with at least one throttled core."""
        if not self.history:
            return math.nan
        return sum(1 for m in self.history if m.throttled_cores > 0) / len(self.history)

    def thermal_violation_rate(self, cap: float) -> float:
        """Fraction of steps whose max temperature exceeds ``cap``."""
        if not self.history:
            return math.nan
        return sum(1 for m in self.history
                   if m.max_temperature > cap) / len(self.history)

    def mean_queue(self) -> float:
        """Average ready-queue length (latency proxy)."""
        return sum(m.queue_length for m in self.history) / max(1, len(self.history))
