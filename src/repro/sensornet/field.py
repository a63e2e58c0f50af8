"""The sensed field: hidden channels a constrained node must track.

Models the fog/mist setting of Preden et al. (paper ref [55]): one node
faces many phenomena ("channels") it *could* attend to -- some volatile
and mission-critical, some nearly static, some cheap to read and some
expensive -- and an energy budget that covers only a fraction of them per
step.  The ground truth evolves regardless of whether anyone looks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..envgen.processes import BoundedRandomWalk
from .soa import step_walks_batched


@dataclass(frozen=True)
class ChannelSpec:
    """Static description of one channel."""

    name: str
    volatility: float          # random-walk sigma of the hidden signal
    importance: float = 1.0    # weight in the tracking-error objective
    sample_cost: float = 1.0   # energy per sample
    noise_std: float = 0.01    # sensor read noise

    def __post_init__(self) -> None:
        if self.volatility < 0:
            raise ValueError("volatility must be non-negative")
        if self.importance <= 0:
            raise ValueError("importance must be positive")
        if self.sample_cost <= 0:
            raise ValueError("sample_cost must be positive")


def mixed_channel_specs(n_channels: int = 8,
                        seed: int = 0) -> List[ChannelSpec]:
    """A heterogeneous channel population.

    Half the channels are quiet (low volatility), a quarter moderately
    active, a quarter highly volatile and twice as important -- the
    configuration under which undirected attention wastes most of its
    budget on phenomena that never change.
    """
    rng = np.random.default_rng(seed)
    specs: List[ChannelSpec] = []
    for i in range(n_channels):
        band = i % 4
        if band in (0, 1):
            vol, imp = 0.002, 1.0
        elif band == 2:
            vol, imp = 0.02, 1.0
        else:
            vol, imp = 0.08, 2.0
        cost = float(rng.choice([0.5, 1.0, 1.5]))
        specs.append(ChannelSpec(name=f"ch{i}", volatility=vol,
                                 importance=imp, sample_cost=cost))
    return specs


class ChannelField:
    """The evolving hidden truth behind every channel."""

    def __init__(self, specs: Sequence[ChannelSpec],
                 rng: Optional[np.random.Generator] = None) -> None:
        if not specs:
            raise ValueError("need at least one channel")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError("channel names must be unique")
        self.specs: Dict[str, ChannelSpec] = {s.name: s for s in specs}
        self._rng = rng if rng is not None else np.random.default_rng()
        self._signals: Dict[str, BoundedRandomWalk] = {
            s.name: BoundedRandomWalk(
                mean=0.5, reversion=0.02, sigma=s.volatility,
                lo=0.0, hi=1.0, start=float(self._rng.uniform(0.2, 0.8)),
                rng=self._rng)
            for s in specs}
        # Every walk draws from the shared generator (by construction
        # just above), which is what lets one batched draw replace the
        # per-walk scalar draws bit-identically.
        self._walks = list(self._signals.values())

    def names(self) -> List[str]:
        """Channel names, in spec order."""
        return list(self.specs)

    def step(self) -> None:
        """Advance every hidden signal one step.

        One batched ``normal`` draw for every channel, then each walk's
        mean-reversion update and clamp in Python floats (see
        :func:`repro.sensornet.soa.step_walks_batched`): the same
        signals, and the same generator state, as stepping each walk's
        own scalar :meth:`~repro.envgen.processes.BoundedRandomWalk.step`
        in spec order.
        """
        step_walks_batched(self._walks, self._rng)

    def truth(self, name: str) -> float:
        """Current hidden value of ``name``."""
        return self._signals[name].current

    def weighted_error(self, beliefs: Dict[str, float]) -> float:
        """Importance-weighted mean absolute tracking error.

        Channels with no belief at all are charged the worst-case error
        (0.5 on the unit range) -- ignorance is not free.
        """
        total_weight = sum(s.importance for s in self.specs.values())
        error = 0.0
        for name, spec in self.specs.items():
            believed = beliefs.get(name)
            if believed is None or math.isnan(believed):
                channel_error = 0.5
            else:
                channel_error = abs(believed - self.truth(name))
            error += spec.importance * channel_error
        return error / total_weight
