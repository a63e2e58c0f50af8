"""Sociality strategies: who to advertise handover auctions to, and when.

The heterogeneity studies behind the paper (refs [11], [13]) equip each
camera with a *marketing strategy* on two axes:

- **initiative**: *active* cameras auction every owned object every step
  (always seeking the best tracker, at high communication cost);
  *passive* cameras auction only when their own tracking confidence
  falls below a threshold (cheap, but objects linger on poor trackers);
- **audience**: *broadcast* advertises to every camera; *smooth*
  advertises only to vision-graph neighbours (cheap, but handover
  opportunities outside the neighbourhood are missed).

The four combinations span the tracking-utility/communication-cost
trade-off.  "Learning to be different" (ref [13]) is each camera choosing
its own strategy with a bandit over these options -- the self-awareness
experiment E2 reproduces exactly that design.
"""

from __future__ import annotations

import enum


class Strategy(enum.Enum):
    """The four sociality strategies on the initiative x audience axes."""

    ACTIVE_BROADCAST = "active_broadcast"
    ACTIVE_SMOOTH = "active_smooth"
    PASSIVE_BROADCAST = "passive_broadcast"
    PASSIVE_SMOOTH = "passive_smooth"

    @property
    def is_active(self) -> bool:
        """Whether the strategy auctions every step (vs. only when losing)."""
        return self in (Strategy.ACTIVE_BROADCAST, Strategy.ACTIVE_SMOOTH)

    @property
    def is_broadcast(self) -> bool:
        """Whether advertisements go to every camera (vs. neighbours only)."""
        return self in (Strategy.ACTIVE_BROADCAST, Strategy.PASSIVE_BROADCAST)


ALL_STRATEGIES = tuple(Strategy)

