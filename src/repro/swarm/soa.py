"""Struct-of-arrays working set for the swarm substrate.

The swarm hot loop used to walk Python object graphs: every robot a
dataclass, every remembered event an ``Event`` instance, every distance
a ``math.hypot`` call.  This module holds the same state in flat
columns so the per-step kernels (witness scan, gossip neighbourhoods,
Voronoi attribution) can run as a handful of array operations:

- :class:`EventTable` -- the append-only store of event coordinates
  (``times`` / ``xs`` / ``ys`` columns); robots remember *indices* into
  it instead of object references, and a window ``trim`` keeps storage
  bounded by the live memory horizon.
- :class:`IndexMemory` -- one robot's event memory: a flat index buffer
  with a head pointer, so pruning the expired prefix is pointer
  arithmetic and the retained window is a zero-copy slice.
- :class:`RobotArrays` -- per-step position / radius / liveness columns
  refreshed from the ``Robot`` objects (which remain the mutable API
  surface for controllers, fault hooks and tests).

Byte-identity discipline: array math never *decides* anything on its
own.  Batched distances are used only (a) inside tolerance brackets
whose ambiguity band absorbs both robot movement and float-evaluation
differences (``sqrt(dx*dx+dy*dy)`` vs ``math.hypot``), or (b) as
conservative candidate prefilters whose hits are re-checked with the
exact scalar predicate.  The accepted sets, their order, and every
downstream float operation match the exact scalar predicates applied
entry by entry.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

import numpy as np

# The tolerance bands are shared by every SoA core (swarm, smart-camera,
# sensornet); re-exported here because this module defined them first
# and downstream code imports them from both places.
from ..geom.exact import (EXACT_REL, PREFILTER_SLACK,  # noqa: F401
                          prefilter_limit_sq)
from .arena import Event

#: Shared empty index window, matching :meth:`IndexMemory.view`'s dtype.
EMPTY_INDICES = np.empty(0, dtype=np.intp)


class EventTable:
    """Append-only SoA store of event coordinates.

    Rows are addressed by a *global* index that never changes;
    :meth:`trim` drops physical storage below the live window without
    renumbering, so :class:`IndexMemory` contents stay valid.
    """

    __slots__ = ("size", "_base", "_times", "_xs", "_ys")

    def __init__(self) -> None:
        self.size = 0          # next global index
        self._base = 0         # global index of physical row 0
        self._times = np.empty(256, dtype=np.float64)
        self._xs = np.empty(256, dtype=np.float64)
        self._ys = np.empty(256, dtype=np.float64)

    def __len__(self) -> int:
        return self.size

    @property
    def base(self) -> int:
        """Smallest global index still physically stored."""
        return self._base

    def add(self, time: float, x: float, y: float) -> int:
        """Append one event; returns its global index."""
        index = self.size
        row = index - self._base
        if row >= len(self._times):
            grow = max(256, 2 * len(self._times))
            for name in ("_times", "_xs", "_ys"):
                old = getattr(self, name)
                new = np.empty(grow, dtype=np.float64)
                new[:row] = old[:row]
                setattr(self, name, new)
        self._times[row] = time
        self._xs[row] = x
        self._ys[row] = y
        self.size = index + 1
        return index

    def add_event(self, event: Event) -> int:
        """Append an :class:`Event`'s coordinates."""
        return self.add(event.time, event.x, event.y)

    def time_at(self, index: int) -> float:
        return float(self._times[index - self._base])

    def x_at(self, index: int) -> float:
        return float(self._xs[index - self._base])

    def y_at(self, index: int) -> float:
        return float(self._ys[index - self._base])

    def event(self, index: int) -> Event:
        """Materialise the row as an :class:`Event` (value-equal to the
        original; the table does not retain object identity)."""
        row = index - self._base
        return Event(time=float(self._times[row]), x=float(self._xs[row]),
                     y=float(self._ys[row]))

    def columns(self, lo: int, hi: int):
        """``(xs, ys)`` for global rows ``[lo, hi)`` as zero-copy views."""
        a, b = lo - self._base, hi - self._base
        return self._xs[a:b], self._ys[a:b]

    def trim(self, lo: int) -> None:
        """Drop physical storage for rows below ``lo`` (global indices
        are untouched; accessing a trimmed row is undefined)."""
        if lo <= self._base:
            return
        lo = min(lo, self.size)
        keep = self.size - lo
        shift = lo - self._base
        for name in ("_times", "_xs", "_ys"):
            buf = getattr(self, name)
            buf[:keep] = buf[shift:shift + keep]
        self._base = lo


class IndexMemory:
    """One robot's event memory: global table indices, oldest first.

    Indices are appended in non-decreasing event-time order, so expiry
    removes a prefix; :meth:`prune_before` advances a head pointer and
    compacts lazily.
    """

    __slots__ = ("_buf", "_head", "_tail")

    def __init__(self) -> None:
        self._buf = np.empty(64, dtype=np.intp)
        self._head = 0
        self._tail = 0

    def __len__(self) -> int:
        return self._tail - self._head

    def __bool__(self) -> bool:
        return self._tail > self._head

    def append(self, index: int) -> None:
        if self._tail >= len(self._buf):
            self._compact_or_grow()
        self._buf[self._tail] = index
        self._tail += 1

    def _compact_or_grow(self) -> None:
        live = self._tail - self._head
        # Enough dead prefix to slide down in place; otherwise double.
        capacity = (len(self._buf) if self._head >= max(64, live)
                    else max(64, 2 * len(self._buf)))
        if capacity == len(self._buf):
            self._buf[:live] = self._buf[self._head:self._tail]
        else:
            new = np.empty(capacity, dtype=np.intp)
            new[:live] = self._buf[self._head:self._tail]
            self._buf = new
        self._tail = live
        self._head = 0

    def first(self) -> int:
        """Oldest retained index (undefined when empty)."""
        return int(self._buf[self._head])

    def indices(self) -> Iterator[int]:
        """Iterate the retained indices oldest-first, without copying."""
        buf = self._buf
        for k in range(self._head, self._tail):
            yield int(buf[k])

    def view(self):
        """The retained window as a zero-copy view."""
        return self._buf[self._head:self._tail]

    def tolist(self) -> List[int]:
        return [int(self._buf[k]) for k in range(self._head, self._tail)]

    def prune_before(self, cutoff: float, table: EventTable) -> None:
        """Advance past every index whose event time is ``< cutoff``."""
        buf = self._buf
        head, tail = self._head, self._tail
        times = table._times
        base = table._base
        while head < tail and times[buf[head] - base] < cutoff:
            head += 1
        self._head = head
        if head == tail:
            self._head = self._tail = 0


class RobotArrays:
    """Flat per-robot columns, refreshed from the ``Robot`` objects.

    ``Robot`` stays the mutable unit of the public API (controllers,
    fault hooks and tests flip ``alive`` and move robots one at a
    time); these columns are the batched read path.  ``refresh`` reuses
    the allocated buffers whenever the population size is unchanged.
    """

    __slots__ = ("n", "x", "y", "radius", "alive")

    def __init__(self) -> None:
        self.n = 0
        self.x = self.y = self.radius = self.alive = None

    def refresh(self, robots: Sequence) -> None:
        n = len(robots)
        self.n = n
        self.x = np.fromiter((r.x for r in robots), np.float64, n)
        self.y = np.fromiter((r.y for r in robots), np.float64, n)
        self.radius = np.fromiter((r.sensing_radius for r in robots),
                                  np.float64, n)
        self.alive = np.fromiter((r.alive for r in robots), bool, n)
