"""A uniform-cell spatial hash over the plane.

Index a set of points (:meth:`insert_point`), then ask which of them
*might* lie within ``r`` of a query point (:meth:`candidates_near`),
answered by scanning the cells overlapping the query's bounding box.

The answer is a *superset* of the exact one, sorted by key; callers
apply the original exact predicate (``hypot(...) <= radius``) to each
candidate.  Because the exact predicate, the candidate order and
the float arithmetic are unchanged, replacing a full scan with a grid
query cannot change any result -- only how many non-matches are examined.

Coordinates are unbounded (cells exist lazily in a dict), so callers
never need to clamp queries to an arena.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple


class SpatialGrid:
    """Uniform spatial hash with lazily materialised cells.

    Parameters
    ----------
    cell_size:
        Edge length of one square cell; a good choice is the typical
        query radius.
    """

    __slots__ = ("cell_size", "_inv", "_cells", "_finalised")

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0 or not math.isfinite(cell_size):
            raise ValueError("cell_size must be positive and finite")
        self.cell_size = cell_size
        self._inv = 1.0 / cell_size
        self._cells: Dict[Tuple[int, int], List[int]] = {}
        self._finalised = False

    def __len__(self) -> int:
        return len(self._cells)

    # -- building ----------------------------------------------------------

    def insert_point(self, key: int, x: float, y: float) -> None:
        """Register a point under ``key`` (one cell)."""
        self._finalised = False
        cell = (math.floor(x * self._inv), math.floor(y * self._inv))
        self._cells.setdefault(cell, []).append(key)

    def finalise(self) -> "SpatialGrid":
        """Sort every cell's bucket so candidate order is by key.

        Queries finalise lazily, so calling this is optional; it is
        idempotent and returns ``self`` for chaining.
        """
        if not self._finalised:
            for bucket in self._cells.values():
                bucket.sort()
            self._finalised = True
        return self

    # -- queries -----------------------------------------------------------

    def candidates_near(self, x: float, y: float, radius: float) -> List[int]:
        """Keys of points in cells overlapping the query bbox.

        Sorted by key, deduplicated; a superset of the points actually
        within ``radius`` of ``(x, y)``.
        """
        if not self._finalised:
            self.finalise()
        inv = self._inv
        x0 = math.floor((x - radius) * inv)
        x1 = math.floor((x + radius) * inv)
        y0 = math.floor((y - radius) * inv)
        y1 = math.floor((y + radius) * inv)
        cells = self._cells
        found: List[int] = []
        for ix in range(x0, x1 + 1):
            for iy in range(y0, y1 + 1):
                bucket = cells.get((ix, iy))
                if bucket:
                    found.extend(bucket)
        if len(found) > 1:
            found = sorted(set(found))
        return found

