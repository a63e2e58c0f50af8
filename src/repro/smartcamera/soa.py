"""Struct-of-arrays working set for the smart-camera substrate.

The camera hot loops used to walk Python object graphs: every camera a
frozen dataclass, every visibility a ``math.hypot`` call behind two
attribute loads, every candidate set a frozenset of ids.
:class:`CameraColumns` holds the same state in flat columns -- stable-id
camera position / radius columns over a
:class:`~repro.smartcamera.network.CameraNetwork`, the vision-graph
neighbourhoods the auction loop gathers per owner, and a cell ->
candidate-row index over each camera's bounding box -- so the per-step
kernels (observer queries, best-observer claim, ownership drop, auction
bid scan) run over columns:

- :func:`seeing_ids_scalar` / :func:`best_observer_row_scalar` -- the
  exact scalar scans over one cell's candidate list (the standalone
  network queries and the re-detection claim);
- :func:`possible_rows` -- a batched superset prefilter for the auction
  bidder scan, bracketing squared distances with the shared
  :data:`~repro.geom.exact.EXACT_REL` band.

Byte-identity discipline (see :mod:`repro.geom.exact`): batched
distances only prefilter and bracket; every predicate decision and
every float that escapes into records, rewards or auction prices is
produced by the exact scalar ``math.hypot`` expression.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from ..geom.exact import EXACT_REL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import CameraNetwork

class CameraColumns:
    """Flat columns plus candidate indices over one camera network.

    Built once per (immutable) :class:`CameraNetwork`; rows are ordered
    by ascending camera id, so boolean-mask selections of ascending row
    arrays visit cameras in id order for free.
    """

    __slots__ = ("n", "xs", "ys", "lo_sq", "hi_sq", "id_list", "x_list",
                 "y_list", "radius_list", "row_of", "neighbour_rows",
                 "neighbour_masks", "_inv", "_cell_rows",
                 "_cell_row_lists", "_empty_rows")

    def __init__(self, network: "CameraNetwork") -> None:
        ids = network.ids()
        cams = [network.cameras[cid] for cid in ids]
        self.n = len(cams)
        self.xs = np.fromiter((c.x for c in cams), dtype=np.float64,
                              count=self.n)
        self.ys = np.fromiter((c.y for c in cams), dtype=np.float64,
                              count=self.n)
        radii = np.fromiter((c.radius for c in cams), dtype=np.float64,
                            count=self.n)
        r_sq = radii * radii
        # Certainly-inside / certainly-outside thresholds on the batched
        # squared distance; between them sits the rim band that the
        # exact predicate re-decides.
        self.lo_sq = r_sq * (1.0 - EXACT_REL)
        self.hi_sq = r_sq * (1.0 + EXACT_REL)
        # Python-list mirrors: scalar indexing of numpy arrays is slow,
        # and the exact re-checks are scalar by design.
        self.id_list: List[int] = list(ids)
        self.x_list: List[float] = [c.x for c in cams]
        self.y_list: List[float] = [c.y for c in cams]
        self.radius_list: List[float] = [c.radius for c in cams]
        self.row_of: Dict[int, int] = {cid: row
                                       for row, cid in enumerate(ids)}
        # Vision-graph neighbour rows per owner row, in the ascending-id
        # order CameraNetwork.neighbours() returns.
        self.neighbour_rows: List = [
            np.asarray([self.row_of[nid]
                        for nid in network.neighbours(cid)],
                       dtype=np.intp)
            for cid in ids]
        # Row-indexed membership masks for the vision-graph
        # neighbourhoods (the graph has no self-loops, so a row's own
        # mask entry is always false).
        self.neighbour_masks: List = []
        for rows in self.neighbour_rows:
            mask = np.zeros(self.n, dtype=bool)
            mask[rows] = True
            self.neighbour_masks.append(mask)
        # Cell -> candidate rows over each camera's bounding box (any
        # true superset works: every candidate is re-decided by the
        # exact predicate, and non-candidates provably cannot see the
        # query point).
        cell_size = max(self.radius_list)
        self._inv = 1.0 / cell_size
        buckets: Dict[Tuple[int, int], List[int]] = {}
        inv = self._inv
        for row, cam in enumerate(cams):
            x0 = math.floor((cam.x - cam.radius) * inv)
            x1 = math.floor((cam.x + cam.radius) * inv)
            y0 = math.floor((cam.y - cam.radius) * inv)
            y1 = math.floor((cam.y + cam.radius) * inv)
            for ix in range(x0, x1 + 1):
                for iy in range(y0, y1 + 1):
                    buckets.setdefault((ix, iy), []).append(row)
        self._cell_rows = {cell: np.asarray(rows, dtype=np.intp)
                           for cell, rows in buckets.items()}
        # Plain-list twins for the scalar scans: per-query numpy costs
        # more than it saves below a few dozen candidates, and the
        # standalone network queries live exactly there.
        self._cell_row_lists = buckets
        self._empty_rows = np.empty(0, dtype=np.intp)

    def rows_at(self, x: float, y: float):
        """Candidate rows whose disc could cover ``(x, y)``, ascending."""
        cell = (math.floor(x * self._inv), math.floor(y * self._inv))
        return self._cell_rows.get(cell, self._empty_rows)

    def row_list_at(self, x: float, y: float) -> List[int]:
        """The same candidate rows as :meth:`rows_at`, as a plain list."""
        cell = (math.floor(x * self._inv), math.floor(y * self._inv))
        return self._cell_row_lists.get(cell, [])


def seeing_ids_scalar(cols: CameraColumns, x: float, y: float) -> List[int]:
    """Ids of cameras exactly seeing ``(x, y)``, in row order.

    The exact ``sees`` predicate over the cell index's candidate list,
    with the row -> id mapping fused into the same pass.  No batching at
    all: below a few dozen candidates (the standalone network-query
    regime) per-call numpy overhead exceeds the whole scan.
    """
    xs, ys, rads = cols.x_list, cols.y_list, cols.radius_list
    ids = cols.id_list
    hyp = math.hypot
    return [ids[r] for r in cols.row_list_at(x, y)
            if hyp(x - xs[r], y - ys[r]) <= rads[r]]


def best_observer_row_scalar(cols: CameraColumns, x: float, y: float) -> int:
    """Row of the first strict-max-visibility camera at ``(x, y)``.

    An ascending-id scan (strict ``>``, ties keep the earliest row) over
    the cell index's candidate list with the exact scalar visibility.
    Returns ``-1`` when no camera sees the point.
    """
    best_row, best_vis = -1, 0.0
    xs, ys, rads = cols.x_list, cols.y_list, cols.radius_list
    hyp = math.hypot
    for r in cols.row_list_at(x, y):
        dist = hyp(x - xs[r], y - ys[r])
        radius = rads[r]
        if dist > radius:
            continue
        v = 1.0 - dist / radius
        if v > best_vis:
            best_row, best_vis = r, v
    return best_row


def possible_rows(cols: CameraColumns, x: float, y: float):
    """Rows that could possibly see ``(x, y)``, ascending -- a superset.

    Cell candidates whose banded squared distance is not *certainly*
    outside the radius.  Used to prune auction bidder scans: every
    returned row still goes through the exact scalar visibility (whose
    ``> 0`` test decides the bid), so over-inclusion is harmless and the
    pruning cannot change a single bid.
    """
    rows = cols.rows_at(x, y)
    if len(rows) == 0:
        return rows
    dx = cols.xs[rows] - x
    dy = cols.ys[rows] - y
    return rows[dx * dx + dy * dy <= cols.hi_sq[rows]]
