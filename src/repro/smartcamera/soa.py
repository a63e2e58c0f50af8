"""Struct-of-arrays working set for the smart-camera substrate.

The camera hot loops used to walk Python object graphs: every camera a
frozen dataclass, every visibility a ``math.hypot`` call behind two
attribute loads, every candidate set a frozenset of ids.  This module
holds the same state in flat columns so the per-step kernels (observer
sweep, best-observer claim, ownership drop, auction bid scan) can run
as a handful of array operations:

- :class:`CameraColumns` -- stable-id camera position / radius columns
  over a :class:`~repro.smartcamera.network.CameraNetwork`, plus the
  precomputed row sets the auction loop gathers per owner (broadcast
  targets, vision-graph neighbours) and a cell -> candidate-row index
  mirroring the :class:`~repro.geom.SpatialGrid` bounding-box inserts.
- :class:`ObjectColumns` -- per-step object position columns refreshed
  from the :class:`~repro.smartcamera.objects.MovingObject` instances
  (which remain the mutable API surface for mobility and churn).
- :func:`seeing_rows` / :func:`best_observer_row` /
  :func:`possible_rows` -- the vectorised scans, each bracketing
  its batched squared distances with the shared
  :data:`~repro.geom.exact.EXACT_REL` band and re-deciding every
  ambiguous (and every *escaping*) float with the exact scalar
  predicate, so accepted sets, winners and bid amounts are
  byte-identical to the naive object-graph reference.

Byte-identity discipline (see :mod:`repro.geom.exact`): batched
distances only prefilter and bracket; every float that escapes into
records, rewards or auction prices is produced by the same
``math.hypot`` expression the naive path evaluates.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Tuple

import numpy as np

from ..geom.exact import EXACT_REL

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import CameraNetwork
    from .objects import ObjectPopulation

#: Absolute band on batched visibilities around the running maximum
#: within which candidate winners are re-decided by the exact scalar
#: expression.  ``1 - sqrt(d2)/r`` carries at most a few ulp of *absolute*
#: error (~1e-15 on unit-square scales; relative error is unbounded near
#: the rim where the value itself vanishes), so 1e-12 leaves three
#: orders of margin while making re-checks astronomically rare.
BEST_VIS_BAND = 1e-12

#: Upper bound on the exact visibility of a camera whose squared
#: distance fell inside the ``EXACT_REL`` rim band: ``d`` within
#: ``r * (1 +- 5e-10)`` implies ``1 - d/r`` below ~1e-9.  When the best
#: in-band candidate sits above this, no rim camera can win and the rim
#: set needs no exact recheck at all.
RIM_VIS_BOUND = 1e-9


class CameraColumns:
    """Flat columns plus candidate indices over one camera network.

    Built once per (immutable) :class:`CameraNetwork`; rows are ordered
    by ascending camera id, matching the id-sorted candidate order of
    every naive scan, so boolean-mask selections of ascending row arrays
    reproduce the reference iteration order for free.
    """

    __slots__ = ("network", "n", "ids", "xs", "ys", "radii", "lo_sq",
                 "hi_sq", "id_list", "x_list", "y_list", "radius_list",
                 "row_of", "broadcast_rows", "neighbour_rows",
                 "neighbour_masks", "_inv", "_cell_rows",
                 "_cell_row_lists", "_empty_rows")

    def __init__(self, network: "CameraNetwork") -> None:
        self.network = network
        ids = network.ids()
        cams = [network.cameras[cid] for cid in ids]
        self.n = len(cams)
        self.ids = np.asarray(ids, dtype=np.int64)
        self.xs = np.fromiter((c.x for c in cams), dtype=np.float64,
                              count=self.n)
        self.ys = np.fromiter((c.y for c in cams), dtype=np.float64,
                              count=self.n)
        self.radii = np.fromiter((c.radius for c in cams),
                                 dtype=np.float64, count=self.n)
        r_sq = self.radii * self.radii
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
        # Advertisement target rows per owner row, precomputed in the
        # ascending-id order advertisement_targets() produces.
        all_rows = np.arange(self.n, dtype=np.intp)
        self.broadcast_rows: List = [
            np.delete(all_rows, row) for row in range(self.n)]
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
        # Cell -> candidate rows, mirroring SpatialGrid.insert_disc's
        # bounding-box registration (any true superset works: every
        # candidate is re-decided by the exact predicate, and
        # non-candidates provably cannot see the query point).
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


class ObjectColumns:
    """Per-step position columns over the mobile object population."""

    __slots__ = ("xs", "ys", "object_ids")

    def __init__(self) -> None:
        self.xs = None
        self.ys = None
        self.object_ids: List[int] = []

    def refresh(self, population: "ObjectPopulation") -> None:
        """Re-read every object's position after the mobility step."""
        objs = population.objects
        m = len(objs)
        self.xs = np.fromiter((o.x for o in objs), dtype=np.float64,
                              count=m)
        self.ys = np.fromiter((o.y for o in objs), dtype=np.float64,
                              count=m)
        self.object_ids = [o.object_id for o in objs]


def classify_disc_hits(cols: CameraColumns, x: float, y: float, rows):
    """Partition candidate ``rows`` by the banded squared distance.

    Returns ``(inside, rim)`` boolean masks over ``rows``: *inside* rows
    certainly satisfy the exact ``sees`` predicate, rows outside both
    masks certainly do not, and *rim* rows must be re-decided by the
    exact scalar expression.
    """
    dx = cols.xs[rows] - x
    dy = cols.ys[rows] - y
    d2 = dx * dx + dy * dy
    inside = d2 <= cols.lo_sq[rows]
    rim = (~inside) & (d2 <= cols.hi_sq[rows])
    return inside, rim, d2


def seeing_rows(cols: CameraColumns, x: float, y: float) -> List[int]:
    """Rows of cameras exactly seeing ``(x, y)``, ascending."""
    rows = cols.rows_at(x, y)
    if len(rows) == 0:
        return []
    inside, rim, _ = classify_disc_hits(cols, x, y, rows)
    out = rows[inside].tolist()
    if rim.any():
        xs, ys, rads = cols.x_list, cols.y_list, cols.radius_list
        for r in rows[rim].tolist():
            if math.hypot(x - xs[r], y - ys[r]) <= rads[r]:
                out.append(r)
        out.sort()
    return out


def best_observer_row(cols: CameraColumns, x: float, y: float) -> int:
    """Row of the first strict-max-visibility camera at ``(x, y)``.

    Replicates the naive ascending-id scan with its strict ``>`` update
    (ties keep the earliest row).  The batched visibilities only locate
    the contenders: every row whose approximate visibility lies within
    :data:`BEST_VIS_BAND` of the batched maximum -- plus the whole rim
    band when the maximum itself is small enough
    (:data:`RIM_VIS_BOUND`) for a rim camera to matter -- is re-scored
    with the exact scalar expression, and the winner is decided entirely
    among those.  Rows excluded by the band sit provably below the
    winner's exact visibility, so they can neither win nor tie.

    Returns ``-1`` when no camera sees the point.
    """
    rows = cols.rows_at(x, y)
    if len(rows) == 0:
        return -1
    inside, rim, d2 = classify_disc_hits(cols, x, y, rows)
    has_rim = bool(rim.any())
    if inside.any():
        in_rows = rows[inside]
        vis = 1.0 - np.sqrt(d2[inside]) / cols.radii[in_rows]
        m = float(vis.max())
        check = in_rows[vis >= m - BEST_VIS_BAND]
        if has_rim and m <= RIM_VIS_BOUND:
            check = np.sort(np.concatenate([check, rows[rim]]))
    elif has_rim:
        check = rows[rim]
    else:
        return -1
    best_row, best_vis = -1, 0.0
    xs, ys, rads = cols.x_list, cols.y_list, cols.radius_list
    for r in check.tolist():
        dist = math.hypot(x - xs[r], y - ys[r])
        if dist > rads[r]:
            continue  # exact visibility 0.0 never beats best_vis >= 0.0
        v = 1.0 - dist / rads[r]
        if v > best_vis:
            best_row, best_vis = r, v
    return best_row


def seeing_rows_scalar(cols: CameraColumns, x: float, y: float) -> List[int]:
    """Rows of cameras exactly seeing ``(x, y)``, ascending -- scalar.

    The exact ``sees`` predicate over the cell index's candidate list,
    no batching at all: below a few dozen candidates (the standalone
    network-query regime) per-call numpy overhead exceeds the whole
    scan, so this list walk is the fast path there.  Identical output
    to :func:`seeing_rows` by construction -- both apply the same exact
    predicate to the same ascending candidate set.
    """
    xs, ys, rads = cols.x_list, cols.y_list, cols.radius_list
    hyp = math.hypot
    return [r for r in cols.row_list_at(x, y)
            if hyp(x - xs[r], y - ys[r]) <= rads[r]]


def seeing_ids_scalar(cols: CameraColumns, x: float, y: float) -> List[int]:
    """Ids of cameras exactly seeing ``(x, y)``, in row order.

    :func:`seeing_rows_scalar` with the row -> id mapping fused into
    the same pass: the standalone :meth:`CameraNetwork.observers` query
    wants ids, and a second list comprehension just to translate rows
    costs as much as the scan itself at typical candidate counts.
    """
    xs, ys, rads = cols.x_list, cols.y_list, cols.radius_list
    ids = cols.id_list
    hyp = math.hypot
    return [ids[r] for r in cols.row_list_at(x, y)
            if hyp(x - xs[r], y - ys[r]) <= rads[r]]


def best_observer_row_scalar(cols: CameraColumns, x: float, y: float) -> int:
    """Row of the first strict-max-visibility camera at ``(x, y)``.

    The naive ascending-id scan itself (strict ``>``, ties keep the
    earliest row), run over the cell index's candidate list with the
    exact scalar visibility.  Returns ``-1`` when no camera sees the
    point.  See :func:`seeing_rows_scalar` for why this beats the
    batched variant on standalone queries.
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
