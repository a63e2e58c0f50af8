"""Camera geometry and the vision graph.

Cameras are fixed sensors with circular fields of view in the unit
square.  The *vision graph* connects cameras whose fields of view overlap
-- the natural neighbourhood for handover advertisement, and the
substrate over which interaction-awareness operates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import networkx as nx
import numpy as np

from ..geom import SpatialGrid
from .objects import MovingObject
from .soa import best_observer_row_scalar, seeing_ids_scalar

#: Default for :class:`CameraNetwork`'s spatial index.  The naive scans
#: are retained (``use_grid=False``) as the reference implementation for
#: the equivalence tests and the ``repro.bench`` baselines; both paths
#: apply the same exact predicates, so results are identical either way.
USE_SPATIAL_GRID = True

#: Default for the struct-of-arrays observer scans (see
#: :mod:`repro.smartcamera.soa`).  The scalar per-candidate loops are
#: retained as the reference; the batched scans prefilter with banded
#: squared distances and re-decide every ambiguous candidate with the
#: exact scalar predicate, so both paths return identical results.
#: Forced off (with the other fast paths) by ``REPRO_FORCE_NAIVE=1`` in
#: the test harness.
USE_FAST_SCANS = True


@dataclass(frozen=True)
class Camera:
    """One fixed camera with a circular field of view."""

    cam_id: int
    x: float
    y: float
    radius: float

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def distance_to(self, obj: MovingObject) -> float:
        """Euclidean distance from the camera to the object."""
        return math.hypot(obj.x - self.x, obj.y - self.y)

    def sees(self, obj: MovingObject) -> bool:
        """Whether the object is inside this camera's field of view."""
        return math.hypot(obj.x - self.x, obj.y - self.y) <= self.radius

    def visibility(self, obj: MovingObject) -> float:
        """Tracking confidence in ``[0, 1]``: 1 at centre, 0 at the rim.

        The published camera studies use exactly this distance-based
        confidence as the per-step tracking utility of an owned object.
        """
        dist = math.hypot(obj.x - self.x, obj.y - self.y)
        if dist > self.radius:
            return 0.0
        return 1.0 - dist / self.radius


class CameraNetwork:
    """A set of cameras plus their vision graph.

    Parameters
    ----------
    cameras:
        The camera set; ids must be unique.
    use_grid:
        Spatial index for the observer queries; ``None`` follows the
        module default :data:`USE_SPATIAL_GRID`.  Results are identical
        either way (the grid only prunes non-matching candidates).
    fast:
        Struct-of-arrays observer scans; ``None`` follows the module
        default :data:`USE_FAST_SCANS` (and stays off without numpy).
        Results are identical either way.
    """

    def __init__(self, cameras: List[Camera],
                 use_grid: Optional[bool] = None,
                 fast: Optional[bool] = None) -> None:
        if not cameras:
            raise ValueError("need at least one camera")
        ids = [c.cam_id for c in cameras]
        if len(set(ids)) != len(ids):
            raise ValueError("camera ids must be unique")
        self.cameras: Dict[int, Camera] = {c.cam_id: c for c in cameras}
        self.vision_graph = nx.Graph()
        self.vision_graph.add_nodes_from(ids)
        for a, b in itertools.combinations(cameras, 2):
            overlap = math.hypot(a.x - b.x, a.y - b.y) <= (a.radius + b.radius)
            if overlap:
                self.vision_graph.add_edge(a.cam_id, b.cam_id)
        self._ids = sorted(self.cameras)
        self._neighbours: Dict[int, List[int]] = {
            cid: sorted(self.vision_graph.neighbors(cid)) for cid in ids}
        self._grid: Optional[SpatialGrid] = None
        if use_grid if use_grid is not None else USE_SPATIAL_GRID:
            self._grid = SpatialGrid(max(c.radius for c in cameras))
            for cam in cameras:
                self._grid.insert_disc(cam.cam_id, cam.x, cam.y, cam.radius)
            self._grid.finalise()
        self._fast = fast if fast is not None else USE_FAST_SCANS
        self._columns = None  # built lazily on first fast query

    @property
    def fast(self) -> bool:
        """Whether the struct-of-arrays scans are enabled."""
        return self._fast

    def columns(self):
        """The :class:`~repro.smartcamera.soa.CameraColumns` for this
        network, built lazily (the camera set is immutable)."""
        if self._columns is None:
            from .soa import CameraColumns
            self._columns = CameraColumns(self)
        return self._columns

    @classmethod
    def grid(cls, rows: int, cols: int, radius: float = 0.25,
             use_grid: Optional[bool] = None,
             fast: Optional[bool] = None) -> "CameraNetwork":
        """Regular rows x cols grid covering the unit square."""
        if rows <= 0 or cols <= 0:
            raise ValueError("rows and cols must be positive")
        cameras = []
        cam_id = 0
        for r in range(rows):
            for c in range(cols):
                x = (c + 0.5) / cols
                y = (r + 0.5) / rows
                cameras.append(Camera(cam_id=cam_id, x=x, y=y, radius=radius))
                cam_id += 1
        return cls(cameras, use_grid=use_grid, fast=fast)

    @classmethod
    def random(cls, n: int, radius: float = 0.25, seed: int = 0,
               use_grid: Optional[bool] = None,
               fast: Optional[bool] = None) -> "CameraNetwork":
        """Uniformly random placement of ``n`` cameras."""
        rng = np.random.default_rng(seed)
        cameras = [Camera(cam_id=i, x=float(rng.uniform(0, 1)),
                          y=float(rng.uniform(0, 1)), radius=radius)
                   for i in range(n)]
        return cls(cameras, use_grid=use_grid, fast=fast)

    def __len__(self) -> int:
        return len(self.cameras)

    def ids(self) -> List[int]:
        """All camera ids, sorted."""
        return list(self._ids)

    def neighbours(self, cam_id: int) -> List[int]:
        """Vision-graph neighbours of ``cam_id``."""
        return list(self._neighbours[cam_id])

    def candidate_ids_at(self, x: float, y: float) -> Optional[frozenset]:
        """Superset of camera ids whose field of view could cover a point.

        ``None`` when the network has no spatial index (callers then scan
        everything).  A camera outside this set has zero visibility at
        ``(x, y)`` by construction, so filtering any candidate list
        through it cannot change which cameras actually match.
        """
        grid = self._grid
        if grid is None:
            return None
        return grid.candidate_set_at(x, y)

    def observers(self, obj: MovingObject) -> List[int]:
        """Ids of all cameras currently seeing ``obj``."""
        if self._fast:
            return seeing_ids_scalar(self.columns(), obj.x, obj.y)
        grid = self._grid
        if grid is None:
            return [cid for cid, cam in sorted(self.cameras.items())
                    if cam.sees(obj)]
        cameras = self.cameras
        return [cid for cid in grid.candidates_at(obj.x, obj.y)
                if cameras[cid].sees(obj)]

    def best_observer(self, obj: MovingObject) -> Optional[int]:
        """Camera with the highest visibility of ``obj`` (None if unseen)."""
        if self._fast:
            cols = self.columns()
            row = best_observer_row_scalar(cols, obj.x, obj.y)
            return None if row < 0 else cols.id_list[row]
        grid = self._grid
        if grid is None:
            candidates = sorted(self.cameras.items())
        else:
            cameras = self.cameras
            candidates = [(cid, cameras[cid])
                          for cid in grid.candidates_at(obj.x, obj.y)]
        best_id, best_vis = None, 0.0
        for cid, cam in candidates:
            vis = cam.visibility(obj)
            if vis > best_vis:
                best_id, best_vis = cid, vis
        return best_id

    def coverage_fraction(self, samples: int = 400, seed: int = 0) -> float:
        """Monte-Carlo fraction of the unit square inside any field of view."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1, size=(samples, 2))
        grid = self._grid
        covered = 0
        for x, y in pts:
            if grid is not None:
                cams = (self.cameras[cid] for cid in grid.candidates_at(x, y))
            else:
                cams = self.cameras.values()
            for cam in cams:
                if math.hypot(x - cam.x, y - cam.y) <= cam.radius:
                    covered += 1
                    break
        return covered / samples
