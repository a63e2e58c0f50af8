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

from .objects import MovingObject
from .soa import CameraColumns, best_observer_row_scalar, seeing_ids_scalar


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

    Observer queries run over the network's
    :class:`~repro.smartcamera.soa.CameraColumns`: a cell index prunes
    the candidates and the exact ``hypot <= radius`` predicate decides
    each one, in ascending camera-id order.
    """

    def __init__(self, cameras: List[Camera]) -> None:
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
        self._columns: Optional[CameraColumns] = None  # built on first query

    def columns(self) -> CameraColumns:
        """The :class:`~repro.smartcamera.soa.CameraColumns` for this
        network, built lazily (the camera set is immutable)."""
        if self._columns is None:
            self._columns = CameraColumns(self)
        return self._columns

    @classmethod
    def grid(cls, rows: int, cols: int,
             radius: float = 0.25) -> "CameraNetwork":
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
        return cls(cameras)

    @classmethod
    def random(cls, n: int, radius: float = 0.25,
               seed: int = 0) -> "CameraNetwork":
        """Uniformly random placement of ``n`` cameras."""
        rng = np.random.default_rng(seed)
        cameras = [Camera(cam_id=i, x=float(rng.uniform(0, 1)),
                          y=float(rng.uniform(0, 1)), radius=radius)
                   for i in range(n)]
        return cls(cameras)

    def __len__(self) -> int:
        return len(self.cameras)

    def ids(self) -> List[int]:
        """All camera ids, sorted."""
        return list(self._ids)

    def neighbours(self, cam_id: int) -> List[int]:
        """Vision-graph neighbours of ``cam_id``."""
        return list(self._neighbours[cam_id])

    def observers(self, obj: MovingObject) -> List[int]:
        """Ids of all cameras currently seeing ``obj``."""
        return seeing_ids_scalar(self.columns(), obj.x, obj.y)

    def best_observer(self, obj: MovingObject) -> Optional[int]:
        """Camera with the highest visibility of ``obj`` (None if unseen).

        Ties go to the lowest camera id.
        """
        cols = self.columns()
        row = best_observer_row_scalar(cols, obj.x, obj.y)
        return None if row < 0 else cols.id_list[row]

    def coverage_fraction(self, samples: int = 400, seed: int = 0) -> float:
        """Monte-Carlo fraction of the unit square inside any field of view."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1, size=(samples, 2))
        cols = self.columns()
        covered = sum(1 for x, y in pts.tolist()
                      if seeing_ids_scalar(cols, x, y))
        return covered / samples
