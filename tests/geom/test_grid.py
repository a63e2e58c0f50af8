"""Unit tests for the uniform spatial hash."""

import math

import pytest

from repro.geom import SpatialGrid


class TestPointMode:
    def test_candidates_near_superset_and_sorted(self):
        points = {i: (0.1 * i, 0.05 * i) for i in range(20)}
        grid = SpatialGrid(0.2)
        for key, (x, y) in points.items():
            grid.insert_point(key, x, y)
        for qx, qy, r in [(0.5, 0.25, 0.2), (0.0, 0.0, 0.1), (5.0, 5.0, 0.3)]:
            cand = grid.candidates_near(qx, qy, r)
            assert cand == sorted(set(cand))
            true_hits = {k for k, (x, y) in points.items()
                         if math.hypot(qx - x, qy - y) <= r}
            assert true_hits <= set(cand)


class TestValidation:
    def test_rejects_bad_cell_size(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                SpatialGrid(bad)
