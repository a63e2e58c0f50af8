"""Pareto-quality metrics: front coverage and spread.

The multi-objective evaluation vocabulary of the benchmark suite.  All
metrics assume **maximisation** of every component, with score vectors
normalised to ``[0, 1]`` per objective (which :class:`repro.core.goals.Goal`
guarantees), and a reference point at the origin unless stated.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.goals import dominates, pareto_front


def coverage(front_a: Sequence[Sequence[float]],
             front_b: Sequence[Sequence[float]]) -> float:
    """Zitzler's C-metric: fraction of ``front_b`` weakly dominated by ``front_a``.

    ``coverage(A, B) == 1`` means every point of B is dominated by (or
    equal to) some point of A.  Not symmetric.
    """
    if not front_b:
        return 0.0
    covered = 0
    for b in front_b:
        for a in front_a:
            if dominates(a, b) or tuple(a) == tuple(b):
                covered += 1
                break
    return covered / len(front_b)


def spread(points: Sequence[Sequence[float]]) -> float:
    """Mean nearest-neighbour distance on the front (diversity proxy).

    Larger is a more spread-out exploration of the trade-off surface.
    Returns 0 for fewer than two points.
    """
    front_idx = pareto_front(points)
    front = np.asarray([points[i] for i in front_idx], dtype=float)
    if len(front) < 2:
        return 0.0
    dists = []
    for i in range(len(front)):
        others = np.delete(front, i, axis=0)
        dists.append(float(np.min(np.linalg.norm(others - front[i], axis=1))))
    return float(np.mean(dists))
