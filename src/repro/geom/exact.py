"""The float-identity discipline shared by the struct-of-arrays cores.

Every vectorised substrate core (swarm, smart-camera, sensornet) obeys
the same contract: array math never *decides* anything on its own.
Batched squared distances are used only

- as **conservative prefilters** whose hits are re-checked with the
  exact scalar predicate (``math.hypot(...) <= r``), or
- inside **tolerance bands** within which the exact scalar expression is
  re-evaluated, so any few-ulp disagreement between ``sqrt(dx*dx+dy*dy)``
  and ``math.hypot`` can never flip a comparison.

This module holds the shared constants and helpers so each core uses
the same bands (and the equivalence tests pin one discipline, not
three).
"""

from __future__ import annotations

#: Relative inflation applied to candidate-prefilter radii so that the
#: squared-distance comparison is a guaranteed superset of the exact
#: ``math.hypot(...) <= r`` predicate (hypot and sqrt-of-squares agree
#: to a few ulp; 1e-9 is ~1e7 ulp of headroom on unit-square scales).
PREFILTER_SLACK = 1e-9

#: Relative band within which two batched squared distances are treated
#: as a potential tie and re-decided by the exact scalar predicate.
#: Squared-distance expressions agree with ``math.hypot`` squared to a
#: few ulp (~1e-15 relative); 1e-9 leaves ~6 orders of margin while
#: making ties astronomically rare.
EXACT_REL = 1e-9


def prefilter_limit_sq(radius: float) -> float:
    """Squared prefilter radius guaranteed to contain every exact hit."""
    limit = radius * (1.0 + PREFILTER_SLACK)
    return limit * limit
