"""Shared spatial indexing for the geometric substrates.

The camera network and the swarm both answer the same two queries every
step: "which discs contain this point?" (cameras seeing an object,
robots sensing an event) and "which points lie within range of this
point?".  Naively both are O(discs x points) scans; :class:`SpatialGrid`
answers them from a uniform hash grid in near-constant time per query
while returning *exactly* the same candidates a full scan would accept
-- callers re-check candidates with the original exact predicate, so
indexed queries stay byte-identical to full scans.
"""

from .exact import EXACT_REL, PREFILTER_SLACK, prefilter_limit_sq
from .grid import SpatialGrid

__all__ = ["SpatialGrid", "EXACT_REL", "PREFILTER_SLACK",
           "prefilter_limit_sq"]
