"""Shared spatial indexing for the geometric substrates.

The swarm answers "which points lie within range of this point?" every
step.  Naively that is an O(points x queries) scan; :class:`SpatialGrid`
answers it from a uniform hash grid in near-constant time per query
while returning *exactly* the candidates a full scan would accept --
callers re-check candidates with the original exact predicate, so
indexed queries stay byte-identical to full scans.  The camera network
answers its "which cameras see this point?" queries through
:class:`~repro.smartcamera.soa.CameraColumns` instead.
"""

from .exact import EXACT_REL, PREFILTER_SLACK, prefilter_limit_sq
from .grid import SpatialGrid

__all__ = ["SpatialGrid", "EXACT_REL", "PREFILTER_SLACK",
           "prefilter_limit_sq"]
