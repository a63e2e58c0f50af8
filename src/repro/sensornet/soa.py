"""Struct-of-arrays working set for the sensornet substrate.

The sensing-node hot loop is dominated not by arithmetic but by *keyed
indirection*: every step the salience policy and the sampling plumbing
re-resolve each channel through half a dozen ``Scope``-keyed dict
lookups (relevance, knowledge-base history, staleness, sensor, cost),
and the hidden field advances every channel's random walk one scalar
RNG draw at a time.  This module flattens both:

- :func:`step_walks_batched` -- advance a set of
  :class:`~repro.envgen.processes.BoundedRandomWalk` signals sharing one
  generator in a single batched draw.  ``Generator.normal(0.0, sigma)``
  with a sigma *vector* consumes the underlying bit stream exactly like
  the equivalent sequence of scalar ``normal`` calls, and the
  per-walk ``min(max(cur + reversion*(mean-cur) + z, lo), hi)`` update
  performs the same float operations in the same order as the scalar
  :meth:`~repro.envgen.processes.BoundedRandomWalk.step`, so every walk
  value and the generator state are bit-identical to the scalar loop.
  Only the draw is batched: the update runs on Python floats, because
  for the few to few hundred channels a node tracks, numpy's per-call
  overhead on the parameter columns costs more than the arithmetic.
- :class:`NodeColumns` -- per-channel columns for one
  :class:`~repro.sensornet.node.SensingNode`: scope-ordered sensor /
  cost / history references resolved once (histories lazily, as the
  knowledge base creates them), the scope-order -> spec-order
  permutation, spec-ordered walk references and importance weights, and
  the running believed value per channel.  The node's column step uses
  these to run salience scoring, budget fitting and error scoring
  without any ``Scope`` hashing in the per-channel loops, while still
  writing every observation through the shared
  :class:`~repro.core.knowledge.KnowledgeBase` so the node's visible
  state is identical to what the policy's own ``select()`` leaves.

Every attention policy the columns don't model takes the node's policy
step instead.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .node import SensingNode


def step_walks_batched(walks, rng) -> None:
    """Advance ``walks`` (sharing ``rng``) one step, bit-identically.

    Equivalent to ``for w in walks: w.step()`` when every walk draws
    from ``rng``: the batched ``normal(0.0, sigma_vector)`` consumes the
    same stream as the scalar draws, and each walk's mean-reversion
    update and clamp are the scalar step's own float operations.
    Parameters are re-read every call, so run-time ``retarget`` stays
    visible.
    """
    z = rng.normal(0.0, [w.sigma for w in walks]).tolist()
    for w, dz in zip(walks, z):
        cur = w.current
        v = cur + w.reversion * (w.mean - cur) + dz
        # ``min(max(v, lo), hi)`` without the two builtin calls: ``max``
        # keeps its first argument unless a later one compares greater,
        # ``min`` unless one compares less (NaN and -0.0 included).
        lo, hi = w.lo, w.hi
        if lo > v:
            v = lo
        if hi < v:
            v = hi
        w.current = v


class NodeColumns:
    """Flat per-channel working set for one sensing node.

    Two orderings coexist (and differ: scope order is lexicographic by
    qualified name, so ``ch10`` sorts before ``ch2``): *scope order* --
    ``suite.scopes()``, the order the attention policy scores and the
    budget fitter scans -- and *spec order* -- the field's insertion
    order, the order the error objective accumulates.  ``spec_of`` maps
    the former to the latter.
    """

    __slots__ = ("scopes", "sensors", "costs", "noise", "spec_of",
                 "walks", "importances", "total_weight", "histories",
                 "belief_vals", "k")

    def __init__(self, node: "SensingNode") -> None:
        field = node.field
        suite = node.suite
        self.scopes = suite.scopes()
        self.k = len(self.scopes)
        self.sensors = [suite.sensor(s) for s in self.scopes]
        self.costs: List[float] = [s.cost for s in self.sensors]
        self.noise: List[float] = [s.noise_std for s in self.sensors]
        spec_index = {name: i for i, name in enumerate(field.specs)}
        self.spec_of: List[int] = [spec_index[s.name] for s in self.scopes]
        self.walks = [field._signals[name] for name in field.specs]
        self.importances: List[float] = [
            spec.importance for spec in field.specs.values()]
        # ChannelField.weighted_error recomputes sum(importances) per call;
        # the specs are frozen, so the left-fold is the same float once.
        total = 0.0
        for w in self.importances:
            total += w
        self.total_weight = total
        # Resolved lazily: the knowledge base owns History creation (on
        # first observation), and the column step must share its objects.
        self.histories: List[Optional[object]] = [None] * self.k
        # Believed value per *spec-order* channel; None where the node
        # has no (finite) belief, mirroring KnowledgeBase.value()'s NaN
        # default.  Seeded from the knowledge base so columns built
        # after earlier observations start consistent.
        self.belief_vals: List[Optional[float]] = [None] * self.k
        for i, scope in enumerate(self.scopes):
            value = node.knowledge.value(scope)
            if not math.isnan(value):
                self.belief_vals[self.spec_of[i]] = value

    def weighted_error(self) -> float:
        """The field's importance-weighted error from the columns.

        Same accumulation order and operations as
        :meth:`~repro.sensornet.field.ChannelField.weighted_error` over
        :meth:`~repro.sensornet.node.SensingNode.beliefs`.
        """
        error = 0.0
        beliefs = self.belief_vals
        walks = self.walks
        for i, imp in enumerate(self.importances):
            believed = beliefs[i]
            if believed is None:
                error += imp * 0.5
            else:
                error += imp * abs(believed - walks[i].current)
        return error / self.total_weight
