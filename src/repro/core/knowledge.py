"""Self-knowledge representation: observations, histories and beliefs.

Computational self-awareness rests on a system acquiring and maintaining
*knowledge about itself and its experiences* (Section IV).  This module
provides the substrate on which every level of awareness is built:

- :class:`Observation` -- a time-stamped reading of one phenomenon.
- :class:`History` -- a bounded time-indexed trace of observations for one
  scope; the basis of time-awareness.
- :class:`Belief` -- a current estimate with an explicit confidence, so
  that reasoners can weigh knowledge by its quality (and meta-self-aware
  systems can notice when their knowledge is poor).
- :class:`KnowledgeBase` -- the per-node store keyed by :class:`Scope`,
  partitioned into public and private spans.

Design notes
------------
Histories are bounded deques: self-aware systems run forever and the paper
is explicit that attention and memory are limited resources.  Statistics
(mean/std/trend) are computed on demand over the retained window.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Tuple

from .spans import Scope, Span


@dataclass(frozen=True, slots=True)
class Observation:
    """A single time-stamped reading of a phenomenon.

    Parameters
    ----------
    time:
        Simulation (or wall) time of the reading.
    value:
        The observed value.  Scalar float for most sensors; substrates that
        observe structured values store floats per sub-scope instead.
    """

    time: float
    value: float


@dataclass(frozen=True, slots=True)
class Belief:
    """A current estimate about a scope, with explicit confidence.

    Confidence lives in ``[0, 1]``; ``0`` means "no basis at all" and ``1``
    means the estimate is a direct, fresh observation.  Reasoners may
    discount utilities by confidence, and the meta level monitors the
    confidence of its own knowledge.
    """

    scope: Scope
    value: float
    confidence: float
    time: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")

    def discounted(self, now: float, half_life: float) -> "Belief":
        """Return the belief with confidence decayed by the age of the estimate.

        Confidence halves every ``half_life`` time units; a belief about a
        fast-changing world grows stale.  ``half_life <= 0`` disables decay.
        """
        if half_life <= 0:
            return self
        age = max(0.0, now - self.time)
        factor = 0.5 ** (age / half_life)
        return Belief(self.scope, self.value, self.confidence * factor, self.time)


class History:
    """Bounded time-indexed trace of observations for a single scope.

    The extended (time-aware) self keeps traces of its experiences.  A
    :class:`History` retains up to ``maxlen`` observations and offers the
    window statistics that predictive self-models consume.
    """

    def __init__(self, scope: Scope, maxlen: int = 512) -> None:
        if maxlen <= 0:
            raise ValueError("maxlen must be positive")
        self.scope = scope
        self.maxlen = maxlen
        self._buffer: Deque[Observation] = deque(maxlen=maxlen)
        self._version = 0
        self._stat_cache: Dict[Tuple[str, Optional[int]],
                               Tuple[int, float]] = {}

    def record(self, time: float, value: float) -> Observation:
        """Append an observation; returns the stored record."""
        if self._buffer and time < self._buffer[-1].time:
            raise ValueError(
                f"observations must be recorded in time order: "
                f"{time} < {self._buffer[-1].time}"
            )
        obs = Observation(time=time, value=value)
        self._buffer.append(obs)
        self._version += 1
        return obs

    def _window(self, window: Optional[int]) -> List[Observation]:
        """Last ``window`` observations in chronological order, O(window).

        ``islice(reversed(deque), window)`` walks only the tail instead
        of copying the whole ``maxlen`` buffer; reversing the extracted
        tail restores the exact list the full-copy slice would produce,
        so every statistic computed from it sums in the original order.
        """
        buf = self._buffer
        if window is None or window >= len(buf):
            return list(buf)
        tail = list(islice(reversed(buf), window))
        tail.reverse()
        return tail

    def _cached(self, kind: str, window: Optional[int]) -> Optional[float]:
        hit = self._stat_cache.get((kind, window))
        if hit is not None and hit[0] == self._version:
            return hit[1]
        return None

    def _store(self, kind: str, window: Optional[int], value: float) -> float:
        self._stat_cache[(kind, window)] = (self._version, value)
        return value

    def __len__(self) -> int:
        return len(self._buffer)

    def __iter__(self) -> Iterator[Observation]:
        return iter(self._buffer)

    def __bool__(self) -> bool:
        return bool(self._buffer)

    @property
    def latest(self) -> Optional[Observation]:
        """Most recent observation, or ``None`` when empty."""
        return self._buffer[-1] if self._buffer else None

    def values(self, window: Optional[int] = None) -> List[float]:
        """Values of the last ``window`` observations (all when ``None``)."""
        return [o.value for o in self._window(window)]

    def mean(self, window: Optional[int] = None) -> float:
        """Mean of the retained (or last-``window``) values; NaN when empty."""
        cached = self._cached("mean", window)
        if cached is not None:
            return cached
        vals = [o.value for o in self._window(window)]
        if not vals:
            return self._store("mean", window, math.nan)
        return self._store("mean", window, sum(vals) / len(vals))

    def std(self, window: Optional[int] = None) -> float:
        """Population standard deviation of retained values; NaN when empty."""
        cached = self._cached("std", window)
        if cached is not None:
            return cached
        vals = [o.value for o in self._window(window)]
        if not vals:
            return self._store("std", window, math.nan)
        mu = sum(vals) / len(vals)
        return self._store(
            "std", window,
            math.sqrt(sum((v - mu) ** 2 for v in vals) / len(vals)))

    def trend(self, window: Optional[int] = None) -> float:
        """Least-squares slope of value against time over the window.

        Returns ``0.0`` when fewer than two points are retained or when all
        observations share one timestamp.  The slope is the simplest form of
        "awareness of where a phenomenon is heading".
        """
        cached = self._cached("trend", window)
        if cached is not None:
            return cached
        obs = self._window(window)
        return self._store("trend", window, self._trend_of(obs))

    @staticmethod
    def _trend_of(obs: List[Observation]) -> float:
        if len(obs) < 2:
            return 0.0
        n = len(obs)
        mean_t = sum(o.time for o in obs) / n
        mean_v = sum(o.value for o in obs) / n
        sxx = sum((o.time - mean_t) ** 2 for o in obs)
        if sxx == 0.0:
            return 0.0
        sxy = sum((o.time - mean_t) * (o.value - mean_v) for o in obs)
        return sxy / sxx

    def since(self, time: float) -> List[Observation]:
        """All retained observations with timestamp strictly greater than ``time``."""
        return [o for o in self._buffer if o.time > time]


class KnowledgeBase:
    """Per-node store of histories and beliefs, keyed by :class:`Scope`.

    The knowledge base is deliberately *local*: the framework's third
    concept is that collective self-awareness must not require a global
    store (see :mod:`repro.core.collective`), so each node owns exactly one
    of these.
    """

    def __init__(self, history_maxlen: int = 512) -> None:
        self.history_maxlen = history_maxlen
        self._histories: Dict[Scope, History] = {}
        self._beliefs: Dict[Scope, Belief] = {}

    # -- observations -----------------------------------------------------

    def observe(self, scope: Scope, time: float, value: float) -> Observation:
        """Record an observation and refresh the corresponding belief.

        A fresh observation yields a belief with confidence ``1.0``.
        """
        history = self._histories.get(scope)
        if history is None:
            history = History(scope, maxlen=self.history_maxlen)
            self._histories[scope] = history
        obs = history.record(time, value)
        self._beliefs[scope] = Belief(scope=scope, value=value, confidence=1.0, time=time)
        return obs

    def history(self, scope: Scope) -> History:
        """History for ``scope``; an empty one is created on first access."""
        if scope not in self._histories:
            self._histories[scope] = History(scope, maxlen=self.history_maxlen)
        return self._histories[scope]

    def has(self, scope: Scope) -> bool:
        """Whether any observation has ever been recorded for ``scope``."""
        return scope in self._histories and bool(self._histories[scope])

    # -- beliefs -----------------------------------------------------------

    def believe(self, belief: Belief) -> None:
        """Install a derived belief (e.g. from a model or a neighbour report)."""
        self._beliefs[belief.scope] = belief

    def belief(self, scope: Scope, now: Optional[float] = None,
               half_life: float = 0.0) -> Optional[Belief]:
        """Current belief about ``scope``, optionally age-discounted."""
        b = self._beliefs.get(scope)
        if b is None:
            return None
        if now is not None and half_life > 0:
            return b.discounted(now, half_life)
        return b

    def value(self, scope: Scope, default: float = math.nan) -> float:
        """Convenience: the believed value for ``scope`` or ``default``."""
        b = self._beliefs.get(scope)
        return b.value if b is not None else default

    # -- span-partitioned views ---------------------------------------------

    def scopes(self, span: Optional[Span] = None) -> List[Scope]:
        """All scopes with recorded knowledge, optionally filtered by span."""
        keys: Iterable[Scope] = set(self._histories) | set(self._beliefs)
        if span is None:
            return sorted(keys, key=lambda s: s.qualified_name())
        return sorted((s for s in keys if s.span is span),
                      key=lambda s: s.qualified_name())

    def social_scopes(self) -> List[Scope]:
        """Scopes concerning other entities (interaction-awareness)."""
        return [s for s in self.scopes() if s.is_social()]

    def snapshot(self) -> Dict[str, float]:
        """Flat dict of qualified scope name to believed value (for reports)."""
        return {s.qualified_name(): b.value for s, b in sorted(
            self._beliefs.items(), key=lambda kv: kv[0].qualified_name())}

    # -- introspection used by the meta level -------------------------------

    def staleness(self, scope: Scope, now: float) -> float:
        """Age of the newest observation for ``scope``; ``inf`` if none."""
        h = self._histories.get(scope)
        if h is None or h.latest is None:
            return math.inf
        return max(0.0, now - h.latest.time)

    def coverage(self, expected: Iterable[Scope]) -> float:
        """Fraction of ``expected`` scopes with at least one observation.

        The meta level uses coverage as one signal of the quality of the
        system's own awareness.
        """
        expected = list(expected)
        if not expected:
            return 1.0
        have = sum(1 for s in expected if self.has(s))
        return have / len(expected)
