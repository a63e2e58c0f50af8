"""In-memory spans around the public calls of each layer, and their analysis.

A :class:`Tracer` replaces a function or method with a wrapper that records
one span per call: ``[id, name, start, end, parent, rid, extra]``.  The
parent is the span active in the caller's context (a ``contextvars``
variable, so concurrent asyncio tasks keep separate stacks); ``rid`` is the
request id the generator stamped on the request (field ``"trace"``), shared
by every span of that request; ``extra`` is a small per-call value such as
a batch size or a hit flag.  Spans stay in memory and are written out once,
when the traced process ends.

:func:`self_times` turns spans into self time: a span's duration minus the
part of its interval that its child spans cover.  Batch spans name every
request they served in ``rid`` (a list), and count as children of each of
those requests' ``dispatch`` spans.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

ID, NAME, T0, T1, PARENT, RID, EXTRA = range(7)


class Tracer:
    """Records spans for every wrapped call; nothing is written until
    :meth:`dump`."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        #: (span id, request id) of the innermost open span in this context.
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None)

    def wrap(self, owner: Any, attr: str, name: str, *,
             rid_of: Optional[Callable[..., Any]] = None,
             extra: Optional[Callable[..., Any]] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``rid_of(args, kwargs)`` names the request the call serves (default:
        the enclosing span's); ``extra(args, kwargs, result)`` computes the
        span's extra value.
        """
        fn = getattr(owner, attr)
        spans, ids, current = self.spans, self._ids, self.current

        def open_span(args, kwargs):
            outer = current.get()
            rid = (rid_of(args, kwargs) if rid_of is not None
                   else (outer[1] if outer is not None else None))
            sid = next(ids)
            return sid, outer, rid, current.set((sid, rid))

        def close_span(sid, outer, rid, token, t0, args, kwargs, result):
            t1 = time.perf_counter()
            current.reset(token)
            value = extra(args, kwargs, result) if extra is not None else None
            spans.append([sid, name, t0, t1,
                          outer[0] if outer is not None else None, rid, value])

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def wrapper(*args, **kwargs):
                sid, outer, rid, token = open_span(args, kwargs)
                t0 = time.perf_counter()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    close_span(sid, outer, rid, token, t0, args, kwargs,
                               result)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                sid, outer, rid, token = open_span(args, kwargs)
                t0 = time.perf_counter()
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    close_span(sid, outer, rid, token, t0, args, kwargs,
                               result)
        setattr(owner, attr, wrapper)

    def current_rid(self) -> Any:
        outer = self.current.get()
        return outer[1] if outer is not None else None

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle, separators=(",", ":"))


def covered(start: float, end: float,
             intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: List[list], name: str) -> List[float]:
    """Self time in seconds of every span called ``name``."""
    children: Dict[Any, List[Tuple[float, float]]] = defaultdict(list)
    by_request: Dict[Any, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] is not None:
            children[span[PARENT]].append((span[T0], span[T1]))
        elif isinstance(span[RID], list):
            for rid in span[RID]:
                if rid is not None:
                    by_request[rid].append((span[T0], span[T1]))
    out = []
    for span in spans:
        if span[NAME] != name:
            continue
        kids = children.get(span[ID], [])
        if span[RID] is not None and not isinstance(span[RID], list):
            kids = kids + by_request.get(span[RID], [])
        out.append(span[T1] - span[T0] - covered(span[T0], span[T1], kids))
    return out


def durations(spans: List[list], name: str) -> List[float]:
    return [span[T1] - span[T0] for span in spans if span[NAME] == name]


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
