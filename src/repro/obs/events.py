"""A process-local structured event bus.

Self-awareness starts with the ability to observe oneself; this module is
the substrate every other observability piece builds on.  Components call
:func:`emit` with a name and arbitrary scalar fields; subscribers (trace
writers, explanation logs, tests) receive each event as it happens, and a
bounded ring buffer retains the recent past for after-the-fact inspection.

Telemetry is **off by default** and the disabled path is designed to be
as close to free as Python allows: callers guard instrumentation blocks
with :func:`enabled` (one attribute read), and :func:`emit` on a disabled
bus returns before building any event object.  The overhead budget is
enforced by ``tests/obs/test_disabled_overhead.py``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from collections import deque
from typing import (Any, Callable, ContextManager, Deque, Dict, List,
                    Optional, Tuple, Union)

#: Keys :meth:`Event.as_dict` reserves for the record envelope.  Caller
#: fields with these names (or already starting with the escape prefix)
#: are written prefix-escaped and restored on ingestion, so a field
#: literally named ``"seq"`` can never clobber the envelope.
RESERVED_KEYS = frozenset(("event", "seq", "causes"))

#: Prefix used to escape colliding field names in the flat dict form.
ESCAPE_PREFIX = "~"

#: Hard cap on the number of cause references one event carries; keeps
#: provenance records bounded however wide a causal scope gets.
MAX_CAUSES = 16


def unescape_fields(fields: Dict[str, Any]) -> Dict[str, Any]:
    """Undo the reserved-key escaping of :meth:`Event.as_dict`.

    Call on a record dict *after* popping the envelope keys; returns the
    same dict (mutated) with one escape prefix stripped from every
    escaped key.
    """
    escaped = [key for key in fields if key.startswith(ESCAPE_PREFIX)]
    for key in escaped:
        fields[key[len(ESCAPE_PREFIX):]] = fields.pop(key)
    return fields


@dataclass
class Event:
    """One structured telemetry event.

    ``seq`` is a bus-local monotonically increasing sequence number, so a
    recorded stream can always be replayed in emission order.  ``causes``
    holds the seq ids of the earlier events this one was a consequence of
    (the telemetry, predictions and switches a decision consumed) -- the
    raw material of :mod:`repro.explain`.
    """

    name: str
    seq: int
    fields: Dict[str, Any] = field(default_factory=dict)
    causes: Tuple[int, ...] = ()

    def get(self, key: str, default: Any = None) -> Any:
        """Field access with a default (sugar for ``event.fields.get``)."""
        return self.fields.get(key, default)

    def as_dict(self) -> Dict[str, Any]:
        """Flat dict form used by the JSONL exporter.

        Envelope keys are ``event``, ``seq`` and (when present)
        ``causes``; caller fields colliding with those names are written
        with :data:`ESCAPE_PREFIX` prepended so they survive the round
        trip (see :func:`unescape_fields`).
        """
        out: Dict[str, Any] = {"event": self.name, "seq": self.seq}
        if self.causes:
            out["causes"] = list(self.causes)
        for key, value in self.fields.items():
            if key in RESERVED_KEYS or key.startswith(ESCAPE_PREFIX):
                key = ESCAPE_PREFIX + key
            out[key] = value
        return out


#: What callers may hand a causal scope or an explicit ``causes=``:
#: events (their seq is taken), raw seq ids, or ``None`` placeholders
#: (skipped, so disabled-bus ``emit`` returns compose cleanly).
CauseLike = Union["Event", int, None]


def _resolve_causes(causes) -> Tuple[int, ...]:
    """Normalise a mix of events / seq ids / Nones into a seq tuple."""
    out: List[int] = []
    for cause in causes:
        if cause is None:
            continue
        seq = cause.seq if isinstance(cause, Event) else int(cause)
        if seq not in out:
            out.append(seq)
    return tuple(out[:MAX_CAUSES])


class _CausalScope:
    """Context manager pushing a cause tuple onto a bus's scope stack.

    Only constructed for an enabled bus (:func:`causal_scope` returns a
    shared null context otherwise); re-checks at entry so a bus disabled
    between construction and use stays untouched.
    """

    __slots__ = ("_bus", "_causes", "_pushed")

    def __init__(self, bus: "EventBus", causes: Tuple[int, ...]) -> None:
        self._bus = bus
        self._causes = causes
        self._pushed = False

    def __enter__(self) -> "_CausalScope":
        if self._bus.enabled:
            self._bus._scope.append(self._causes)
            self._pushed = True
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._pushed:
            self._bus._scope.pop()
            self._pushed = False
        return None


#: Shared, stateless no-op scope handed out when the bus is disabled.
_NULL_SCOPE = nullcontext()


Subscriber = Callable[[Event], None]


class EventBus:
    """Process-local pub/sub with bounded retention.

    Parameters
    ----------
    maxlen:
        Ring-buffer capacity; the oldest events are discarded first.
    enabled:
        Initial state.  A disabled bus drops events at the top of
        :meth:`emit` without allocating anything.
    """

    def __init__(self, maxlen: int = 4096, enabled: bool = False) -> None:
        if maxlen <= 0:
            raise ValueError("maxlen must be positive")
        self.enabled = enabled
        self._ring: Deque[Event] = deque(maxlen=maxlen)
        self._subscribers: List[Subscriber] = []
        self._seq = 0
        self.dropped = 0  # events emitted after the ring was full
        #: Stack of ambient cause tuples (see :meth:`causal_scope`).
        self._scope: List[Tuple[int, ...]] = []

    # -- control ----------------------------------------------------------

    def enable(self) -> None:
        """Start accepting events."""
        self.enabled = True

    def disable(self) -> None:
        """Stop accepting events (retained events stay readable)."""
        self.enabled = False

    def clear(self) -> None:
        """Drop retained events (subscribers stay attached)."""
        self._ring.clear()
        self.dropped = 0

    # -- emission ----------------------------------------------------------

    def emit(self, name: str, *, causes=None, **fields: Any) -> Optional[Event]:
        """Publish one event; returns it, or ``None`` when disabled.

        ``causes`` stamps the event with the seq ids of the events that
        caused it (events, ints and ``None`` placeholders all accepted).
        Explicit causes are unioned with the innermost ambient
        :meth:`causal_scope`; with ``causes=None`` the ambient scope
        alone applies.  Disabled buses return before touching any of it.
        """
        if not self.enabled:
            return None
        scope = self._scope
        if causes is None:
            effective = scope[-1] if scope else ()
        else:
            effective = _resolve_causes(causes)
            if scope and scope[-1]:
                effective = _resolve_causes(effective + scope[-1])
        event = Event(name=name, seq=self._seq, fields=fields,
                      causes=effective)
        self._seq += 1
        if len(self._ring) == self._ring.maxlen:
            self.dropped += 1
        self._ring.append(event)
        for subscriber in self._subscribers:
            subscriber(event)
        return event

    def causal_scope(self, *causes: CauseLike) -> ContextManager:
        """Declare the causes of everything emitted inside a ``with`` block.

        Decision-making code wraps its deliberate-and-act phase in a
        scope built from the events it consumed; every event emitted
        inside (by any module) is stamped with those seq ids without
        threading them through call signatures.  Scopes nest: the
        innermost one applies; an event's explicit ``causes=`` are
        unioned with it.  On a disabled bus this returns a shared no-op
        context and costs nothing.
        """
        if not self.enabled:
            return _NULL_SCOPE
        return _CausalScope(self, _resolve_causes(causes))

    def current_causes(self) -> Tuple[int, ...]:
        """The innermost ambient cause tuple (empty outside any scope)."""
        return self._scope[-1] if self._scope else ()

    # -- subscription ------------------------------------------------------

    def subscribe(self, subscriber: Subscriber) -> Subscriber:
        """Attach a callback invoked on every event; returns it (for chaining)."""
        self._subscribers.append(subscriber)
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Detach a previously attached callback (no-op when absent)."""
        try:
            self._subscribers.remove(subscriber)
        except ValueError:
            pass

    # -- inspection --------------------------------------------------------

    def events(self, name: Optional[str] = None) -> List[Event]:
        """Retained events, oldest first, optionally filtered by name."""
        if name is None:
            return list(self._ring)
        return [e for e in self._ring if e.name == name]

    def __len__(self) -> int:
        return len(self._ring)


#: The default process-wide bus.  Instrumented modules emit here unless a
#: caller swapped in their own via :func:`set_bus`.
_bus = EventBus()


def get_bus() -> EventBus:
    """The current default bus."""
    return _bus


def set_bus(bus: EventBus) -> EventBus:
    """Replace the default bus; returns the previous one."""
    global _bus
    previous = _bus
    _bus = bus
    return previous


def enabled() -> bool:
    """Is telemetry currently on?  (The guard hot paths check.)"""
    return _bus.enabled


def emit(name: str, *, causes=None, **fields: Any) -> Optional[Event]:
    """Emit on the default bus (no-op returning ``None`` when disabled)."""
    bus = _bus
    if not bus.enabled:
        return None
    return bus.emit(name, causes=causes, **fields)


def causal_scope(*causes: CauseLike) -> ContextManager:
    """A causal scope on the default bus (no-op context when disabled)."""
    bus = _bus
    if not bus.enabled:
        return _NULL_SCOPE
    return bus.causal_scope(*causes)


def subscribe(subscriber: Subscriber) -> Subscriber:
    """Subscribe to the default bus."""
    return _bus.subscribe(subscriber)


def unsubscribe(subscriber: Subscriber) -> None:
    """Unsubscribe from the default bus."""
    _bus.unsubscribe(subscriber)
