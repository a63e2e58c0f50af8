"""Trace recording and replay: the digital twin's data plane.

Two halves of one contract:

* :class:`TraceRecorder` subscribes to the :mod:`repro.obs` event bus
  and distils the serve/cluster event stream into per-tick *arrival*
  records -- what the environment offered, before any admission or
  governance touched it.  It understands three event shapes: the
  simulated serving layer's per-tick ``serve.request`` (carries
  ``offered``), the deterministic cluster's ``cluster.tick`` (carries
  ``by_session`` counts), and the live wall-clock server's per-request
  ``serve.request`` (``op``/``t``/``session``), which it buckets into
  fixed-width ticks.

* :class:`TraceWorkload` loads a recorded trace back and replays it
  tick-for-tick inside the ``serve`` or ``cluster`` substrate, passed
  as the adapter's ``workload`` keyword
  (``make_simulator("serve", config, workload=trace)``): recorded
  arrival counts replace the Poisson/multinomial draws, so the same
  trace and seed replay byte-identically, across ``reset`` too -- and a
  governor candidate can be scored against yesterday's real traffic
  before deployment.

Traces are versioned JSON Lines: a header line stamped
``{"schema": "repro.twin/v1", ...}`` followed by one record per tick
(``{"t": k, "offered": n, "by_session": {...}}``).  Loading validates
the schema and raises :class:`TraceSchemaError` with a pointed message
for foreign or corrupt files.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence

import numpy as np

#: The trace schema this package writes and accepts.
SCHEMA = "repro.twin/v1"

#: Server ops counted as offered work when recording a live server
#: (control-plane ops -- create, stats, snapshot -- are not load).
_WORK_OPS = frozenset(("step", "run"))


class TraceSchemaError(ValueError):
    """A trace file failed schema validation (foreign, corrupt, stale)."""


class TraceRecorder:
    """Distil the obs event stream into a per-tick arrival trace.

    Attach to a bus (``recorder.attach(bus)`` or
    ``obs.events.subscribe(recorder)``); every matching event folds into
    the per-tick ledger.  ``write(path)`` emits the versioned JSONL
    trace; ``header()``/``records()`` expose the same data in-memory for
    the experiment path, which never touches the filesystem.

    Parameters
    ----------
    source:
        Free-form provenance string stamped into the header.
    tick_seconds:
        Bucket width for live wall-clock events.  Simulated events carry
        their own integer ticks and ignore this.
    substrate:
        ``"serve"`` or ``"cluster"``; inferred from the first matching
        event when omitted.
    """

    def __init__(self, *, source: str = "live", tick_seconds: float = 1.0,
                 substrate: Optional[str] = None) -> None:
        if tick_seconds <= 0:
            raise ValueError("tick_seconds must be positive")
        self.source = source
        self.tick_seconds = tick_seconds
        self.substrate = substrate
        self.events_seen = 0
        self._offered: Dict[int, int] = {}
        self._by_session: Dict[int, Dict[str, int]] = {}
        self._ok = 0
        self._wall0: Optional[float] = None
        self._bus = None

    # -- subscription ------------------------------------------------------

    def attach(self, bus: Any) -> "TraceRecorder":
        """Subscribe to ``bus`` (kept for symmetric :meth:`detach`)."""
        bus.subscribe(self)
        self._bus = bus
        return self

    def detach(self) -> None:
        """Unsubscribe from the bus :meth:`attach` joined (idempotent)."""
        if self._bus is not None:
            self._bus.unsubscribe(self)
            self._bus = None

    # -- ingestion ---------------------------------------------------------

    def _note(self, substrate: str, tick: int, count: int,
              session: Optional[str]) -> None:
        if self.substrate is None:
            self.substrate = substrate
        if count <= 0:
            return
        self._offered[tick] = self._offered.get(tick, 0) + count
        if session is not None:
            per = self._by_session.setdefault(tick, {})
            per[str(session)] = per.get(str(session), 0) + count

    def __call__(self, event: Any) -> None:
        """Subscriber interface: fold one event into the ledger."""
        fields = event.fields
        if event.name == "serve.request":
            if "offered" in fields:
                # Simulated serving layer: one event per tick.
                self.events_seen += 1
                self._note("serve", int(fields["time"]),
                           int(fields["offered"]), None)
            elif fields.get("op") in _WORK_OPS and "t" in fields:
                # Live server: one event per request, wall-clock stamped.
                self.events_seen += 1
                now = float(fields["t"])
                if self._wall0 is None:
                    self._wall0 = now
                tick = int((now - self._wall0) / self.tick_seconds)
                self._note("serve", tick, 1, fields.get("session"))
                if fields.get("ok"):
                    self._ok += 1
        elif event.name == "cluster.tick":
            self.events_seen += 1
            tick = int(fields["time"])
            by_session = fields.get("by_session") or {}
            for sid, count in by_session.items():
                self._note("cluster", tick, int(count), str(sid))
            attributed = sum(int(c) for c in by_session.values())
            remainder = int(fields.get("offered", 0)) - attributed
            self._note("cluster", tick, remainder, None)

    # -- output ------------------------------------------------------------

    @property
    def ticks(self) -> int:
        """Ticks covered (max seen tick + 1; 0 when nothing recorded)."""
        return (max(self._offered) + 1) if self._offered else 0

    @property
    def total_offered(self) -> int:
        return sum(self._offered.values())

    @property
    def total_ok(self) -> int:
        """Requests the live server answered ok (0 for simulated feeds)."""
        return self._ok

    def sessions(self) -> List[str]:
        """Every session id seen, sorted (stable replay order)."""
        seen = set()
        for per in self._by_session.values():
            seen.update(per)
        return sorted(seen)

    def header(self) -> Dict[str, Any]:
        """The schema-stamped trace header."""
        return {"schema": SCHEMA,
                "substrate": self.substrate or "serve",
                "source": self.source,
                "tick_seconds": self.tick_seconds,
                "ticks": self.ticks,
                "sessions": self.sessions(),
                "total_offered": self.total_offered,
                "total_ok": self._ok}

    def records(self) -> List[Dict[str, Any]]:
        """Per-tick records in tick order (ticks with zero offered kept)."""
        out = []
        for tick in range(self.ticks):
            record: Dict[str, Any] = {"t": tick,
                                      "offered": self._offered.get(tick, 0)}
            per = self._by_session.get(tick)
            if per:
                record["by_session"] = dict(sorted(per.items()))
            out.append(record)
        return out

    def write(self, path: str) -> int:
        """Write the versioned JSONL trace; returns records written."""
        records = self.records()
        with open(path, "w") as handle:
            handle.write(json.dumps(self.header(), sort_keys=True) + "\n")
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)


class TraceWorkload:
    """A recorded trace, replayable tick-for-tick.

    ``offered(t)`` is the recorded arrival count at tick ``t`` (0 past
    the end of the trace); ``session_counts(t, n)`` folds the recorded
    per-session counts onto an ``n``-session population in the trace's
    sorted session order (extra recorded sessions wrap modulo ``n``,
    unattributed arrivals land on session 0).  Simulations consume these
    in place of their Poisson/multinomial draws, which is what makes a
    replay byte-identical for a given ``(trace, seed)``.
    """

    def __init__(self, header: Mapping[str, Any],
                 records: Sequence[Mapping[str, Any]]) -> None:
        self.header = dict(header)
        self.substrate = str(self.header.get("substrate", "serve"))
        self.session_ids: List[str] = list(self.header.get("sessions", ()))
        self._rank = {sid: i for i, sid in enumerate(self.session_ids)}
        ticks = int(self.header.get("ticks", len(records)))
        ticks = max(ticks, len(records))
        self._offered = np.zeros(ticks, dtype=np.int64)
        self._by_session: Dict[int, Dict[str, int]] = {}
        for record in records:
            t = int(record["t"])
            self._offered[t] = int(record["offered"])
            per = record.get("by_session")
            if per:
                self._by_session[t] = {str(k): int(v) for k, v in per.items()}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_recorder(cls, recorder: TraceRecorder) -> "TraceWorkload":
        """The in-memory path: no file round-trip."""
        return cls(recorder.header(), recorder.records())

    @classmethod
    def load(cls, path: str) -> "TraceWorkload":
        """Load and validate a trace file.

        Raises :class:`TraceSchemaError` naming the problem -- not a
        bare decode error -- for foreign files, schema mismatches and
        corrupt records.
        """
        try:
            with open(path) as handle:
                lines = handle.read().splitlines()
        except OSError as exc:
            raise TraceSchemaError(f"cannot read trace {path!r}: {exc}") \
                from None
        lines = [line for line in lines if line.strip()]
        if not lines:
            raise TraceSchemaError(f"{path!r} is empty, not a {SCHEMA} trace")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise TraceSchemaError(
                f"{path!r} line 1 is not JSON ({exc}); "
                f"not a {SCHEMA} trace") from None
        if not isinstance(header, dict) or "schema" not in header:
            raise TraceSchemaError(
                f"{path!r} has no schema stamp; not a {SCHEMA} trace "
                "(is this a telemetry trace? those replay via repro.explain)")
        if header["schema"] != SCHEMA:
            raise TraceSchemaError(
                f"{path!r} is schema {header['schema']!r}; "
                f"this build reads {SCHEMA}")
        records = []
        for lineno, line in enumerate(lines[1:], start=2):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceSchemaError(
                    f"{path!r} line {lineno}: corrupt record ({exc})") \
                    from None
            if not isinstance(record, dict) or "t" not in record \
                    or "offered" not in record:
                raise TraceSchemaError(
                    f"{path!r} line {lineno}: record needs 't' and "
                    "'offered' fields")
            records.append(record)
        return cls(header, records)

    # -- replay ------------------------------------------------------------

    @property
    def ticks(self) -> int:
        return int(len(self._offered))

    @property
    def total_offered(self) -> int:
        return int(self._offered.sum())

    def offered(self, t: float) -> int:
        """Recorded arrivals at tick ``t`` (0 past the end of the trace)."""
        index = int(t)
        if index < 0 or index >= len(self._offered):
            return 0
        return int(self._offered[index])

    def session_counts(self, t: float, n: int) -> np.ndarray:
        """Per-session arrival counts folded onto ``n`` sessions.

        Recorded sessions map to slots by their sorted rank (wrapping
        modulo ``n`` when the trace saw more sessions than the replay
        has); arrivals the trace could not attribute go to slot 0.
        """
        counts = np.zeros(n, dtype=np.int64)
        index = int(t)
        if index < 0 or index >= len(self._offered):
            return counts
        per = self._by_session.get(index, {})
        attributed = 0
        for sid, count in per.items():
            rank = self._rank.get(sid, 0)
            counts[rank % n] += int(count)
            attributed += int(count)
        counts[0] += int(self._offered[index]) - attributed
        return counts
