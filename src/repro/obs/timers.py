"""Phase timing: where does a control step actually spend its time?

The paper's control loop has recognisable phases -- sense, model, reason,
act -- and the first question any perf work asks is which phase dominates.
:class:`phase_timer` is a re-entrant-free, allocation-light context
manager over :func:`time.perf_counter`:

- ``duration`` is always measured (callers may use the timer as a plain
  stopwatch even with telemetry off);
- with a ``sink`` dict, the duration lands under the phase name, letting
  a caller assemble one per-step timing record from several phases;
- when telemetry is enabled, the duration feeds the
  ``phase_seconds{phase=...}`` streaming histogram, so p50/p95/p99 phase
  latencies are available without storing per-step samples.

Callers on hot paths should branch on :func:`repro.obs.events.enabled`
and skip timer construction entirely when telemetry is off; the node and
loop instrumentation does exactly that.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, Optional

from . import events as _events
from . import metrics as _metrics

class phase_timer:
    """Time one phase of a control step.

    Parameters
    ----------
    phase:
        Phase name (conventionally one of the control step's ``sense``,
        ``model``, ``reason`` and ``act``, but any string works --
        simulators time domain phases too).
    sink:
        Optional dict; on exit ``sink[phase] = duration_seconds``.
    record:
        When ``True`` (default) and telemetry is enabled, the duration is
        observed into the ``phase_seconds`` histogram labelled with
        ``phase`` and any extra ``labels``.
    labels:
        Extra histogram labels (e.g. ``node='demo'``).
    """

    __slots__ = ("phase", "duration", "_sink", "_record", "_labels", "_start")

    def __init__(self, phase: str, sink: Optional[Dict[str, float]] = None,
                 record: bool = True, **labels: Any) -> None:
        self.phase = phase
        self.duration = 0.0
        self._sink = sink
        self._record = record
        self._labels = labels
        self._start = 0.0

    def __enter__(self) -> "phase_timer":
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = perf_counter() - self._start
        if self._sink is not None:
            self._sink[self.phase] = self.duration
        if self._record and _events.enabled():
            _metrics.histogram("phase_seconds", phase=self.phase,
                               **self._labels).observe(self.duration)
        return None
