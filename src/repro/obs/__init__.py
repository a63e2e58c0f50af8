"""Observability for the self-aware stack (``repro.obs``).

The paper argues a computing system should be able to observe, model and
explain itself; this package is that capability turned inward on the
reproduction itself:

- :mod:`~repro.obs.events` -- a process-local structured event bus with
  ring-buffer retention (zero-cost when disabled);
- :mod:`~repro.obs.metrics` -- labelled counters, gauges and streaming
  histograms (p50/p95/p99 in constant memory via the P² algorithm);
- :mod:`~repro.obs.timers` -- ``phase_timer`` over ``perf_counter`` for
  the sense → model → reason → act phases of every control step;
- :mod:`~repro.obs.export` -- JSONL trace writing, snapshots, readable
  summaries and the scoped :class:`~repro.obs.export.TelemetrySession`.

Telemetry is off by default.  Enable it for a scope::

    from repro.obs import TelemetrySession

    with TelemetrySession(trace_path="trace.jsonl") as session:
        run_control_loop(node, env, goal, steps=500)
    print(session.snapshot_summary())

Instrumented hot paths guard on :func:`enabled` so the disabled cost is
one attribute check (see ``tests/obs/test_disabled_overhead.py``).
"""

from .events import (ESCAPE_PREFIX, MAX_CAUSES, RESERVED_KEYS, Event,
                     EventBus, causal_scope, emit, enabled, get_bus, set_bus,
                     subscribe, unescape_fields, unsubscribe)
from .export import (JsonlTraceWriter, TelemetrySession, cli_telemetry,
                     read_trace, render_summary, snapshot)
from .metrics import (Counter, Gauge, MetricsRegistry, P2Quantile,
                      StreamingHistogram, counter, gauge, get_registry,
                      histogram, metric_key, set_registry)
from .timers import phase_timer

__all__ = [
    "ESCAPE_PREFIX", "MAX_CAUSES", "RESERVED_KEYS",
    "Event", "EventBus", "causal_scope", "emit", "enabled", "get_bus",
    "set_bus", "subscribe", "unescape_fields", "unsubscribe",
    "JsonlTraceWriter", "TelemetrySession", "cli_telemetry", "read_trace",
    "render_summary", "snapshot",
    "Counter", "Gauge", "MetricsRegistry", "P2Quantile",
    "StreamingHistogram", "counter", "gauge", "get_registry", "histogram",
    "metric_key", "set_registry",
    "phase_timer",
]
