"""Guard: telemetry must be close to free when disabled.

The observability layer promises a near-zero disabled cost: hot paths pay
one ``enabled()`` check (an attribute read) and skip all instrumentation.
This guard runs a 1k-step control loop with telemetry off, measures
the actual per-check cost of the disabled instrumentation primitives, and
asserts that the total per-step instrumentation budget stays under 5% of
the loop's own step time.

(Directly diffing "instrumented" vs "uninstrumented" builds is impossible
inside one source tree, so the guard bounds the *sum of the disabled
primitives actually on the hot path* against the measured loop cost --
the same quantity, computed from its parts.)
"""

import timeit
import tracemalloc

import numpy as np

from repro.core import (CapabilityProfile, Goal, Objective, Sensor,
                        SensorSuite, build_node, private, run_control_loop)
from repro.explain import ExplanationStore
from repro.obs import causal_scope, emit, enabled, get_bus

STEPS = 1000

#: Disabled-path touchpoints per loop step: the node checks once in
#: ``step()``, the loop checks twice (environment phase + step event),
#: and the simulators' pattern is one check per step.  Padded generously.
CHECKS_PER_STEP = 8


class _World:
    def __init__(self, seed=0):
        self._rng = np.random.default_rng(seed)
        self.pressure = 0.2

    def candidate_actions(self, now):
        return ["economy", "turbo"]

    def sensed_pressure(self):
        return self.pressure

    def apply(self, action, now):
        self.pressure = float(np.clip(
            self.pressure + self._rng.normal(0.0, 0.02), 0.0, 1.0))
        perf = 0.9 if action == "turbo" else 0.9 - 0.8 * self.pressure
        return {"perf": perf, "cost": 0.7 if action == "turbo" else 0.2}


def _run_loop():
    world = _World()
    goal = Goal(objectives=[Objective("perf"),
                            Objective("cost", maximise=False)],
                weights={"perf": 0.7, "cost": 0.3}, name="bench")
    sensors = SensorSuite([
        Sensor(private("pressure"), world.sensed_pressure,
               rng=np.random.default_rng(1))])
    node = build_node("bench", CapabilityProfile.full_stack(), sensors, goal,
                      rng=np.random.default_rng(0))
    run_control_loop(node, world, goal, steps=STEPS)


def test_disabled_overhead_under_5_percent():
    assert not enabled(), "the guard requires telemetry off"

    # The real loop, telemetry disabled (instrumentation checks included).
    loop_seconds = min(timeit.repeat(_run_loop, number=1, repeat=3))

    # Cost of the disabled primitives the loop pays per step: enabled()
    # guards, a worst-case no-op emit() (kwargs packing included, causal
    # provenance included) and the shared no-op causal scope.
    n = 200_000
    check_seconds = min(timeit.repeat(
        "enabled(); emit('x', a=1.0, b=2.0, causes=(1, 2))\n"
        "with causal_scope():\n"
        "    pass",
        globals={"enabled": enabled, "emit": emit,
                 "causal_scope": causal_scope}, number=n, repeat=3)) / n

    budget = CHECKS_PER_STEP * check_seconds * STEPS
    assert budget < 0.05 * loop_seconds, (
        f"disabled instrumentation budget {budget * 1e3:.2f}ms exceeds 5% of "
        f"the {loop_seconds * 1e3:.1f}ms loop")

    # And the checks must not have left any trace behind.
    assert len(get_bus()) == 0


def test_disabled_fast_path_allocates_nothing():
    """The guarded hot-path pattern must not allocate when telemetry is off.

    Substrates guard every emission with ``if enabled():`` so a disabled
    bus costs one attribute read -- no kwargs dict, no event record, no
    deque growth.  The pattern now includes causal provenance (an
    emit-with-``causes`` inside a ``causal_scope``) and an attached but
    idle :class:`ExplanationStore`: a disabled bus never invokes
    subscribers, so the store must see nothing and allocate nothing.
    Net allocations attributed to the guarded loop must be zero.
    """
    assert not enabled(), "the guard requires telemetry off"
    store = ExplanationStore().attach(get_bus())

    def guarded(n):
        for _ in range(n):
            with causal_scope():
                if enabled():
                    emit("bench.alloc", value=1.0, phase="hot",
                         causes=(1, 2))

    try:
        guarded(1_000)  # settle any lazy interpreter state first
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            guarded(10_000)
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
    finally:
        store.detach()
    here = [tracemalloc.Filter(True, __file__)]
    stats = after.filter_traces(here).compare_to(
        before.filter_traces(here), "lineno")
    grown = [s for s in stats if s.size_diff > 0]
    assert not grown, f"disabled fast path allocated: {grown}"
    assert len(get_bus()) == 0
    assert store.events_seen == 0, "idle store was invoked on a disabled bus"


def test_disabled_guard_never_invokes_emit(monkeypatch):
    """Call-count probe: the guard must short-circuit the emit call."""
    from repro import obs

    assert not obs.enabled()
    calls = []
    monkeypatch.setattr(obs, "emit",
                        lambda name, **fields: calls.append(name))
    for _ in range(100):
        if obs.enabled():
            obs.emit("bench.guard", value=1.0)
    assert calls == []


def test_disabled_loop_throughput_floor():
    """The disabled loop must stay in the same performance class.

    A coarse absolute floor (very conservative: CI machines vary) that
    catches accidental always-on instrumentation, which would slow the
    loop by orders of magnitude more than 5%.
    """
    loop_seconds = min(timeit.repeat(_run_loop, number=1, repeat=3))
    per_step = loop_seconds / STEPS
    assert per_step < 5e-3, f"control step took {per_step * 1e6:.0f}us"
