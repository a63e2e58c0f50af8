"""A discrete-time model of the serving layer, for experiments and bench.

The asyncio server in :mod:`repro.serve.server` runs on wall clock and
process pools -- accurate but non-reproducible.  This module models the
same control problem as a deterministic queueing simulation so that
experiment E14 can *score* the governor: Poisson request arrivals at an
offered rate, exponential service demands, a worker pool that serves a
fixed work budget per tick (with a boot delay on scale-up), the real
:class:`~repro.serve.admission.AdmissionController` in front of the
queue, and the real :class:`~repro.serve.governor.ServeGovernor` (or its
static baseline) in the control seat.  Nothing is mocked: the admission
and governor objects are exactly the ones the live server uses, which is
the point -- E14's claims transfer to the server because the control
plane is shared, only the data plane is simulated.

Determinism: all randomness flows from ``default_rng([0x5E4E, seed])``
plus the governor's own seeded exploration stream, so a given
``(config, seed)`` replays byte-identically -- the property the
:mod:`repro.api` facade requires of every registered substrate.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Dict, List, Optional

import numpy as np

from ..api.configs import ServeConfig
from ..faults.injector import FaultInjector, make_injector
from ..faults.plan import CRASH
from ..metrics.stats import percentile_linear
from ..obs import events as obs_events
from ..obs import metrics as obs_metrics
from .admission import ADMIT, AdmissionController
from .governor import ServeGovernor, StaticGovernor


def _offered(config: ServeConfig, t: float) -> float:
    """Offered load at tick ``t`` (optionally seasonal)."""
    rate = config.offered_load
    if config.spike_amplitude:
        rate *= 1.0 + config.spike_amplitude * math.sin(
            2.0 * math.pi * t / config.period)
    return max(0.0, rate)


class ServingSimulation:
    """The serving control loop over a simulated request stream."""

    def __init__(self, config: Optional[ServeConfig] = None, *,
                 governor: Optional[Any] = None,
                 faults: Optional[FaultInjector] = None,
                 workload: Optional[Any] = None) -> None:
        self.config = config if config is not None else ServeConfig()
        self._governor_given = governor  # expert path: reused across resets
        #: Explicit faults always win over a scenario-armed plan.
        self._faults_given = faults
        #: Replay source (:class:`repro.twin.TraceWorkload`): recorded
        #: arrival counts replace the Poisson draws tick-for-tick.
        self.workload = workload
        self.reset(self.config.seed)

    # -- lifecycle ---------------------------------------------------------

    def _make_governor(self, seed: int) -> Any:
        cfg = self.config
        if self._governor_given is not None:
            return self._governor_given
        if cfg.governor == "static":
            return StaticGovernor(pool_size=cfg.static_workers,
                                  service_rate_guess=cfg.per_worker_rate,
                                  admit_headroom=cfg.admit_headroom,
                                  slo_p95=cfg.slo_p95)
        if cfg.governor == "self_aware":
            return ServeGovernor(slo_p95=cfg.slo_p95,
                                 min_workers=cfg.min_workers,
                                 max_workers=cfg.max_workers,
                                 service_rate_guess=cfg.per_worker_rate,
                                 admit_headroom=cfg.admit_headroom,
                                 epsilon=cfg.epsilon, seed=seed)
        raise ValueError(f"unknown serve governor {cfg.governor!r}")

    def reset(self, seed: Optional[int] = None) -> "ServingSimulation":
        cfg = self.config
        seed = cfg.seed if seed is None else seed
        self._seed = seed
        self.rng = np.random.default_rng([0x5E4E, seed])
        self.faults = self._faults_given
        self._scenario_track = None
        if cfg.scenario:
            from ..envgen.scenario import make_scenario
            track = make_scenario(cfg.scenario).render(cfg.steps, seed=seed)
            self._scenario_track = track
            if track.plan is not None and self._faults_given is None:
                self.faults = make_injector(track.plan, run_seed=seed)
        self.governor = self._make_governor(seed)
        self._pool = self.governor.pool_target
        capacity = max(1e-6, self._pool * cfg.per_worker_rate)
        self.admission = AdmissionController(
            rate=capacity * cfg.admit_headroom,
            burst=max(1.0, capacity),
            max_queue=max(1.0, math.ceil(
                capacity * max(1.0, cfg.slo_p95 - 2.0))))
        #: FIFO queue of [arrival_tick, remaining_demand].
        self._queue: "deque[List[float]]" = deque()
        self._pending_boots: List[List[float]] = []  # [ready_tick, count]
        self._recent_arrivals: "deque[int]" = deque(maxlen=cfg.stats_window)
        self._recent_latencies: "deque[float]" = deque(maxlen=cfg.latency_window)
        #: Every completion as ``(completion_tick, latency)``; metrics()
        #: scores the post-warmup slice of this exactly.
        self._all_latencies: List[List[float]] = []
        self.records: List[Dict[str, float]] = []
        self.serve_stale = False
        self._t = 0.0
        return self

    # -- one tick ----------------------------------------------------------

    def _effective_pool(self) -> int:
        """Workers actually serving: booted pool minus crashed cohort."""
        if self.faults is None or not self.faults.active(CRASH):
            return self._pool
        population = tuple(range(self.config.max_workers))
        crashed = self.faults.crashed_targets(population)
        return sum(1 for w in range(self._pool) if w not in crashed)

    def _sensed(self, value: float) -> float:
        """Telemetry as the governor perceives it (faults may corrupt it)."""
        if self.faults is None:
            return value
        return max(0.0, self.faults.perturb(value, target="serve.telemetry"))

    def step(self) -> Dict[str, float]:
        cfg = self.config
        t = self._t
        if self.faults is not None:
            self.faults.begin_step(t)

        # Scale-ups ordered earlier come online after the boot delay.
        for boot in [b for b in self._pending_boots if b[0] <= t]:
            self._pool += int(boot[1])
            self._pending_boots.remove(boot)
        self._pool = min(self._pool, cfg.max_workers)

        # Arrivals through admission.
        rate = _offered(cfg, t)
        if self._scenario_track is not None:
            rate *= self._scenario_track.rate_at(t)
        if self.faults is not None:
            rate *= self.faults.demand_factor()
        if self.workload is not None:
            # Twin replay: the recorded arrival count stands in for the
            # Poisson draw (and skips it, keeping the rng stream aligned
            # across candidates replaying the same trace).
            offered = self.workload.offered(t)
        else:
            offered = int(self.rng.poisson(rate))
        admitted = 0
        for _ in range(offered):
            if self.admission.admit(t, len(self._queue)) is ADMIT:
                self._queue.append(
                    [t, float(self.rng.exponential(cfg.mean_service))])
                admitted += 1
        shed = offered - admitted
        self._recent_arrivals.append(offered)

        # Service: the pool drains a work budget per tick, FIFO.
        serving_pool = self._pool  # before any scale-down this tick
        effective = self._effective_pool()
        budget = effective * cfg.per_worker_rate
        capacity = max(1e-9, budget)
        served_work = 0.0
        completions = 0
        good = 0
        while self._queue and budget > 1e-12:
            head = self._queue[0]
            take = min(budget, head[1])
            head[1] -= take
            budget -= take
            served_work += take
            if head[1] <= 1e-12:
                self._queue.popleft()
                latency = t - head[0] + 1.0
                self._recent_latencies.append(latency)
                self._all_latencies.append([t, latency])
                completions += 1
                if latency <= cfg.slo_p95:
                    good += 1

        utilisation = served_work / capacity
        p95_recent = (percentile_linear(self._recent_latencies, 95.0)
                      if self._recent_latencies else 0.0)
        arrival_rate = (sum(self._recent_arrivals)
                        / max(1, len(self._recent_arrivals)))

        # Governance: periodic sense -> decide -> express.
        if int(t) % cfg.govern_every == 0:
            decision = self.governor.tick(t, {
                "queue_depth": self._sensed(float(len(self._queue))),
                "arrival_rate": self._sensed(arrival_rate),
                "p95_latency": self._sensed(p95_recent),
                "utilisation": min(1.0, utilisation),
                "shed_fraction": self.admission.shed_fraction(),
                "pool_size": float(effective),
                "completion_rate": float(completions),
            })
            self._apply(t, decision)

        record = {"time": t, "offered": float(offered),
                  "admitted": float(admitted), "shed": float(shed),
                  "completions": float(completions), "good": float(good),
                  "queue_depth": float(len(self._queue)),
                  "pool": float(serving_pool), "effective": float(effective),
                  "utilisation": utilisation, "p95_recent": p95_recent}
        self.records.append(record)
        if obs_events.enabled():
            obs_metrics.counter("serve.requests").increment(offered)
            latency_hist = obs_metrics.histogram("serve.latency")
            for _, latency in self._all_latencies[-completions:] \
                    if completions else []:
                latency_hist.observe(latency)
            obs_metrics.histogram("serve.queue_depth").observe(
                float(len(self._queue)))
            obs_events.emit("serve.request", time=t, offered=offered,
                            admitted=admitted, shed=shed,
                            completions=completions, queue=len(self._queue),
                            pool=self._pool)
        self._t += 1.0
        return record

    def _apply(self, t: float, decision: Any) -> None:
        """Express a governor decision onto pool and admission."""
        cfg = self.config
        target = int(decision.pool_target)
        booked = self._pool + sum(int(b[1]) for b in self._pending_boots)
        if target > booked:
            self._pending_boots.append([t + cfg.boot_delay, target - booked])
        elif target < booked:
            shrink = booked - target
            # Cancel pending boots first; then shut live workers down
            # immediately (no teardown delay).
            for boot in list(reversed(self._pending_boots)):
                if shrink <= 0:
                    break
                cancel = min(shrink, int(boot[1]))
                boot[1] -= cancel
                shrink -= cancel
                if boot[1] <= 0:
                    self._pending_boots.remove(boot)
            if shrink > 0:
                self._pool = max(1, self._pool - shrink)
        self.admission.configure(t, rate=decision.admission_rate,
                                 burst=decision.admission_burst,
                                 max_queue=decision.max_queue)
        self.serve_stale = bool(decision.serve_stale)

    # -- protocol ----------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        return {"substrate": "serve", "time": self._t,
                "queue_depth": len(self._queue), "pool": self._pool,
                "degraded": bool(self.governor.degraded),
                "steps_taken": len(self.records)}

    def metrics(self) -> Dict[str, float]:
        """Scored over the post-warmup window (the governor's ramp-up is
        part of the story E14 tells, not of the steady state it scores)."""
        cfg = self.config
        warmup = min(cfg.warmup, max(0, len(self.records) - 1))
        window = self.records[warmup:]
        if not window:
            return {"goodput": 0.0, "p95_latency": float("nan"),
                    "shed_fraction": 0.0, "mean_pool": 0.0,
                    "slo_attainment": 0.0, "offered": 0.0}
        ticks = float(len(window))
        offered = sum(r["offered"] for r in window)
        shed = sum(r["shed"] for r in window)
        completions = sum(r["completions"] for r in window)
        good = sum(r["good"] for r in window)
        latencies = [lat for tick, lat in self._all_latencies
                     if tick >= warmup]
        return {
            "goodput": good / ticks,
            "p95_latency": (percentile_linear(latencies, 95.0)
                            if latencies else float("nan")),
            "shed_fraction": shed / offered if offered else 0.0,
            "mean_pool": sum(r["pool"] for r in window) / ticks,
            "slo_attainment": good / completions if completions else 0.0,
            "offered": offered / ticks,
        }

    def run(self) -> List[Dict[str, float]]:
        for _ in range(self.config.steps):
            self.step()
        return self.records
