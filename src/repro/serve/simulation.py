"""A discrete-time model of the serving layer, for experiments and bench.

The asyncio server in :mod:`repro.serve.server` runs on wall clock and
process pools -- accurate but non-reproducible.  This module models the
same control problem as a deterministic queueing simulation so that
experiment E14 can *score* the governor: :class:`SimNode` is the one
model of a serving node -- the real
:class:`~repro.serve.admission.AdmissionController` in front of a FIFO
queue of exponential service demands, a worker pool that drains a fixed
work budget per tick (with a boot delay on scale-up), and a governor
from :func:`~repro.serve.governor.make_governor` in the control seat.
:class:`ServingSimulation` drives one node under Poisson arrivals;
:class:`~repro.serve.cluster.ClusterSimulation` drives N of them.  Both
are models in the shape of every other substrate: each takes its config
and a ``step(now)``, while the ``serve`` / ``cluster`` adapters of
:mod:`repro.api.adapters` own the clock, ``reset``, ``run`` and the
``snapshot`` / ``metrics`` reads.
Nothing is mocked: the admission and governor objects are exactly the
ones the live server uses, which is the point -- E14's claims transfer
to the server because the control plane is shared, only the data plane
is simulated.

Determinism: all randomness flows from ``default_rng([0x5E4E, seed])``
plus the governor's own seeded exploration stream, so a given
``(config, seed)`` replays byte-identically -- the property the
:mod:`repro.api` facade requires of every registered substrate.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from ..api.configs import ServeConfig
from ..faults.injector import FaultInjector, make_injector
from ..faults.plan import CRASH
from ..metrics.stats import percentile_linear
from ..obs import events as obs_events
from ..obs import metrics as obs_metrics
from .admission import ADMIT, AdmissionController
from .governor import GovernorDecision, admission_settings, make_governor


def _offered(config: ServeConfig, t: float) -> float:
    """Offered load at tick ``t`` (optionally seasonal)."""
    rate = config.offered_load
    if config.spike_amplitude:
        rate *= 1.0 + config.spike_amplitude * math.sin(
            2.0 * math.pi * t / config.period)
    return max(0.0, rate)


class SimNode:
    """One simulated serving node: admission, FIFO queue, pool, governor.

    ``config`` is a ``ServeConfig`` or ``ClusterConfig`` (the node reads
    the fields they share); service demands come from ``rng``, every
    completion goes to ``latencies`` as ``[tick, latency]``, and a
    shrink stops at ``min_pool`` workers.  The per-request loops stay
    inside the methods: a tick costs a few calls per node, not per
    request.
    """

    def __init__(self, governor: Any, pool: int, config: Any,
                 rng: np.random.Generator, latencies: List[List[float]],
                 *, min_pool: int) -> None:
        self.governor = governor
        self.pool = pool
        self.config = config
        self.rng = rng
        self.latencies = latencies
        self.min_pool = min_pool
        rate, burst, max_queue = admission_settings(
            max(1e-6, pool * config.per_worker_rate),
            headroom=config.admit_headroom, slo_p95=config.slo_p95)
        self.admission = AdmissionController(rate=rate, burst=burst,
                                             max_queue=max_queue)
        #: FIFO queue of [arrival_tick, remaining_demand].
        self.queue: "deque[List[float]]" = deque()
        self.pending_boots: List[List[float]] = []  # [ready_tick, count]
        self.recent_arrivals: "deque[int]" = deque(maxlen=config.stats_window)
        self.recent_latencies: "deque[float]" = deque(
            maxlen=config.latency_window)
        #: Requests offered since the last drain.
        self.offered = 0
        self.completions = 0
        self.good = 0
        self.utilisation = 0.0

    def boot(self, t: float, limit: float) -> None:
        """Bring scale-ups that are ready by ``t`` online, the pool
        capped at ``limit`` workers."""
        ready = [b for b in self.pending_boots if b[0] <= t]
        self.pending_boots = [b for b in self.pending_boots if b[0] > t]
        self.pool = min(self.pool + sum(int(b[1]) for b in ready), limit)

    def admit(self, t: float, arrivals: int) -> int:
        """Offer ``arrivals`` requests through admission; returns how
        many were queued."""
        self.offered += arrivals
        admitted = 0
        for _ in range(arrivals):
            if self.admission.admit(t, len(self.queue)) is ADMIT:
                self.queue.append(
                    [t, float(self.rng.exponential(self.config.mean_service))])
                admitted += 1
        return admitted

    def drain(self, t: float, workers: int) -> None:
        """One tick of service: ``workers`` drain their work budget from
        the queue, FIFO."""
        self.recent_arrivals.append(self.offered)
        self.offered = 0
        slo = self.config.slo_p95
        budget = workers * self.config.per_worker_rate
        capacity = max(1e-9, budget)
        served = 0.0
        completions = good = 0
        while self.queue and budget > 1e-12:
            head = self.queue[0]
            take = min(budget, head[1])
            head[1] -= take
            budget -= take
            served += take
            if head[1] <= 1e-12:
                self.queue.popleft()
                latency = t - head[0] + 1.0
                self.recent_latencies.append(latency)
                self.latencies.append([t, latency])
                completions += 1
                if latency <= slo:
                    good += 1
        self.completions = completions
        self.good = good
        self.utilisation = served / capacity

    def readings(self, workers: int) -> Dict[str, float]:
        """The telemetry the governor senses, for ``workers`` serving."""
        return {
            "queue_depth": float(len(self.queue)),
            "arrival_rate": (sum(self.recent_arrivals)
                             / max(1, len(self.recent_arrivals))),
            "p95_latency": (percentile_linear(self.recent_latencies, 95.0)
                            if self.recent_latencies else 0.0),
            "utilisation": min(1.0, self.utilisation),
            "shed_fraction": self.admission.shed_fraction(),
            "pool_size": float(workers),
            "completion_rate": float(self.completions),
        }

    def govern(self, t: float,
               readings: Dict[str, float]) -> GovernorDecision:
        """Sense -> decide -> express: tick the governor and apply its
        decision to the pool and admission."""
        decision = self.governor.tick(t, readings)
        target = int(decision.pool_target)
        booked = self.pool + sum(int(b[1]) for b in self.pending_boots)
        if target > booked:
            self.pending_boots.append(
                [t + self.config.boot_delay, target - booked])
        elif target < booked:
            shrink = booked - target
            # Cancel pending boots first; then shut live workers down
            # immediately (no teardown delay).
            for boot in list(reversed(self.pending_boots)):
                if shrink <= 0:
                    break
                cancel = min(shrink, int(boot[1]))
                boot[1] -= cancel
                shrink -= cancel
                if boot[1] <= 0:
                    self.pending_boots.remove(boot)
            if shrink > 0:
                self.pool = max(self.min_pool, self.pool - shrink)
        self.admission.configure(t, rate=decision.admission_rate,
                                 burst=decision.admission_burst,
                                 max_queue=decision.max_queue)
        return decision


def score_run(records: Sequence[Dict[str, float]],
              latencies: Sequence[Sequence[float]],
              warmup: int) -> Dict[str, float]:
    """Scores over the post-warmup window (the governor's ramp-up is
    part of the story E14 tells, not of the steady state it scores)."""
    warmup = min(warmup, max(0, len(records) - 1))
    window = records[warmup:]
    if not window:
        return {"goodput": 0.0, "p95_latency": float("nan"),
                "shed_fraction": 0.0, "mean_pool": 0.0,
                "slo_attainment": 0.0, "offered": 0.0}
    ticks = float(len(window))
    offered = sum(r["offered"] for r in window)
    shed = sum(r["shed"] for r in window)
    completions = sum(r["completions"] for r in window)
    good = sum(r["good"] for r in window)
    scored = [lat for tick, lat in latencies if tick >= warmup]
    return {
        "goodput": good / ticks,
        "p95_latency": (percentile_linear(scored, 95.0)
                        if scored else float("nan")),
        "shed_fraction": shed / offered if offered else 0.0,
        "mean_pool": sum(r["pool"] for r in window) / ticks,
        "slo_attainment": good / completions if completions else 0.0,
        "offered": offered / ticks,
    }


class ServingSimulation:
    """The serving control loop over a simulated request stream: one
    :class:`SimNode` under Poisson arrivals, stepped by
    :class:`~repro.api.adapters.ServeSimulator`.

    ``faults`` is the run's injector; explicit faults always win over a
    scenario-armed plan.  ``workload`` is a replay source
    (:class:`repro.twin.TraceWorkload`): recorded arrival counts replace
    the Poisson draws tick-for-tick.
    """

    def __init__(self, config: ServeConfig, *,
                 faults: Optional[FaultInjector] = None,
                 workload: Optional[Any] = None) -> None:
        self.config = config
        seed = config.seed
        self.rng = np.random.default_rng([0x5E4E, seed])
        self.faults = faults
        self.workload = workload
        self._scenario_track = None
        if config.scenario:
            from ..envgen.scenario import make_scenario
            track = make_scenario(config.scenario).render(config.steps,
                                                          seed=seed)
            self._scenario_track = track
            if track.plan is not None and faults is None:
                self.faults = make_injector(track.plan, run_seed=seed)
        self.governor = make_governor(
            config.governor, ("self_aware", "static"),
            pool_size=config.static_workers, max_workers=config.max_workers,
            min_workers=config.min_workers, slo_p95=config.slo_p95,
            service_rate_guess=config.per_worker_rate, seed=seed,
            admit_headroom=config.admit_headroom, epsilon=config.epsilon)
        #: Every completion as ``[completion_tick, latency]``; the
        #: adapter's metrics() scores the post-warmup slice of this.
        self.latencies: List[List[float]] = []
        self.node = SimNode(self.governor, self.governor.pool_target, config,
                            self.rng, self.latencies, min_pool=1)
        self.records: List[Dict[str, float]] = []

    def _effective_pool(self) -> int:
        """Workers actually serving: booted pool minus crashed cohort."""
        pool = self.node.pool
        if self.faults is None or not self.faults.active(CRASH):
            return pool
        population = tuple(range(self.config.max_workers))
        crashed = self.faults.crashed_targets(population)
        return sum(1 for w in range(pool) if w not in crashed)

    def step(self, t: float) -> Dict[str, float]:
        cfg = self.config
        node = self.node
        if self.faults is not None:
            self.faults.begin_step(t)

        # Scale-ups ordered earlier come online after the boot delay.
        node.boot(t, cfg.max_workers)

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
        admitted = node.admit(t, offered)
        shed = offered - admitted

        # Service on the workers a crash left standing.
        serving_pool = node.pool  # before any scale-down this tick
        effective = self._effective_pool()
        node.drain(t, effective)
        readings = node.readings(effective)
        p95_recent = readings["p95_latency"]

        # Governance: periodic sense -> decide -> express, through
        # telemetry that faults may corrupt.
        if int(t) % cfg.govern_every == 0:
            if self.faults is not None:
                for key in ("queue_depth", "arrival_rate", "p95_latency"):
                    readings[key] = max(0.0, self.faults.perturb(
                        readings[key], target="serve.telemetry"))
            node.govern(t, readings)

        completions = node.completions
        record = {"time": t, "offered": float(offered),
                  "admitted": float(admitted), "shed": float(shed),
                  "completions": float(completions), "good": float(node.good),
                  "queue_depth": float(len(node.queue)),
                  "pool": float(serving_pool), "effective": float(effective),
                  "utilisation": node.utilisation, "p95_recent": p95_recent}
        self.records.append(record)
        if obs_events.enabled():
            obs_metrics.counter("serve.requests").increment(offered)
            latency_hist = obs_metrics.histogram("serve.latency")
            for _, latency in self.latencies[-completions:] \
                    if completions else []:
                latency_hist.observe(latency)
            obs_metrics.histogram("serve.queue_depth").observe(
                float(len(node.queue)))
            obs_events.emit("serve.request", time=t, offered=offered,
                            admitted=admitted, shed=shed,
                            completions=completions, queue=len(node.queue),
                            pool=node.pool)
        return record
