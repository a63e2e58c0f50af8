"""The serve governor: the serving layer as a self-aware system.

Everything else in :mod:`repro.serve` is conventional server plumbing;
this module is where the paper's loop closes over it.  The governor is a
:class:`~repro.core.node.SelfAwareNode` assembled from the framework's
own primitives, mapped onto the serving problem:

===================  ======================================================
Paper capability      Realisation here
===================  ======================================================
Stimulus awareness    :class:`~repro.core.sensors.Sensor` s over queue
                      depth, arrival rate, p95 latency, utilisation and
                      shed fraction, feeding the node's knowledge base
Time awareness        the node's TIME level adds window means/trends of
                      those phenomena to the decision context
Goal awareness        a live :class:`~repro.core.goals.Goal`: maximise
                      goodput, minimise latency and pool cost, under a
                      hard p95-latency SLO :class:`Constraint`
Self-model            :class:`ServeSelfModel` -- a capacity model whose
                      arrival rate and *per-worker service rate* are
                      learned from telemetry, never taken from a spec
                      sheet, with confidence earned through prediction
                      accuracy
Self-expression       the returned :class:`GovernorDecision`: resize the
                      worker pool, retune admission rate and queue bound
Meta-self-awareness   :class:`~repro.faults.degrade.DegradationMonitor`
                      watching the self-model's confidence; while
                      degraded the governor holds the last good pool
                      size, tightens admission and flags it
                      (``degraded``, reported by ``stats``)
===================  ======================================================

Sans-io and deterministic under a seed: the same governor instance runs
against the asyncio server's wall clock and inside the discrete-time
:class:`~repro.serve.simulation.SimNode` that E14 and E16 score.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Dict, Hashable, Mapping, Optional, Tuple

import numpy as np

from ..core.goals import Constraint, Goal, Objective
from ..core.levels import CapabilityProfile, SelfAwarenessLevel
from ..core.models import PredictiveModel
from ..core.node import SelfAwareNode
from ..core.reasoner import UtilityReasoner
from ..core.sensors import Sensor, SensorSuite
from ..core.spans import private
from ..faults.degrade import HOLD_LAST_GOOD, DegradationMonitor
from ..obs import events as obs_events
from ..obs import metrics as obs_metrics
from .gossip import GossipBoard, NodeSelfView, budget_shares

#: The telemetry phenomena the governor senses each tick.
STAT_KEYS = ("queue_depth", "arrival_rate", "p95_latency", "utilisation",
             "shed_fraction", "pool_size", "completion_rate")


def admission_settings(capacity: float, *, headroom: float,
                       slo_p95: float) -> Tuple[float, float, float]:
    """Admission ``(rate, burst, max_queue)`` sized to a pool's capacity.

    ``capacity`` is the work the pool serves per unit time.  The rate
    admits ``headroom`` times that, the burst is one unit time of it,
    and the queue bound holds ``slo_p95 - 2`` (at least one) units of
    drain time: a queue no deeper than that keeps waiting time inside
    the SLO by construction, whatever the self-model currently believes.
    """
    return (capacity * headroom, max(1.0, capacity),
            max(1.0, math.ceil(capacity * max(1.0, slo_p95 - 2.0))))


def make_serve_goal(*, slo_p95: float, max_workers: int,
                    goodput_scale: float,
                    goodput_weight: float = 0.6,
                    latency_weight: float = 0.2,
                    cost_weight: float = 0.2) -> Goal:
    """The serving goal: goodput up, latency and pool cost down, SLO hard.

    The p95 SLO is a :class:`Constraint`, not a weighted objective --
    candidates predicted to violate it are infeasible outright, and when
    *every* candidate violates it the reasoner's least-violation fallback
    pushes toward the largest capacity (violation shrinks with pool
    size), which is exactly the recovery direction.
    """
    return Goal(
        objectives=[
            Objective("goodput", maximise=True, lo=0.0, hi=goodput_scale),
            Objective("latency", maximise=False, lo=0.0, hi=4.0 * slo_p95),
            Objective("pool", maximise=False, lo=0.0, hi=float(max_workers)),
        ],
        weights={"goodput": goodput_weight, "latency": latency_weight,
                 "pool": cost_weight},
        constraints=[Constraint("latency", "max", slo_p95)],
        name="serve")


class ServeSelfModel(PredictiveModel):
    """Learned capacity model of the serving system itself.

    Holds two online estimates -- the offered arrival rate and the
    per-worker service rate -- and predicts, for a candidate pool size
    ``n``, the goodput and p95 latency the system would realise.  The
    latency prediction is the M/M/1-flavoured sojourn time
    ``(1 / service_rate) / (1 - rho)`` (clipped), with amortised backlog
    drain folded into the offered work.  Scaling the blow-up by the
    learned mean service time keeps the prediction in whatever unit the
    telemetry and ``slo_p95`` use -- ticks in the discrete simulation,
    seconds on the live server -- so the SLO constraint stays feasible
    and prediction error stays meaningful in both.  It is deliberately
    coarse -- what matters is that it is *monotone and learned*, so the
    reasoner's choices track reality as the estimates converge.

    Confidence is earned, not assumed: it grows with observation count
    and is discounted by the model's recent relative prediction error.
    Under telemetry corruption (sensor-noise faults) predictions diverge
    from realised outcomes, confidence collapses, and the
    :class:`~repro.faults.degrade.DegradationMonitor` trips -- the
    meta-level noticing that the self-model has gone stale.
    """

    def __init__(self, *, service_rate_guess: float, slo_p95: float,
                 drain_horizon: float = 4.0, ewma: float = 0.25,
                 warmup_observations: int = 8) -> None:
        if service_rate_guess <= 0:
            raise ValueError("service_rate_guess must be positive")
        self._service_guess = service_rate_guess
        self._slo = slo_p95
        self._horizon = drain_horizon
        self._ewma = ewma
        self._warmup = max(1, warmup_observations)
        self.reset()

    def reset(self) -> None:
        self.arrival_estimate: Optional[float] = None
        self.service_estimate = self._service_guess
        self._observations = 0
        self._error_ewma = 0.0
        self._last_prediction: Optional[Dict[str, float]] = None

    # -- online learning ---------------------------------------------------

    def observe(self, *, arrival_rate: float, utilisation: float,
                completion_rate: float, pool_size: float) -> None:
        """Fold one tick of telemetry into the estimates.

        The per-worker service rate is only learnable from *saturated*
        ticks (idle workers reveal nothing about their ceiling) -- the
        same principle the cloud scaler's capacity self-model uses.
        """
        self._observations += 1
        if math.isfinite(arrival_rate) and arrival_rate >= 0.0:
            if self.arrival_estimate is None:
                self.arrival_estimate = arrival_rate
            else:
                self.arrival_estimate += self._ewma * (
                    arrival_rate - self.arrival_estimate)
        if (pool_size >= 1.0 and utilisation >= 0.95
                and math.isfinite(completion_rate) and completion_rate > 0.0):
            observed = completion_rate / pool_size
            self.service_estimate += self._ewma * (
                observed - self.service_estimate)

    # -- PredictiveModel ---------------------------------------------------

    def predict(self, context: Mapping[str, float],
                action: Hashable) -> Dict[str, float]:
        n = max(1, int(action))
        arrival = context.get("arrival_rate",
                              self.arrival_estimate
                              if self.arrival_estimate is not None else 0.0)
        queue = max(0.0, context.get("queue_depth", 0.0))
        capacity = n * max(1e-9, self.service_estimate)
        # Offered work per tick: fresh arrivals plus the backlog amortised
        # over the drain horizon.
        offered = max(0.0, arrival) + queue / self._horizon
        rho = offered / capacity
        # Mean service time carries the unit (ticks or seconds): the
        # sojourn prediction must be commensurable with the measured
        # p95 and the SLO, or the constraint can never be satisfied.
        service_time = 1.0 / max(1e-9, self.service_estimate)
        if rho < 1.0:
            latency = min(4.0 * self._slo,
                          service_time / max(1e-9, 1.0 - rho))
        else:
            latency = 4.0 * self._slo
        goodput = min(offered, capacity)
        prediction = {"goodput": goodput, "latency": latency,
                      "pool": float(n)}
        self._last_prediction = prediction
        return prediction

    def update(self, context: Mapping[str, float], action: Hashable,
               outcome: Mapping[str, float]) -> None:
        """Track realised-vs-predicted error (the confidence signal)."""
        predicted = self.predict(context, action)
        error = 0.0
        terms = 0
        for key, scale in (("goodput", max(1.0, predicted["goodput"])),
                           ("latency", self._slo)):
            actual = outcome.get(key)
            if actual is None or not math.isfinite(actual):
                continue
            error += abs(actual - predicted[key]) / scale
            terms += 1
        if terms:
            self._error_ewma += self._ewma * (error / terms - self._error_ewma)

    def confidence(self, context: Mapping[str, float],
                   action: Hashable) -> float:
        maturity = min(1.0, self._observations / self._warmup)
        accuracy = 1.0 / (1.0 + 2.0 * self._error_ewma)
        return maturity * accuracy


@dataclasses.dataclass(frozen=True)
class GovernorDecision:
    """One act of self-expression: the settings the serving layer should adopt."""

    pool_target: int
    admission_rate: float
    admission_burst: float
    max_queue: float
    degraded: bool
    reason: str


class ServeGovernor:
    """Self-aware controller for pool size and admission settings.

    Call :meth:`tick` periodically with fresh telemetry (the
    :data:`STAT_KEYS` readings); it closes the previous decision's
    feedback loop, deliberates, passes the choice through the
    degradation monitor and returns a :class:`GovernorDecision`.
    """

    def __init__(self, *, slo_p95: float = 8.0, min_workers: int = 1,
                 max_workers: int = 16, service_rate_guess: float = 4.0,
                 admit_headroom: float = 1.25,
                 degraded_admission: float = 0.5,
                 epsilon: float = 0.02, seed: int = 0) -> None:
        if not 1 <= min_workers <= max_workers:
            raise ValueError("need 1 <= min_workers <= max_workers")
        if admit_headroom < 1.0:
            raise ValueError("admit_headroom must be >= 1")
        if not 0.0 < degraded_admission <= 1.0:
            raise ValueError("degraded_admission must be in (0, 1]")
        self.slo_p95 = slo_p95
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.admit_headroom = admit_headroom
        self.degraded_admission = degraded_admission
        self._stats: Dict[str, float] = dict.fromkeys(STAT_KEYS, 0.0)
        self.model = ServeSelfModel(service_rate_guess=service_rate_guess,
                                    slo_p95=slo_p95)
        self.goal = make_serve_goal(
            slo_p95=slo_p95, max_workers=max_workers,
            goodput_scale=max_workers * service_rate_guess)
        rng = np.random.default_rng(seed)
        self.node = SelfAwareNode(
            name="serve.governor",
            profile=CapabilityProfile.of(SelfAwarenessLevel.STIMULUS,
                                         SelfAwarenessLevel.TIME,
                                         SelfAwarenessLevel.GOAL),
            sensors=SensorSuite([
                Sensor(private(key), read_fn=self._reader(key))
                for key in STAT_KEYS]),
            reasoner=UtilityReasoner(goal=self.goal, model=self.model,
                                     epsilon=epsilon,
                                     confidence_floor=0.25, rng=rng))
        self.monitor = DegradationMonitor(HOLD_LAST_GOOD, threshold=0.30,
                                          recover_threshold=0.45, window=3)
        self._actions = tuple(range(min_workers, max_workers + 1))
        self._pool = min_workers
        self._decided_once = False
        #: Seq of the most recent ``serve.scale`` event -- the handle the
        #: server's ``explain`` op resolves into a causal chain.
        self.last_decision_seq: Optional[int] = None

    def _reader(self, key: str):
        return lambda: self._stats[key]

    @property
    def pool_target(self) -> int:
        return self._pool

    @property
    def degraded(self) -> bool:
        return self.monitor.degraded

    def admission_for(self, pool: int,
                      degraded: bool) -> Tuple[float, float, float]:
        """Admission settings for ``pool`` workers at the learned service
        rate; while ``degraded`` the rate is cut by ``degraded_admission``."""
        rate, burst, max_queue = admission_settings(
            pool * self.model.service_estimate,
            headroom=self.admit_headroom, slo_p95=self.slo_p95)
        if degraded:
            rate *= self.degraded_admission
        return max(1e-6, rate), burst, max_queue

    # ------------------------------------------------------------------

    def tick(self, now: float, stats: Mapping[str, float]) -> GovernorDecision:
        """One governance cycle over fresh telemetry."""
        for key in STAT_KEYS:
            value = float(stats.get(key, 0.0))
            self._stats[key] = value if math.isfinite(value) else 0.0

        # The telemetry window this cycle deliberates over is itself an
        # event; everything decided inside the scope below -- the node's
        # step, any degradation transition, the scale decision -- is
        # causally downstream of it (see repro.explain).
        telemetry_event = None
        if obs_events.enabled():
            telemetry_event = obs_events.emit(
                "serve.telemetry", time=now,
                **{key: self._stats[key] for key in STAT_KEYS})
        with obs_events.causal_scope(telemetry_event):
            # 1. Close the loop on the previous decision: what actually
            #    happened.
            if self._decided_once:
                self.node.feedback({
                    "goodput": self._stats["completion_rate"],
                    "latency": self._stats["p95_latency"],
                    "pool": float(self._pool)})

            # 2. Refresh the self-model's online estimates.
            self.model.observe(
                arrival_rate=self._stats["arrival_rate"],
                utilisation=self._stats["utilisation"],
                completion_rate=self._stats["completion_rate"],
                pool_size=self._stats["pool_size"])

            # 3. Deliberate, then let the meta level veto a low-confidence
            #    choice.
            result = self.node.step(now, self._actions)
            self._decided_once = True
            predict_event = None
            if obs_events.enabled():
                chosen = result.decision.action
                predicted = self.model.predict(result.context, chosen)
                predict_event = obs_events.emit(
                    "serve.predict", time=now, pool=int(chosen),
                    goodput=predicted["goodput"],
                    latency=predicted["latency"],
                    confidence=self.model.confidence(result.context, chosen))
            applied = self.monitor.filter_action(
                now, self.node, result.context, result.decision.action)
            pool = int(applied)
            resized = pool != self._pool
            self._pool = pool

            # 4. Express: derive admission settings from the chosen
            #    capacity.
            degraded = self.monitor.degraded
            rate, burst, max_queue = self.admission_for(pool, degraded)
            decision = GovernorDecision(
                pool_target=pool,
                admission_rate=rate,
                admission_burst=burst,
                max_queue=max_queue,
                degraded=degraded,
                reason=result.decision.reason,
            )
            if obs_events.enabled():
                obs_metrics.gauge("serve.pool_target").set(float(pool))
                if resized:
                    obs_metrics.counter("serve.scale").increment()
                # The decision cites its evidence: the model's prediction
                # and (via the scope) the telemetry window, plus the open
                # degradation episode when the monitor shaped the choice.
                scale_event = obs_events.emit(
                    "serve.scale", time=now, pool=pool,
                    resized=resized, degraded=degraded,
                    admission_rate=decision.admission_rate,
                    max_queue=decision.max_queue,
                    confidence=self.monitor.last_confidence,
                    causes=(predict_event, self.monitor.cause_seq))
                if scale_event is not None:
                    self.last_decision_seq = scale_event.seq
        return decision

    def explain(self) -> str:
        """Why the governor just did what it did (self-explanation)."""
        base = self.node.explain()
        state = ("degraded: holding last good pool size and shedding harder"
                 if self.degraded else "healthy")
        return (f"{base} Governor state: {state}; pool target {self._pool}; "
                f"learned service rate "
                f"{self.model.service_estimate:.2f} req/worker per unit time.")

    def self_view(self, now: float, node_id: str, *,
                  sessions: int = 0) -> NodeSelfView:
        """This governor's learned self-model, packaged for gossip.

        Every number is learned or sensed -- the arrival and service
        rates are the :class:`ServeSelfModel` online estimates, the
        confidence is its earned prediction accuracy -- so what peers
        receive is genuinely this node's *model of itself*.
        """
        arrival = (self.model.arrival_estimate
                   if self.model.arrival_estimate is not None
                   else self._stats["arrival_rate"])
        return NodeSelfView(
            node=node_id, time=now,
            arrival_rate=float(max(0.0, arrival)),
            service_rate=float(self.model.service_estimate),
            pool=int(self._pool),
            queue_depth=float(self._stats["queue_depth"]),
            utilisation=float(self._stats["utilisation"]),
            confidence=float(self.model.confidence(self._stats, self._pool)),
            degraded=bool(self.degraded),
            sessions=int(sessions))


class StaticGovernor:
    """Design-time baseline: fixed pool, fixed admission, never degrades.

    The E14 comparison arm.  It still *returns* decisions so the serving
    machinery is identical across arms; the decisions just never change.
    """

    def __init__(self, *, pool_size: int, service_rate_guess: float = 4.0,
                 admit_headroom: float = 1.25,
                 slo_p95: float = 8.0) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        rate, burst, max_queue = admission_settings(
            pool_size * service_rate_guess, headroom=admit_headroom,
            slo_p95=slo_p95)
        self._decision = GovernorDecision(
            pool_target=pool_size, admission_rate=rate,
            admission_burst=burst, max_queue=max_queue,
            degraded=False,
            reason="static design-time configuration")
        self._pool = pool_size

    @property
    def pool_target(self) -> int:
        return self._pool

    @property
    def degraded(self) -> bool:
        return False

    def tick(self, now: float, stats: Mapping[str, float]) -> GovernorDecision:
        return self._decision

    def explain(self) -> str:
        return (f"Static governor: pool fixed at {self._pool} at design "
                f"time; telemetry is never consulted.")


class CollectiveGovernor(ServeGovernor):
    """A per-node governor made collectively self-aware through gossip.

    Extends a :class:`ServeGovernor` choosing up to ``worker_budget``
    workers (the node's learned self-model and deliberation stay
    untouched) and closes the paper's collective level over it:

    * after every base tick, the node's *learned* self-view is
      published to the cluster's :class:`~repro.serve.gossip.GossipBoard`;
    * the cluster-wide worker budget is split by gossiped load share
      (:func:`~repro.serve.gossip.budget_shares` -- every node computes
      the same split from the same board, no coordinator), and this
      node's pool choice is clamped to its share;
    * admission rate, burst and queue bound are re-derived from the
      clamped capacity, so admission thresholds follow the collective
      decision too;
    * **fallback**: when gossip is stale (fewer than two fresh views on
      the board), the node caps itself at ``fallback_share`` -- the
      fair static split -- i.e. exactly the per-node behaviour.  Gossip
      sharpens decisions; it is never a correctness dependency.
    """

    def __init__(self, *, node_id: str, board: GossipBoard,
                 worker_budget: int, fallback_share: int,
                 sessions_fn: Optional[Callable[[], int]] = None,
                 **governor: Any) -> None:
        super().__init__(max_workers=worker_budget, **governor)
        if not self.min_workers <= fallback_share <= worker_budget:
            raise ValueError(
                "need 1 <= min_workers <= fallback_share <= worker_budget")
        self.node_id = node_id
        self.board = board
        self.worker_budget = worker_budget
        self.fallback_share = fallback_share
        self._sessions_fn = sessions_fn
        #: Whether the last tick ran on fresh gossip (False = fallback).
        self.collective = False
        #: This node's last budget share.
        self.share = fallback_share

    def tick(self, now: float, stats: Mapping[str, float]) -> GovernorDecision:
        decision = super().tick(now, stats)
        sessions = self._sessions_fn() if self._sessions_fn is not None else 0
        self.board.publish(self.self_view(now, self.node_id,
                                          sessions=sessions))
        views = self.board.fresh(now)
        if len(views) >= 2 and self.node_id in views:
            shares = budget_shares(views, budget=self.worker_budget,
                                   min_workers=self.min_workers)
            share = shares[self.node_id]
            self.collective = True
        else:
            share = self.fallback_share
            self.collective = False
        self.share = share
        pool = max(self.min_workers, min(decision.pool_target, share))
        rate, burst, max_queue = self.admission_for(pool, decision.degraded)
        clamped = dataclasses.replace(
            decision, pool_target=pool, admission_rate=rate,
            admission_burst=burst, max_queue=max_queue,
            reason=(f"{decision.reason}; collective budget share {share}"
                    f"/{self.worker_budget}"
                    if self.collective else
                    f"{decision.reason}; gossip stale, per-node fallback "
                    f"cap {share}"))
        self._pool = pool  # the clamp is the pool the node realises
        if obs_events.enabled():
            obs_events.emit("cluster.share", time=now, node=self.node_id,
                            share=share, pool=pool,
                            collective=self.collective,
                            budget=self.worker_budget)
        return clamped

    def explain(self) -> str:
        mode = (f"collective: budget share {self.share}/{self.worker_budget} "
                f"from {len(self.board)} gossiped self-models"
                if self.collective else
                f"fallback: gossip stale, per-node cap {self.fallback_share}")
        return f"{super().explain()} Cluster state: {mode}."


def make_governor(arm: str, arms: Tuple[str, ...], *, pool_size: int,
                  max_workers: int, min_workers: int, slo_p95: float,
                  service_rate_guess: float, seed: int,
                  worker_budget: int = 0,
                  board: Optional[GossipBoard] = None, node_id: str = "",
                  sessions_fn: Optional[Callable[[], int]] = None,
                  **tuning: float) -> Optional[Any]:
    """The governor arm named ``arm``, one of the caller's ``arms``.

    ``"static"`` fixes ``pool_size`` workers; ``"self_aware"`` and
    ``"per_node"`` choose up to ``max_workers``; ``"collective"`` chooses
    within its gossiped share of ``worker_budget`` (``max_workers`` while
    gossip is stale); ``"none"`` is no governor.  ``tuning``
    (``admit_headroom``, ``epsilon``) is forwarded only when given.
    """
    if arm not in arms:
        raise ValueError(
            f"unknown governor {arm!r}; known: {', '.join(arms)}")
    if arm == "none":
        return None
    if arm == "static":
        tuning.pop("epsilon", None)  # a fixed pool never explores
        return StaticGovernor(pool_size=pool_size,
                              service_rate_guess=service_rate_guess,
                              slo_p95=slo_p95, **tuning)
    tuning.update(slo_p95=slo_p95, min_workers=min_workers,
                  service_rate_guess=service_rate_guess, seed=seed)
    if arm == "collective":
        return CollectiveGovernor(node_id=node_id, board=board,
                                  worker_budget=worker_budget,
                                  fallback_share=max_workers,
                                  sessions_fn=sessions_fn, **tuning)
    return ServeGovernor(max_workers=max_workers, **tuning)
