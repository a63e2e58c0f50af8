"""Autoscalers: design-time, reactive and self-aware cluster controllers.

The cloud case study (paper refs [56], [58]) asks a controller to balance
quality of service against provisioning cost as the workload changes.
Four controllers of increasing awareness:

- :class:`StaticScaler` -- a fixed size chosen at design time;
- :class:`ReactiveScaler` -- threshold rules on current utilisation
  (stimulus-awareness only; the way production rule-based autoscalers
  work);
- :class:`SelfAwareScaler` -- time-aware (forecasts demand over the boot
  horizon), goal-aware (reads a live, reweightable QoS/cost goal) and
  self-model-based (learns its own per-server capacity from telemetry
  rather than trusting a spec sheet);
- :class:`OracleScaler` -- knows future demand exactly (upper bound).

All share ``decide(time, metrics) -> target servers``.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import replace
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:
    from ..faults.injector import FaultInjector

from ..core.goals import Goal, Objective
from ..learning.forecast import Forecaster, HoltForecaster
from .cluster import ClusterMetrics


def make_cloud_goal(qos_weight: float = 0.7, cost_weight: float = 0.3,
                    max_servers: int = 40) -> Goal:
    """The standard QoS-vs-cost goal used across the cloud experiments."""
    return Goal(
        objectives=[
            Objective("qos", maximise=True, lo=0.0, hi=1.0),
            Objective("cost", maximise=False, lo=0.0, hi=float(max_servers)),
        ],
        weights={"qos": qos_weight, "cost": cost_weight},
        name="cloud")


class Autoscaler(ABC):
    """Chooses a provisioning target each step from cluster telemetry."""

    @abstractmethod
    def decide(self, time: float, metrics: Optional[ClusterMetrics]) -> int:
        """Target number of provisioned servers for the next step."""


class StaticScaler(Autoscaler):
    """Design-time baseline: a fixed cluster size."""

    def __init__(self, n_servers: int) -> None:
        if n_servers < 1:
            raise ValueError("n_servers must be at least 1")
        self.n_servers = n_servers

    def decide(self, time: float, metrics: Optional[ClusterMetrics]) -> int:
        return self.n_servers


class ReactiveScaler(Autoscaler):
    """Rule-based scaler: react to the current utilisation.

    Scale out by ``step`` when utilisation exceeds ``high``; scale in when
    below ``low``; honour a cooldown between actions.  This is the
    threshold pattern of production autoscalers -- stimulus-aware but
    blind to history, futures and the goal structure.
    """

    def __init__(self, high: float = 0.85, low: float = 0.4, step: int = 2,
                 cooldown: int = 3, initial: int = 4) -> None:
        if not 0.0 <= low < high <= 1.0:
            raise ValueError("need 0 <= low < high <= 1")
        if step < 1 or cooldown < 0:
            raise ValueError("invalid step/cooldown")
        self.high = high
        self.low = low
        self.step = step
        self.cooldown = cooldown
        self._target = initial
        self._since_action = cooldown

    def decide(self, time: float, metrics: Optional[ClusterMetrics]) -> int:
        self._since_action += 1
        if metrics is None or self._since_action < self.cooldown:
            return self._target
        if metrics.utilisation > self.high or metrics.backlog > 0:
            self._target = self._target + self.step
            self._since_action = 0
        elif metrics.utilisation < self.low:
            self._target = max(1, self._target - self.step)
            self._since_action = 0
        return self._target


class SelfAwareScaler(Autoscaler):
    """Model-based, forecast-driven, goal-reading autoscaler.

    Each step it:

    1. updates a demand forecaster (time-awareness) and an online estimate
       of the *actual* per-server capacity (a learned self-model -- the
       spec sheet may be wrong, and the experiments exercise that);
    2. forecasts demand ``boot_delay + 1`` steps ahead (capacity ordered
       now arrives then);
    3. evaluates each candidate size against the **live** goal: predicted
       QoS is ``min(1, n * capacity / (forecast + backlog))``, predicted
       cost is ``n``; picks the utility-maximising size (goal-awareness:
       re-weighting the goal at run time immediately shifts the choice).

    Parameters
    ----------
    goal:
        Live QoS/cost goal (see :func:`make_cloud_goal`).
    boot_delay:
        The cluster's boot latency; sets the forecast horizon.
    forecaster:
        Demand forecaster; default Holt (level + trend).
    max_servers:
        Upper bound of the candidate range.
    capacity_guess:
        Initial per-server capacity belief before telemetry arrives.
    headroom:
        Multiplier applied to forecast demand (guard against forecast
        error); 1.0 disables it.
    horizon:
        Steps over which the QoS of a candidate size is projected.  A
        one-step view is myopic about backlog: once a queue has built,
        every single server looks useless against it ("cap / huge load"),
        and a cost-weighted goal then drives the scaler into a
        death-spiral at minimum size.  Projecting offered work and
        capacity over a drain horizon prices backlog recovery correctly.
    """

    def __init__(
        self,
        goal: Goal,
        boot_delay: int = 5,
        forecaster: Optional[Forecaster] = None,
        max_servers: int = 40,
        capacity_guess: float = 10.0,
        headroom: float = 1.1,
        horizon: int = 10,
    ) -> None:
        if capacity_guess <= 0:
            raise ValueError("capacity_guess must be positive")
        if headroom < 1.0:
            raise ValueError("headroom must be >= 1")
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        self.goal = goal
        self.boot_delay = boot_delay
        self.forecaster = forecaster if forecaster is not None else HoltForecaster()
        self.max_servers = max_servers
        self.capacity_estimate = capacity_guess
        self.headroom = headroom
        self.horizon = horizon
        self._capacity_samples = 0

    def _learn_capacity(self, metrics: ClusterMetrics) -> None:
        """Refine the per-server capacity self-model from saturated steps.

        Only steps where the cluster ran saturated reveal true capacity
        (unsaturated steps only lower-bound it).
        """
        if metrics.n_active <= 0 or metrics.utilisation < 0.999:
            return
        observed = metrics.served / metrics.n_active
        self._capacity_samples += 1
        step = 1.0 / min(self._capacity_samples, 20)
        self.capacity_estimate += step * (observed - self.capacity_estimate)

    def decide(self, time: float, metrics: Optional[ClusterMetrics]) -> int:
        backlog = 0.0
        if metrics is not None:
            self.forecaster.update(metrics.demand)
            self._learn_capacity(metrics)
            backlog = metrics.backlog
        forecast = self.forecaster.forecast(self.boot_delay + 1)
        if math.isnan(forecast):
            forecast = metrics.demand if metrics is not None else 0.0
        per_step = max(0.0, forecast) * self.headroom
        offered = backlog + self.horizon * per_step

        best_n, best_utility = 1, -math.inf
        for n in range(1, self.max_servers + 1):
            capacity = self.horizon * n * self.capacity_estimate
            qos = 1.0 if offered <= 0 else min(1.0, capacity / offered)
            utility = self.goal.utility({"qos": qos, "cost": float(n)})
            if utility > best_utility + 1e-12:
                best_n, best_utility = n, utility
        return best_n


class OracleScaler(Autoscaler):
    """Upper bound: sizes for the *true* demand ``boot_delay+1`` ahead.

    Requires the experiment to expose the demand function; measures how
    much of the oracle gap the self-aware scaler closes.
    """

    def __init__(self, demand_fn: Callable[[float], float],
                 capacity_per_server: float, boot_delay: int,
                 goal: Goal, max_servers: int = 40, horizon: int = 10) -> None:
        self.demand_fn = demand_fn
        self.capacity = capacity_per_server
        self.boot_delay = boot_delay
        self.goal = goal
        self.max_servers = max_servers
        self.horizon = horizon

    def decide(self, time: float, metrics: Optional[ClusterMetrics]) -> int:
        # Integrate the true demand over the whole decision horizon
        # (capacity ordered now arrives after the boot delay and serves
        # the following steps), and size for the worst step within it so
        # transient peaks do not sink QoS.
        start = time + self.boot_delay + 1
        samples = [max(0.0, self.demand_fn(start + k))
                   for k in range(self.horizon)]
        backlog = metrics.backlog if metrics is not None else 0.0
        offered = backlog + sum(samples)
        peak = max(samples) if samples else 0.0
        best_n, best_utility = 1, -math.inf
        for n in range(1, self.max_servers + 1):
            capacity = self.horizon * n * self.capacity
            mean_qos = 1.0 if offered <= 0 else min(1.0, capacity / offered)
            peak_qos = 1.0 if peak <= 0 else min(1.0, n * self.capacity / peak)
            qos = min(mean_qos, 0.5 + 0.5 * peak_qos)
            utility = self.goal.utility({"qos": qos, "cost": float(n)})
            if utility > best_utility + 1e-12:
                best_n, best_utility = n, utility
        return best_n


def _sensed_metrics(metrics: ClusterMetrics,
                    faults: "FaultInjector") -> Optional[ClusterMetrics]:
    """The telemetry as the scaler perceives it under active faults.

    Sensor dropout loses the whole sample (the scaler sees ``None``,
    exactly as at t=0); sensor noise perturbs the demand and utilisation
    readings.  The true metrics -- what the experiment scores -- are
    untouched.
    """
    if faults.dropped(target="cloud.metrics"):
        return None
    demand = faults.perturb(metrics.demand, target="demand")
    utilisation = faults.perturb(metrics.utilisation, target="utilisation")
    if demand == metrics.demand and utilisation == metrics.utilisation:
        return metrics
    return replace(metrics, demand=max(0.0, demand),
                   utilisation=max(0.0, utilisation))
