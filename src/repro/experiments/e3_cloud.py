"""E3 -- self-aware autoscaling balances QoS and cost under change.

Paper Section V cites self-aware autoscaling of cloud configurations
[58] and self-expressive datacenter management [56].  The experiment
drives an elastic cluster with a seasonal + shocked workload and
compares static (under/over-provisioned), reactive (threshold), the
self-aware scaler (forecasting + learned capacity + live goal) and the
demand oracle.  A second table re-weights the goal mid-run toward cost,
which only the goal-reading scaler can follow.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Sequence

import numpy as np

from ..api import CloudConfig, CloudSimulator
from ..cloud.autoscaler import (Autoscaler, OracleScaler, ReactiveScaler,
                                SelfAwareScaler, StaticScaler,
                                make_cloud_goal)
from ..cloud.cluster import ClusterMetrics
from ..envgen.processes import Shock, ShockSchedule
from ..envgen.workloads import RequestRateWorkload
from .harness import ExperimentTable

CLUSTER = dict(capacity_per_server=10.0, boot_delay=5, max_servers=40,
               initial_servers=4)


def cloud_simulator(steps: int, scaler: Autoscaler,
                    demand: Callable[[float], float]) -> CloudSimulator:
    """The E3 cluster (:data:`CLUSTER`) under ``scaler`` and ``demand``."""
    return CloudSimulator(CloudConfig(steps=steps, **CLUSTER),
                          scaler=scaler, demand_fn=demand)


def make_demand(seed: int, steps: int) -> Callable[[float], float]:
    """Seasonal demand with one flash-crowd shock at 55% of the run."""
    workload = RequestRateWorkload(
        base_rate=60.0, seasonal_amplitude=0.5, period=200.0,
        shocks=ShockSchedule([Shock(start=0.55 * steps, duration=60.0,
                                    magnitude=1.2)]),
        noise_std=0.05, rng=np.random.default_rng(seed))
    return workload.rate


def _score(history: List[ClusterMetrics], goal) -> Dict[str, float]:
    utilities = [goal.utility(m.as_dict()) for m in history]
    return {
        "utility": float(np.mean(utilities)),
        "qos": float(np.mean([m.qos for m in history])),
        "cost": float(np.mean([m.cost for m in history])),
        "dropped": float(np.sum([m.dropped for m in history])),
    }


def scaler_factories(goal, demand) -> Dict[str, Callable[[], Autoscaler]]:
    """The contenders (oracle needs the true demand function)."""
    return {
        "static-4": lambda: StaticScaler(4),
        "static-15": lambda: StaticScaler(15),
        "reactive": lambda: ReactiveScaler(),
        "self-aware": lambda: SelfAwareScaler(
            goal, boot_delay=CLUSTER["boot_delay"],
            max_servers=CLUSTER["max_servers"]),
        "oracle": lambda: OracleScaler(
            demand, CLUSTER["capacity_per_server"], CLUSTER["boot_delay"],
            goal, max_servers=CLUSTER["max_servers"]),
    }


def run_shard(seed: int, steps: int = 600) -> Dict[str, Dict[str, float]]:
    """One seed's worth of E3: every scaler's score dict, JSON-safe."""
    payload: Dict[str, Dict[str, float]] = {}
    demand = make_demand(seed, steps)
    goal = make_cloud_goal()
    for name, factory in scaler_factories(goal, demand).items():
        history = cloud_simulator(steps, factory(), demand).run()
        payload[name] = _score(history, goal)
    return payload


def reduce(shards: Sequence[Dict[str, Dict[str, float]]],
           seeds: Sequence[int] = (), steps: int = 600) -> ExperimentTable:
    """Seed-average per-seed payloads into the E3 table."""
    table = ExperimentTable(
        experiment_id="E3",
        title="Cloud autoscaling: QoS/cost trade-off under workload change",
        columns=["scaler", "utility", "qos", "mean_servers", "dropped",
                 "vs_oracle"],
        notes=("seasonal demand + flash crowd; goal 0.7 qos / 0.3 cost; "
               "'oracle' = perfect demand foresight through the same "
               "sizing procedure, i.e. what better information (not a "
               "better controller) buys -- slight over-provisioning can "
               "legitimately score above it under demand noise"))
    names = list(shards[0]) if shards else []
    oracle_mean = float(np.mean([shard["oracle"]["utility"]
                                 for shard in shards]))
    for name in names:
        scores = [shard[name] for shard in shards]
        utility = float(np.mean([s["utility"] for s in scores]))
        table.add_row(
            scaler=name, utility=utility,
            qos=float(np.mean([s["qos"] for s in scores])),
            mean_servers=float(np.mean([s["cost"] for s in scores])),
            dropped=float(np.mean([s["dropped"] for s in scores])),
            vs_oracle=utility / oracle_mean if oracle_mean else math.nan)
    return table


def run(seeds: Sequence[int] = (0, 1, 2), steps: int = 600) -> ExperimentTable:
    """Main comparison table (stationary goal)."""
    return reduce([run_shard(seed, steps=steps) for seed in seeds],
                  seeds=seeds, steps=steps)


def run_goal_change_shard(seed: int, steps: int = 600) -> Dict[str, List[float]]:
    """One seed's worth of E3b: [before, after, cost_after] per scaler."""
    payload: Dict[str, List[float]] = {}
    half = steps // 2
    for name in ("static-15", "reactive", "self-aware"):
        demand = make_demand(seed, steps)
        goal = make_cloud_goal()
        factory = scaler_factories(goal, demand)[name]
        sim = cloud_simulator(steps, factory(), demand)
        for t in range(steps):
            if t == half:
                goal.set_weights({"qos": 0.3, "cost": 0.7})
            sim.step()
        history = sim.result()
        eval_goal_early = make_cloud_goal()
        eval_goal_late = make_cloud_goal(qos_weight=0.3, cost_weight=0.7)
        payload[name] = [
            float(np.mean(
                [eval_goal_early.utility(m.as_dict()) for m in history[:half]])),
            float(np.mean(
                [eval_goal_late.utility(m.as_dict()) for m in history[half:]])),
            float(np.mean([m.cost for m in history[half:]])),
        ]
    return payload


def reduce_goal_change(shards: Sequence[Dict[str, List[float]]],
                       seeds: Sequence[int] = (),
                       steps: int = 600) -> ExperimentTable:
    """Seed-average per-seed payloads into the E3b table."""
    table = ExperimentTable(
        experiment_id="E3b",
        title="Cloud autoscaling under a run-time goal change (qos->cost)",
        columns=["scaler", "utility_before", "utility_after", "cost_after"],
        notes="at t=steps/2 the goal becomes 0.3 qos / 0.7 cost; utilities "
              "scored against the live goal")
    for name in ("static-15", "reactive", "self-aware"):
        values = [shard[name] for shard in shards]
        table.add_row(scaler=name,
                      utility_before=float(np.mean([v[0] for v in values])),
                      utility_after=float(np.mean([v[1] for v in values])),
                      cost_after=float(np.mean([v[2] for v in values])))
    return table


def run_goal_change(seeds: Sequence[int] = (0, 1, 2),
                    steps: int = 600) -> ExperimentTable:
    """Second table: stakeholders re-weight the goal toward cost mid-run."""
    return reduce_goal_change(
        [run_goal_change_shard(seed, steps=steps) for seed in seeds],
        seeds=seeds, steps=steps)


if __name__ == "__main__":  # pragma: no cover
    from .harness import print_tables
    print_tables([run(), run_goal_change()])
