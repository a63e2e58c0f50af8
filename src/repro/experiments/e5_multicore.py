"""E5 -- run-time mapping on heterogeneous multi-cores (on-the-fly computing).

Paper Section III (Agarwal [16]) and Section V (Platzner [8], Agne [47]):
moving mapping and configuration decisions to run time beats fixing them
at design time.  Governors of increasing awareness manage a big.LITTLE
platform with a thermal envelope under a phase-changing workload; a
second table re-weights the goal toward energy mid-run.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from ..multicore.governor import (Governor, OndemandGovernor,
                                  SelfAwareGovernor, StaticGovernor,
                                  make_multicore_goal)
from ..api import MulticoreConfig, MulticoreSimulator
from .harness import ExperimentTable

TEMP_CAP = 82.0


def governor_factories(goal) -> Dict[str, Callable[[], Governor]]:
    """The contenders."""
    return {
        "static-max": lambda: StaticGovernor(1.0, 1.0),
        "static-mid": lambda: StaticGovernor(0.75, 0.75),
        "ondemand": lambda: OndemandGovernor(),
        "self-aware": lambda: SelfAwareGovernor(
            goal, rng=np.random.default_rng(0)),
    }


def run_shard(seed: int, steps: int = 1000) -> Dict[str, List[float]]:
    """One seed's worth of E5: six metric values per governor."""
    payload: Dict[str, List[float]] = {}
    eval_goal = make_multicore_goal()
    for name in governor_factories(eval_goal):
        goal = make_multicore_goal()
        governor = governor_factories(goal)[name]()
        result = MulticoreSimulator(MulticoreConfig(steps=steps, seed=seed),
                                    governor=governor).run()
        payload[name] = [result.mean_utility(eval_goal),
                         result.mean_throughput(), result.mean_energy(),
                         result.mean_queue(),
                         result.thermal_violation_rate(TEMP_CAP),
                         result.throttle_fraction()]
    return payload


def reduce(shards: Sequence[Dict[str, List[float]]],
           seeds: Sequence[int] = (), steps: int = 1000) -> ExperimentTable:
    """Seed-average per-seed payloads into the E5 table."""
    table = ExperimentTable(
        experiment_id="E5",
        title="Heterogeneous multi-core management: run-time vs design-time",
        columns=["governor", "utility", "throughput", "energy", "queue",
                 "thermal_violation_rate", "throttle_fraction"],
        notes=(f"thermal constraint max_temp <= {TEMP_CAP}C; utility is the "
               "throughput/energy/latency goal; violations reported "
               "separately (a high-utility, high-violation policy is not "
               "managing the trade-off)"))
    for name in (list(shards[0]) if shards else []):
        means = np.mean([shard[name] for shard in shards], axis=0)
        table.add_row(governor=name, utility=float(means[0]),
                      throughput=float(means[1]), energy=float(means[2]),
                      queue=float(means[3]),
                      thermal_violation_rate=float(means[4]),
                      throttle_fraction=float(means[5]))
    return table


def run(seeds: Sequence[int] = (0, 1, 2), steps: int = 1000) -> ExperimentTable:
    """One row per governor, seed-averaged."""
    return reduce([run_shard(seed, steps=steps) for seed in seeds],
                  seeds=seeds, steps=steps)


def run_goal_change_shard(seed: int, steps: int = 800) -> Dict[str, List[float]]:
    """One seed's worth of E5b: [energy_before, energy_after] per governor."""
    payload: Dict[str, List[float]] = {}
    half = steps // 2
    for name in ("static-max", "ondemand", "self-aware"):
        goal = make_multicore_goal()
        governor = governor_factories(goal)[name]()

        def on_step(t, goal=goal):
            if int(t) == half:
                goal.set_weights({"throughput": 0.15, "energy": 0.7,
                                  "queue": 0.15})

        result = MulticoreSimulator(MulticoreConfig(steps=steps, seed=seed),
                                    governor=governor,
                                    on_step=on_step).run()
        energies = [m.energy for m in result.history]
        payload[name] = [float(np.mean(energies[:half])),
                         float(np.mean(energies[half:]))]
    return payload


def reduce_goal_change(shards: Sequence[Dict[str, List[float]]],
                       seeds: Sequence[int] = (),
                       steps: int = 800) -> ExperimentTable:
    """Seed-average per-seed payloads into the E5b table."""
    table = ExperimentTable(
        experiment_id="E5b",
        title="Multi-core governor response to a run-time goal change",
        columns=["governor", "energy_before", "energy_after",
                 "energy_reduction"],
        notes="at t=steps/2 the goal shifts to 0.15 throughput / 0.7 "
              "energy / 0.15 queue; only the goal-reading governor follows")
    for name in ("static-max", "ondemand", "self-aware"):
        energy_before = float(np.mean([shard[name][0] for shard in shards]))
        energy_after = float(np.mean([shard[name][1] for shard in shards]))
        table.add_row(governor=name, energy_before=energy_before,
                      energy_after=energy_after,
                      energy_reduction=1.0 - energy_after / energy_before)
    return table


def run_goal_change(seeds: Sequence[int] = (0, 1),
                    steps: int = 800) -> ExperimentTable:
    """Second table: stakeholders make energy dominant mid-run."""
    return reduce_goal_change(
        [run_goal_change_shard(seed, steps=steps) for seed in seeds],
        seeds=seeds, steps=steps)


if __name__ == "__main__":  # pragma: no cover
    from .harness import print_tables
    print_tables([run(), run_goal_change()])
