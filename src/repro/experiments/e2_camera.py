"""E2 -- smart cameras learn to be different (heterogeneity pays).

Paper Section II: "a system comprising many self-aware entities may lead
to increased heterogeneity, as the different entities learn to be
different from each other" [13], improving the network's trade-off
between tracking utility and communication.

Three scenarios (cheap communication, expensive communication, and a
run-time price change) are each run with every homogeneous design-time
strategy assignment and with self-aware (bandit-learning) cameras.
Reported per controller: efficiency per scenario, efficiency relative to
the per-scenario best homogeneous assignment, and strategy diversity.
The self-aware network should stay near the per-scenario best everywhere
-- without anyone having known at design time which strategy that is --
while developing non-zero strategy diversity.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..api import CameraConfig, CameraSimulator
from ..smartcamera.strategies import ALL_STRATEGIES
from .harness import ExperimentTable

SCENARIOS: Dict[str, Dict] = {
    "cheap_comms": dict(comm_cost_weight=0.003),
    "pricey_comms": dict(comm_cost_weight=0.03),
    # The price rises to 0.03 at half time (breakpoint set in _config).
    "price_change": dict(comm_cost_weight=0.003),
}


def _config(scenario: str, seed: int, steps: int,
            **controller) -> CameraConfig:
    kwargs = dict(SCENARIOS[scenario], **controller)
    if scenario == "price_change":
        kwargs["comm_weight_breaks"] = ((steps / 2.0, 0.03),)
    return CameraConfig(
        rows=3, cols=3, n_objects=8, object_speed=0.035,
        detection_rate=0.08, random_placement=True, steps=steps,
        seed=seed, **kwargs)


def run_shard(seed: int, steps: int = 800) -> Dict[str, Dict[str, List[float]]]:
    """One seed's worth of E2: every scenario x controller, JSON-safe."""
    payload: Dict[str, Dict[str, List[float]]] = {}
    for scenario in SCENARIOS:
        per_scenario: Dict[str, List[float]] = {}
        for strategy in ALL_STRATEGIES:
            result = CameraSimulator(_config(
                scenario, seed, steps, controller="fixed",
                strategy=strategy.name)).run()
            per_scenario[strategy.value] = [
                result.efficiency(), result.mean_tracking_utility(),
                result.mean_messages()]
        result = CameraSimulator(_config(
            scenario, seed, steps, controller="self_aware",
            epsilon=0.05, discount=0.995)).run()
        per_scenario["self-aware"] = [
            result.efficiency(), result.mean_tracking_utility(),
            result.mean_messages(), result.diversity_bits()]
        payload[scenario] = per_scenario
    return payload


def reduce(shards: Sequence[Dict[str, Dict[str, List[float]]]],
           seeds: Sequence[int] = (), steps: int = 800) -> ExperimentTable:
    """Seed-average per-seed payloads into the E2 table."""
    table = ExperimentTable(
        experiment_id="E2",
        title="Learning to be different: camera sociality strategies",
        columns=["controller", "scenario", "efficiency", "vs_best_homog",
                 "tracking", "messages", "diversity_bits"],
        notes=("efficiency = tracking utility - comm price x messages, "
               "at the price in force; vs_best_homog = efficiency / best "
               "homogeneous assignment in that scenario"))
    for scenario in SCENARIOS:
        homogeneous = {
            s.value: [shard[scenario][s.value][0] for shard in shards]
            for s in ALL_STRATEGIES}
        best_value = max(float(np.mean(v)) for v in homogeneous.values())
        for strategy in ALL_STRATEGIES:
            eff = float(np.mean(homogeneous[strategy.value]))
            tracking, messages = np.mean(
                [shard[scenario][strategy.value][1:3] for shard in shards],
                axis=0)
            table.add_row(controller=strategy.value, scenario=scenario,
                          efficiency=eff, vs_best_homog=eff / best_value,
                          tracking=float(tracking), messages=float(messages),
                          diversity_bits=0.0)
        eff = float(np.mean(
            [shard[scenario]["self-aware"][0] for shard in shards]))
        tracking, messages, diversity = np.mean(
            [shard[scenario]["self-aware"][1:4] for shard in shards], axis=0)
        table.add_row(controller="self-aware", scenario=scenario,
                      efficiency=eff, vs_best_homog=eff / best_value,
                      tracking=float(tracking), messages=float(messages),
                      diversity_bits=float(diversity))
    return table


def run(seeds: Sequence[int] = (0, 1, 2), steps: int = 800) -> ExperimentTable:
    """One row per (controller, scenario), seed-averaged."""
    return reduce([run_shard(seed, steps=steps) for seed in seeds],
                  seeds=seeds, steps=steps)


if __name__ == "__main__":  # pragma: no cover
    from .harness import print_tables
    print_tables([run()])
