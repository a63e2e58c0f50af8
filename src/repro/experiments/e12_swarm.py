"""E12 -- swarm self-adaptation: recognising when to restructure.

Paper Section III (collective robotics, ref [34]): self-awareness lets a
swarm recognise, during operation, situations that require self-adaptive
actions -- in particular intentionally modifying the swarm's structure.
One mission contains two such situations: the event hotspots *shift*
(the structure is aimed at the wrong places) and two robots *die* (the
structure has holes).  Controllers: design-time static formation,
structureless random patrol, and the self-aware swarm (local event
learning + gossip + Voronoi attribution + liveness-aware separation).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from ..api import SwarmConfig, SwarmSimulator
from ..swarm.robots import (RandomPatrol, SelfAwareSwarm, StaticFormation,
                            SwarmController)
from .harness import ExperimentTable


def controller_factories(n_robots: int) -> Dict[str, Callable[[int], SwarmController]]:
    """The contenders."""
    return {
        "static-formation": lambda seed: StaticFormation(n_robots),
        "random-patrol": lambda seed: RandomPatrol(
            np.random.default_rng(400 + seed)),
        "self-aware": lambda seed: SelfAwareSwarm(
            rng=np.random.default_rng(500 + seed)),
    }


def run_shard(seed: int, steps: int = 800,
              n_robots: int = 9) -> Dict[str, List[float]]:
    """One seed's worth of E12: four detection rates per controller."""
    payload: Dict[str, List[float]] = {}
    for name, factory in controller_factories(n_robots).items():
        config = SwarmConfig(n_robots=n_robots, steps=steps, seed=seed)
        result = SwarmSimulator(config, controller=factory(seed)).run()
        payload[name] = [result.detection_rate(),
                         result.detection_rate(0.0, 0.4 * steps),
                         result.detection_rate(0.45 * steps, 0.7 * steps),
                         result.detection_rate(0.75 * steps, float(steps))]
    return payload


def reduce(shards: Sequence[Dict[str, List[float]]],
           seeds: Sequence[int] = (), steps: int = 800,
           n_robots: int = 9) -> ExperimentTable:
    """Seed-average per-seed payloads into the E12 table."""
    table = ExperimentTable(
        experiment_id="E12",
        title="Swarm structural self-adaptation (event detection rate)",
        columns=["controller", "overall", "initial", "after_shift",
                 "after_failures"],
        notes=("hotspots shift at 40% of the mission; robots 0 and 1 die "
               "at 70%; detection rate = fraction of events witnessed by "
               "some robot"))
    for name in controller_factories(n_robots):
        values = [shard[name] for shard in shards]
        table.add_row(controller=name,
                      overall=float(np.mean([v[0] for v in values])),
                      initial=float(np.mean([v[1] for v in values])),
                      after_shift=float(np.mean([v[2] for v in values])),
                      after_failures=float(np.mean([v[3] for v in values])))
    return table


def run(seeds: Sequence[int] = (0, 1, 2), steps: int = 800,
        n_robots: int = 9) -> ExperimentTable:
    """One row per controller; phase breakdown around shift and failures."""
    return reduce([run_shard(seed, steps=steps, n_robots=n_robots)
                   for seed in seeds],
                  seeds=seeds, steps=steps, n_robots=n_robots)


if __name__ == "__main__":  # pragma: no cover
    from .harness import print_tables
    print_tables([run()])
