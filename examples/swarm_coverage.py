"""Swarm coverage: recognising when the swarm's structure must change.

The collective-robotics case study (paper ref [34]): a swarm keeps an
arena covered so that events are witnessed.  Mid-mission the event
hotspots shift and two robots die -- situations a design-time formation
cannot react to.  The self-aware swarm learns where events actually
occur, gossips that knowledge to neighbours, splits responsibility
Voronoi-style, and lets survivors flow into a dead peer's patch.

Run:  python examples/swarm_coverage.py
"""

import numpy as np

from repro.api import SwarmConfig, SwarmSimulator
from repro.swarm import RandomPatrol, SelfAwareSwarm, StaticFormation
from repro.obs import cli_telemetry

STEPS = 800


def main():
    print("mission: 9 robots, 2 hotspots; hotspots shift at t=40%, "
          "robots 0 and 1 die at t=70%\n")
    print(f"{'controller':18s} {'overall':>8s} {'initial':>8s} "
          f"{'after shift':>12s} {'after deaths':>13s}")
    for name, factory in [
        ("static-formation", lambda s: StaticFormation(9)),
        ("random-patrol", lambda s: RandomPatrol(np.random.default_rng(s))),
        ("self-aware", lambda s: SelfAwareSwarm(
            rng=np.random.default_rng(s))),
    ]:
        rows = []
        for seed in range(3):
            result = SwarmSimulator(SwarmConfig(steps=STEPS, seed=seed),
                                    controller=factory(seed)).run()
            rows.append((result.detection_rate(),
                         result.detection_rate(0, 0.4 * STEPS),
                         result.detection_rate(0.45 * STEPS, 0.7 * STEPS),
                         result.detection_rate(0.75 * STEPS, STEPS)))
        means = np.mean(rows, axis=0)
        print(f"{name:18s} {means[0]:8.3f} {means[1]:8.3f} "
              f"{means[2]:12.3f} {means[3]:13.3f}")

    print("\nthe static formation holds its (now wrong) posts and leaves "
          "dead robots' patches unwatched; the self-aware swarm re-forms "
          "its structure both times.")


if __name__ == "__main__":
    # ``--trace [PATH]`` enables repro.obs telemetry and writes a
    # JSONL event trace (default trace.jsonl).
    with cli_telemetry():
        main()
