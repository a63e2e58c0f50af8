"""Heterogeneous multi-core governor: on-the-fly computing in action.

The platform-level case study (paper refs [8], [16], [47]): a
big.LITTLE platform with a thermal envelope faces a task stream whose
class mix changes by phase.  The self-aware governor discovers the
kind/core-type affinities from observed execution rates, plans
frequencies against a live throughput/energy/latency goal, and stays
out of hardware thermal throttling -- which the "run at max" design-time
policy cannot.

Run:  python examples/multicore_governor.py
"""

import numpy as np

from repro.api import MulticoreConfig, MulticoreSimulator
from repro.multicore import (DEFAULT_AFFINITY, OndemandGovernor,
                             SelfAwareGovernor, StaticGovernor,
                             make_multicore_goal)
from repro.obs import cli_telemetry


def main():
    goal = make_multicore_goal()
    print(goal.describe())
    print()

    contenders = [
        ("static-max", StaticGovernor(1.0, 1.0)),
        ("static-mid", StaticGovernor(0.75, 0.75)),
        ("ondemand", OndemandGovernor()),
        ("self-aware", SelfAwareGovernor(make_multicore_goal(),
                                         rng=np.random.default_rng(0))),
    ]
    self_aware = contenders[-1][1]
    for name, governor in contenders:
        result = MulticoreSimulator(MulticoreConfig(steps=800, seed=0),
                                    governor=governor).run()
        print(f"  {name:11s} utility={result.mean_utility(goal):.3f} "
              f"throughput={result.mean_throughput():5.2f} "
              f"energy={result.mean_energy():5.2f} "
              f"queue={result.mean_queue():5.1f} "
              f"thermal-violations={result.thermal_violation_rate(82.0):.1%}")

    print("\nwhat the self-aware governor learned about the platform")
    print("(rates at frequency 1.0; it was never given this table):")
    for kind in DEFAULT_AFFINITY:
        for type_name, perf in (("big", 8.0), ("little", 3.0)):
            learned = self_aware.learned_rate(kind, type_name, perf)
            truth = perf * DEFAULT_AFFINITY[kind][type_name]
            print(f"  {kind:10s} on {type_name:6s}: learned {learned:5.2f} "
                  f"(truth {truth:5.2f})")


if __name__ == "__main__":
    # ``--trace [PATH]`` enables repro.obs telemetry and writes a
    # JSONL event trace (default trace.jsonl).
    with cli_telemetry():
        main()
