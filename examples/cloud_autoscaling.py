"""Cloud autoscaling: time-awareness and goal-awareness in one controller.

The elastic-cluster case study (paper refs [56], [58]).  A seasonal
workload with a flash crowd hits a cluster whose servers take 5 steps to
boot; the self-aware scaler forecasts demand over the boot horizon,
learns the true per-server capacity from telemetry, and reads a *live*
goal -- so when the goal is reweighted toward cost mid-run, behaviour
follows immediately.

Run:  python examples/cloud_autoscaling.py
"""

import numpy as np

from repro.api import CloudConfig, CloudSimulator
from repro.cloud import (ReactiveScaler, SelfAwareScaler, StaticScaler,
                         make_cloud_goal)
from repro.envgen import RequestRateWorkload, Shock, ShockSchedule
from repro.obs import cli_telemetry

CONFIG = CloudConfig(steps=600, capacity_per_server=10.0, boot_delay=5,
                     max_servers=40, initial_servers=4)


def drive(scaler, demand, goal, reweight_at=None):
    """Step the cluster under ``scaler``; optionally flip the goal toward
    cost at ``reweight_at``, between two steps."""
    sim = CloudSimulator(CONFIG, scaler=scaler, demand_fn=demand, goal=goal)
    for t in range(CONFIG.steps):
        if t == reweight_at:
            goal.set_weights({"qos": 0.3, "cost": 0.7})
        sim.step()
    return sim.result()


def report(name, history, goal):
    qos = np.mean([m.qos for m in history])
    cost = np.mean([m.cost for m in history])
    utility = np.mean([goal.utility(m.as_dict()) for m in history])
    print(f"  {name:12s} utility={utility:.3f} qos={qos:.3f} "
          f"servers={cost:5.1f} dropped={sum(m.dropped for m in history):8.0f}")


def main():
    workload = RequestRateWorkload(
        base_rate=60.0, seasonal_amplitude=0.5, period=200.0,
        shocks=ShockSchedule([Shock(start=330.0, duration=60.0,
                                    magnitude=1.2)]),
        rng=np.random.default_rng(1))

    print("seasonal demand + flash crowd at t=330 (servers boot in 5 steps):")
    for name, scaler in [
        ("static-4", StaticScaler(4)),
        ("static-15", StaticScaler(15)),
        ("reactive", ReactiveScaler()),
    ]:
        goal = make_cloud_goal()
        report(name, drive(scaler, workload.rate, goal), goal)
    goal = make_cloud_goal()
    scaler = SelfAwareScaler(goal, boot_delay=5, max_servers=40)
    report("self-aware", drive(scaler, workload.rate, goal), goal)
    print(f"  (self-aware scaler learned per-server capacity "
          f"{scaler.capacity_estimate:.1f}; true value is "
          f"{CONFIG.capacity_per_server})")

    print("\nnow stakeholders flip the goal toward cost at t=300:")
    goal = make_cloud_goal()
    scaler = SelfAwareScaler(goal, boot_delay=5, max_servers=40)
    history = drive(scaler, workload.rate, goal, reweight_at=300)
    servers_before = np.mean([m.cost for m in history[:300]])
    servers_after = np.mean([m.cost for m in history[300:]])
    print(f"  mean servers before: {servers_before:.1f}, after: "
          f"{servers_after:.1f} -- the goal-reading scaler downsizes at "
          "once; a static or rule-based scaler cannot.")


if __name__ == "__main__":
    # ``--trace [PATH]`` enables repro.obs telemetry and writes a
    # JSONL event trace (default trace.jsonl).
    with cli_telemetry():
        main()
