"""E1 -- levels-of-self-awareness ablation on a dynamic resource task.

The paper's central hypothesis (Section III): systems that engage in
self-awareness better manage trade-offs between goals at run time in
complex, uncertain, dynamic environments.  Section IV adds that
self-awareness comes in *levels*.  E1 tests both at once: one abstract
resource-allocation task, one node per capability profile on the ladder
(plus a non-self-aware static baseline), same seeds, measured on
trade-off management quality.

The task is constructed so each level has something to contribute:

- the environment has a hidden *storminess* regime that slowly drifts and
  occasionally jumps; which configuration is best depends on it;
- a noisy private ``load`` sensor reflects storminess (stimulus level);
- a peer system sends a cleaner ``storm`` report (interaction level --
  nodes below it never surface the report in their context);
- storminess drifts, so trends anticipate it (time level);
- stakeholders flip the goal weights from performance-heavy to cost-heavy
  mid-run (goal level -- lower profiles optimise the design-time goal
  snapshot);
- late in the run the configuration/outcome mapping is inverted, a
  concept drift only a meta-self-aware node (which monitors its own
  strategy) absorbs quickly.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np

from ..core.goals import Goal, Objective
from ..core.levels import CapabilityProfile, ladder
from ..core.loop import SimulationClock, Trace, run_control_loop
from ..core.node import SelfAwareNode
from ..core.patterns import build_node, build_static_node
from ..core.sensors import Sensor, SensorSuite
from ..core.spans import private
from ..envgen.processes import BoundedRandomWalk, Shock, ShockSchedule
from ..metrics.tradeoff import tradeoff_summary
from .harness import ExperimentTable

#: The candidate configurations and their per-regime characteristics:
#: (perf in calm, perf in storm, cost).  "lean" is efficient in calm but
#: collapses in storm; "heavy" is robust but expensive; the middles
#: interpolate.  The best configuration rotates across the run's phases:
#: lean (calm, perf-weighted) -> robust (storm shock) -> balanced
#: (stormy era, cost-conscious) -> heavy (after the price flip).
ACTION_TABLE: Dict[str, Tuple[float, float, float]] = {
    "lean": (0.90, 0.15, 0.20),
    "balanced": (0.80, 0.55, 0.35),
    "robust": (0.70, 0.80, 0.50),
    "heavy": (0.65, 0.90, 0.70),
}



class ResourceAllocationEnvironment:
    """The E1 task: pick a configuration under drifting storminess.

    Implements the :class:`repro.core.loop.Environment` protocol plus
    ``peer_reports``.
    """

    def __init__(self, seed: int = 0, goal_change_time: float = 600.0,
                 inversion_time: float = 1100.0,
                 shock_times: Sequence[float] = (300.0, 900.0)) -> None:
        self._rng = np.random.default_rng(seed)
        self.storminess = BoundedRandomWalk(
            mean=0.5, reversion=0.01, sigma=0.03, lo=0.0, hi=1.0,
            start=0.2, rng=self._rng)
        self.shocks = ShockSchedule(
            [Shock(start=t, duration=120.0,
                   magnitude=0.5 if i % 2 == 0 else -0.5)
             for i, t in enumerate(shock_times)])
        self.goal_change_time = goal_change_time
        self.inversion_time = inversion_time
        self._now = 0.0
        # The concept drift at ``inversion_time``: the mapping from
        # configuration to performance is re-drawn (a random non-identity
        # permutation of the perf profiles; costs stay).  Randomising per
        # seed prevents any fixed policy from being right by accident.
        names = list(ACTION_TABLE)
        while True:
            permuted = list(self._rng.permutation(names))
            if permuted != names:
                break
        self._post_drift_perf = {
            name: ACTION_TABLE[src][:2]
            for name, src in zip(names, permuted)}

    def current_storm(self, now: float) -> float:
        """Current effective storminess in [0, 1]."""
        return float(min(max(
            self.storminess.current + self.shocks.offset(now), 0.0), 1.0))

    def candidate_actions(self, now: float) -> List[str]:
        return list(ACTION_TABLE)

    def sensed_load(self) -> float:
        """What the private load sensor reads (noisy storminess)."""
        return self.current_storm(self._now)

    def peer_reports(self, now: float):
        """An upstream system shares its (cleaner) storm estimate."""
        report = self.current_storm(now) + float(self._rng.normal(0.0, 0.03))
        yield ("upstream", "storm", float(min(max(report, 0.0), 1.0)))

    def apply(self, action: Hashable, now: float) -> Dict[str, float]:
        self._now = now
        if now >= self.goal_change_time and self.storminess.mean < 0.7:
            # The world itself enters a stormier era alongside the
            # stakeholder change (ongoing change, paper Section II).
            self.storminess.retarget(0.75)
        storm = self.current_storm(now)
        calm_perf, storm_perf, cost = ACTION_TABLE[str(action)]
        if now >= self.inversion_time:
            # Concept drift: the perf profiles a learner internalised are
            # suddenly wrong (e.g. a platform update remapped them).
            calm_perf, storm_perf = self._post_drift_perf[str(action)]
        perf = (1.0 - storm) * calm_perf + storm * storm_perf
        perf += float(self._rng.normal(0.0, 0.03))
        self.storminess.step()
        return {"perf": float(min(max(perf, 0.0), 1.0)), "cost": cost}


def make_e1_goal() -> Goal:
    """Initial stakeholder goal: performance-weighted."""
    return Goal(
        objectives=[Objective("perf", maximise=True, lo=0.0, hi=1.0),
                    Objective("cost", maximise=False, lo=0.0, hi=1.0)],
        weights={"perf": 0.8, "cost": 0.2},
        name="e1")


def make_e1_sensors(env: ResourceAllocationEnvironment,
                    rng: np.random.Generator) -> SensorSuite:
    """The node's only direct sensor: noisy load."""
    return SensorSuite([
        Sensor(private("load"), env.sensed_load, noise_std=0.08, rng=rng),
    ])


def _run_one(profile_name: str, node: SelfAwareNode,
             env: ResourceAllocationEnvironment, live_goal: Goal,
             steps: int) -> Trace:
    """Drive one node, applying the mid-run stakeholder goal change."""
    clock = SimulationClock()
    trace = Trace(node_name=node.name)
    goal_changed = False
    chunk = 50
    done = 0
    while done < steps:
        n = min(chunk, steps - done)
        if not goal_changed and clock.now + n > env.goal_change_time:
            # Run exactly up to the change point, flip, continue.
            upto = int(env.goal_change_time - clock.now)
            if upto > 0:
                part = run_control_loop(node, env, live_goal, upto, clock)
                trace.steps.extend(part.steps)
                done += upto
            live_goal.set_weights({"perf": 0.45, "cost": 0.55})
            goal_changed = True
            continue
        part = run_control_loop(node, env, live_goal, n, clock)
        trace.steps.extend(part.steps)
        done += n
    return trace


def _variants() -> List[Tuple[str, CapabilityProfile]]:
    """The ablation arms: the static baseline plus every ladder rung."""
    variants: List[Tuple[str, CapabilityProfile]] = [("static", None)]
    variants += [
        ("+".join(lv.name.lower() for lv in profile), profile)
        for profile in ladder()
    ]
    return variants


def run_shard(seed: int, steps: int = 1500) -> Dict[str, Dict[str, float]]:
    """One seed's worth of E1: every variant, as a JSON-safe payload."""
    payload: Dict[str, Dict[str, float]] = {}
    for name, profile in _variants():
        env = ResourceAllocationEnvironment(seed=seed)
        rng = np.random.default_rng(1000 + seed)
        live_goal = make_e1_goal()
        sensors = make_e1_sensors(env, np.random.default_rng(2000 + seed))
        if profile is None:
            # The design-time choice: "lean" wins the calm,
            # perf-weighted conditions the system was tested in.
            node = build_static_node(name, sensors, action="lean")
        else:
            # forgetting=0.98 is the designer's (reasonable, slightly
            # stale) plasticity guess; only the meta profile can
            # notice at run time that its learner has gone stale and
            # switch to a more plastic strategy.
            node = build_node(name, profile, sensors, live_goal,
                              epsilon=0.08, forgetting=0.98, rng=rng)
        trace = _run_one(name, node, env, live_goal, steps)
        change_times = [300.0, 600.0, 900.0, 1100.0]
        summary = dict(tradeoff_summary(trace, live_goal, change_times))
        from ..core.meta import MetaReasoner
        if isinstance(node.reasoner, MetaReasoner):
            summary["switches"] = float(len(node.reasoner.switches))
        payload[name] = summary
    return payload


def reduce(shards: Sequence[Dict[str, Dict[str, float]]],
           seeds: Sequence[int] = (), steps: int = 1500) -> ExperimentTable:
    """Seed-average per-seed payloads into the E1 table."""
    table = ExperimentTable(
        experiment_id="E1",
        title="Levels-of-self-awareness ablation (dynamic resource allocation)",
        columns=["profile", "mean_utility", "worst_phase_utility",
                 "recovered_fraction", "stability", "switches"],
        notes=("change points: shocks @300/@900, goal reweighting @600, "
               "concept inversion @1100; utility measured against the live "
               "stakeholder goal"))
    for name, _profile in _variants():
        summaries = [shard[name] for shard in shards]
        switch_counts = [s["switches"] for s in summaries if "switches" in s]
        table.add_row(
            profile=name,
            mean_utility=float(np.mean([s["mean_utility"] for s in summaries])),
            worst_phase_utility=float(np.mean(
                [s["worst_phase_utility"] for s in summaries])),
            recovered_fraction=float(np.mean(
                [s["recovered_fraction"] for s in summaries])),
            stability=float(np.mean([s["stability"] for s in summaries])),
            switches=float(np.mean(switch_counts)) if switch_counts else 0.0)
    return table


def run(seeds: Sequence[int] = (0, 1, 2, 3, 4),
        steps: int = 1500) -> ExperimentTable:
    """Run the ablation; one row per capability profile, seed-averaged."""
    return reduce([run_shard(seed, steps=steps) for seed in seeds],
                  seeds=seeds, steps=steps)


if __name__ == "__main__":  # pragma: no cover
    from .harness import print_tables
    print_tables([run()])
