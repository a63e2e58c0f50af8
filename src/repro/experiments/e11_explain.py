"""E11 -- self-explanation: the reasons behind action are made clear.

Paper Sections III and VI (Schubert, Cox): because self-aware systems
hold internal self-models, they can *explain or justify themselves* to
external entities.  This experiment runs the E1 node at two capability
extremes, journals every decision, and measures explanation quality --
coverage (every step explainable), evidence rate (explanations cite the
alternatives considered and predictions made), narrative content -- and
the bookkeeping overhead of keeping the journal at all.
"""

from __future__ import annotations

import gc
import time as _time
from typing import Dict, List, Sequence

import numpy as np

from ..core.levels import CapabilityProfile, SelfAwarenessLevel
from ..core.patterns import build_node, build_static_node
from .e1_levels import (ResourceAllocationEnvironment, _run_one,
                        make_e1_goal, make_e1_sensors)
from .harness import ExperimentTable


def _keywords_present(narrative: str) -> int:
    """Count explanation ingredients present in a narrative."""
    ingredients = ["because", "considered", "utility", "goal"]
    return sum(1 for word in ingredients if word in narrative)


def _profiles():
    return {
        "static": None,
        "goal-aware": CapabilityProfile.up_to(SelfAwarenessLevel.GOAL),
        "full-stack": CapabilityProfile.full_stack(),
    }


def run_shard(seed: int, steps: int = 600) -> Dict[str, List[float]]:
    """One seed's worth of E11: five quality/overhead values per profile."""
    payload: Dict[str, List[float]] = {}
    for name, profile in _profiles().items():
        env = ResourceAllocationEnvironment(seed=seed)
        goal = make_e1_goal()
        sensors = make_e1_sensors(env, np.random.default_rng(600 + seed))
        if profile is None:
            node = build_static_node(name, sensors, action="balanced")
        else:
            node = build_node(name, profile, sensors, goal,
                              rng=np.random.default_rng(700 + seed))
        start = _time.perf_counter()
        _run_one(name, node, env, goal, steps)
        elapsed = _time.perf_counter() - start
        per_step = elapsed / steps

        # Overhead probe: microbenchmark the journalling operations
        # themselves (log + outcome attach) against the measured
        # per-step cost of the whole awareness loop.  Wall-clock
        # A/B of full runs is far too noisy at this scale.  The probe
        # runs with the collector paused, as ``timeit`` does: a full
        # collection landing inside it walks every object the process
        # holds, and would bill that walk to the journal.
        from ..core.explanation import ExplanationLog
        sample = node.log.last()
        probe = ExplanationLog()
        reps = 2000
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = _time.perf_counter()
            for _ in range(reps):
                probe.log(sample.decision, sample.actuation)
                probe.attach_outcome(sample.outcome or {})
            journal_cost = (_time.perf_counter() - start) / reps
        finally:
            if gc_was_enabled:
                gc.enable()
        overhead = (100.0 * journal_cost / per_step if per_step > 0 else 0.0)

        report = node.log.report()
        payload[name] = [
            report.coverage, report.evidence_rate, report.mean_candidates,
            float(np.mean([_keywords_present(text)
                           for text in node.log.explain_window(20)])),
            overhead]
    return payload


def reduce(shards: Sequence[Dict[str, List[float]]],
           seeds: Sequence[int] = (), steps: int = 600) -> ExperimentTable:
    """Seed-average per-seed payloads into the E11 table."""
    table = ExperimentTable(
        experiment_id="E11",
        title="Self-explanation: coverage, evidence and overhead",
        columns=["profile", "coverage", "evidence_rate", "mean_candidates",
                 "narrative_ingredients", "journal_overhead_pct"],
        notes=("evidence_rate = decisions whose journal entry carries the "
               "considered alternatives and their predicted outcomes; "
               "overhead = measured cost of the journalling operations as "
               "a percentage of the full awareness-loop step time"))
    for name in _profiles():
        values = [shard[name] for shard in shards]
        table.add_row(
            profile=name,
            coverage=float(np.mean([v[0] for v in values])),
            evidence_rate=float(np.mean([v[1] for v in values])),
            mean_candidates=float(np.mean([v[2] for v in values])),
            narrative_ingredients=float(np.mean([v[3] for v in values])),
            journal_overhead_pct=float(np.mean([v[4] for v in values])))
    return table


def run(seeds: Sequence[int] = (0, 1, 2), steps: int = 600) -> ExperimentTable:
    """One row per profile: explanation quality and overhead."""
    return reduce([run_shard(seed, steps=steps) for seed in seeds],
                  seeds=seeds, steps=steps)


if __name__ == "__main__":  # pragma: no cover
    from .harness import print_tables
    print_tables([run()])
