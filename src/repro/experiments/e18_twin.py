"""E18 -- the digital twin is predictive: replay ranks governors like live.

PR 10's tentpole claim, made measurable.  The serving substrate is
driven *live* through an adversarial scenario
(:mod:`repro.envgen.scenario`), its arrival stream is recorded off the
obs event bus by a :class:`~repro.twin.TraceRecorder` -- exactly the
hook a production deployment would use -- and every governor arm is
then re-run *offline* against the recorded trace by a
:class:`~repro.twin.TraceWorkload`.  Three properties are scored:

1. **determinism** -- replaying the same trace with the same seed twice
   yields byte-identical tick records (checked structurally per shard);
2. **conservation** -- the replay offers exactly the requests the
   recorder saw (``twin_offered == trace total_offered``);
3. **prediction** -- the twin ranks the governor arms (by goodput) in
   the same order as the live runs that the trace came from, so a
   candidate tuned on yesterday's traffic can be promoted with
   confidence.

Arms: ``self_aware`` (the adaptive :class:`~repro.serve.governor
.ServeGovernor`), ``static:4`` and ``static:2`` (design-time pools).
The replay configs carry no scenario -- the trace *is* the scenario,
which is the point of the twin.

The headline acceptance claim -- checked by
``tests/experiments/test_e18.py`` -- is ``rank_agreement == 1.0``:
live and twin orderings agree on every seed.
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Sequence

import numpy as np

from .harness import ExperimentTable

ARMS = ("self_aware", "static:4", "static:2")

STEPS = 400
SCENARIO = "flash_crowd"

METRIC_KEYS = ("goodput", "p95_latency", "shed_fraction", "mean_pool",
               "offered")


def _rank(goodput: Dict[str, float]) -> List[str]:
    return sorted(goodput, key=lambda arm: (-goodput[arm], arm))


def run_shard(seed: int, steps: int = STEPS,
              scenario: str = SCENARIO) -> Dict[str, object]:
    """One seed: live sweep, record, twin replay sweep (JSON-safe)."""
    from ..api import ServeConfig, make_simulator
    from ..obs.export import TelemetrySession
    from ..twin import (TraceRecorder, TraceWorkload, evaluate_candidates,
                        parse_candidate)
    warmup = min(ServeConfig().warmup, steps // 5)

    # Live leg: every arm rides the same scenario (same seed => same
    # arrival draws); the reference arm additionally feeds a recorder
    # through the obs event stream, exactly as a deployment would.
    live: Dict[str, Dict[str, float]] = {}
    recorder = TraceRecorder(source=f"e18:{scenario}:seed{seed}")
    for arm in ARMS:
        config = ServeConfig(steps=steps, seed=seed, scenario=scenario,
                             warmup=warmup, **parse_candidate(arm, "serve"))
        sim = make_simulator("serve", config)
        if arm == ARMS[0]:
            with TelemetrySession() as session:
                recorder.attach(session.bus)
                sim.run()
                recorder.detach()
        else:
            sim.run()
        metrics = sim.metrics()
        live[arm] = {key: float(metrics[key]) for key in METRIC_KEYS}

    # Twin leg: the same arms against the recorded trace.  Replaying
    # twice checks determinism structurally on every shard.
    workload = TraceWorkload.from_recorder(recorder)
    twin: Dict[str, Dict[str, float]] = {}
    for results in (evaluate_candidates(workload, ARMS, seed=seed,
                                        warmup=warmup),
                    evaluate_candidates(workload, ARMS, seed=seed,
                                        warmup=warmup)):
        replay = {r.candidate: {"goodput": r.goodput,
                                "p95_latency": r.p95_latency,
                                "shed_fraction": r.shed_fraction,
                                "mean_pool": r.mean_pool,
                                "offered": r.offered,
                                "regret": r.regret} for r in results}
        if twin and json.dumps(replay, sort_keys=True) \
                != json.dumps(twin, sort_keys=True):
            raise AssertionError(
                f"twin replay is not deterministic (seed {seed})")
        twin = replay

    live_ranking = _rank({arm: live[arm]["goodput"] for arm in ARMS})
    twin_ranking = _rank({arm: twin[arm]["goodput"] for arm in ARMS})
    return {"live": live, "twin": twin,
            "trace": {"ticks": int(workload.ticks),
                      "total_offered": int(workload.total_offered)},
            "live_ranking": live_ranking,
            "twin_ranking": twin_ranking,
            "rank_agreement": float(live_ranking == twin_ranking)}


def _nanmean(values: List[float]) -> float:
    finite = [v for v in values if not math.isnan(v)]
    return float(np.mean(finite)) if finite else math.nan


def reduce(shards: Sequence[Dict], seeds: Sequence[int] = (),
           steps: int = STEPS, scenario: str = SCENARIO) -> ExperimentTable:
    """Seed-average live vs twin into the E18 table."""
    table = ExperimentTable(
        experiment_id="E18",
        title="Digital twin fidelity: governor arms ranked on trace "
              "replay versus the live runs that produced the trace",
        columns=["arm", "live_goodput", "twin_goodput", "live_rank",
                 "twin_rank", "shed_live", "shed_twin"],
        notes=(f"scenario '{scenario}' drives the live serving substrate; "
               "a TraceRecorder on the obs event bus captures per-tick "
               "arrivals (repro.twin/v1); each arm then replays the trace "
               "via TraceWorkload with recorded counts standing in for "
               "the Poisson draws; every shard double-replays to assert "
               "byte-identical twin metrics; 'rank' = goodput order "
               "(1 = best) on seed 0"))
    ranks_live = {arm: shards[0]["live_ranking"].index(arm) + 1
                  for arm in ARMS}
    ranks_twin = {arm: shards[0]["twin_ranking"].index(arm) + 1
                  for arm in ARMS}
    for arm in ARMS:
        table.add_row(
            arm=arm,
            live_goodput=_nanmean([s["live"][arm]["goodput"]
                                   for s in shards]),
            twin_goodput=_nanmean([s["twin"][arm]["goodput"]
                                   for s in shards]),
            live_rank=float(ranks_live[arm]),
            twin_rank=float(ranks_twin[arm]),
            shed_live=_nanmean([s["live"][arm]["shed_fraction"]
                                for s in shards]),
            shed_twin=_nanmean([s["twin"][arm]["shed_fraction"]
                                for s in shards]))
    agreement = _nanmean([s["rank_agreement"] for s in shards])
    table.append_note(
        f"rank agreement (live ordering == twin ordering): "
        f"{agreement:.2f} over {max(1, len(shards))} seed(s)")
    return table


def run(seeds: Sequence[int] = (0, 1, 2), steps: int = STEPS,
        scenario: str = SCENARIO) -> ExperimentTable:
    """The full sweep, serial (the suite shards it by seed)."""
    return reduce([run_shard(seed, steps=steps, scenario=scenario)
                   for seed in seeds], seeds=seeds, steps=steps,
                  scenario=scenario)


if __name__ == "__main__":  # pragma: no cover
    from .harness import print_tables
    print_tables([run()])
