"""Ablations of the design choices called out in DESIGN.md.

A1 -- goal aggregation: weighted-sum utility vs knee-of-Pareto selection
      inside the reasoner (DESIGN choice 1).
A2 -- forecast family inside the autoscaler's time-awareness: naive,
      EWMA, Holt, AR (DESIGN choice 2).
A4 -- auction pricing rule in the camera handover market: second-price
      (Vickrey) vs first-price (DESIGN choice 4).
A5 -- knowledge representation granularity: how finely a self-model bins
      its context (paper ref [60], "knowledge representation and
      modelling: structures and trade-offs") -- too coarse underfits the
      situation, too fine starves every bin of samples.

(The meta-switching-trigger ablation, choice 3, lives inside E8.)
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..cloud.autoscaler import SelfAwareScaler, make_cloud_goal
from ..core.levels import CapabilityProfile, SelfAwarenessLevel
from ..core.models import ContextualActionModel
from ..core.node import SelfAwareNode
from ..core.reasoner import UtilityReasoner
from ..learning.forecast import make_forecaster
from ..smartcamera.market import Bid, HandoverMarket
from .e1_levels import (ResourceAllocationEnvironment, _run_one,
                        make_e1_goal, make_e1_sensors)
from .e3_cloud import CLUSTER, cloud_simulator, make_demand
from .harness import ExperimentTable


# -- A1: aggregation scheme ----------------------------------------------------

def run_aggregation_shard(seed: int, steps: int = 1200) -> Dict[str, List[float]]:
    """One seed's worth of A1: [mean, after_reweight] per aggregation."""
    payload: Dict[str, List[float]] = {}
    for use_knee, name in ((False, "weighted-sum"), (True, "pareto-knee")):
        env = ResourceAllocationEnvironment(seed=seed,
                                            inversion_time=float("inf"))
        goal = make_e1_goal()
        reasoner = UtilityReasoner(
            goal, ContextualActionModel(forgetting=0.95), epsilon=0.08,
            use_knee=use_knee, rng=np.random.default_rng(900 + seed))
        node = SelfAwareNode(
            name=name,
            profile=CapabilityProfile.up_to(SelfAwarenessLevel.GOAL),
            sensors=make_e1_sensors(env, np.random.default_rng(901 + seed)),
            reasoner=reasoner)
        trace = _run_one(name, node, env, goal, steps)
        payload[name] = [trace.mean_utility(),
                         trace.mean_utility_between(600.0, steps + 1.0)]
    return payload


def reduce_aggregation(shards: Sequence[Dict[str, List[float]]],
                       seeds: Sequence[int] = (),
                       steps: int = 1200) -> ExperimentTable:
    """Seed-average per-seed payloads into the A1 table."""
    table = ExperimentTable(
        experiment_id="A1",
        title="Ablation: goal aggregation (weighted-sum vs Pareto knee)",
        columns=["aggregation", "mean_utility", "utility_after_reweight"],
        notes="E1 environment; utility scored against the live goal, "
              "which re-weights toward cost at t=600")
    for name in ("weighted-sum", "pareto-knee"):
        values = [shard[name] for shard in shards]
        table.add_row(aggregation=name,
                      mean_utility=float(np.mean([v[0] for v in values])),
                      utility_after_reweight=float(np.mean(
                          [v[1] for v in values])))
    return table


def run_aggregation(seeds: Sequence[int] = (0, 1, 2, 3),
                    steps: int = 1200) -> ExperimentTable:
    """Weighted-sum vs knee selection on the E1 task.

    The knee ignores the goal's weights, so it cannot follow run-time
    re-weighting -- it buys weight-free robustness at the cost of
    goal-responsiveness.
    """
    return reduce_aggregation(
        [run_aggregation_shard(seed, steps=steps) for seed in seeds],
        seeds=seeds, steps=steps)


# -- A2: forecast family ---------------------------------------------------------

FORECASTER_KINDS = {"naive": {}, "ewma": {"alpha": 0.3}, "holt": {},
                    "ar": {"order": 6}}


def run_forecasters_shard(seed: int, steps: int = 600) -> Dict[str, List[float]]:
    """One seed's worth of A2: [utility, qos, servers] per forecaster."""
    payload: Dict[str, List[float]] = {}
    for kind, kwargs in FORECASTER_KINDS.items():
        demand = make_demand(seed, steps)
        goal = make_cloud_goal()
        scaler = SelfAwareScaler(
            goal, boot_delay=CLUSTER["boot_delay"],
            forecaster=make_forecaster(kind, **kwargs),
            max_servers=CLUSTER["max_servers"])
        history = cloud_simulator(steps, scaler, demand).run()
        payload[kind] = [
            float(np.mean([goal.utility(m.as_dict()) for m in history])),
            float(np.mean([m.qos for m in history])),
            float(np.mean([m.cost for m in history]))]
    return payload


def reduce_forecasters(shards: Sequence[Dict[str, List[float]]],
                       seeds: Sequence[int] = (),
                       steps: int = 600) -> ExperimentTable:
    """Seed-average per-seed payloads into the A2 table."""
    table = ExperimentTable(
        experiment_id="A2",
        title="Ablation: forecast family in the autoscaler's time-awareness",
        columns=["forecaster", "utility", "qos", "mean_servers"],
        notes="E3 workload (seasonal + flash crowd); finding: on smooth "
              "seasonal demand with a short boot delay, level trackers "
              "(naive/EWMA) suffice -- trend extrapolation (Holt) "
              "overshoots at the sine's turning points")
    for kind in FORECASTER_KINDS:
        values = [shard[kind] for shard in shards]
        table.add_row(forecaster=kind,
                      utility=float(np.mean([v[0] for v in values])),
                      qos=float(np.mean([v[1] for v in values])),
                      mean_servers=float(np.mean([v[2] for v in values])))
    return table


def run_forecasters(seeds: Sequence[int] = (0, 1, 2),
                    steps: int = 600) -> ExperimentTable:
    """Forecast family inside the self-aware autoscaler."""
    return reduce_forecasters(
        [run_forecasters_shard(seed, steps=steps) for seed in seeds],
        seeds=seeds, steps=steps)


# -- A4: auction pricing rule ------------------------------------------------------

def run_auction_pricing_shard(seed: int,
                              n_auctions: int = 2000) -> Dict[str, List[float]]:
    """One seed's worth of A4: [trade_rate, mean_price, surplus] per rule."""
    rng = np.random.default_rng(seed)
    auctions = []
    for i in range(n_auctions):
        n_bidders = int(rng.integers(2, 6))
        bids = [Bid(cam_id=j, amount=float(rng.uniform(0, 1)))
                for j in range(n_bidders)]
        reserve = float(rng.uniform(0, 0.5))
        auctions.append((i, bids, reserve))

    # Second-price: the shipped market.
    market = HandoverMarket()
    surpluses, prices = [], []
    for object_id, bids, reserve in auctions:
        outcome = market.run_auction(object_id, seller=99, bids=bids,
                                     reserve=reserve)
        if outcome.sold:
            winning_bid = max(b.amount for b in bids)
            prices.append(outcome.price)
            surpluses.append(winning_bid - outcome.price)

    # First-price: winner pays its own bid; surplus is zero by definition
    # (under the same truthful bids).
    sold = 0
    prices_list: List[float] = []
    for _object_id, bids, reserve in auctions:
        valid = [b for b in bids if b.amount >= reserve]
        if valid:
            sold += 1
            prices_list.append(max(b.amount for b in valid))
    return {
        "second-price(Vickrey)": [market.trade_rate, float(np.mean(prices)),
                                  float(np.mean(surpluses))],
        "first-price": [sold / n_auctions, float(np.mean(prices_list)), 0.0],
    }


def reduce_auction_pricing(shards: Sequence[Dict[str, List[float]]],
                           seeds: Sequence[int] = (),
                           n_auctions: int = 2000) -> ExperimentTable:
    """Seed-average per-seed payloads into the A4 table."""
    table = ExperimentTable(
        experiment_id="A4",
        title="Ablation: handover auction pricing rule",
        columns=["rule", "trade_rate", "mean_price", "winner_surplus"],
        notes="synthetic bid streams (2-5 bidders, uniform visibilities); "
              "surplus = winner's bid minus price paid")
    for rule in ("second-price(Vickrey)", "first-price"):
        values = [shard[rule] for shard in shards]
        table.add_row(rule=rule,
                      trade_rate=float(np.mean([v[0] for v in values])),
                      mean_price=float(np.mean([v[1] for v in values])),
                      winner_surplus=float(np.mean([v[2] for v in values])))
    return table


def run_auction_pricing(n_auctions: int = 2000,
                        seed: int = 0) -> ExperimentTable:
    """Second-price vs first-price handover pricing.

    Allocation (who wins) is identical under truthful bidding; what
    changes is what winners pay.  Vickrey charges the second bid, so
    winners retain surplus proportional to their visibility advantage --
    the incentive-compatibility argument for the published design.
    """
    return reduce_auction_pricing(
        [run_auction_pricing_shard(seed, n_auctions=n_auctions)],
        seeds=(seed,), n_auctions=n_auctions)


# -- A5: knowledge representation granularity -----------------------------------

def _bin_fn_for(levels: int):
    """Quantiser mapping each context feature onto ``levels`` levels."""
    if levels <= 1:
        return lambda context: ()  # context-free: a single bin
    step = float(levels - 1)

    def bin_fn(context):
        return tuple(sorted(
            (k, round(step * float(min(max(v, 0.0), 1.2))) / step)
            for k, v in context.items()))
    return bin_fn


def run_knowledge_representation_shard(
        seed: int, steps: int = 1200,
        granularities: Sequence[int] = (1, 3, 5, 11, 41)) -> Dict[str, List[float]]:
    """One seed's worth of A5: [utility, bins_used] per granularity."""
    payload: Dict[str, List[float]] = {}
    for levels in granularities:
        env = ResourceAllocationEnvironment(
            seed=seed, goal_change_time=float("inf"),
            inversion_time=float("inf"))
        goal = make_e1_goal()
        model = ContextualActionModel(forgetting=0.95,
                                      bin_fn=_bin_fn_for(levels))
        reasoner = UtilityReasoner(goal, model, epsilon=0.08,
                                   rng=np.random.default_rng(950 + seed))
        node = SelfAwareNode(
            name=f"g{levels}",
            profile=CapabilityProfile.up_to(SelfAwarenessLevel.TIME),
            sensors=make_e1_sensors(env, np.random.default_rng(951 + seed)),
            reasoner=reasoner)
        trace = _run_one(f"g{levels}", node, env, goal, steps)
        payload[str(levels)] = [trace.mean_utility(),
                                float(model.bin_count())]
    return payload


def reduce_knowledge_representation(
        shards: Sequence[Dict[str, List[float]]],
        seeds: Sequence[int] = (), steps: int = 1200,
        granularities: Sequence[int] = (1, 3, 5, 11, 41)) -> ExperimentTable:
    """Seed-average per-seed payloads into the A5 table."""
    table = ExperimentTable(
        experiment_id="A5",
        title="Ablation: knowledge-representation granularity",
        columns=["levels_per_feature", "mean_utility", "bins_used"],
        notes="context bins per sensed feature in the self-model; E1 "
              "environment with shocks (stationary goal); 1 level = "
              "context-free")
    for levels in granularities:
        values = [shard[str(levels)] for shard in shards]
        table.add_row(levels_per_feature=levels,
                      mean_utility=float(np.mean([v[0] for v in values])),
                      bins_used=float(np.mean([v[1] for v in values])))
    return table


def run_knowledge_representation(
        seeds: Sequence[int] = (0, 1, 2, 3),
        steps: int = 1200,
        granularities: Sequence[int] = (1, 3, 5, 11, 41)) -> ExperimentTable:
    """Sweep context-bin granularity of the self-model on the E1 task.

    The trade-off of ref [60] in one knob: 1 level = a context-free
    model (underfits the regime-dependence of the actions); very many
    levels = each situation is its own bin and nothing generalises
    (sample starvation).  The sweet spot sits in between.
    """
    return reduce_knowledge_representation(
        [run_knowledge_representation_shard(seed, steps=steps,
                                            granularities=granularities)
         for seed in seeds],
        seeds=seeds, steps=steps, granularities=granularities)


if __name__ == "__main__":  # pragma: no cover
    from .harness import print_tables
    print_tables([run_aggregation(), run_forecasters(), run_auction_pricing(),
                  run_knowledge_representation()])
