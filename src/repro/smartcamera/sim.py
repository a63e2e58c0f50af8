"""The smart-camera network simulation.

Time-stepped loop binding geometry, mobility, the handover market and the
per-camera controllers.  Each step:

1. objects move (and may churn);
2. every owned object earns its owner tracking utility equal to the
   owner's current visibility of it; unowned objects earn nothing
   (tracking is lost);
3. each camera picks a sociality strategy from its controller and, per
   owned object, may run a handover auction: advertisements and bids are
   counted as messages, the market clears second-price, ownership moves;
4. unowned objects seen by some camera are (re)claimed by the best
   observer;
5. each camera receives its local reward (utility earned minus the
   communication it spent, weighted) as learning feedback.

The network-level figure of merit is the same trade-off evaluated
globally -- exactly the multi-objective run-time trade-off of the paper's
hypothesis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

if TYPE_CHECKING:
    from ..api.configs import CameraConfig
    from ..faults.injector import FaultInjector

import numpy as np

from ..obs import events as obs_events
from ..obs import metrics as obs_metrics
from .controller import CameraController, strategy_entropy
from .market import HandoverMarket
from .network import CameraNetwork
from .objects import ObjectPopulation
from .soa import best_observer_row_scalar, possible_rows


@dataclass(slots=True)
class CameraStepRecord:
    """Network-level telemetry for one step."""

    time: float
    tracking_utility: float
    messages: int
    handovers: int
    owned_objects: int
    lost_objects: int
    comm_weight: float = 0.01


@dataclass
class CameraSimResult:
    """Outcome of a full run."""

    records: List[CameraStepRecord]
    controllers: List[CameraController]
    market: HandoverMarket
    comm_cost_weight: float

    def mean_tracking_utility(self) -> float:
        """Average per-step summed visibility of owned objects."""
        if not self.records:
            return math.nan
        return sum(r.tracking_utility for r in self.records) / len(self.records)

    def mean_messages(self) -> float:
        """Average messages per step."""
        if not self.records:
            return math.nan
        return sum(r.messages for r in self.records) / len(self.records)

    def efficiency(self) -> float:
        """Network trade-off score: utility minus weighted communication.

        Uses the communication price in force at each step, so runs with
        run-time re-pricing are scored against the price that actually
        applied.
        """
        if not self.records:
            return math.nan
        scores = [r.tracking_utility - r.comm_weight * r.messages
                  for r in self.records]
        return sum(scores) / len(scores)

    def diversity_bits(self) -> float:
        """Entropy of strategy usage across cameras (see controller module)."""
        return strategy_entropy(self.controllers)

    def lost_fraction(self) -> float:
        """Mean fraction of objects untracked per step."""
        if not self.records:
            return math.nan
        fractions = [r.lost_objects / max(1, r.lost_objects + r.owned_objects)
                     for r in self.records]
        return sum(fractions) / len(fractions)


class CameraSimulation:
    """One configured run of the camera network, stepped from outside.

    :class:`repro.api.CameraSimulator` drives it through a run;
    ``repro.bench`` steps it one tick at a time to measure the per-step
    kernel cost.
    """

    def __init__(
        self,
        config: "CameraConfig",
        controller_factory: Callable[[int, np.random.Generator], CameraController],
        faults: Optional["FaultInjector"] = None,
    ) -> None:
        self.config = config
        self.faults = faults
        # The run-time re-pricing breakpoints, sorted once: the step
        # reads the price in force every tick.  ``sorted`` copies, so a
        # caller's list is never reordered under them.
        self._comm_breaks = (sorted(config.comm_weight_breaks)
                             if config.comm_weight_breaks else None)
        self._rng = np.random.default_rng(config.seed)
        if config.random_placement:
            self.network = CameraNetwork.random(
                config.rows * config.cols, radius=config.radius,
                seed=config.seed)
        else:
            self.network = CameraNetwork.grid(config.rows, config.cols,
                                              radius=config.radius)
        self.population = ObjectPopulation(
            n_objects=config.n_objects, speed=config.object_speed,
            churn_rate=config.churn_rate, rng=self._rng)
        self.market = HandoverMarket()
        self.controllers: Dict[int, CameraController] = {
            cid: controller_factory(cid, np.random.default_rng(
                self._rng.integers(2 ** 31)))
            for cid in self.network.ids()}
        self.ownership: Dict[int, int] = {}  # object_id -> cam_id
        self.records: List[CameraStepRecord] = []
        self._cam_ids = self.network.ids()  # hoisted: ids() copies per call

    def comm_weight_at(self, t: float) -> float:
        """The communication-cost weight in force at time ``t``: the
        last ``(time, weight)`` breakpoint reached, else the constant
        ``comm_cost_weight``."""
        weight = self.config.comm_cost_weight
        if self._comm_breaks:
            for start, value in self._comm_breaks:
                if t >= start:
                    weight = value
        return weight

    def _finish_step(self, t, down, utility_by_camera, messages_by_camera,
                     total_utility, handovers) -> CameraStepRecord:
        """Step tail: reward feedback, record, observability."""
        # Local reward feedback: own utility minus own communication cost,
        # at the price currently in force (goal-awareness of re-pricing).
        comm_weight = self.comm_weight_at(t)
        for cid, controller in self.controllers.items():
            if cid in down:
                continue
            reward = (utility_by_camera[cid]
                      - comm_weight * messages_by_camera[cid])
            controller.feedback(reward)

        owned = len(self.ownership)
        messages = sum(messages_by_camera.values())
        record = CameraStepRecord(
            time=t, tracking_utility=total_utility,
            messages=messages, handovers=handovers,
            owned_objects=owned,
            lost_objects=len(self.population) - owned,
            comm_weight=comm_weight)
        self.records.append(record)
        if obs_events.enabled():
            obs_metrics.counter("steps", sim="smartcamera").increment()
            obs_metrics.counter("camera.handovers").increment(handovers)
            obs_metrics.counter("camera.messages").increment(messages)
            obs_metrics.histogram("camera.tracking_utility").observe(total_utility)
            obs_events.emit("camera.step", time=t,
                            tracking_utility=total_utility, messages=messages,
                            handovers=handovers, owned=owned,
                            lost=record.lost_objects)
        return record

    def step(self, t: float) -> CameraStepRecord:
        """Run one simulation step; returns the step record.

        The step runs on struct-of-arrays columns (see
        :mod:`repro.smartcamera.soa`): batched squared distances decide
        only the *certain* cases of each disc predicate; rim-band
        candidates and every escaping float (visibilities, bids,
        utilities) are produced by the exact scalar ``math.hypot``
        expressions, in ascending camera-id order.  The one RNG consumer
        in the step, the re-detection gate, draws its per-unowned-object
        uniforms as one batch -- numpy's Generator yields bit-identical
        values for ``random(k)`` and ``k`` successive ``random()``
        calls.

        An attached fault injector crashes cameras and corrupts bid
        replies.  A crashed camera loses its tracks, cannot claim,
        neither deliberates nor learns, and never replies to an
        advertisement.  Every other bidder with a positive visibility
        asks the injector whether its reply is lost and, if not, how its
        amount is perturbed -- one bidder at a time in ascending id
        order, so the injector's stream is consumed in a fixed order
        however the candidate scan is pruned.
        """
        ownership = self.ownership
        config = self.config
        cols = self.network.columns()
        faults = self.faults
        down = ()
        if faults is not None:
            faults.begin_step(t)
            down = faults.crashed_targets(self._cam_ids)
        churned = self.population.step()
        for object_id in churned:
            ownership.pop(object_id, None)

        objs = self.population.objects
        m = len(objs)
        x_list = [o.x for o in objs]
        y_list = [o.y for o in objs]
        obj_ids = [o.object_id for o in objs]
        xs = np.asarray(x_list)
        ys = np.asarray(y_list)
        row_of = cols.row_of
        cxl, cyl, crl = cols.x_list, cols.y_list, cols.radius_list
        id_list = cols.id_list

        # Drop ownership of objects whose owner has crashed (its tracks
        # are simply lost) or can no longer see them: one batched gather
        # of owner-object squared distances, with the rim band
        # re-decided by the exact predicate.
        owned_idx: List[int] = []
        owned_rows: List[int] = []
        for j, oid in enumerate(obj_ids):
            owner = ownership.get(oid)
            if owner is not None:
                if owner in down:
                    del ownership[oid]
                    continue
                owned_idx.append(j)
                owned_rows.append(row_of[owner])
        if owned_idx:
            oi = np.asarray(owned_idx, dtype=np.intp)
            orows = np.asarray(owned_rows, dtype=np.intp)
            dx = cols.xs[orows] - xs[oi]
            dy = cols.ys[orows] - ys[oi]
            d2 = dx * dx + dy * dy
            drop = d2 > cols.hi_sq[orows]
            rim = (~drop) & (d2 > cols.lo_sq[orows])
            for k in np.nonzero(rim)[0].tolist():
                j, r = owned_idx[k], owned_rows[k]
                if math.hypot(x_list[j] - cxl[r],
                              y_list[j] - cyl[r]) > crl[r]:
                    drop[k] = True
            for k in np.nonzero(drop)[0].tolist():
                del ownership[obj_ids[owned_idx[k]]]

        # Re-detection of unowned objects: batch the per-object uniform
        # draws (bit-identical to a one-at-a-time stream), then resolve
        # the rare hits with the scalar best-observer scan (one object at
        # a time is the small-candidate regime where batching loses).  A
        # crashed best observer does not claim.
        unowned = [j for j in range(m) if obj_ids[j] not in ownership]
        if unowned:
            draws = self._rng.random(len(unowned)).tolist()
            detection_rate = config.detection_rate
            for k, j in enumerate(unowned):
                if draws[k] >= detection_rate:
                    continue
                row = best_observer_row_scalar(cols, x_list[j], y_list[j])
                if row >= 0 and id_list[row] not in down:
                    ownership[obj_ids[j]] = id_list[row]

        # Strategy choice by every live camera, unpacked once per camera
        # into row-indexed initiative/audience flags so the per-object
        # auction loop needs no enum dispatch.  choose() reads neither
        # utilities nor ownership, so it can run before the auctions.
        n = cols.n
        is_active = [False] * n
        is_broadcast = [False] * n
        for cid, controller in self.controllers.items():
            if cid in down:
                continue
            strategy = controller.choose(t)
            controller.record_usage(strategy)
            r = row_of[cid]
            is_active[r] = strategy.is_active
            is_broadcast[r] = strategy.is_broadcast

        # Tracking utility and handover auctions in one pass: an auction
        # only ever reassigns the auctioned object's *own* ownership
        # entry, so later objects see exactly the ownership a separate
        # utility pass would, and every accumulation (utilities, message
        # counts, market volume) happens in population order.  The
        # auction itself is HandoverMarket.run_auction's Vickrey rule
        # inlined as a running top-two scan over the ascending-id bids
        # -- same floats, same tie-break (first strict max = lowest
        # camera id), same market statistics -- without materialising
        # Bid lists per auction.
        utility_by_camera: Dict[int, float] = dict.fromkeys(self._cam_ids, 0.0)
        messages_by_camera: Dict[int, int] = dict.fromkeys(self._cam_ids, 0)
        total_utility = 0.0
        handovers = 0
        market = self.market
        auction_threshold = config.auction_threshold
        neighbour_rows = cols.neighbour_rows
        neighbour_masks = cols.neighbour_masks
        for j in range(m):
            oid = obj_ids[j]
            owner = ownership.get(oid)
            if owner is None:
                continue
            orow = row_of[owner]
            x, y = x_list[j], y_list[j]
            dist = math.hypot(x - cxl[orow], y - cyl[orow])
            own_vis = 0.0 if dist > crl[orow] else 1.0 - dist / crl[orow]
            utility_by_camera[owner] += own_vis
            total_utility += own_vis
            if not (is_active[orow] or own_vis < auction_threshold):
                continue
            near = possible_rows(cols, x, y)
            if is_broadcast[orow]:
                messages_by_camera[owner] += n - 1
                near = near[near != orow]
            else:
                messages_by_camera[owner] += len(neighbour_rows[orow])
                near = near[neighbour_masks[orow][near]]
            best_amt = second_amt = -1.0
            best_row = -1
            for r in near.tolist():
                dist = math.hypot(x - cxl[r], y - cyl[r])
                if dist > crl[r]:
                    continue  # zero visibility: no bid reply either way
                bid_vis = 1.0 - dist / crl[r]
                if faults is not None and bid_vis > 0.0:
                    cid = id_list[r]
                    if cid in down or faults.dropped(target=cid):
                        continue  # crashed, or the reply is lost
                    bid_vis = faults.perturb(bid_vis, target=cid)
                if bid_vis > 0.0:
                    messages_by_camera[id_list[r]] += 1  # the bid reply
                    if bid_vis >= own_vis:  # reserve filter
                        if bid_vis > best_amt:
                            second_amt = best_amt
                            best_amt = bid_vis
                            best_row = r
                        elif bid_vis > second_amt:
                            second_amt = bid_vis
            market.auctions_run += 1
            if best_row < 0:
                continue  # no valid bid: unsold
            second = second_amt if second_amt >= 0.0 else own_vis
            price = second if second > own_vis else own_vis
            market.trades += 1
            market.volume += price
            ownership[oid] = id_list[best_row]
            handovers += 1

        return self._finish_step(t, down, utility_by_camera,
                                 messages_by_camera, total_utility, handovers)
