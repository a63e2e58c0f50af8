"""The packet-forwarding simulation for the CPN substrate."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from ..faults.injector import FaultInjector

import numpy as np

from ..obs import events as obs_events
from ..obs import metrics as obs_metrics
from .routing import CPNRouter, QoSClass, Router
from .topology import CPNetwork


@dataclass(frozen=True)
class Flow:
    """One persistent traffic demand.

    ``qos`` is the flow's own quality-of-service goal (CPN routes each
    class differently over the same measurements); ``None`` uses the
    router's default weighting.
    """

    source: int
    dest: int
    packets_per_step: int = 1
    qos: Optional[QoSClass] = None

    def __post_init__(self) -> None:
        if self.source == self.dest:
            raise ValueError("source and dest must differ")
        if self.packets_per_step < 1:
            raise ValueError("packets_per_step must be at least 1")


@dataclass(slots=True)
class PacketOutcome:
    """Fate of one forwarded packet."""

    delivered: bool
    delay: float
    hops: int


@dataclass(slots=True)
class RoutingStepRecord:
    """Per-step aggregates."""

    time: float
    sent: int
    delivered: int
    mean_delay: float
    attack_active: bool


@dataclass
class RoutingResult:
    """Outcome of a routing run."""

    records: List[RoutingStepRecord]

    def delivery_rate(self, t0: float = -math.inf, t1: float = math.inf) -> float:
        """Fraction of packets delivered within ``[t0, t1)``."""
        sent = sum(r.sent for r in self.records if t0 <= r.time < t1)
        delivered = sum(r.delivered for r in self.records if t0 <= r.time < t1)
        return delivered / sent if sent else math.nan

    def mean_delay(self, t0: float = -math.inf, t1: float = math.inf) -> float:
        """Mean delivered-packet delay within ``[t0, t1)``."""
        delays, weights = [], []
        for r in self.records:
            if t0 <= r.time < t1 and r.delivered > 0:
                delays.append(r.mean_delay)
                weights.append(r.delivered)
        if not delays:
            return math.nan
        return float(np.average(delays, weights=weights))

    def attack_window(self) -> Tuple[float, float]:
        """The (start, end) of the attack period seen in the records."""
        active = [r.time for r in self.records if r.attack_active]
        if not active:
            return (math.nan, math.nan)
        return (min(active), max(active) + 1.0)


def forward_packet(network: CPNetwork, router: Router, source: int, dest: int,
                   t: float, max_hops: Optional[int] = None,
                   explore: bool = False,
                   qos: Optional[QoSClass] = None,
                   faults: Optional["FaultInjector"] = None) -> PacketOutcome:
    """Forward one packet hop-by-hop; returns its fate.

    Lost packets and TTL-expired packets count as undelivered.  The
    router's ``observe_hop``/``observe_loss`` hooks fire along the way,
    which is how self-aware routers measure the QoS of their choices.
    ``explore=True`` routes via :meth:`CPNRouter.explore_hop` -- a smart
    packet gathering knowledge rather than carrying payload.

    Active ``link_degrade`` faults scale every hop delay and force extra
    packet losses; both are *observed* through the usual hooks, so
    measuring routers adapt to injected degradation like any other
    disturbance.
    """
    max_hops = max_hops if max_hops is not None else 4 * len(network.nodes())
    node = source
    previous: Optional[int] = None
    total_delay = 0.0
    hops = 0
    exploring = explore and isinstance(router, CPNRouter)
    while node != dest:
        if hops >= max_hops:
            return PacketOutcome(delivered=False, delay=total_delay, hops=hops)
        if exploring:
            nxt = router.explore_hop(node, dest, t, qos=qos, avoid=previous)
        else:
            nxt = router.next_hop(node, dest, t, qos=qos, avoid=previous)
        if nxt is None:
            return PacketOutcome(delivered=False, delay=total_delay, hops=hops)
        hop_delay = network.current_delay(node, nxt, t)
        if faults is not None:
            hop_delay *= faults.link_factor()
        if network.sample_loss(node, nxt, t) or (
                faults is not None and faults.link_lost()):
            if isinstance(router, CPNRouter):
                router.observe_loss(node, nxt, dest, t)
            return PacketOutcome(delivered=False,
                                 delay=total_delay + hop_delay, hops=hops + 1)
        total_delay += hop_delay
        router.observe_hop(node, nxt, dest, hop_delay, t)
        previous = node
        node = nxt
        hops += 1
    return PacketOutcome(delivered=True, delay=total_delay, hops=hops)


def routing_step(network: CPNetwork, router: Router, flows: Sequence[Flow],
                 t: float,
                 smart_packets_per_flow: int = 2,
                 faults: Optional["FaultInjector"] = None) -> RoutingStepRecord:
    """One simulation step: smart packets, payload packets, aggregates.

    :class:`repro.api.CPNSimulator` steps through this, and
    ``repro.bench`` times it directly as the per-step routing kernel.
    """
    if faults is not None:
        faults.begin_step(t)
    router.new_step(t)
    if isinstance(router, CPNRouter):
        for flow in flows:
            for _ in range(smart_packets_per_flow):
                forward_packet(network, router, flow.source, flow.dest,
                               t, explore=True, qos=flow.qos, faults=faults)
    sent = delivered = 0
    delay_sum = 0.0
    traced = obs_events.enabled()
    for flow in flows:
        for _ in range(flow.packets_per_step):
            sent += 1
            outcome = forward_packet(network, router, flow.source,
                                     flow.dest, t, qos=flow.qos,
                                     faults=faults)
            if outcome.delivered:
                delivered += 1
                delay_sum += outcome.delay
                if traced:
                    obs_metrics.histogram("cpn.packet_delay").observe(
                        outcome.delay)
    if traced:
        obs_metrics.counter("steps", sim="cpn").increment()
        obs_metrics.counter("cpn.packets_sent").increment(sent)
        obs_metrics.counter("cpn.packets_delivered").increment(delivered)
        obs_events.emit("cpn.step", time=t, sent=sent,
                        delivered=delivered,
                        attack_active=network.attack_active(t))
    return RoutingStepRecord(
        time=t, sent=sent, delivered=delivered,
        mean_delay=delay_sum / delivered if delivered else math.nan,
        attack_active=network.attack_active(t))


def default_flows(network: CPNetwork, n_flows: int = 6,
                  seed: int = 0) -> List[Flow]:
    """Random distinct source/destination pairs."""
    rng = np.random.default_rng(seed)
    nodes = network.nodes()
    flows: List[Flow] = []
    while len(flows) < n_flows:
        s, d = rng.choice(nodes, size=2, replace=False)
        flows.append(Flow(source=int(s), dest=int(d)))
    return flows
