"""Routers: static, oracle, and the CPN self-aware router.

The cognitive packet network's defining feature is a per-node
self-awareness loop: nodes monitor the quality of service their routing
decisions achieve and adapt route choice continuously using a simple
learning scheme.  :class:`CPNRouter` realises it as Q-routing (each node
learns the expected remaining delay to each destination via each
neighbour, updated from its neighbours' own estimates -- a collective,
fully decentralised self-model of the network), with smart-packet
exploration keeping estimates fresh.

Baselines: :class:`StaticRouter` (design-time shortest paths, never
updated) and :class:`OracleRouter` (omniscient recomputation every step
-- an upper bound no real decentralised system can reach).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .topology import CPNetwork


@dataclass(frozen=True)
class QoSClass:
    """A per-flow quality-of-service goal.

    CPN's defining feature is that packets carry their own QoS goals and
    the network adapts routes per goal.  ``loss_equivalent_delay`` is the
    delay (in the network's delay units) one unit of loss probability is
    worth to this traffic: delay-sensitive traffic sets it low (take the
    fast route, losses be damned), loss-sensitive traffic sets it high
    (detour around anything unreliable).
    """

    name: str
    loss_equivalent_delay: float = 20.0

    def __post_init__(self) -> None:
        if self.loss_equivalent_delay < 0:
            raise ValueError("loss_equivalent_delay must be non-negative")


#: Ready-made classes for the experiments.
DELAY_SENSITIVE = QoSClass(name="delay-sensitive", loss_equivalent_delay=2.0)
LOSS_SENSITIVE = QoSClass(name="loss-sensitive", loss_equivalent_delay=300.0)
DEFAULT_QOS = QoSClass(name="default", loss_equivalent_delay=20.0)


class Router(ABC):
    """Hop-by-hop forwarding policy."""

    @abstractmethod
    def next_hop(self, node: int, dest: int, t: float,
                 qos: Optional[QoSClass] = None,
                 avoid: Optional[int] = None) -> Optional[int]:
        """Neighbour to forward to (None when no route is known).

        ``avoid`` names the node the packet just came from; routers that
        can should prefer not to send it straight back (ping-pong loops
        waste the TTL), but may when no alternative exists.
        """

    def observe_hop(self, u: int, v: int, dest: int, delay: float,
                    t: float) -> None:
        """Telemetry from a traversed hop (default: ignored)."""

    def new_step(self, t: float) -> None:
        """Called once per simulation step (default: no-op)."""


class StaticRouter(Router):
    """Shortest paths on design-time delays, frozen forever."""

    def __init__(self, network: CPNetwork) -> None:
        self._tables: Dict[int, Dict[int, int]] = {}
        for dest in network.nodes():
            self._tables[dest] = network.static_shortest_paths(dest)

    def next_hop(self, node: int, dest: int, t: float,
                 qos: Optional[QoSClass] = None,
                 avoid: Optional[int] = None) -> Optional[int]:
        return self._tables.get(dest, {}).get(node)


class OracleRouter(Router):
    """Recomputes true shortest paths when link state changes.

    Still the omniscient upper bound: routes are always shortest paths
    on the *current* true delays.  The Dijkstra tables are recomputed
    only when the network's
    :meth:`~repro.cpn.topology.CPNetwork.dynamics_signature` actually
    changed -- between change points the true delays are constant, so
    the cached tables are exactly what a fresh recomputation would
    produce.
    """

    def __init__(self, network: CPNetwork) -> None:
        self._network = network
        self._tables: Dict[int, Dict[int, int]] = {}
        self._tables_time = -1.0
        self._signature: Optional[Tuple] = None

    def new_step(self, t: float) -> None:
        signature = self._network.dynamics_signature(t)
        if signature == self._signature and self._tables_time >= 0.0:
            self._tables_time = t
            return
        self._signature = signature
        self._tables = {}
        self._tables_time = t

    def next_hop(self, node: int, dest: int, t: float,
                 qos: Optional[QoSClass] = None,
                 avoid: Optional[int] = None) -> Optional[int]:
        if dest not in self._tables:
            self._tables[dest] = self._network.oracle_shortest_paths(dest, t)
        return self._tables[dest].get(node)


class CPNRouter(Router):
    """Q-routing with smart-packet exploration: the self-aware router.

    Per (node, destination, neighbour) the router keeps an estimate of
    the remaining delivery delay.  When a packet hops ``u -> v`` toward
    ``dest``, the estimate updates toward
    ``hop_delay + min_w Q[v][dest][w]`` (zero at the destination) -- each
    node's knowledge is built from its own measurements plus its
    neighbours' self-knowledge: collective self-awareness with no global
    table anywhere.

    Parameters
    ----------
    network:
        Topology (used only for the neighbour lists and initial
        optimistic estimates -- *not* for true delays).
    learning_rate:
        Q update step size.
    epsilon:
        Smart-packet exploration rate: probability an exploring hop picks
        a random neighbour instead of the greedy one.
    loss_penalty:
        Weight converting the learned per-entry loss rate into equivalent
        delay for route scoring (the DoS-defence mechanism: lossy regions
        become expensive and are routed around).
    loss_alpha:
        EWMA factor of the per-entry loss-rate estimate.
    """

    def __init__(self, network: CPNetwork, learning_rate: float = 0.3,
                 epsilon: float = 0.05, loss_penalty: float = 20.0,
                 loss_alpha: float = 0.1,
                 rng: Optional[np.random.Generator] = None) -> None:
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if not 0.0 < loss_alpha <= 1.0:
            raise ValueError("loss_alpha must be in (0, 1]")
        self._network = network
        self.learning_rate = learning_rate
        self.epsilon = epsilon
        self.loss_penalty = loss_penalty
        self.loss_alpha = loss_alpha
        self._rng = rng if rng is not None else np.random.default_rng()
        # Optimistic initial estimates (base delay of the first hop) make
        # unexplored routes attractive, driving early exploration.
        self._q: Dict[Tuple[int, int], Dict[int, float]] = {}
        self._loss: Dict[Tuple[int, int], Dict[int, float]] = {}
        for node in network.nodes():
            for dest in network.nodes():
                if node == dest:
                    continue
                self._q[(node, dest)] = {
                    nb: network.base_delay(node, nb)
                    for nb in network.neighbours(node)}
                self._loss[(node, dest)] = {
                    nb: 0.0 for nb in network.neighbours(node)}

    def q_value(self, node: int, dest: int, neighbour: int) -> float:
        """Current estimated remaining delay from ``node`` via ``neighbour``."""
        return self._q[(node, dest)][neighbour]

    def loss_estimate(self, node: int, dest: int, neighbour: int) -> float:
        """Learned loss rate of forwarding via ``neighbour``."""
        return self._loss[(node, dest)][neighbour]

    def _score(self, node: int, dest: int, neighbour: int,
               qos: Optional[QoSClass] = None) -> float:
        """Route cost: estimated delay plus QoS-weighted loss penalty.

        The delay and loss estimates are physical, shared across traffic
        classes; only the *weighting* is per-class -- exactly how CPN
        lets each packet carry its own goal over one set of measurements.
        """
        weight = qos.loss_equivalent_delay if qos is not None else self.loss_penalty
        return (self._q[(node, dest)][neighbour]
                + weight * self._loss[(node, dest)][neighbour])

    def best_remaining(self, node: int, dest: int,
                       qos: Optional[QoSClass] = None) -> float:
        """Node's own estimate of its best remaining cost to ``dest``."""
        if node == dest:
            return 0.0
        return min(self._score(node, dest, nb, qos)
                   for nb in self._q[(node, dest)])

    def _candidates(self, node: int, dest: int,
                    avoid: Optional[int]) -> Optional[List[int]]:
        table = self._q.get((node, dest))
        if not table:
            return None
        options = [nb for nb in table if nb != avoid]
        return options if options else list(table)

    def next_hop(self, node: int, dest: int, t: float,
                 qos: Optional[QoSClass] = None,
                 avoid: Optional[int] = None) -> Optional[int]:
        """Greedy forwarding: payload ("dumb") packets take the best-known
        route *for their QoS class*; exploration is the job of smart
        packets (:meth:`explore_hop`), exactly as in the CPN architecture.
        The previous node is avoided unless it is the only way out."""
        options = self._candidates(node, dest, avoid)
        if options is None:
            return None
        return min(options,
                   key=lambda nb: (self._score(node, dest, nb, qos), nb))

    def explore_hop(self, node: int, dest: int, t: float,
                    qos: Optional[QoSClass] = None,
                    avoid: Optional[int] = None) -> Optional[int]:
        """Smart-packet forwarding: ε-greedy, refreshing route knowledge."""
        options = self._candidates(node, dest, avoid)
        if options is None:
            return None
        if self._rng.random() < self.epsilon:
            return options[int(self._rng.integers(len(options)))]
        return min(options,
                   key=lambda nb: (self._score(node, dest, nb, qos), nb))

    def observe_hop(self, u: int, v: int, dest: int, delay: float,
                    t: float) -> None:
        """Q-routing backup from one successfully traversed hop."""
        remaining = self.best_remaining(v, dest) if v != dest else 0.0
        target = delay + remaining
        table = self._q[(u, dest)]
        table[v] += self.learning_rate * (target - table[v])
        loss_table = self._loss[(u, dest)]
        loss_table[v] += self.loss_alpha * (0.0 - loss_table[v])

    def observe_loss(self, u: int, v: int, dest: int, t: float) -> None:
        """Record a loss event on the entry that forwarded the packet."""
        loss_table = self._loss[(u, dest)]
        loss_table[v] += self.loss_alpha * (1.0 - loss_table[v])
