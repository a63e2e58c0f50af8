"""The sharded serving cluster: collective self-awareness over N nodes.

One :class:`~repro.serve.server.SimulationServer` is a self-aware
system; this module scales it out and closes the paper's *collective*
level over the result.  Three pieces:

* :class:`ServeCluster` -- N in-process servers sharing a consistent-
  hash ring (:mod:`repro.serve.ring`), an authoritative session
  placement map and a gossip board (:mod:`repro.serve.gossip`).  Each
  node's governor comes from :func:`~repro.serve.governor.make_governor`;
  under the collective arm it is a
  :class:`~repro.serve.governor.CollectiveGovernor`, so pool sizing and
  admission become collective decisions computed decentrally from
  gossiped self-models.  Sessions migrate between nodes through their
  declarative handles: the byte-identical hibernate/rehydrate replay
  path *is* the migration transport.

* :class:`ClusterClient` -- the cluster-aware client facade.  It routes
  session ops by cached placement (ring guess first), follows the
  protocol's retryable ``moved`` redirects, and spreads ``create``
  calls over the ring; capability mismatch raises the same
  :class:`~repro.serve.protocol.CapabilityError` as the per-node
  clients.

* :class:`ClusterSimulation` -- the deterministic discrete-time model
  experiment E16 scores: Zipf-skewed or flash-crowd traffic over ring-
  placed sessions, routed to N copies of the one simulated serving node
  (:class:`~repro.serve.simulation.SimNode`, the node E14 scores alone)
  under the three governor arms (``collective`` / ``per_node`` /
  ``static``) splitting one cluster-wide worker budget.  Stepped by
  :class:`~repro.api.adapters.ClusterSimulator`, the ``"cluster"``
  substrate of :mod:`repro.api`.

Determinism: all simulation randomness flows from
``default_rng([0xC105, seed])`` plus each governor's own seeded stream,
so a given ``(config, seed)`` replays byte-identically.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

import numpy as np

from ..api.configs import ClusterConfig
from ..envgen.scenario import FlashMix, UniformMix, ZipfMix
from ..obs import events as obs_events
from .config import ServerConfig
from .gossip import GossipBoard
from .governor import make_governor
from .protocol import ErrorCode, error_code
from .ring import HashRing
from .server import Client, InProcessClient, SimulationServer
from .simulation import SimNode

#: The governor arms that split one cluster-wide worker budget.
CLUSTER_ARMS = ("collective", "per_node", "static")


# ---------------------------------------------------------------------------
# The live cluster
# ---------------------------------------------------------------------------


class ServeCluster:
    """N cooperating :class:`SimulationServer` nodes in one process.

    The nodes share three objects -- the ring, the placement map and the
    gossip board -- which is exactly the state a networked deployment
    would replicate; everything else stays per-node.  ``governor``
    selects the control arm: ``"collective"`` wraps each node's
    self-aware governor with gossip-driven budget sharing,
    ``"per_node"`` runs isolated self-aware governors capped at the
    fair share, ``"static"`` fixes every pool at design time.
    """

    def __init__(self, *, nodes: int = 3,
                 base: Optional[ServerConfig] = None,
                 governor: str = "collective",
                 worker_budget: Optional[int] = None,
                 gossip_ttl: float = 10.0,
                 replicas: int = 64) -> None:
        if nodes < 1:
            raise ValueError("nodes must be >= 1")
        base = base if base is not None else ServerConfig()
        self.node_ids = [f"n{i}" for i in range(nodes)]
        self.ring = HashRing(self.node_ids, replicas=replicas)
        self.placements: Dict[str, str] = {}
        self.board = GossipBoard(ttl=gossip_ttl)
        budget = (worker_budget if worker_budget is not None
                  else max(nodes, base.max_workers * nodes))
        fair = max(base.min_workers, budget // nodes)
        self.worker_budget = budget
        self.servers: Dict[str, SimulationServer] = {}
        import dataclasses
        for i, node_id in enumerate(self.node_ids):
            cfg = dataclasses.replace(base, node_id=node_id, port=0,
                                      seed=base.seed + i)
            gov = make_governor(
                governor, CLUSTER_ARMS + ("none",), pool_size=fair,
                max_workers=fair, min_workers=cfg.min_workers,
                slo_p95=cfg.slo_p95,
                service_rate_guess=cfg.service_rate_guess, seed=cfg.seed,
                worker_budget=budget, board=self.board, node_id=node_id)
            if gov is None:
                # governor=None makes the node build config.governor.
                cfg = dataclasses.replace(cfg, governor="none")
            self.servers[node_id] = SimulationServer(
                cfg, ring=self.ring, placements=self.placements,
                board=self.board, governor=gov)

    def __len__(self) -> int:
        return len(self.servers)

    async def start(self, *, listen: bool = False) -> "ServeCluster":
        for server in self.servers.values():
            await server.start(listen=listen)
        return self

    async def stop(self) -> None:
        for server in self.servers.values():
            await server.stop()

    def client(self, node: Optional[str] = None) -> InProcessClient:
        """A plain per-node client (moved errors surface to the caller)."""
        node = node if node is not None else self.node_ids[0]
        return InProcessClient(self.servers[node])

    def cluster_client(self) -> "ClusterClient":
        """The routing facade over every node."""
        return ClusterClient({n: InProcessClient(s)
                              for n, s in self.servers.items()},
                             ring=self.ring)

    async def migrate(self, session_id: str, dst: str) -> Dict[str, Any]:
        """Move a session to ``dst`` via its declarative handle.

        Placement flips *first*, so new traffic for the session bounces
        off both nodes with retryable ``moved`` errors for the duration
        of the hand-off instead of racing the hand-off itself; the
        export runs under the session lock on the old owner, so any
        in-flight step commits into the handle.
        """
        if dst not in self.servers:
            raise ValueError(f"unknown node {dst!r}")
        src = self.placements.get(session_id)
        if src is None:
            raise KeyError(f"no placement for session {session_id!r}")
        if src == dst:
            return {"session": session_id, "node": dst, "moved": False}
        self.placements[session_id] = dst
        out = await self.servers[src].dispatch(
            {"op": "migrate_out", "session": session_id})
        if not out.get("ok"):
            self.placements[session_id] = src  # roll back
            raise RuntimeError(f"migrate_out failed: {error_code(out)}")
        res = await self.servers[dst].dispatch(
            {"op": "migrate_in", "handle": out["handle"]})
        if not res.get("ok"):
            self.placements[session_id] = src
            raise RuntimeError(f"migrate_in failed: {error_code(res)}")
        return {"session": session_id, "node": dst, "moved": True,
                "steps_taken": res["steps_taken"]}


class ClusterClient(Client):
    """Cluster-aware client: placement-cached routing with ``moved``
    redirect following.

    The ring gives the *guess* (it is how creates are spread and how an
    unknown session is first routed); the cluster's ``moved`` errors
    give the *truth*, which the client caches.  A redirect chain longer
    than ``max_redirects`` raises rather than looping -- placement
    churn that fast means the cluster is reconfiguring under the
    caller's feet and deserves loudness.
    """

    def __init__(self, clients: Dict[str, Client], *,
                 ring: Optional[HashRing] = None,
                 max_redirects: int = 4) -> None:  # noqa: super
        if not clients:
            raise ValueError("need at least one node client")
        self._clients = dict(clients)
        self._ring = ring if ring is not None else HashRing(sorted(clients))
        self._placements: Dict[str, str] = {}
        self.max_redirects = max_redirects
        self._created = 0
        self.redirects_followed = 0

    def _pick_node(self, payload: Dict[str, Any]) -> str:
        session = payload.get("session")
        if session is not None:
            sid = str(session)
            cached = self._placements.get(sid)
            if cached is not None:
                return cached
            guess = self._ring.owner(sid)
            return guess if guess in self._clients else next(iter(self._clients))
        if payload.get("op") == "create":
            # Spread creates over the ring deterministically.
            self._created += 1
            owner = self._ring.owner(f"create-{self._created}")
            return owner if owner in self._clients else next(iter(self._clients))
        return next(iter(self._clients))

    async def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        node = self._pick_node(payload)
        for _ in range(self.max_redirects + 1):
            response = await self._clients[node].request(dict(payload))
            if error_code(response) == ErrorCode.MOVED.value:
                owner = response["error"].get("node")
                if owner is None or owner not in self._clients:
                    return response
                session = payload.get("session")
                if session is not None:
                    self._placements[str(session)] = owner
                node = owner
                self.redirects_followed += 1
                continue
            session = response.get("session")
            if response.get("ok") and session is not None:
                self._placements[str(session)] = response.get("node", node)
            return response
        raise RuntimeError(
            f"placement for {payload.get('session')!r} still moving after "
            f"{self.max_redirects} redirects")

    async def close(self) -> None:
        for client in self._clients.values():
            await client.close()


# ---------------------------------------------------------------------------
# The deterministic cluster simulation (substrate "cluster", experiment E16)
# ---------------------------------------------------------------------------


class ClusterSimulation:
    """Cluster goodput under skewed and flash-crowd traffic.

    ``sessions`` client sessions are placed on the ring by id; traffic
    splits over them by a popularity profile (Zipf for the skewed tier,
    a flash-crowd window for the flash tier), so node load is as uneven
    as real placement makes it.  Each node is a
    :class:`~repro.serve.simulation.SimNode` -- the real
    :class:`~repro.serve.admission.AdmissionController` and one of the
    three governor arms over a shared cluster-wide worker budget; the
    collective arm additionally rebalances sessions -- the simulated
    counterpart of handle migration -- using its *measured* per-session
    arrival estimates, never the generator's true weights.  Stepped by
    :class:`~repro.api.adapters.ClusterSimulator`, which owns the clock,
    ``reset`` and the ``snapshot`` / ``metrics`` reads.
    """

    def __init__(self, config: ClusterConfig, *,
                 workload: Optional[Any] = None) -> None:
        if config.traffic not in ("skewed", "flash", "uniform"):
            raise ValueError(f"unknown traffic tier {config.traffic!r}")
        if config.worker_budget < config.nodes:
            raise ValueError("worker_budget must cover >= 1 worker per node")
        self.config = config
        #: Replay source (:class:`repro.twin.TraceWorkload`): recorded
        #: per-session counts replace the Poisson/multinomial draws.
        self.workload = workload
        seed = config.seed
        self.rng = np.random.default_rng([0xC105, seed])
        # Traffic tiers are Scenario session mixes; the expressions are
        # byte-identical to the generators this class used to inline
        # (pinned by tests/serve/test_traffic_identity.py).
        if config.traffic == "skewed":
            self._mix: Any = ZipfMix(s=config.zipf_s)
        elif config.traffic == "flash":
            self._mix = FlashMix(at=float(config.flash_at),
                                 length=float(config.flash_len),
                                 factor=config.flash_factor,
                                 sessions=config.flash_sessions)
        else:
            self._mix = UniformMix()
        self._scenario_track = None
        if config.scenario:
            from ..envgen.scenario import make_scenario
            scenario = make_scenario(config.scenario)
            self._scenario_track = scenario.render(config.steps, seed=seed)
            mix = scenario.session_mix()
            if mix is not None:
                self._mix = mix
        self.node_ids = [f"n{i}" for i in range(config.nodes)]
        self.ring = HashRing(self.node_ids, replicas=config.ring_replicas)
        self.session_ids = [f"sess{j:03d}" for j in range(config.sessions)]
        self.placements: Dict[str, str] = {
            sid: self.ring.owner(sid) for sid in self.session_ids}
        self.board = GossipBoard(ttl=config.gossip_ttl)
        fair = self._fair_share()
        #: Every completion as ``[completion_tick, latency]``, all nodes.
        self.latencies: List[List[float]] = []
        self.nodes: Dict[str, SimNode] = {}
        for i, node_id in enumerate(self.node_ids):
            governor = make_governor(
                config.governor, CLUSTER_ARMS, pool_size=fair,
                max_workers=fair, min_workers=config.min_workers,
                slo_p95=config.slo_p95,
                service_rate_guess=config.per_worker_rate,
                seed=seed * 31 + i, admit_headroom=config.admit_headroom,
                epsilon=config.epsilon, worker_budget=config.worker_budget,
                board=self.board, node_id=node_id,
                sessions_fn=lambda n=node_id: sum(
                    1 for owner in self.placements.values() if owner == n))
            self.nodes[node_id] = SimNode(
                governor, fair, config, self.rng, self.latencies,
                min_pool=config.min_workers)
        #: Measured per-session arrival EWMA (requests/tick) -- what the
        #: rebalancer acts on; the generator's true weights stay hidden.
        self._sess_rate: Dict[str, float] = {
            sid: 0.0 for sid in self.session_ids}
        #: Sessions whose arrivals are dropped until the noted tick
        #: (in-flight migration).
        self._frozen: Dict[str, float] = {}
        self.records: List[Dict[str, float]] = []
        self.migrations = 0
        #: Governor ticks taken, and those decided on fresh gossip.
        self.govern_ticks = 0
        self.collective_ticks = 0

    def _fair_share(self) -> int:
        cfg = self.config
        return max(cfg.min_workers, cfg.worker_budget // cfg.nodes)

    # -- traffic -----------------------------------------------------------

    def _weights(self, t: float) -> np.ndarray:
        return self._mix.weights(t, self.config.sessions)

    # -- one tick ----------------------------------------------------------

    def step(self, t: float) -> Dict[str, float]:
        cfg = self.config

        # Ordered scale-ups come online; the collective arm grants them
        # within the shared budget.
        total_pool = sum(node.pool for node in self.nodes.values())
        for node in self.nodes.values():
            before = node.pool
            node.boot(t, before + max(0, cfg.worker_budget - total_pool)
                      if cfg.governor == "collective" else math.inf)
            total_pool += node.pool - before

        # Arrivals: one Poisson draw split over sessions by popularity,
        # routed to each session's placed node through its admission.
        if self.workload is not None:
            # Twin replay: recorded totals and per-session counts stand
            # in for both draws, keeping the rng stream aligned across
            # candidates replaying the same trace.
            offered_total = self.workload.offered(t)
            counts = self.workload.session_counts(t, cfg.sessions)
        else:
            rate = cfg.offered_load
            if self._scenario_track is not None:
                rate *= self._scenario_track.rate_at(t)
            offered_total = int(self.rng.poisson(rate))
            counts = self.rng.multinomial(offered_total, self._weights(t))
        admitted_total = 0
        for j, sid in enumerate(self.session_ids):
            arrivals = int(counts[j])
            rate = self._sess_rate[sid]
            self._sess_rate[sid] = 0.8 * rate + 0.2 * arrivals
            if arrivals == 0:
                continue
            if self._frozen.get(sid, -1.0) > t:
                continue  # migration freeze: dropped, counted as shed
            admitted_total += self.nodes[self.placements[sid]].admit(
                t, arrivals)
        shed_total = offered_total - admitted_total

        # Service: each pool drains its work budget FIFO.
        completions_total = 0
        good_total = 0
        queue_total = 0
        for node in self.nodes.values():
            node.drain(t, node.pool)
            completions_total += node.completions
            good_total += node.good
            queue_total += len(node.queue)

        # Governance: each node senses itself and decides; the
        # collective arm also gossips and splits the budget.
        if int(t) % cfg.govern_every == 0:
            for node in self.nodes.values():
                node.govern(t, node.readings(node.pool))
                self.govern_ticks += 1
                if getattr(node.governor, "collective", False):
                    self.collective_ticks += 1

        # Rebalance: migrate a session off a hot node (collective only).
        if (cfg.governor == "collective" and cfg.rebalance and t > 0
                and int(t) % cfg.rebalance_every == 0):
            self._rebalance(t)

        record = {"time": t, "offered": float(offered_total),
                  "admitted": float(admitted_total),
                  "shed": float(shed_total),
                  "completions": float(completions_total),
                  "good": float(good_total),
                  "queue_depth": float(queue_total),
                  "pool": float(sum(n.pool for n in self.nodes.values()))}
        self.records.append(record)
        if obs_events.enabled():
            by_session = {sid: int(counts[j])
                          for j, sid in enumerate(self.session_ids)
                          if counts[j]}
            obs_events.emit("cluster.tick", time=t, offered=offered_total,
                            admitted=admitted_total, shed=shed_total,
                            completions=completions_total,
                            queue=queue_total, pool=record["pool"],
                            by_session=by_session)
        return record

    def _rebalance(self, t: float) -> None:
        """Move one session off the most overloaded node, if any.

        Decisions run on *believed* state: gossiped pools and measured
        per-session arrival estimates.  The hottest session stays put
        (it defines the node's load; moving it just relocates the
        hotspot) -- the second-hottest moves, which is exactly the
        co-located flash-crowd case migration exists for.  Headroom at
        the destination is judged against fair-share *potential*
        capacity: under collective budgeting a cold node can grow to at
        least its fair share once load arrives.
        """
        cfg = self.config
        fair = self._fair_share()
        load = {n: 0.0 for n in self.node_ids}
        by_node: Dict[str, List[str]] = {n: [] for n in self.node_ids}
        for sid, owner in self.placements.items():
            load[owner] += self._sess_rate[sid]
            by_node[owner].append(sid)
        hot = max(self.node_ids,
                  key=lambda n: load[n] - cfg.hot_utilisation
                  * self.nodes[n].pool * cfg.per_worker_rate)
        overload = (load[hot] - cfg.hot_utilisation
                    * self.nodes[hot].pool * cfg.per_worker_rate)
        candidates = sorted(by_node[hot],
                            key=lambda s: (-self._sess_rate[s], s))
        if overload <= 0.0 or len(candidates) < 2:
            return
        moving = candidates[1]
        headroom = {
            n: max(self.nodes[n].pool, fair) * cfg.per_worker_rate - load[n]
            for n in self.node_ids if n != hot}
        dst = max(sorted(headroom), key=lambda n: headroom[n], default=None)
        if dst is None or headroom[dst] <= 0.0:  # None: a one-node cluster
            return
        self.placements[moving] = dst
        self._frozen[moving] = t + cfg.migration_freeze
        self.migrations += 1
        if obs_events.enabled():
            obs_events.emit("cluster.rebalance", time=t, session=moving,
                            src=hot, dst=dst,
                            rate=self._sess_rate[moving],
                            overload=overload)
