"""``repro.serve`` -- a request-serving layer that is itself self-aware.

The reproduction dogfooding its own framework: an asyncio server over
the :mod:`repro.api` simulator registry whose *operational* decisions --
worker-pool size, admission rate, queue bounds, degraded-mode behaviour
-- are made by a :class:`~repro.serve.governor.ServeGovernor` assembled
from the very ``core`` primitives the paper reproduction studies.  The
cluster fabric closes the paper's *collective* level over N such nodes:
gossiped learned self-models drive decentralised budget splitting and
session migration.

Modules:

- :mod:`~repro.serve.protocol` -- the versioned wire envelope: ``"v"``
  stamping, the :class:`~repro.serve.protocol.ErrorCode` enum,
  structured error objects, ``CapabilityError``;
- :mod:`~repro.serve.config` -- frozen keyword-only ``ServerConfig``;
- :mod:`~repro.serve.server` -- ``SimulationServer`` (JSON over asyncio
  streams) + ``Client``/``InProcessClient``;
- :mod:`~repro.serve.sessions` -- session table, TTL eviction,
  rehydration from configs, LRU snapshot cache, migration handles;
- :mod:`~repro.serve.batching` -- per-substrate micro-batching onto a
  bounded process pool, byte-identical to sequential stepping;
- :mod:`~repro.serve.admission` -- token bucket + bounded queue with
  load shedding;
- :mod:`~repro.serve.governor` -- the self-aware control plane, plus
  the gossip-wrapped :class:`~repro.serve.governor.CollectiveGovernor`;
- :mod:`~repro.serve.ring` -- consistent-hash session placement;
- :mod:`~repro.serve.gossip` -- gossiped ``NodeSelfView`` board and the
  collective budget split;
- :mod:`~repro.serve.cluster` -- ``ServeCluster`` (N in-process nodes),
  the routing ``ClusterClient``, and the deterministic
  ``ClusterSimulation`` model that experiment E16 scores;
- :mod:`~repro.serve.simulation` -- ``SimNode`` and the single-node
  ``ServingSimulation`` model that experiment E14 scores.

The two models have no lifecycle of their own: like every substrate
they are stepped, reset and read through their :mod:`repro.api`
adapters (``make_simulator("serve" | "cluster", config)``).

Run a server: ``python -m repro.serve --port 8642``.
"""

from .admission import ADMIT, SHED_QUEUE, SHED_RATE, AdmissionController, TokenBucket
from .batching import BatchDispatcher, StepRequest, run_step_batch
from .cluster import ClusterClient, ClusterSimulation, ServeCluster
from .config import ServerConfig
from .gossip import GossipBoard, NodeSelfView, budget_shares, cluster_load
from .governor import (CollectiveGovernor, GovernorDecision, ServeGovernor,
                       ServeSelfModel, StaticGovernor, make_serve_goal)
from .protocol import (PROTOCOL_VERSION, RETRYABLE, CapabilityError,
                       ErrorCode, error_code, error_response, ok_response)
from .ring import HashRing, stable_hash
from .server import Client, InProcessClient, SimulationServer
from .sessions import Session, SessionTable, SnapshotCache, UnknownSession
from .simulation import ServingSimulation

__all__ = [
    "ADMIT", "SHED_RATE", "SHED_QUEUE", "TokenBucket", "AdmissionController",
    "BatchDispatcher", "StepRequest", "run_step_batch",
    "GovernorDecision", "ServeGovernor", "ServeSelfModel", "StaticGovernor",
    "CollectiveGovernor", "make_serve_goal",
    "PROTOCOL_VERSION", "RETRYABLE", "ErrorCode", "CapabilityError",
    "error_response", "ok_response", "error_code",
    "ServerConfig",
    "HashRing", "stable_hash",
    "GossipBoard", "NodeSelfView", "budget_shares", "cluster_load",
    "SimulationServer", "Client", "InProcessClient",
    "ServeCluster", "ClusterClient", "ClusterSimulation",
    "Session", "SessionTable", "SnapshotCache", "UnknownSession",
    "ServingSimulation",
]
