"""Serve-layer configuration: frozen keyword-only dataclasses.

The live server and the cluster fabric follow the same config
conventions as the :mod:`repro.api` substrate configs (frozen --
a config is a shareable value; keyword-only -- call sites read as
documentation; JSON-safe fields -- configs travel through engines and
wire protocols untouched).

(:class:`~repro.api.configs.ClusterConfig`, the *simulated* cluster's
config, lives with the other substrate configs in ``repro.api``; this
module configures the live asyncio deployment.)
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, kw_only=True)
class ServerConfig:
    """One serving node (:class:`~repro.serve.server.SimulationServer`)."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Batch-dispatcher pool size; ``0`` steps in-process.
    workers: int = 0
    max_batch: int = 8
    #: ``"self_aware"``, ``"static"`` or ``"none"``.
    governor: str = "self_aware"
    min_workers: int = 1
    max_workers: int = 4
    #: Session idle TTL, seconds.
    ttl: float = 300.0
    max_sessions: int = 256
    admission_rate: float = 200.0
    admission_burst: float = 400.0
    max_queue: float = 512.0
    #: p95 latency SLO handed to the governor, seconds.
    slo_p95: float = 0.25
    #: Initial belief about requests/second one worker sustains.
    service_rate_guess: float = 200.0
    govern_interval: float = 1.0
    seed: int = 0
    #: Cluster identity; single servers keep the default.
    node_id: str = "n0"
