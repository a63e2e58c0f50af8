"""Micro-batching: coalesce step requests and execute them on a pool.

The serving layer's throughput engine.  Step requests arriving close
together are coalesced into per-substrate batches and executed by a
picklable module-level worker function -- the same machinery shape the
parallel experiment engine uses for its shards -- on a bounded
``ProcessPoolExecutor``.

Correctness rests entirely on the :mod:`repro.api` replay guarantee.  A
work item is declarative: ``(substrate, config, base_steps, n_steps)``.
Any worker can execute it from scratch by rehydrating the simulator from
the config, replaying ``base_steps`` and stepping ``n_steps`` more.
:func:`_materialise` is the one place that replay happens.  As a fast
path it first looks in a *simulator map* -- ``session id -> (config,
simulator, steps_taken)`` -- and steps the live instance incrementally
when it sits exactly at ``base_steps``.  Because replay is
byte-identical, the live and from-scratch paths produce identical
results, so batching, worker count and map hits are all invisible in
the output.

Who owns the map decides how long a simulator lives:

* **in process** (``workers=0`` under a server) the map is the server's
  :attr:`~repro.serve.sessions.SessionTable.simulators`: a simulator
  lives exactly as long as its session, and closing, evicting,
  migrating out or hibernating the session drops it, so memory is
  bounded by the table's ``max_sessions`` and ``ttl``;
* **in pool workers**, and in a bare ``BatchDispatcher(workers=0)``,
  the map is this module's :data:`_WORKER_CACHE`, an LRU of
  :data:`_WORKER_CACHE_LIMIT` simulators per process that misses fall
  back from by replay.

``workers=0`` runs the very same worker function in-process (no pool),
which is what the determinism tests compare against.

A result carries the simulator's own ``metrics()`` and ``snapshot()``
unconverted: the :class:`~repro.api.protocol.Simulator` protocol makes
both fresh and JSON-native, so the wire encodes them once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (Any, Dict, List, MutableMapping, Optional,
                    Sequence, Tuple)

from ..api.adapters import make_simulator
from ..obs import events as obs_events
from ..obs import metrics as obs_metrics


@dataclass(frozen=True)
class StepRequest:
    """One declarative unit of stepping work.

    ``base_steps`` is the session's current position (steps already
    taken); ``n_steps`` how many further steps to execute.  The pair
    makes the item self-contained: no simulator state travels with it.
    """

    session_id: str
    substrate: str
    config: Any
    base_steps: int
    n_steps: int


#: A simulator map: session id -> (config, simulator, steps_taken).
SimulatorMap = MutableMapping[str, Tuple[Any, Any, int]]


class _LRUSimulators(OrderedDict):
    """A simulator map holding at most ``limit`` entries; storing one
    makes it the most recent and evicts the least recently stored."""

    def __init__(self, limit: int) -> None:
        super().__init__()
        self.limit = limit

    def __setitem__(self, key: str, value: Tuple[Any, Any, int]) -> None:
        super().__setitem__(key, value)
        self.move_to_end(key)
        while len(self) > self.limit:
            self.popitem(last=False)


#: Per-process simulator map for pool workers and bare dispatchers.
#: Lives at module level so pool workers retain it across batches.
_WORKER_CACHE_LIMIT = 64
_WORKER_CACHE = _LRUSimulators(_WORKER_CACHE_LIMIT)


def _materialise(request: StepRequest, simulators: SimulatorMap) -> Any:
    """A simulator positioned at ``base_steps``, taken out of
    ``simulators`` when it holds one there, else built and replayed.

    The entry is removed, not just read: a step that raises leaves no
    half-stepped simulator behind, and :func:`run_step_batch` stores it
    back only once the request has run.  The adapter constructors
    already ``reset(config.seed)``, so a fresh build needs no reset.
    """
    cached = simulators.pop(request.session_id, None)
    if cached is not None:
        config, sim, steps = cached
        if config == request.config and steps == request.base_steps:
            return sim
    sim = make_simulator(request.substrate, request.config)
    for _ in range(request.base_steps):
        sim.step()
    return sim


def run_step_batch(requests: Sequence[StepRequest],
                   simulators: Optional[SimulatorMap] = None,
                   ) -> List[Dict[str, Any]]:
    """Execute a batch of step requests; picklable pool entry point.

    ``simulators`` is the map live simulators are taken from and stored
    back to; ``None`` means this process's :data:`_WORKER_CACHE`.
    Returns one result per request, in order:
    ``{"session", "steps_taken", "metrics", "snapshot"}``, the last two
    the simulator's own fresh, JSON-native values.
    """
    if simulators is None:
        simulators = _WORKER_CACHE
    results: List[Dict[str, Any]] = []
    for request in requests:
        sim = _materialise(request, simulators)
        for _ in range(request.n_steps):
            sim.step()
        steps_taken = request.base_steps + request.n_steps
        simulators[request.session_id] = (request.config, sim, steps_taken)
        results.append({
            "session": request.session_id,
            "steps_taken": steps_taken,
            "metrics": sim.metrics(),
            "snapshot": sim.snapshot(),
        })
    return results


class BatchDispatcher:
    """Coalesce step requests per substrate and run them on a bounded pool.

    Parameters
    ----------
    workers:
        Pool size.  ``0`` executes batches synchronously in-process --
        the reference path determinism is measured against, and the
        right choice for tests and single-core hosts.
    max_batch:
        Largest number of requests handed to one worker invocation.
        Batches group by substrate first: simulator code and caches are
        substrate-local, so mixed batches would thrash the workers.
    simulators:
        The simulator map in-process batches use (a server passes its
        session table's, so simulators live as long as their sessions);
        ``None`` means the module's LRU :data:`_WORKER_CACHE`.  Pool
        workers always use their own process's LRU.
    """

    def __init__(self, *, workers: int = 0, max_batch: int = 8,
                 simulators: Optional[SimulatorMap] = None) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._workers = workers
        self.max_batch = max_batch
        self._simulators = simulators
        self._pool: ProcessPoolExecutor | None = None
        # submit() and resize() arrive from different executor threads
        # (the server's batch loop vs. its governor loop); without mutual
        # exclusion a resize can shut the pool down under an in-flight
        # submit, which then raises "cannot schedule new futures after
        # shutdown".  Reentrant because resize() calls close().
        self._lock = threading.RLock()
        self.batches_run = 0
        self.requests_run = 0

    @property
    def workers(self) -> int:
        return self._workers

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self._workers)
        return self._pool

    def _plan(self, requests: Sequence[StepRequest]) \
            -> List[List[Tuple[int, StepRequest]]]:
        """Group by substrate, preserve order, cap at ``max_batch``."""
        by_substrate: "OrderedDict[str, List[Tuple[int, StepRequest]]]" = OrderedDict()
        for index, request in enumerate(requests):
            by_substrate.setdefault(request.substrate, []).append((index, request))
        batches: List[List[Tuple[int, StepRequest]]] = []
        for items in by_substrate.values():
            for at in range(0, len(items), self.max_batch):
                batches.append(items[at:at + self.max_batch])
        return batches

    def submit(self, requests: Sequence[StepRequest]) -> List[Dict[str, Any]]:
        """Execute ``requests``; results align with the input order."""
        if not requests:
            return []
        with self._lock:
            batches = self._plan(requests)
            results: List[Dict[str, Any]] = [None] * len(requests)  # type: ignore
            if self._workers == 0:
                outputs = [run_step_batch([r for _, r in batch],
                                          self._simulators)
                           for batch in batches]
            else:
                pool = self._ensure_pool()
                futures = [pool.submit(run_step_batch, [r for _, r in batch])
                           for batch in batches]
                outputs = [future.result() for future in futures]
        for batch, output in zip(batches, outputs):
            for (index, _), result in zip(batch, output):
                results[index] = result
        self.batches_run += len(batches)
        self.requests_run += len(requests)
        if obs_events.enabled():
            obs_metrics.counter("serve.batches").increment(len(batches))
            obs_events.emit("serve.batch", requests=len(requests),
                            batches=len(batches),
                            sizes=[len(b) for b in batches])
        return results

    def resize(self, workers: int) -> None:
        """Change the pool size (the governor's other actuator).

        The old pool is drained and discarded; worker caches go with it,
        which is safe because every item is executable from scratch.
        """
        if workers < 0:
            raise ValueError("workers must be >= 0")
        with self._lock:
            if workers == self._workers:
                return
            self.close()
            self._workers = workers

    def close(self) -> None:
        with self._lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def __enter__(self) -> "BatchDispatcher":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
