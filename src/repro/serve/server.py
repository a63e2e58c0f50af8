"""The asyncio simulation server: versioned JSON requests over streams.

``SimulationServer`` exposes the whole :mod:`repro.api` registry as a
service.  The protocol is newline-delimited JSON objects; every request
and response carries the protocol version ``"v"``
(:data:`~repro.serve.protocol.PROTOCOL_VERSION`), every request an
``op`` and every response an ``ok`` flag::

    {"op": "create", "v": 1, "substrate": "cloud", "config": {"steps": 200}}
    {"ok": true, "v": 1, "session": "s000001", "substrate": "cloud"}

    {"op": "step", "v": 1, "session": "s000001", "n": 50}
    {"ok": true, "v": 1, "steps_taken": 50, "metrics": {...}, ...}

Failures are structured: ``{"ok": false, "v": 1, "error": {"code",
"message", "retryable", ...}}`` with codes from the single
:class:`~repro.serve.protocol.ErrorCode` enum.  Requests carrying an
unsupported ``v`` are answered with ``unsupported_version`` and never
reach a handler.

Ops: ``hello``, ``create``, ``step``, ``run`` (to the config's step
budget), ``snapshot``, ``metrics``, ``close``, ``stats``, ``explain``,
plus the cluster pair ``migrate_out`` / ``migrate_in``.

Architecture -- each piece of the serving story lives in its module and
meets here:

* requests pass :class:`~repro.serve.admission.AdmissionController`
  first (shed responses carry ``error.code: shed_rate | shed_queue``);
* stepping work is coalesced by a single batch loop and executed through
  :class:`~repro.serve.batching.BatchDispatcher` off the event loop;
* session state lives in :class:`~repro.serve.sessions.SessionTable`
  (TTL eviction runs as a background task); with ``workers=0`` the
  table also owns each session's live simulator, which batches step
  in place, so a session replays from ``reset`` only after
  hibernation or migration; ``snapshot`` and ``metrics`` at a
  session's current step are answered from its step cache;
* a :class:`~repro.serve.governor.ServeGovernor` periodically senses
  queue depth, arrival rate and request latency and re-expresses pool
  size and admission settings;
* when wired into a cluster (shared ring / placement map / gossip
  board from :mod:`repro.serve.cluster`), session ops owned elsewhere
  are refused with a retryable ``moved`` error naming the owner, and
  migration moves sessions between nodes via their declarative handles.

Configuration is a frozen :class:`~repro.serve.config.ServerConfig`.
For tests and embedding, :class:`InProcessClient` speaks the
same protocol straight into :meth:`SimulationServer.dispatch` without a
socket.
"""

from __future__ import annotations

import asyncio
import json
import logging
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from ..api.adapters import SIMULATORS
from ..explain import ExplanationStore
from ..metrics.stats import percentile_linear
from ..obs import events as obs_events
from ..obs import metrics as obs_metrics
from .admission import ADMIT, AdmissionController
from .batching import BatchDispatcher, StepRequest
from .config import ServerConfig
from .gossip import GossipBoard
from .governor import make_governor
from .protocol import (PROTOCOL_VERSION, CapabilityError, ErrorCode,
                       check_version, error_code, error_response, ok_response)
from .ring import HashRing
from .sessions import SessionTable, UnknownSession

log = logging.getLogger(__name__)

#: Ops that name an existing session and are therefore subject to the
#: cluster placement ("moved") guard.  The migration pair is exempt:
#: ``migrate_out`` runs on the old owner *after* placement has flipped
#: to the destination, and ``migrate_in`` does its own ownership check.
_PLACED_OPS = frozenset({"step", "run", "snapshot", "metrics", "close"})


def _json_safe(value: Any) -> Any:
    """Causal chains carry raw event fields (actions may be arbitrary
    hashables); rewrite anything non-JSON-native via ``repr`` so the
    wire protocol's plain ``json.dumps`` never chokes."""
    return json.loads(json.dumps(value, default=repr))


class SimulationServer:
    """Serve simulator sessions over asyncio streams.

    Parameters
    ----------
    config:
        A :class:`~repro.serve.config.ServerConfig` (defaults when
        ``None``).
    ring, placements, board, governor:
        Cluster wiring (injected by
        :class:`~repro.serve.cluster.ServeCluster`): the shared
        consistent-hash ring, the authoritative session->node placement
        map, the gossip board, and a prebuilt governor (anything with
        ``tick`` / ``explain``, such as a
        :class:`~repro.serve.governor.CollectiveGovernor`) that replaces
        the one ``config.governor`` names.  Single servers leave them
        ``None``.
    """

    def __init__(self, config: Optional[ServerConfig] = None, *,
                 ring: Optional[HashRing] = None,
                 placements: Optional[Dict[str, str]] = None,
                 board: Optional[GossipBoard] = None,
                 governor: Optional[Any] = None) -> None:
        if config is None:
            config = ServerConfig()
        elif not isinstance(config, ServerConfig):
            raise TypeError(f"config must be a ServerConfig, "
                            f"got {type(config).__name__}")
        self.config = cfg = config
        self.host = cfg.host
        self.port = cfg.port
        self.node_id = cfg.node_id
        self.ring = ring
        self.placements = placements
        self.board = board
        prefix = f"{cfg.node_id}-" if placements is not None else ""
        self.sessions = SessionTable(ttl=cfg.ttl,
                                     max_sessions=cfg.max_sessions,
                                     id_prefix=prefix)
        self.dispatcher = BatchDispatcher(
            workers=cfg.workers, max_batch=cfg.max_batch,
            simulators=self.sessions.simulators)
        self.admission = AdmissionController(rate=cfg.admission_rate,
                                             burst=cfg.admission_burst,
                                             max_queue=cfg.max_queue)
        self.govern_interval = cfg.govern_interval
        self.governor: Optional[Any] = (
            governor if governor is not None else make_governor(
                cfg.governor, ("self_aware", "static", "none"),
                pool_size=max(1, cfg.workers), max_workers=cfg.max_workers,
                min_workers=cfg.min_workers, slo_p95=cfg.slo_p95,
                service_rate_guess=cfg.service_rate_guess, seed=cfg.seed))
        self.requests_seen = 0
        self.requests_completed = 0
        self._window_requests = 0
        self._window_completions = 0
        self._latencies: Deque[float] = deque(maxlen=512)
        self._queue: Optional[asyncio.Queue] = None
        self.explain_store: Optional[ExplanationStore] = None
        self._tasks: List[asyncio.Task] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._clock = time.monotonic
        self._handlers = {
            "hello": self._op_hello,
            "create": self._op_create, "step": self._op_step,
            "run": self._op_run, "snapshot": self._op_snapshot,
            "metrics": self._op_metrics, "close": self._op_close,
            "stats": self._op_stats, "explain": self._op_explain,
            "migrate_out": self._op_migrate_out,
            "migrate_in": self._op_migrate_in,
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self, *, listen: bool = True) -> "SimulationServer":
        """Start background loops and (optionally) the stream listener."""
        self._queue = asyncio.Queue()
        # The explanation store rides the server's bus for its lifetime;
        # a disabled bus never invokes subscribers, so when telemetry is
        # off the attachment is free (tests/obs/test_disabled_overhead.py
        # pins this down).
        self.explain_store = ExplanationStore().attach(obs_events.get_bus())
        self._tasks = [asyncio.create_task(self._batch_loop()),
                       asyncio.create_task(self._ttl_loop())]
        if self.governor is not None:
            self._tasks.append(asyncio.create_task(self._governor_loop()))
        if listen:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port)
            self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        """Stop serving without stranding a request.

        The listener stops accepting connections first; every step
        already queued is then run through the dispatcher and answered
        before the background loops are cancelled.  The queue is
        detached in the same turn the drain completes, so a step that
        arrives later fails with ``internal`` instead of waiting on a
        batch loop that no longer runs.
        """
        if self._server is not None:
            self._server.close()
        if self._queue is not None and self._tasks:
            await self._queue.join()
        self._queue = None
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks = []
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        if self.explain_store is not None:
            self.explain_store.detach()
        self.dispatcher.close()

    # -- the wire ----------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError as exc:
                    # The line overran the stream limit.  The rest of it
                    # is still in flight, so the stream cannot be
                    # re-synchronised: answer once, then close.
                    writer.write(self._encode({}, error_response(
                        ErrorCode.TOO_LARGE,
                        f"request line too long: {exc}"),
                        self._clock()) + b"\n")
                    await writer.drain()
                    break
                if not line:
                    break
                t0 = self._clock()
                try:
                    request = json.loads(line)
                    if not isinstance(request, dict):
                        raise ValueError("request must be a JSON object")
                except (ValueError, RecursionError) as exc:
                    request = {}
                    response = error_response(ErrorCode.BAD_REQUEST,
                                              f"unparseable: {exc}")
                else:
                    response = await self.dispatch(request, noted=False)
                writer.write(self._encode(request, response, t0) + b"\n")
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    def _encode(self, request: Dict[str, Any], response: Dict[str, Any],
                t0: float) -> bytes:
        """The wire line for ``response``, noted as the reply it is.

        A reply ``json.dumps`` rejects -- a substrate broke the
        JSON-native contract -- becomes one ``internal`` reply, and that
        is what the ``serve.request`` event reports.
        """
        try:
            line = json.dumps(response).encode()
        except (TypeError, ValueError, RecursionError) as exc:
            log.exception("reply not encodable")
            response = error_response(ErrorCode.INTERNAL,
                                      f"reply not encodable: {exc}")
            line = json.dumps(response).encode()
        self._note_reply(request, response, t0)
        return line

    async def dispatch(self, request: Dict[str, Any], *,
                       noted: bool = True) -> Dict[str, Any]:
        """Handle one request dict; the socket and in-process entry point.

        The reply is noted (:meth:`_note_reply`) as it is returned; the
        socket path passes ``noted=False`` and notes it once encoded
        (:meth:`_encode`), when the client's code is final.
        """
        t0 = self._clock()
        self.requests_seen += 1
        self._window_requests += 1
        response = await self._respond(request, t0)
        if noted:
            self._note_reply(request, response, t0)
        return response

    def _note_reply(self, request: Dict[str, Any],
                    response: Dict[str, Any], t0: float) -> None:
        """Every reply -- success, refusal or failure -- leaves through
        exactly one ``serve.request`` event (when telemetry is on),
        carrying ``ok`` and the error ``code`` the client got (``None``
        when ok)."""
        if obs_events.enabled():
            error = response.get("error")
            op = request.get("op")
            obs_events.emit("serve.request",
                            op=op if isinstance(op, str) else None,
                            seconds=self._clock() - t0,
                            ok=bool(response.get("ok")),
                            code=error["code"] if error else None, t=t0,
                            session=request.get("session"))

    async def _respond(self, request: Dict[str, Any],
                       t0: float) -> Dict[str, Any]:
        """The reply to one request; handled requests count as completed."""
        version_error = check_version(request)
        if version_error is not None:
            return version_error
        op = request.get("op")
        handler = self._handlers.get(op) if isinstance(op, str) else None
        if handler is None:
            return error_response(
                ErrorCode.BAD_REQUEST,
                f"unknown op {op!r}; known: "
                f"{', '.join(sorted(self._handlers))}")
        if op in _PLACED_OPS and self.placements is not None:
            owner = self.placements.get(str(request.get("session")))
            if owner is not None and owner != self.node_id:
                return error_response(
                    ErrorCode.MOVED,
                    f"session owned by node {owner!r}", node=owner)
        if op in ("step", "run"):
            depth = self._queue.qsize() if self._queue is not None else 0
            verdict = self.admission.admit(t0, depth)
            if verdict is not ADMIT:
                return error_response(ErrorCode(verdict),
                                      "overloaded, request shed; retry later")
        try:
            response = await handler(request, t0)
        except UnknownSession as exc:
            return error_response(ErrorCode.UNKNOWN_SESSION,
                                  f"no session {exc.args[0]!r}")
        except (TypeError, ValueError, OverflowError) as exc:
            return error_response(ErrorCode.BAD_REQUEST, str(exc))
        except Exception as exc:
            # The boundary that must keep serving: record the traceback,
            # answer the request, keep the connection.
            log.exception("%r request failed", op)
            return error_response(ErrorCode.INTERNAL,
                                  f"{type(exc).__name__}: {exc}")
        if response.get("ok") is not False:
            response = ok_response(response)
        elapsed = self._clock() - t0
        self._latencies.append(elapsed)
        self.requests_completed += 1
        self._window_completions += 1
        if obs_events.enabled():
            obs_metrics.histogram("serve.request_seconds").observe(elapsed)
        return response

    # -- ops ---------------------------------------------------------------

    async def _op_hello(self, request: Dict[str, Any],
                        now: float) -> Dict[str, Any]:
        """Capability negotiation: who am I, what do I speak."""
        payload: Dict[str, Any] = {
            "node": self.node_id,
            "protocol": PROTOCOL_VERSION,
            "ops": sorted(self._handlers),
            "substrates": sorted(SIMULATORS),
        }
        if self.ring is not None:
            payload["ring"] = self.ring.describe()
        return payload

    async def _op_create(self, request: Dict[str, Any],
                         now: float) -> Dict[str, Any]:
        substrate = request.get("substrate")
        if substrate not in SIMULATORS:
            return error_response(
                ErrorCode.BAD_REQUEST,
                f"unknown substrate {substrate!r}; known: "
                f"{', '.join(sorted(SIMULATORS))}")
        config_cls, _ = SIMULATORS[substrate]
        payload = request.get("config") or {}
        config = config_cls(**payload)  # TypeError -> bad_request above
        session = self.sessions.create(now, substrate, config)
        if self.placements is not None:
            self.placements[session.session_id] = self.node_id
        return {"session": session.session_id, "substrate": substrate,
                "node": self.node_id}

    async def _step_via_batch(self, session: Any, n_steps: int, *,
                              to_budget: bool = False) -> Dict[str, Any]:
        """Queue a step request for the batch loop and await its result.

        The session's lock is held from reading ``steps_taken`` through
        committing the result: concurrent step/run requests for the same
        session serialise, so each executes from the position the
        previous one left, instead of both capturing the same base and
        one update being lost.  With ``to_budget`` the step count is the
        distance to the config's budget, computed under the same lock.
        (Migration and close take the same lock, so an in-flight step
        commits before the session's handle is exported or dropped; a
        request that waited on the lock behind either finds its session
        gone and fails instead of stepping it.)
        """
        async with session.lock:
            if session.session_id not in self.sessions:
                raise UnknownSession(session.session_id)
            if to_budget:
                budget = int(getattr(session.config, "steps", 0))
                n_steps = max(0, budget - session.steps_taken)
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            work = StepRequest(session_id=session.session_id,
                               substrate=session.substrate,
                               config=session.config,
                               base_steps=session.steps_taken,
                               n_steps=n_steps)
            if self._queue is None:
                raise RuntimeError("server is not running")
            self._queue.put_nowait((work, future))
            result = await future
            session.steps_taken = result["steps_taken"]
            self.sessions.snapshots.put(session.session_id,
                                        session.steps_taken, result)
        return result

    async def _op_step(self, request: Dict[str, Any],
                       now: float) -> Dict[str, Any]:
        n = int(request.get("n", 1))
        if n < 0:
            return error_response(ErrorCode.BAD_REQUEST, "n must be >= 0")
        session = self.sessions.get(str(request.get("session")), now)
        return dict(await self._step_via_batch(session, n))

    async def _op_run(self, request: Dict[str, Any],
                      now: float) -> Dict[str, Any]:
        session = self.sessions.get(str(request.get("session")), now)
        return dict(await self._step_via_batch(session, 0, to_budget=True))

    async def _op_snapshot(self, request: Dict[str, Any],
                           now: float) -> Dict[str, Any]:
        session = self.sessions.get(str(request.get("session")), now)
        result = self.sessions.snapshots.get(session.session_id,
                                             session.steps_taken)
        if result is None:
            result = await self._step_via_batch(session, 0)
        # ``stale`` stays in the v1 reply: every snapshot is current.
        return {"session": session.session_id,
                "snapshot": result["snapshot"], "stale": False}

    async def _op_metrics(self, request: Dict[str, Any],
                          now: float) -> Dict[str, Any]:
        session = self.sessions.get(str(request.get("session")), now)
        result = self.sessions.snapshots.get(session.session_id,
                                             session.steps_taken)
        if result is None:
            result = await self._step_via_batch(session, 0)
        return {"session": session.session_id,
                "metrics": result["metrics"]}

    async def _op_close(self, request: Dict[str, Any],
                        now: float) -> Dict[str, Any]:
        """Drop a session, after any step already in flight commits."""
        session_id = str(request.get("session"))
        async with self.sessions.get(session_id).lock:
            self.sessions.close(session_id)
        if self.placements is not None:
            self.placements.pop(session_id, None)
        return {"session": session_id}

    async def _op_stats(self, request: Dict[str, Any],
                        now: float) -> Dict[str, Any]:
        return {"stats": self.stats()}

    async def _op_explain(self, request: Dict[str, Any],
                          now: float) -> Dict[str, Any]:
        """Why the serving layer is doing what it is doing.

        Besides the governor's prose self-explanation, when telemetry is
        on the attached :class:`ExplanationStore` resolves a structured
        causal chain: for ``seq`` when the request names one, else for
        the governor's latest ``serve.scale`` decision -- linking it to
        the prediction, telemetry-window and degradation events that
        caused it.
        """
        explanation = ("No governor: static plumbing only."
                       if self.governor is None else self.governor.explain())
        response: Dict[str, Any] = {"explanation": explanation}
        store = self.explain_store
        if store is not None and store.events_seen:
            seq = request.get("seq")
            if seq is None:
                seq = getattr(self.governor, "last_decision_seq", None)
            if seq is None:
                seq = store.last_decision_seq()
            if seq is not None:
                response["why"] = _json_safe(store.why(int(seq)))
            response["decisions"] = dict(store.counts)
            response["truncated"] = store.truncated
        return response

    # -- migration ---------------------------------------------------------

    async def _op_migrate_out(self, request: Dict[str, Any],
                              now: float) -> Dict[str, Any]:
        """Export a session's declarative handle and drop it here.

        Taken under the session lock, so an in-flight step/run commits
        its ``steps_taken`` update before the handle is cut -- the
        handle always describes a consistent replay point.
        """
        session = self.sessions.get(str(request.get("session")))
        async with session.lock:
            handle = self.sessions.export_handle(session.session_id)
            self.sessions.close(session.session_id)
        if obs_events.enabled():
            obs_events.emit("cluster.migrate", time=now, phase="out",
                            session=handle["session"], node=self.node_id,
                            steps_taken=handle["steps_taken"])
        return {"handle": handle}

    async def _op_migrate_in(self, request: Dict[str, Any],
                             now: float) -> Dict[str, Any]:
        """Adopt a migrated session from its handle (owner-checked)."""
        if self.placements is None:
            return error_response(
                ErrorCode.BAD_REQUEST,
                "migrate_in requires cluster wiring; this server is "
                "not part of a cluster")
        handle = request.get("handle")
        if not isinstance(handle, dict) or "session" not in handle:
            return error_response(ErrorCode.BAD_REQUEST,
                                  "migrate_in needs a handle object")
        session_id = str(handle["session"])
        owner = self.placements.get(session_id)
        if owner != self.node_id:
            return error_response(
                ErrorCode.WRONG_NODE,
                f"session {session_id!r} is placed on {owner!r}, "
                f"not {self.node_id!r}; refusing to adopt",
                node=owner)
        session = self.sessions.adopt(now, handle)
        if obs_events.enabled():
            obs_events.emit("cluster.migrate", time=now, phase="in",
                            session=session_id, node=self.node_id,
                            steps_taken=session.steps_taken)
        return {"session": session_id,
                "steps_taken": session.steps_taken}

    # -- background loops --------------------------------------------------

    async def _batch_loop(self) -> None:
        """Drain the step queue, coalescing bursts into dispatcher batches."""
        queue = self._queue
        assert queue is not None
        loop = asyncio.get_running_loop()
        while True:
            batch: List[Tuple[StepRequest, asyncio.Future]] = [
                await queue.get()]
            while len(batch) < self.dispatcher.max_batch:
                try:
                    batch.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            requests = [work for work, _ in batch]
            try:
                # With no worker pool submit() is a synchronous
                # in-process call; bouncing it through the default
                # thread executor buys no parallelism and costs two
                # context switches per batch (checked per-batch: the
                # governor may resize the pool at runtime).
                if self.dispatcher.workers == 0:
                    results = self.dispatcher.submit(requests)
                else:
                    results = await loop.run_in_executor(
                        None, self.dispatcher.submit, requests)
            except Exception as exc:  # surface to every waiter
                for _, future in batch:
                    if not future.done():
                        future.set_exception(exc)
            else:
                for (_, future), result in zip(batch, results):
                    if not future.done():
                        future.set_result(result)
            for _ in batch:
                queue.task_done()  # stop() joins the queue

    async def _ttl_loop(self) -> None:
        interval = max(0.05, self.sessions.ttl / 4.0)
        while True:
            await asyncio.sleep(interval)
            expired = self.sessions.evict_expired(self._clock())
            if self.placements is not None:
                for sid in expired:
                    if self.placements.get(sid) == self.node_id:
                        self.placements.pop(sid, None)

    async def _governor_loop(self) -> None:
        assert self.governor is not None
        loop = asyncio.get_running_loop()
        pool = max(1, self.dispatcher.workers)
        while True:
            await asyncio.sleep(self.govern_interval)
            now = self._clock()
            interval = self.govern_interval
            arrival = self._window_requests / interval
            completion = self._window_completions / interval
            service = getattr(getattr(self.governor, "model", None),
                              "service_estimate", 1.0)
            capacity = pool * max(1e-9, service)
            decision = self.governor.tick(now, {
                "queue_depth": float(self._queue.qsize()
                                     if self._queue else 0),
                "arrival_rate": arrival,
                "p95_latency": self._p95(),
                "utilisation": min(1.0, arrival / capacity),
                "shed_fraction": self.admission.shed_fraction(),
                "pool_size": float(pool),
                "completion_rate": completion,
            })
            self._window_requests = 0
            self._window_completions = 0
            self.admission.configure(now, rate=decision.admission_rate,
                                     burst=decision.admission_burst,
                                     max_queue=decision.max_queue)
            if (self.dispatcher.workers > 0
                    and decision.pool_target != self.dispatcher.workers):
                await loop.run_in_executor(
                    None, self.dispatcher.resize, decision.pool_target)
            pool = max(1, self.dispatcher.workers)

    # -- introspection -----------------------------------------------------

    def _p95(self) -> float:
        """p95 of the recent request latencies, seconds (0.0 when none),
        with the estimator the simulated node senses it by."""
        return (percentile_linear(self._latencies, 95.0)
                if self._latencies else 0.0)

    def stats(self) -> Dict[str, Any]:
        stats = {
            "node": self.node_id,
            "sessions": len(self.sessions),
            "live_simulators": len(self.sessions.simulators),
            "evicted": self.sessions.evicted,
            "requests_seen": self.requests_seen,
            "requests_completed": self.requests_completed,
            "p95_seconds": self._p95(),
            "workers": self.dispatcher.workers,
            "batches_run": self.dispatcher.batches_run,
            "degraded": (bool(self.governor.degraded)
                         if self.governor is not None else False),
            "admission": self.admission.snapshot(),
            "snapshot_cache": {"entries": len(self.sessions.snapshots),
                               "hits": self.sessions.snapshots.hits,
                               "misses": self.sessions.snapshots.misses},
        }
        if self.ring is not None:
            stats["ring"] = self.ring.describe()
        return stats


class Client:
    """Line-oriented JSON client over asyncio streams.

    Every request is stamped with the client's protocol version; a
    response reporting ``unsupported_version`` -- or carrying a newer
    ``v`` than this client speaks -- raises
    :class:`~repro.serve.protocol.CapabilityError` instead of being
    returned, so version skew fails loudly at the call site.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer

    @classmethod
    async def connect(cls, host: str, port: int) -> "Client":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    @staticmethod
    def _check_capability(response: Dict[str, Any]) -> Dict[str, Any]:
        if error_code(response) == ErrorCode.UNSUPPORTED_VERSION.value:
            error = response.get("error")
            detail = (error.get("message", "")
                      if isinstance(error, dict) else str(error))
            raise CapabilityError(
                f"server rejected protocol version: {detail}",
                server_version=(error or {}).get("supported")
                if isinstance(error, dict) else None)
        version = response.get("v", PROTOCOL_VERSION)
        if isinstance(version, int) and version > PROTOCOL_VERSION:
            raise CapabilityError(
                f"server speaks protocol v{version}, this client "
                f"speaks v{PROTOCOL_VERSION}", server_version=version)
        return response

    async def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        payload.setdefault("v", PROTOCOL_VERSION)
        self._writer.write(json.dumps(payload).encode() + b"\n")
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return self._check_capability(json.loads(line))

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except Exception:
            pass

    # sugar, shared with InProcessClient / ClusterClient
    async def hello(self) -> Dict[str, Any]:
        return await self.request({"op": "hello"})

    async def create(self, substrate: str, **config: Any) -> Dict[str, Any]:
        return await self.request({"op": "create", "substrate": substrate,
                                   "config": config})

    async def step(self, session: str, n: int = 1) -> Dict[str, Any]:
        return await self.request({"op": "step", "session": session, "n": n})

    async def run(self, session: str) -> Dict[str, Any]:
        return await self.request({"op": "run", "session": session})

    async def snapshot(self, session: str) -> Dict[str, Any]:
        return await self.request({"op": "snapshot", "session": session})

    async def metrics(self, session: str) -> Dict[str, Any]:
        return await self.request({"op": "metrics", "session": session})

    async def close_session(self, session: str) -> Dict[str, Any]:
        return await self.request({"op": "close", "session": session})

    async def stats(self) -> Dict[str, Any]:
        return await self.request({"op": "stats"})


class InProcessClient(Client):
    """The same client surface wired straight into ``dispatch`` -- no
    socket, no serialisation (the Simulator protocol already makes
    replies JSON-native).  The unit-test entry point.  Replies share
    objects with the server's step cache: treat them as read-only."""

    def __init__(self, server: SimulationServer) -> None:  # noqa: super
        self._server = server

    async def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        payload.setdefault("v", PROTOCOL_VERSION)
        return self._check_capability(await self._server.dispatch(payload))

    async def close(self) -> None:
        return None
