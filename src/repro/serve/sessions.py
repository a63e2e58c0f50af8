"""Session management: simulator instances behind declarative handles.

A *session* is one client-owned simulation run.  Because every substrate
sits behind the :mod:`repro.api` facade -- frozen ``*Config`` plus
``reset(seed)`` with byte-identical replay -- a session's authoritative
state is tiny and declarative: ``(substrate, config, seed, steps_taken)``.
A live :class:`~repro.api.protocol.Simulator` object is merely a cache
of that state.

**Simulator lifetime.**  The table owns its sessions' live simulators
in :attr:`SessionTable.simulators`, the simulator map an in-process
server's batches step through
(:func:`repro.serve.batching._materialise`, the one replay path, takes
a simulator from it or rebuilds one by replay).  An entry lives exactly
as long as its session: it is dropped with the session on ``close``,
TTL eviction and migration out, and on its own by hibernation, so
memory is bounded by ``max_sessions`` and ``ttl`` with no knob of its
own.  Pool workers keep their own bounded LRU instead
(:data:`repro.serve.batching._WORKER_CACHE`).

* **TTL eviction** -- idle sessions are dropped wholesale after
  ``ttl`` of inactivity, bounding memory under abandoning clients; a
  session with stepping work in flight (its lock held) is not idle;
* **hibernation** -- a session's simulator can be discarded while the
  handle survives; the next step rebuilds it from the config and
  replays to ``steps_taken``, reproducing the exact pre-hibernation
  state (the replay guarantee doing production work).

A :class:`SnapshotCache` keeps each session's latest step result
(``metrics`` next to ``snapshot``): reads at a session's current step
need no batch.

Sans-io: all methods take ``now`` explicitly.
"""

from __future__ import annotations

import asyncio
import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..obs import events as obs_events


class UnknownSession(KeyError):
    """Raised for operations on ids the table does not (or no longer) hold."""


@dataclass
class Session:
    """One client simulation run: its declarative core.

    The live simulator, if any, is held by the owning table's
    :attr:`SessionTable.simulators`.
    """

    session_id: str
    substrate: str
    config: Any
    seed: int
    created: float
    last_used: float
    steps_taken: int = 0
    #: Serialises stepping work: concurrent step/run requests for the
    #: same session must observe each other's ``steps_taken`` updates,
    #: or both execute from the same base and one is silently lost.
    lock: asyncio.Lock = field(default_factory=asyncio.Lock,
                               repr=False, compare=False)

    def describe(self) -> Dict[str, Any]:
        """JSON-safe summary for ``stats`` responses."""
        return {"session": self.session_id, "substrate": self.substrate,
                "steps_taken": self.steps_taken,
                "created": self.created, "last_used": self.last_used}


class SnapshotCache:
    """Each session's latest step result, one slot per session.

    A server stores each :func:`~repro.serve.batching.run_step_batch`
    result whole (shared with its reply, so read-only) under the step
    it was taken at; a later step replaces it.  ``get`` returns the
    entry when the session's slot holds that step, ``None`` on a miss.
    Slots go with their sessions (:meth:`drop_session`), so memory is
    bounded by the table's ``max_sessions``.
    """

    def __init__(self) -> None:
        self._slots: Dict[str, Tuple[int, Dict[str, Any]]] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._slots)

    def put(self, session_id: str, step: int, entry: Dict[str, Any]) -> None:
        self._slots[session_id] = (step, entry)

    def get(self, session_id: str, step: int) -> Optional[Dict[str, Any]]:
        slot = self._slots.get(session_id)
        if slot is None or slot[0] != step:
            self.misses += 1
            return None
        self.hits += 1
        return slot[1]

    def drop_session(self, session_id: str) -> None:
        self._slots.pop(session_id, None)


class SessionTable:
    """The server's session registry: create, touch, evict, hibernate.

    Parameters
    ----------
    ttl:
        Idle time after which :meth:`evict_expired` removes a session.
    max_sessions:
        Hard bound on live sessions; ``create`` beyond it raises.
    id_prefix:
        Prepended to minted session ids.  A cluster node passes
        ``f"{node_id}-"`` so ids are unique cluster-wide and carry their
        birthplace; the default keeps single-server ids unchanged.
    """

    def __init__(self, *, ttl: float = 300.0, max_sessions: int = 1024,
                 id_prefix: str = "") -> None:
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.ttl = float(ttl)
        self.max_sessions = max_sessions
        self.id_prefix = id_prefix
        self.snapshots = SnapshotCache()
        self._sessions: Dict[str, Session] = {}
        #: The sessions' live simulators, as a simulator map for
        #: :func:`repro.serve.batching.run_step_batch`; an entry goes
        #: when its session does.
        self.simulators: Dict[str, Tuple[Any, Any, int]] = {}
        self._next_id = 1
        self.evicted = 0

    def __len__(self) -> int:
        return len(self._sessions)

    def ids(self) -> List[str]:
        return list(self._sessions)

    # -- lifecycle ---------------------------------------------------------

    def create(self, now: float, substrate: str, config: Any) -> Session:
        """Register a new session; its simulator is built on first step."""
        if len(self._sessions) >= self.max_sessions:
            raise RuntimeError(
                f"session table full ({self.max_sessions} sessions)")
        session_id = f"{self.id_prefix}s{self._next_id:06d}"
        self._next_id += 1
        seed = int(getattr(config, "seed", 0))
        session = Session(session_id=session_id, substrate=substrate,
                          config=config, seed=seed, created=now,
                          last_used=now)
        self._sessions[session_id] = session
        if obs_events.enabled():
            obs_events.emit("serve.session", time=now, session=session_id,
                            substrate=substrate, action="create")
        return session

    def get(self, session_id: str, now: Optional[float] = None) -> Session:
        """Look a session up, refreshing its idle clock when ``now`` given."""
        try:
            session = self._sessions[session_id]
        except KeyError:
            raise UnknownSession(session_id) from None
        if now is not None:
            session.last_used = now
        return session

    def __contains__(self, session_id: object) -> bool:
        return session_id in self._sessions

    def close(self, session_id: str) -> None:
        """Explicitly remove a session, its simulator and its snapshots."""
        if self._sessions.pop(session_id, None) is None:
            raise UnknownSession(session_id)
        self._drop(session_id)

    def evict_expired(self, now: float) -> List[str]:
        """Drop every session idle for longer than ``ttl``; return its ids.

        A session whose lock is held has stepping work in flight and is
        not idle: evicting it would let that work commit to a session
        that is gone.
        """
        expired = [sid for sid, s in self._sessions.items()
                   if now - s.last_used > self.ttl and not s.lock.locked()]
        for sid in expired:
            del self._sessions[sid]
            self._drop(sid)
            self.evicted += 1
        if expired and obs_events.enabled():
            obs_events.emit("serve.session", time=now, action="evict",
                            sessions=list(expired))
        return expired

    def _drop(self, session_id: str) -> None:
        self.simulators.pop(session_id, None)
        self.snapshots.drop_session(session_id)

    def hibernate(self, session_id: str) -> None:
        """Drop the live simulator, keeping the declarative handle."""
        self.get(session_id)
        self.simulators.pop(session_id, None)

    # -- migration ---------------------------------------------------------

    def export_handle(self, session_id: str) -> Dict[str, Any]:
        """The session's declarative core as a JSON-safe migration handle.

        Exactly the state hibernation keeps: ``(substrate, config, seed,
        steps_taken)`` plus identity and timestamps.  Because rehydration
        replays byte-identically from this handle, shipping it to another
        node *is* a session migration -- no simulator state crosses the
        wire.
        """
        session = self.get(session_id)
        config = session.config
        if dataclasses.is_dataclass(config) and not isinstance(config, type):
            config = dataclasses.asdict(config)
        return {"session": session.session_id,
                "substrate": session.substrate,
                "config": config,
                "seed": session.seed,
                "steps_taken": session.steps_taken,
                "created": session.created,
                "v": 1}

    def adopt(self, now: float, handle: Dict[str, Any]) -> Session:
        """Import a migrated session from an :meth:`export_handle` dict.

        The session arrives hibernated (no live simulator); its first
        step rehydrates it by replay.  The originating node's id is
        kept -- migration moves a session, it does not rename it.
        """
        if len(self._sessions) >= self.max_sessions:
            raise RuntimeError(
                f"session table full ({self.max_sessions} sessions)")
        session_id = str(handle["session"])
        if session_id in self._sessions:
            raise ValueError(f"session {session_id!r} already present")
        substrate = str(handle["substrate"])
        config = handle["config"]
        if isinstance(config, dict):
            from ..api.adapters import SIMULATORS
            config_cls = SIMULATORS[substrate][0]
            config = config_cls(**config)
        session = Session(session_id=session_id, substrate=substrate,
                          config=config, seed=int(handle["seed"]),
                          created=float(handle.get("created", now)),
                          last_used=now,
                          steps_taken=int(handle["steps_taken"]))
        self._sessions[session_id] = session
        if obs_events.enabled():
            obs_events.emit("serve.session", time=now, session=session_id,
                            substrate=substrate, action="adopt")
        return session

    def describe(self) -> List[Dict[str, Any]]:
        return [dict(s.describe(), hydrated=sid in self.simulators)
                for sid, s in self._sessions.items()]
