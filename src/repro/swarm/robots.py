"""Robots and swarm structure controllers.

Paper ref [34] (Zambonelli et al.): self-awareness in ensembles should
recognise, during operation, situations that require self-adaptive
actions -- in particular *intentionally modifying the structure of the
swarm*.  Three structure controllers:

- :class:`StaticFormation` -- design-time posts on a grid; robots hold
  them no matter what happens (including the deaths of their peers);
- :class:`RandomPatrol` -- structureless random walking (the floor);
- :class:`SelfAwareSwarm` -- each robot learns where events actually
  occur (an EWMA centroid of its own witnessed events), shares it with
  neighbours (interaction awareness), and moves under an
  attraction/repulsion law: toward where events are, away from where
  peers already are.  Nothing is centralised; peer death is *noticed*
  (missed heartbeats) and the survivors' repulsion equilibrium re-forms
  the structure around the hole.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import soa
from .arena import Event


@dataclass(slots=True)
class Robot:
    """One swarm member."""

    robot_id: int
    x: float
    y: float
    speed: float = 0.03
    sensing_radius: float = 0.14
    alive: bool = True

    def distance_to(self, x: float, y: float) -> float:
        """Euclidean distance from the robot to a point."""
        return math.hypot(self.x - x, self.y - y)

    def witnesses(self, event: Event) -> bool:
        """Whether the robot (if alive) senses the event."""
        return self.alive and self.distance_to(event.x, event.y) <= \
            self.sensing_radius

    def move_toward(self, tx: float, ty: float) -> None:
        """Move up to ``speed`` toward the target, staying in the arena."""
        if not self.alive:
            return
        dx, dy = tx - self.x, ty - self.y
        dist = math.hypot(dx, dy)
        if dist > self.speed:
            dx, dy = dx / dist * self.speed, dy / dist * self.speed
        # min/max clamping is bit-identical to np.clip for finite floats
        # and avoids two numpy scalar round-trips on the hottest call in
        # the swarm step.
        self.x = min(1.0, max(0.0, self.x + dx))
        self.y = min(1.0, max(0.0, self.y + dy))


def make_swarm(n_robots: int, speed: float = 0.03,
               sensing_radius: float = 0.14,
               seed: int = 0) -> List[Robot]:
    """Robots initially scattered uniformly."""
    rng = np.random.default_rng(seed)
    return [Robot(robot_id=i, x=float(rng.uniform(0, 1)),
                  y=float(rng.uniform(0, 1)), speed=speed,
                  sensing_radius=sensing_radius)
            for i in range(n_robots)]


class SwarmController(ABC):
    """Decides each robot's movement target every step."""

    @abstractmethod
    def step(self, now: float, robots: Sequence[Robot],
             witnessed: Sequence[Tuple[int, Event]]) -> None:
        """Move the (alive) robots; ``witnessed`` = (robot_id, event) pairs."""


class StaticFormation(SwarmController):
    """Design-time structure: hold grid posts forever.

    The posts are computed once for the *initial* swarm size; when
    robots die their posts simply go unmanned, and nobody reacts to
    where events actually occur.
    """

    def __init__(self, n_robots: int) -> None:
        cols = int(math.ceil(math.sqrt(n_robots)))
        rows = int(math.ceil(n_robots / cols))
        self.posts: Dict[int, Tuple[float, float]] = {}
        for i in range(n_robots):
            r, c = divmod(i, cols)
            self.posts[i] = ((c + 0.5) / cols, (r + 0.5) / rows)

    def step(self, now: float, robots: Sequence[Robot],
             witnessed: Sequence[Tuple[int, Event]]) -> None:
        for robot in robots:
            post = self.posts.get(robot.robot_id)
            if post is not None:
                robot.move_toward(*post)


class RandomPatrol(SwarmController):
    """Structureless floor: every robot random-walks."""

    def __init__(self, rng: Optional[np.random.Generator] = None) -> None:
        self._rng = rng if rng is not None else np.random.default_rng()
        self._targets: Dict[int, Tuple[float, float]] = {}

    def step(self, now: float, robots: Sequence[Robot],
             witnessed: Sequence[Tuple[int, Event]]) -> None:
        for robot in robots:
            if not robot.alive:
                continue
            target = self._targets.get(robot.robot_id)
            if target is None or robot.distance_to(*target) < robot.speed:
                target = (float(self._rng.uniform(0, 1)),
                          float(self._rng.uniform(0, 1)))
                self._targets[robot.robot_id] = target
            robot.move_toward(*target)


class SelfAwareSwarm(SwarmController):
    """Decentralised adaptive structure from local awareness.

    Per robot:

    - **event memory**: positions of events the robot witnessed, plus
      events heard from communication-range neighbours (gossip) -- a
      sliding window, so shifted hotspots age out;
    - **event attribution**: of the remembered events, a robot pursues
      only those it is *nearest live robot* to (a decentralised Lloyd /
      Voronoi split, preventing the whole swarm from piling onto one
      hotspot);
    - **patrol fallback**: a robot whose memory attributes it nothing
      random-walks -- exploration both keeps the uniform background
      covered and rediscovers regions a dead peer used to watch;
    - **separation**: only short-range (inside roughly one sensing
      diameter) and only from *live* peers, so dead robots stop
      reserving space and the survivors flow into the hole.

    Parameters
    ----------
    comm_radius:
        Gossip range for sharing witnessed events.
    memory:
        Steps an event is remembered (staleness bound on the structure).
    min_separation:
        Distance below which live peers push apart.

    The memory is struct-of-arrays (:mod:`repro.swarm.soa`): event
    coordinates in flat columns shared by all robots, per-robot
    memories as index buffers into them, and batched distance math
    behind conservative brackets with exact scalar fallbacks.
    """

    def __init__(self, comm_radius: float = 0.35, memory: int = 120,
                 min_separation: float = 0.2,
                 rng: Optional[np.random.Generator] = None) -> None:
        if memory < 1:
            raise ValueError("memory must be at least 1")
        self.comm_radius = comm_radius
        self.memory = memory
        self.min_separation = min_separation
        self._rng = rng if rng is not None else np.random.default_rng()
        # One SoA table of event coordinates shared by all robots, plus
        # per-robot index buffers into it.
        self._table = soa.EventTable()
        self._mem: Dict[int, soa.IndexMemory] = {}
        self._arrays = soa.RobotArrays()
        self._patrol: Dict[int, Tuple[float, float]] = {}

    def known_events(self, robot_id: int) -> List[Event]:
        """The robot's current (pruned) event memory."""
        memory = self._mem.get(robot_id)
        if memory is None:
            return []
        table = self._table
        return [table.event(i) for i in memory.indices()]

    # -- movement law ------------------------------------------------------

    def _patrol_target(self, robot: Robot) -> Tuple[float, float]:
        target = self._patrol.get(robot.robot_id)
        if target is None or robot.distance_to(*target) < robot.speed:
            target = (float(self._rng.uniform(0, 1)),
                      float(self._rng.uniform(0, 1)))
            self._patrol[robot.robot_id] = target
        return target

    def _separation(self, robot: Robot,
                    alive: Sequence[Robot]) -> Tuple[float, float]:
        """Short-range separation from live peers only (full scan)."""
        sx = sy = 0.0
        min_separation = self.min_separation
        for peer in alive:
            if peer.robot_id == robot.robot_id:
                continue
            dist = robot.distance_to(peer.x, peer.y)
            if dist < min_separation:
                push = (min_separation - dist) / min_separation
                dx = robot.x - peer.x
                dy = robot.y - peer.y
                norm = max(dist, 1e-6)
                sx += push * dx / norm * robot.speed
                sy += push * dy / norm * robot.speed
        return sx, sy

    def _separation_candidates(self, alive: Sequence[Robot],
                               px, py) -> List[List[int]]:
        """Per-robot separation candidates from start-of-step positions.

        Any peer currently within ``min_separation`` of a robot was,
        at the start of the step, within ``min_separation`` plus two
        maximal moves (both endpoints move at most ``speed``; the arena
        clamp only shortens a move).  One inflated squared-distance
        matrix over the start positions therefore yields a guaranteed
        superset of every exact hit for the whole step, in (robot,
        ascending-peer) order -- the order :meth:`_separation` visits.
        """
        smax = max(r.speed for r in alive)
        limit = soa.prefilter_limit_sq(self.min_separation + 2.0 * smax)
        dx = px[:, None] - px[None, :]
        dy = py[:, None] - py[None, :]
        dx *= dx
        dy *= dy
        dx += dy
        rows, cols = np.nonzero(dx <= limit)
        cols_list = cols.tolist()
        starts = np.searchsorted(rows, np.arange(len(alive) + 1)).tolist()
        return [cols_list[starts[i]:starts[i + 1]]
                for i in range(len(alive))]

    def _separation_from(self, robot: Robot, alive: Sequence[Robot],
                         candidates: List[int]) -> Tuple[float, float]:
        """The :meth:`_separation` scan, restricted to candidates."""
        sx = sy = 0.0
        min_separation = self.min_separation
        for j in candidates:
            peer = alive[j]
            if peer.robot_id == robot.robot_id:
                continue
            dist = robot.distance_to(peer.x, peer.y)
            if dist < min_separation:
                push = (min_separation - dist) / min_separation
                dxs = robot.x - peer.x
                dys = robot.y - peer.y
                norm = max(dist, 1e-6)
                sx += push * dxs / norm * robot.speed
                sy += push * dys / norm * robot.speed
        return sx, sy

    def _move_one(self, robot: Robot, index: int, alive: Sequence[Robot],
                  n_mine: int, sum_x: float, sum_y: float,
                  sep_candidates: Optional[List[List[int]]] = None) -> None:
        """Target selection + separation + move for one robot."""
        if n_mine:
            tx = sum_x / n_mine
            ty = sum_y / n_mine
            self._patrol.pop(robot.robot_id, None)
        else:
            tx, ty = self._patrol_target(robot)
        if sep_candidates is not None:
            sx, sy = self._separation_from(robot, alive,
                                           sep_candidates[index])
        else:
            sx, sy = self._separation(robot, alive)
        robot.move_toward(tx + sx, ty + sy)

    @staticmethod
    def _exact_peer_closer(robot: Robot, alive: Sequence[Robot],
                           ex: float, ey: float) -> bool:
        """The exact attribution predicate over *current* positions."""
        d_self = robot.distance_to(ex, ey)
        rid = robot.robot_id
        for peer in alive:
            if peer.robot_id != rid and peer.distance_to(ex, ey) < d_self:
                return True
        return False

    # -- struct-of-arrays memory and attribution ---------------------------

    def _mem_for(self, robot_id: int) -> soa.IndexMemory:
        memory = self._mem.get(robot_id)
        if memory is None:
            memory = self._mem[robot_id] = soa.IndexMemory()
        return memory

    def _peers_in_range(self, witness: Robot, robot_id: int,
                        robots: Sequence[Robot], arrays) -> List[int]:
        """Live peers within gossip range of ``witness`` (robots order)."""
        comm = self.comm_radius
        dx = arrays.x - witness.x
        dy = arrays.y - witness.y
        d2 = dx * dx + dy * dy
        candidates = np.nonzero(d2 <= soa.prefilter_limit_sq(comm))[0]
        peers = []
        for i in candidates.tolist():
            peer = robots[i]
            if (peer.alive and peer.robot_id != robot_id
                    and witness.distance_to(peer.x, peer.y) <= comm):
                peers.append(peer.robot_id)
        return peers

    def _share_soa(self, robots: Sequence[Robot],
                   witnessed: Sequence[Tuple[int, Event]], arrays) -> None:
        """Gossip onto the SoA table.

        Events are interned into the table once per step; the witness's
        in-range neighbourhood is computed once per witness (positions
        do not change while sharing).  Index appends happen in
        (witnessed-order, robots-order) sequence, the order in which a
        per-event scan over every robot would append them.
        """
        if not witnessed:
            return
        by_robot = {r.robot_id: r for r in robots}
        table = self._table
        interned: Dict[int, int] = {}
        peers_of: Dict[int, List[int]] = {}
        for robot_id, event in witnessed:
            key = id(event)
            index = interned.get(key)
            if index is None:
                index = table.add_event(event)
                interned[key] = index
            peers = peers_of.get(robot_id)
            if peers is None:
                peers = self._peers_in_range(by_robot[robot_id], robot_id,
                                             robots, arrays)
                peers_of[robot_id] = peers
            self._mem_for(robot_id).append(index)
            for peer_id in peers:
                self._mem_for(peer_id).append(index)

    def _prune_soa(self, now: float) -> None:
        """Advance every memory past expired events; trim dead storage."""
        cutoff = now - self.memory
        table = self._table
        lo = table.size
        for memory in self._mem.values():
            memory.prune_before(cutoff, table)
            if memory:
                first = memory.first()
                if first < lo:
                    lo = first
        if lo - table.base > 4096:
            table.trim(lo)

    def _attribute_and_move_exact(self, alive: Sequence[Robot]) -> None:
        """Attribution by the exact scalar predicate, entry by entry.

        Used when robot ids collide (the peer-exclusion shortcut in
        the batched path identifies *self* positionally, which is only
        sound when ids are unique, as ``make_swarm`` guarantees).
        """
        table = self._table
        for index, robot in enumerate(alive):
            memory = self._mem.get(robot.robot_id)
            n_mine = 0
            sum_x = sum_y = 0.0
            if memory is not None and memory:
                for ei in memory.indices():
                    ex = table.x_at(ei)
                    ey = table.y_at(ei)
                    if not self._exact_peer_closer(robot, alive, ex, ey):
                        n_mine += 1
                        sum_x += ex
                        sum_y += ey
            self._move_one(robot, index, alive, n_mine, sum_x, sum_y)

    def _attribute_and_move_vector(self, alive: Sequence[Robot]) -> None:
        """Batched attribution over the SoA window, exact at every step.

        At robot ``i``'s turn the live peer positions are: robots after
        ``i`` still at their start-of-step positions (they move later),
        robots before ``i`` at their just-moved positions.  So the
        current peer minimum decomposes into two batched pieces:

        - a suffix minimum over the start-of-step squared-distance
          matrix (rows strictly after ``i`` -- computed once up front),
        - a running minimum ``moved_min`` folded in as each robot moves.

        Squared distances are compared under :data:`soa.EXACT_REL`;
        only genuine near-ties (ulp-scale, astronomically rare) fall
        back to the exact scalar predicate.  The accepted entries and
        their order therefore match the exact per-entry scan of
        :meth:`_attribute_and_move_exact` bit-for-bit.
        """
        table = self._table
        n = len(alive)
        views = []
        lo = table.size
        for robot in alive:
            memory = self._mem.get(robot.robot_id)
            if memory is not None and memory:
                view = memory.view()
                first = int(view[0])
                if first < lo:
                    lo = first
            else:
                view = soa.EMPTY_INDICES
            views.append(view)
        px = np.fromiter((r.x for r in alive), np.float64, n)
        py = np.fromiter((r.y for r in alive), np.float64, n)
        sep_candidates = self._separation_candidates(alive, px, py)
        m = table.size - lo
        total = sum(len(v) for v in views)
        if total:
            exs, eys = table.columns(lo, table.size)
            dx = px[:, None] - exs[None, :]
            dy = py[:, None] - eys[None, :]
            dx *= dx
            dy *= dy
            dx += dy
            d2 = dx                      # (n, m) start-of-step squared dists
            # suffix[i] = min over rows >= i; peers after robot i are
            # suffix[i + 1] (none for the last robot).
            suffix = np.minimum.accumulate(d2[::-1], axis=0)[::-1]
            moved_min = np.full(m, np.inf)
            rel_lo = 1.0 - soa.EXACT_REL
            rel_hi = 1.0 + soa.EXACT_REL
        for index, robot in enumerate(alive):
            view = views[index]
            n_mine = 0
            sum_x = sum_y = 0.0
            if total and len(view):
                idx = view - lo
                d2_self = d2[index, idx]
                if index + 1 < n:
                    peer_min = np.minimum(suffix[index + 1, idx],
                                           moved_min[idx])
                else:
                    peer_min = moved_min[idx]
                take = peer_min > d2_self * rel_hi
                tie = ~take & (peer_min >= d2_self * rel_lo)
                if tie.any():
                    for j in np.nonzero(tie)[0]:
                        k = int(idx[j])
                        if not self._exact_peer_closer(
                                robot, alive, float(exs[k]), float(eys[k])):
                            take[j] = True
                if take.any():
                    selected = idx[take]
                    xs = exs[selected].tolist()
                    ys = eys[selected].tolist()
                    n_mine = len(xs)
                    sum_x = sum(xs)
                    sum_y = sum(ys)
            self._move_one(robot, index, alive, n_mine, sum_x, sum_y,
                           sep_candidates)
            if total:
                rdx = robot.x - exs
                rdy = robot.y - eys
                rdx *= rdx
                rdy *= rdy
                rdx += rdy
                np.minimum(moved_min, rdx, out=moved_min)

    def step(self, now: float, robots: Sequence[Robot],
             witnessed: Sequence[Tuple[int, Event]]) -> None:
        arrays = self._arrays
        arrays.refresh(robots)
        self._share_soa(robots, witnessed, arrays)
        self._prune_soa(now)
        alive = [r for r in robots if r.alive]
        if not alive:
            return
        if len({r.robot_id for r in alive}) != len(alive):
            self._attribute_and_move_exact(alive)
        else:
            self._attribute_and_move_vector(alive)
