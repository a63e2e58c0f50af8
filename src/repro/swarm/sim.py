"""The swarm mission simulation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

if TYPE_CHECKING:
    from ..api.configs import SwarmConfig
    from ..faults.injector import FaultInjector

from ..geom import SpatialGrid
from ..obs import events as obs_events
from ..obs import metrics as obs_metrics
from .arena import Arena, Event
from .robots import Robot, SwarmController, make_swarm


@dataclass(slots=True)
class SwarmStepRecord:
    """Per-step mission telemetry."""

    time: float
    events: int
    witnessed: int
    alive: int


@dataclass
class SwarmRunResult:
    """Outcome of one mission."""

    records: List[SwarmStepRecord]

    def detection_rate(self, t0: float = -math.inf,
                       t1: float = math.inf) -> float:
        """Fraction of events witnessed within ``[t0, t1)``."""
        total = sum(r.events for r in self.records if t0 <= r.time < t1)
        seen = sum(r.witnessed for r in self.records if t0 <= r.time < t1)
        return seen / total if total else math.nan


def _witnessed_grid(robots: List[Robot],
                    events: List[Event]) -> Tuple[List[Tuple[int, Event]], int]:
    """Witness scan through a per-step spatial grid over the robots.

    Candidates come back ordered by robot list index and are re-checked
    with the exact ``witnesses`` predicate, so the pair list (and hence
    every downstream controller decision) is exactly what testing every
    robot against every event would give, in (event, robot) order.
    """
    max_radius = 0.0
    grid: Optional[SpatialGrid] = None
    for index, robot in enumerate(robots):
        if robot.alive:
            if grid is None:
                max_radius = max(r.sensing_radius for r in robots if r.alive)
                grid = SpatialGrid(max(max_radius, 1e-9))
            grid.insert_point(index, robot.x, robot.y)
    witnessed: List[Tuple[int, Event]] = []
    seen = 0
    if grid is None:
        return witnessed, seen
    grid.finalise()
    for event in events:
        ex, ey = event.x, event.y
        hit = False
        for index in grid.candidates_near(ex, ey, max_radius):
            robot = robots[index]
            if robot.witnesses(event):
                witnessed.append((robot.robot_id, event))
                hit = True
        if hit:
            seen += 1
    return witnessed, seen


class SwarmMission:
    """One configured mission, steppable from outside.

    :class:`repro.api.SwarmSimulator` drives it to completion;
    ``repro.bench`` steps it one tick at a time to measure the per-step
    kernel cost.
    """

    def __init__(self, controller: SwarmController,
                 config: "SwarmConfig",
                 faults: Optional["FaultInjector"] = None) -> None:
        self.controller = controller
        self.config = config
        self.faults = faults
        self.arena = Arena.with_random_hotspots(
            n_hotspots=config.n_hotspots, seed=config.seed,
            hotspot_fraction=config.hotspot_fraction,
            events_per_step=config.events_per_step,
            shift_times=[f * config.steps for f in config.shift_fracs])
        self.robots = make_swarm(config.n_robots, seed=config.seed + 100)
        self._failures = sorted((f * config.steps, idx)
                                for f, idx in config.failure_fracs)
        self._failure_cursor = 0
        self._indices = tuple(range(len(self.robots)))
        self._config_dead: set = set()
        self._fault_down: set = set()
        self.records: List[SwarmStepRecord] = []

    def step(self, t: float) -> SwarmStepRecord:
        """Advance the mission one tick; returns the step record."""
        robots = self.robots
        failures = self._failures
        while (self._failure_cursor < len(failures)
               and t >= failures[self._failure_cursor][0]):
            idx = failures[self._failure_cursor][1]
            if 0 <= idx < len(robots):
                robots[idx].alive = False
                self._config_dead.add(idx)
            self._failure_cursor += 1
        if self.faults is not None:
            # Crash-and-recover: robots named by the active crash windows
            # go down, and come back when the window closes -- unless the
            # mission config had already killed them for good.
            self.faults.begin_step(t)
            down = self.faults.crashed_targets(self._indices)
            for idx in sorted(down - self._fault_down):
                robots[idx].alive = False
                self._fault_down.add(idx)
            for idx in sorted(self._fault_down - down):
                if idx not in self._config_dead:
                    robots[idx].alive = True
                self._fault_down.discard(idx)
        events = self.arena.step(t)
        witnessed, seen = _witnessed_grid(robots, events)
        self.controller.step(t, robots, witnessed)
        alive = sum(1 for r in robots if r.alive)
        if obs_events.enabled():
            obs_metrics.counter("steps", sim="swarm").increment()
            obs_metrics.counter("swarm.events").increment(len(events))
            obs_metrics.counter("swarm.witnessed").increment(seen)
            obs_metrics.gauge("swarm.alive_robots").set(alive)
            obs_events.emit("swarm.step", time=t, events=len(events),
                            witnessed=seen, alive=alive)
        record = SwarmStepRecord(time=t, events=len(events), witnessed=seen,
                                 alive=alive)
        self.records.append(record)
        return record
