"""Tests for the swarm substrate."""

import numpy as np
import pytest

from repro.api import SwarmConfig, SwarmSimulator
from repro.swarm.arena import Arena, Event, Hotspot
from repro.swarm.robots import (RandomPatrol, Robot, SelfAwareSwarm,
                                StaticFormation, make_swarm)


class TestArena:
    def test_events_stay_in_arena(self):
        arena = Arena.with_random_hotspots(seed=0)
        for t in range(100):
            for event in arena.step(float(t)):
                assert 0.0 <= event.x <= 1.0 and 0.0 <= event.y <= 1.0

    def test_hotspot_concentration(self):
        hotspot = Hotspot(x=0.5, y=0.5, spread=0.05)
        arena = Arena([hotspot], hotspot_fraction=1.0, events_per_step=5.0,
                      rng=np.random.default_rng(1))
        events = [e for t in range(200) for e in arena.step(float(t))]
        near = sum(1 for e in events
                   if abs(e.x - 0.5) < 0.15 and abs(e.y - 0.5) < 0.15)
        assert near / len(events) > 0.9

    def test_shift_moves_hotspots(self):
        arena = Arena.with_random_hotspots(seed=2, shift_times=[10.0])
        before = [(h.x, h.y) for h in arena.hotspots]
        for t in range(20):
            arena.step(float(t))
        after = [(h.x, h.y) for h in arena.hotspots]
        assert before != after
        assert arena.shifts_applied == [10.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            Arena([], hotspot_fraction=1.5)
        with pytest.raises(ValueError):
            Arena([], events_per_step=0.0)


class TestRobot:
    def test_witness_within_radius(self):
        robot = Robot(0, 0.5, 0.5, sensing_radius=0.1)
        assert robot.witnesses(Event(0.0, 0.55, 0.5))
        assert not robot.witnesses(Event(0.0, 0.7, 0.5))

    def test_dead_robot_witnesses_nothing(self):
        robot = Robot(0, 0.5, 0.5, sensing_radius=0.5, alive=False)
        assert not robot.witnesses(Event(0.0, 0.5, 0.5))

    def test_move_clamped_to_speed_and_arena(self):
        robot = Robot(0, 0.5, 0.5, speed=0.1)
        robot.move_toward(1.0, 0.5)
        assert robot.x == pytest.approx(0.6)
        robot.x, robot.y = 0.99, 0.5
        robot.move_toward(2.0, 0.5)
        assert robot.x == 1.0

    def test_dead_robot_does_not_move(self):
        robot = Robot(0, 0.5, 0.5, alive=False)
        robot.move_toward(1.0, 1.0)
        assert (robot.x, robot.y) == (0.5, 0.5)

    def test_make_swarm_reproducible(self):
        a = make_swarm(5, seed=3)
        b = make_swarm(5, seed=3)
        assert [(r.x, r.y) for r in a] == [(r.x, r.y) for r in b]


class TestControllers:
    def test_static_formation_reaches_posts(self):
        robots = make_swarm(4, speed=0.1, seed=0)
        controller = StaticFormation(4)
        for t in range(50):
            controller.step(float(t), robots, [])
        for robot in robots:
            post = controller.posts[robot.robot_id]
            assert robot.distance_to(*post) < 0.05

    def test_random_patrol_moves_everyone(self):
        robots = make_swarm(4, seed=1)
        controller = RandomPatrol(np.random.default_rng(1))
        starts = [(r.x, r.y) for r in robots]
        for t in range(20):
            controller.step(float(t), robots, [])
        assert any((r.x, r.y) != s for r, s in zip(robots, starts))

    def test_self_aware_moves_toward_witnessed_events(self):
        robots = [Robot(0, 0.2, 0.2, speed=0.05, sensing_radius=0.3)]
        controller = SelfAwareSwarm(rng=np.random.default_rng(2))
        event = Event(0.0, 0.4, 0.4)
        for t in range(30):
            controller.step(float(t), robots, [(0, event)] if t == 0 else [])
        assert robots[0].distance_to(0.4, 0.4) < 0.1

    def test_gossip_shares_events_with_nearby_peers(self):
        robots = [Robot(0, 0.5, 0.5), Robot(1, 0.6, 0.5), Robot(2, 0.95, 0.95)]
        controller = SelfAwareSwarm(comm_radius=0.2,
                                    rng=np.random.default_rng(3))
        event = Event(0.0, 0.5, 0.55)
        controller.step(0.0, robots, [(0, event)])
        assert controller.known_events(1)   # in range: heard about it
        assert not controller.known_events(2)  # out of range

    def test_event_memory_is_pruned(self):
        robots = [Robot(0, 0.5, 0.5)]
        controller = SelfAwareSwarm(memory=10, rng=np.random.default_rng(4))
        controller.step(0.0, robots, [(0, Event(0.0, 0.4, 0.4))])
        assert controller.known_events(0)
        controller.step(50.0, robots, [])
        assert not controller.known_events(0)

    def test_separation_pushes_crowded_robots_apart(self):
        robots = [Robot(0, 0.5, 0.5), Robot(1, 0.52, 0.5)]
        controller = SelfAwareSwarm(min_separation=0.3,
                                    rng=np.random.default_rng(5))
        for t in range(30):
            controller.step(float(t), robots, [])
        assert robots[0].distance_to(robots[1].x, robots[1].y) > 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            SelfAwareSwarm(memory=0)


class TestMission:
    def test_run_produces_records(self):
        result = SwarmSimulator(
            SwarmConfig(steps=100, seed=0),
            controller=RandomPatrol(np.random.default_rng(0))).run()
        assert len(result.records) == 100
        assert 0.0 <= result.detection_rate() <= 1.0

    def test_failures_reduce_alive_count(self):
        config = SwarmConfig(steps=100, n_robots=5,
                             failure_fracs=((0.5, 0), (0.5, 1)), seed=1)
        result = SwarmSimulator(config, controller=StaticFormation(5)).run()
        assert result.records[0].alive == 5
        assert result.records[-1].alive == 3

    def test_self_aware_beats_static_after_failures(self):
        rates = {}
        for name, factory in [
            ("static", lambda s: StaticFormation(9)),
            ("self-aware", lambda s: SelfAwareSwarm(
                rng=np.random.default_rng(s))),
        ]:
            vals = []
            for seed in range(2):
                result = SwarmSimulator(SwarmConfig(steps=500, seed=seed),
                                        controller=factory(seed)).run()
                vals.append(result.detection_rate(0.75 * 500, 500))
            rates[name] = np.mean(vals)
        assert rates["self-aware"] > rates["static"] + 0.1
