"""Units for the struct-of-arrays swarm substrate primitives."""

import pytest

from repro.swarm.arena import Event
from repro.swarm.soa import (EventTable, IndexMemory, RobotArrays,
                             prefilter_limit_sq)
from repro.swarm.robots import Robot


class TestEventTable:
    def test_add_and_accessors(self):
        table = EventTable()
        indices = [table.add(float(t), 0.1 * t, 0.2 * t) for t in range(5)]
        assert indices == list(range(5))
        assert len(table) == 5
        assert table.time_at(3) == 3.0
        assert table.x_at(3) == pytest.approx(0.3)
        assert table.event(2) == Event(time=2.0, x=0.2, y=0.4)

    def test_growth_preserves_rows(self):
        table = EventTable()
        for t in range(1000):
            table.add(float(t), t + 0.5, t + 0.25)
        assert table.x_at(0) == 0.5
        assert table.y_at(999) == 999.25

    def test_add_event_round_trips_exact_floats(self):
        table = EventTable()
        event = Event(time=7.0, x=0.123456789123456789, y=1 / 3)
        index = table.add_event(event)
        assert table.event(index) == event

    def test_trim_keeps_global_indices_valid(self):
        table = EventTable()
        for t in range(100):
            table.add(float(t), float(t), float(t))
        table.trim(60)
        assert table.base == 60
        assert table.size == 100
        assert table.x_at(60) == 60.0
        assert table.x_at(99) == 99.0
        # trimming below the current base is a no-op
        table.trim(10)
        assert table.base == 60
        # rows added after a trim land correctly
        index = table.add(100.0, 100.0, 100.0)
        assert table.x_at(index) == 100.0

    def test_columns_and_gathers(self):
        table = EventTable()
        for t in range(10):
            table.add(float(t), float(t), float(-t))
        table.trim(4)
        xs, ys = table.columns(6, 9)
        assert list(xs) == [6.0, 7.0, 8.0]
        assert list(ys) == [-6.0, -7.0, -8.0]


class TestIndexMemory:
    def test_append_iterate_first(self):
        memory = IndexMemory()
        assert not memory
        for i in range(10):
            memory.append(i * 3)
        assert len(memory) == 10
        assert memory.first() == 0
        assert list(memory.indices()) == [i * 3 for i in range(10)]
        assert memory.tolist() == [i * 3 for i in range(10)]

    def test_growth_beyond_initial_capacity(self):
        memory = IndexMemory()
        for i in range(1000):
            memory.append(i)
        assert memory.tolist() == list(range(1000))

    def test_prune_advances_head(self):
        table = EventTable()
        for t in range(20):
            table.add(float(t), 0.0, 0.0)
        memory = IndexMemory()
        for i in range(20):
            memory.append(i)
        memory.prune_before(12.0, table)
        assert memory.first() == 12
        assert memory.tolist() == list(range(12, 20))

    def test_prune_to_empty_resets(self):
        table = EventTable()
        for t in range(5):
            table.add(float(t), 0.0, 0.0)
        memory = IndexMemory()
        for i in range(5):
            memory.append(i)
        memory.prune_before(99.0, table)
        assert not memory
        assert len(memory) == 0
        memory.append(3)
        assert memory.tolist() == [3]

    def test_compaction_reclaims_pruned_prefix(self):
        table = EventTable()
        for t in range(500):
            table.add(float(t), 0.0, 0.0)
        memory = IndexMemory()
        # Interleave appends and prunes so the head advances far enough
        # for the slide-in-place branch to trigger.
        for i in range(500):
            memory.append(i)
            memory.prune_before(float(i - 20), table)
        assert memory.tolist() == list(range(479, 500))


class TestRobotArrays:
    def test_refresh_mirrors_robots(self):
        robots = [Robot(robot_id=i, x=0.1 * i, y=0.2 * i) for i in range(4)]
        robots[2].alive = False
        arrays = RobotArrays()
        arrays.refresh(robots)
        assert arrays.n == 4
        assert list(arrays.x) == [0.0, 0.1, 0.2, 0.30000000000000004]
        assert list(arrays.alive) == [True, True, False, True]
        robots[1].x = 0.9
        arrays.refresh(robots)
        assert list(arrays.x)[1] == 0.9


class TestPrefilter:
    def test_limit_is_a_superset_of_the_exact_predicate(self):
        radius = 0.35
        limit_sq = prefilter_limit_sq(radius)
        # points exactly on the radius must pass the prefilter
        assert radius * radius <= limit_sq
        # ...with only a hair of slack, so candidate lists stay tight
        assert limit_sq < (radius * 1.001) ** 2
