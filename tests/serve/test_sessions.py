"""Sessions: TTL eviction, the per-session step cache, and rehydration."""

import asyncio
import json

import pytest

from repro.api import SensornetConfig
from repro.serve import (SessionTable, SnapshotCache, StepRequest,
                         UnknownSession, run_step_batch)

CONFIG = SensornetConfig(steps=60, n_channels=4, seed=3)


class TestLifecycle:
    def test_ids_are_sequential_and_stable(self):
        table = SessionTable()
        a = table.create(0.0, "sensornet", CONFIG)
        b = table.create(0.0, "sensornet", CONFIG)
        assert (a.session_id, b.session_id) == ("s000001", "s000002")
        assert table.ids() == ["s000001", "s000002"]

    def test_get_unknown_raises(self):
        with pytest.raises(UnknownSession):
            SessionTable().get("s000404")

    def test_close_removes_session_and_snapshots(self):
        table = SessionTable()
        session = table.create(0.0, "sensornet", CONFIG)
        table.snapshots.put(session.session_id, 0, {"x": 1})
        table.close(session.session_id)
        assert len(table) == 0
        assert len(table.snapshots) == 0
        with pytest.raises(UnknownSession):
            table.close(session.session_id)

    def test_max_sessions_is_a_hard_bound(self):
        table = SessionTable(max_sessions=2)
        table.create(0.0, "sensornet", CONFIG)
        table.create(0.0, "sensornet", CONFIG)
        with pytest.raises(RuntimeError, match="full"):
            table.create(0.0, "sensornet", CONFIG)


class TestTTLEviction:
    def test_idle_sessions_expire_active_ones_survive(self):
        table = SessionTable(ttl=10.0)
        idle = table.create(0.0, "sensornet", CONFIG)
        busy = table.create(0.0, "sensornet", CONFIG)
        table.get(busy.session_id, now=9.0)   # a touch resets the clock
        evicted = table.evict_expired(15.0)
        assert evicted == [idle.session_id]
        assert table.ids() == [busy.session_id]
        assert table.evicted == 1

    def test_exactly_at_ttl_is_not_yet_expired(self):
        table = SessionTable(ttl=10.0)
        session = table.create(0.0, "sensornet", CONFIG)
        assert table.evict_expired(10.0) == []
        assert table.evict_expired(10.0001) == [session.session_id]

    def test_eviction_drops_cached_snapshots_too(self):
        table = SessionTable(ttl=1.0)
        session = table.create(0.0, "sensornet", CONFIG)
        table.snapshots.put(session.session_id, 3, {"t": 3})
        table.evict_expired(5.0)
        assert table.snapshots.get(session.session_id, 3) is None
        assert len(table.snapshots) == 0


class TestSnapshotCache:
    def test_one_slot_per_session_holds_its_latest_step(self):
        cache = SnapshotCache()
        cache.put("a", 1, {"s": "a1"})
        cache.put("b", 1, {"s": "b1"})
        cache.put("a", 2, {"s": "a2"})   # replaces a's step-1 result
        assert len(cache) == 2
        assert cache.get("a", 1) is None
        assert cache.get("a", 2) == {"s": "a2"}
        assert cache.get("b", 1) == {"s": "b1"}
        assert cache.get("nope", 1) is None

    def test_hit_and_miss_counters(self):
        cache = SnapshotCache()
        cache.put("a", 1, {})
        cache.get("a", 1)
        cache.get("a", 2)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_drop_session_drops_only_that_session(self):
        cache = SnapshotCache()
        for step in (1, 2, 3):
            cache.put("a", step, {"a": step})
            cache.put("b", step, {"b": step})
        cache.drop_session("a")
        cache.drop_session("nope")
        assert len(cache) == 1
        assert cache.get("a", 3) is None
        assert cache.get("b", 3) == {"b": 3}


class TestRehydration:
    def test_hibernate_then_rehydrate_reproduces_exact_state(self):
        """The replay guarantee doing production work: dropping the live
        simulator and rebuilding from (config, seed, steps_taken) must
        land on a byte-identical snapshot."""
        table = SessionTable()
        session = table.create(0.0, "sensornet", CONFIG)
        sid = session.session_id

        def step(base, n):
            return run_step_batch(
                [StepRequest(sid, "sensornet", CONFIG, base, n)],
                table.simulators)[0]

        before = step(0, 17)
        session.steps_taken = 17
        live = table.simulators[sid][1]

        table.hibernate(sid)
        assert sid not in table.simulators

        after = step(17, 0)
        assert table.simulators[sid][1] is not live
        assert json.dumps(after) == json.dumps(before)


class TestSimulatorLifetime:
    """Live simulators belong to their session: every way a session goes
    takes its simulator with it."""

    def _stepped(self, **kwargs):
        table = SessionTable(**kwargs)
        session = table.create(0.0, "sensornet", CONFIG)
        run_step_batch([StepRequest(session.session_id, "sensornet", CONFIG,
                                    0, 2)], table.simulators)
        session.steps_taken = 2
        assert session.session_id in table.simulators
        return table, session.session_id

    def test_close_drops_the_simulator(self):
        table, sid = self._stepped()
        table.close(sid)
        assert table.simulators == {}

    def test_eviction_drops_the_simulator(self):
        table, sid = self._stepped(ttl=1.0)
        assert table.evict_expired(5.0) == [sid]
        assert table.simulators == {}

    def test_export_then_close_drops_the_simulator(self):
        table, sid = self._stepped()
        handle = table.export_handle(sid)
        table.close(sid)
        assert table.simulators == {}
        other = SessionTable()
        adopted = other.adopt(1.0, handle)
        assert adopted.steps_taken == 2
        assert other.simulators == {}  # arrives hibernated

    def test_eviction_skips_a_session_with_work_in_flight(self):
        table, sid = self._stepped(ttl=1.0)

        async def evict_while_locked():
            async with table.get(sid).lock:
                return table.evict_expired(5.0)

        assert asyncio.run(evict_while_locked()) == []
        assert sid in table.simulators
        assert table.evict_expired(5.0) == [sid]
        assert table.simulators == {}
