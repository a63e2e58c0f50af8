"""The asyncio server: protocol ops, error codes, shedding, eviction."""

import asyncio
import json
import threading
from dataclasses import dataclass

import pytest

from repro.api import adapters
from repro.metrics.stats import percentile_linear
from repro.obs.events import EventBus, set_bus
from repro.serve import (Client, InProcessClient, ServerConfig,
                         SimulationServer)


def run(coro):
    return asyncio.run(coro)


def make_server(**kwargs):
    defaults = dict(workers=0, governor="none", admission_rate=1000.0,
                    admission_burst=1000.0)
    defaults.update(kwargs)
    return SimulationServer(ServerConfig(**defaults))


async def with_server(body, **kwargs):
    """Start an in-process (no socket) server, run ``body``, stop."""
    server = make_server(**kwargs)
    await server.start(listen=False)
    try:
        return await body(server, InProcessClient(server))
    finally:
        await server.stop()


class TestOps:
    def test_create_step_run_metrics_snapshot_close(self):
        async def body(server, client):
            created = await client.create("sensornet", steps=30,
                                          n_channels=4, seed=1)
            assert created["ok"] and created["substrate"] == "sensornet"
            assert created["v"] == 1
            session = created["session"]

            stepped = await client.step(session, n=5)
            assert stepped["ok"] and stepped["steps_taken"] == 5
            assert stepped["snapshot"]["steps_taken"] == 5

            snap = await client.snapshot(session)
            assert snap["ok"] and not snap["stale"]
            assert snap["snapshot"] == stepped["snapshot"]  # cache hit

            finished = await client.run(session)
            assert finished["steps_taken"] == 30  # to the config budget

            metrics = await client.metrics(session)
            assert metrics["ok"] and metrics["metrics"]

            closed = await client.close_session(session)
            assert closed["ok"]
            missing = await client.step(session)
            assert missing["error"]["code"] == "unknown_session"
            assert missing["error"]["retryable"] is False

        run(with_server(body))

    def test_hello_reports_capabilities(self):
        async def body(server, client):
            hello = await client.hello()
            assert hello["ok"] and hello["protocol"] == 1
            assert hello["node"] == "n0"
            assert "create" in hello["ops"]
            assert "migrate_in" in hello["ops"]
            assert "sensornet" in hello["substrates"]

        run(with_server(body))

    def test_step_results_match_direct_simulation(self):
        """What the server returns is exactly what the simulator does."""
        async def body(server, client):
            created = await client.create("sensornet", steps=30,
                                          n_channels=4, seed=7)
            return await client.step(created["session"], n=12)

        from repro.api import SensornetConfig, make_simulator
        response = run(with_server(body))
        sim = make_simulator("sensornet",
                             SensornetConfig(steps=30, n_channels=4, seed=7))
        for _ in range(12):
            sim.step()
        direct = json.loads(json.dumps(
            {"metrics": sim.metrics(), "snapshot": sim.snapshot()}))
        assert response["metrics"] == direct["metrics"]
        assert response["snapshot"] == direct["snapshot"]

    def test_snapshot_uses_cache_then_step(self):
        """``snapshot`` serves the session's cached current step; on a
        miss (an older step in the slot, or none) it steps the
        simulator by zero and caches what it returns.  Every snapshot
        is current, so ``stale`` is always false."""
        async def body(server, client):
            created = await client.create("sensornet", steps=30,
                                          n_channels=4, seed=1)
            sid = created["session"]
            first = (await client.step(sid, n=1))["snapshot"]
            third = (await client.step(sid, n=2))["snapshot"]
            snapshots = server.sessions.snapshots
            batches = server.dispatcher.batches_run
            hit = await client.snapshot(sid)
            assert hit["snapshot"] == third and hit["stale"] is False
            assert server.dispatcher.batches_run == batches

            snapshots.put(sid, 1, {"snapshot": first})
            fresh = await client.snapshot(sid)
            assert fresh["stale"] is False and fresh["snapshot"] == third
            assert server.dispatcher.batches_run == batches + 1
            assert snapshots.get(sid, 3)["snapshot"] == third

        run(with_server(body))

    def test_metrics_read_the_step_cache_and_batch_only_on_a_miss(self):
        """``metrics`` at the session's current step is the cached step
        result's; a miss (here: the cache emptied) runs one 0-step
        batch, whose result is cached in turn."""
        async def body(server, client):
            created = await client.create("sensornet", steps=30,
                                          n_channels=4, seed=5)
            sid = created["session"]
            stepped = await client.step(sid, n=4)
            batches = server.dispatcher.batches_run
            hit = await client.metrics(sid)
            assert hit["metrics"] == stepped["metrics"]
            assert server.dispatcher.batches_run == batches

            server.sessions.snapshots.drop_session(sid)
            missed = await client.metrics(sid)
            assert missed["metrics"] == stepped["metrics"]
            assert server.dispatcher.batches_run == batches + 1
            assert server.sessions.snapshots.get(sid, 4)["metrics"] == \
                stepped["metrics"]

        run(with_server(body))


class TestConcurrency:
    def test_concurrent_steps_on_one_session_all_land(self):
        """Two connections stepping the same session must serialise:
        without the per-session lock both capture the same base position
        and one request's steps are silently lost."""
        async def body(server, client):
            created = await client.create("sensornet", steps=1000,
                                          n_channels=4, seed=3)
            session = created["session"]
            responses = await asyncio.gather(
                *(client.step(session, n=1) for _ in range(8)))
            assert all(r["ok"] for r in responses)
            assert sorted(r["steps_taken"] for r in responses) == \
                list(range(1, 9))
            assert server.sessions.get(session).steps_taken == 8
            snap = await client.snapshot(session)
            assert not snap["stale"]
            return snap

        from repro.api import SensornetConfig, make_simulator
        snap = run(with_server(body))
        sim = make_simulator("sensornet",
                             SensornetConfig(steps=1000, n_channels=4,
                                             seed=3))
        for _ in range(8):
            sim.step()
        assert snap["snapshot"] == json.loads(json.dumps(sim.snapshot()))

    def test_concurrent_run_and_step_respect_the_budget(self):
        async def body(server, client):
            created = await client.create("sensornet", steps=20,
                                          n_channels=4, seed=5)
            session = created["session"]
            await asyncio.gather(client.step(session, n=6),
                                 client.run(session))
            assert server.sessions.get(session).steps_taken <= 20 + 6
            finished = await client.run(session)
            # run() computes the remaining budget under the session lock,
            # so the final position is exactly the budget, never past it
            # by a stale remainder.
            assert finished["steps_taken"] in (20, 26)
            again = await client.run(session)
            assert again["steps_taken"] == finished["steps_taken"]

        run(with_server(body))


class TestSimulatorLifetime:
    """With ``workers=0`` a session's live simulator is the server's for
    as long as the session lives, and goes when the session does."""

    def test_stats_report_live_simulators(self):
        async def body(server, client):
            sids = [(await client.create("sensornet", steps=30,
                                         n_channels=4, seed=i))["session"]
                    for i in range(3)]

            async def live():
                return (await client.stats())["stats"]["live_simulators"]

            assert await live() == 0          # built on first step
            await client.step(sids[0], n=2)
            await client.metrics(sids[1])
            assert await live() == 2
            await client.step(sids[0], n=2)   # stepped in place
            assert await live() == 2
            await client.close_session(sids[0])
            assert await live() == 1
            server.sessions.hibernate(sids[1])
            assert await live() == 0

        run(with_server(body))

    def test_close_mid_step_leaves_no_live_simulator(self):
        async def body(server, client):
            created = await client.create("sensornet", steps=30,
                                          n_channels=4, seed=2)
            sid = created["session"]
            await client.step(sid, n=2)
            stepping = asyncio.create_task(client.step(sid, n=3))
            await asyncio.sleep(0)
            assert server.sessions.get(sid).lock.locked()  # in flight
            closed, late = await asyncio.gather(client.close_session(sid),
                                                client.step(sid, n=1))
            stepped = await stepping
            assert stepped["ok"] and stepped["steps_taken"] == 5
            assert closed["ok"]
            assert late["error"]["code"] == "unknown_session"
            assert server.sessions.simulators == {}
            assert len(server.sessions.snapshots) == 0

        run(with_server(body))

    def test_evict_mid_step_leaves_no_live_simulator(self):
        async def body(server, client):
            created = await client.create("sensornet", steps=30,
                                          n_channels=4, seed=2)
            sid = created["session"]
            later = server._clock() + 10 * server.sessions.ttl
            stepping = asyncio.create_task(client.step(sid, n=3))
            await asyncio.sleep(0)
            assert server.sessions.get(sid).lock.locked()  # in flight
            assert server.sessions.evict_expired(later) == []
            assert (await stepping)["steps_taken"] == 3
            assert sid in server.sessions.simulators
            assert server.sessions.evict_expired(later) == [sid]
            assert server.sessions.simulators == {}
            assert len(server.sessions.snapshots) == 0

        run(with_server(body, ttl=60.0))

class TestErrors:
    def test_unknown_op_unknown_substrate_bad_config(self):
        async def body(server, client):
            unknown_op = await client.request({"op": "launch"})
            assert unknown_op["error"]["code"] == "bad_request"
            assert "create" in unknown_op["error"]["message"]

            bad_substrate = await client.request(
                {"op": "create", "substrate": "mainframe"})
            assert bad_substrate["error"]["code"] == "bad_request"
            assert "sensornet" in bad_substrate["error"]["message"]

            bad_config = await client.request(
                {"op": "create", "substrate": "sensornet",
                 "config": {"no_such_field": 1}})
            assert bad_config["error"]["code"] == "bad_request"

            negative = await client.request(
                {"op": "create", "substrate": "sensornet",
                 "config": {"steps": 10}})
            bad_n = await client.request(
                {"op": "step", "session": negative["session"], "n": -1})
            assert bad_n["error"]["code"] == "bad_request"

        run(with_server(body))

    def test_error_envelope_shape(self):
        """Every error is the one structured object: code, message,
        retryable, plus the versioned envelope."""
        async def body(server, client):
            response = await client.request({"op": "step", "session": "sX"})
            assert response["ok"] is False
            assert response["v"] == 1
            error = response["error"]
            assert set(error) >= {"code", "message", "retryable"}
            assert "code" not in response

        run(with_server(body))

    def test_unhashable_op_is_a_bad_request(self):
        async def body(server, client):
            response = await client.request({"op": ["step"]})
            assert response["error"]["code"] == "bad_request"

        run(with_server(body))


class TestShedding:
    def test_overload_sheds_with_a_shed_code(self):
        async def body(server, client):
            created = await client.create("sensornet", steps=1000,
                                          n_channels=4)
            session = created["session"]
            verdicts = [await client.step(session) for _ in range(20)]
            ok = [v for v in verdicts if v.get("ok")]
            shed = [v for v in verdicts
                    if str(v.get("error", {}).get("code", "")).startswith(
                        "shed")]
            assert ok, "everything shed: admission burst too tight"
            assert shed, "nothing shed despite a ~zero admission rate"
            assert all(v["error"]["retryable"] for v in shed)
            assert len(ok) + len(shed) == 20
            stats = (await client.stats())["stats"]
            assert stats["admission"]["shed_rate"] == len(shed)

        # ~3 tokens then a trickle: most of the burst must shed.
        run(with_server(body, admission_rate=0.001, admission_burst=3.0))


class TestBackgroundLoops:
    def test_ttl_loop_evicts_idle_sessions(self):
        async def body(server, client):
            created = await client.create("sensornet", steps=30,
                                          n_channels=4)
            assert len(server.sessions) == 1
            await asyncio.sleep(0.6)  # > ttl + sweep interval
            assert len(server.sessions) == 0
            gone = await client.snapshot(created["session"])
            assert gone["error"]["code"] == "unknown_session"

        run(with_server(body, ttl=0.2))

    def test_governor_loop_ticks_and_explains(self):
        async def body(server, client):
            created = await client.create("sensornet", steps=200,
                                          n_channels=4)
            for _ in range(10):
                await client.step(created["session"])
            await asyncio.sleep(0.25)  # two governor intervals
            explained = await client.request({"op": "explain"})
            assert explained["ok"]
            assert "Governor state" in explained["explanation"]
            stats = (await client.stats())["stats"]
            assert stats["requests_completed"] >= 11

        run(with_server(body, governor="self_aware", govern_interval=0.1))

    def test_default_units_do_not_trip_degradation_under_light_load(self):
        """The wall-clock governor with the server's default SLO and
        service-rate units (seconds, requests/second) must judge a
        lightly loaded server healthy: predicted latency lives in the
        same unit as the measured p95, so confidence stays high and the
        degradation monitor never trips."""
        async def body(server, client):
            created = await client.create("sensornet", steps=5000,
                                          n_channels=4)
            session = created["session"]
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 0.7
            while loop.time() < deadline:
                response = await client.step(session)
                assert response["ok"]
                await asyncio.sleep(0.01)
            assert server.governor.monitor.last_confidence is not None, \
                "governor loop never ticked"
            stats = (await client.stats())["stats"]
            assert not stats["degraded"]
            assert "serve_stale" not in stats

        # Default slo_p95/service_rate_guess; only the cadence is sped
        # up so a dozen governance cycles fit in the test budget.
        run(with_server(body, governor="self_aware", govern_interval=0.05))


class TestSocket:
    def test_round_trip_over_a_real_socket(self):
        async def body():
            server = make_server(port=0)
            await server.start()
            try:
                client = await Client.connect(server.host, server.port)
                try:
                    created = await client.create("sensornet", steps=30,
                                                  n_channels=4, seed=1)
                    assert created["ok"] and created["v"] == 1
                    stepped = await client.step(created["session"], n=3)
                    assert stepped["steps_taken"] == 3
                    stats = await client.stats()
                    assert stats["stats"]["requests_completed"] >= 2
                finally:
                    await client.close()
            finally:
                await server.stop()

        run(body())

    def test_unparseable_line_gets_a_bad_request(self):
        async def body():
            server = make_server(port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                writer.write(b"this is not json\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response == {"ok": False, "v": 1,
                                    "error": response["error"]}
                assert response["error"]["code"] == "bad_request"
                assert "unparseable" in response["error"]["message"]
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run(body())

    def test_oversize_line_gets_one_too_large_then_close(self):
        """A line past the stream limit gets exactly one structured
        reply, then EOF -- never a silent drop."""
        async def body():
            server = make_server(port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                request = {"op": "hello", "pad": "x" * 70_000}
                writer.write(json.dumps(request).encode() + b"\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["ok"] is False
                assert response["error"]["code"] == "too_large"
                assert response["error"]["retryable"] is False
                assert await reader.read() == b""
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run(body())

    @staticmethod
    async def _exchange(reader, writer, line: bytes):
        writer.write(line + b"\n")
        await writer.drain()
        return json.loads(await reader.readline())

    def test_bad_frames_get_a_reply_and_the_connection_keeps_serving(self):
        """An infinite step count (``int(inf)`` raises OverflowError)
        and JSON nested past the recursion limit are bad requests."""
        async def body():
            server = make_server(port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                created = await self._exchange(reader, writer, json.dumps(
                    {"op": "create", "substrate": "sensornet",
                     "config": {"steps": 10, "n_channels": 4}}).encode())
                session = created["session"]
                infinite = await self._exchange(
                    reader, writer,
                    b'{"op": "step", "session": "%s", "n": Infinity}'
                    % session.encode())
                assert infinite["error"]["code"] == "bad_request"
                nested = await self._exchange(reader, writer,
                                              b"[" * 50_000)
                assert nested["error"]["code"] == "bad_request"
                stepped = await self._exchange(reader, writer, json.dumps(
                    {"op": "step", "session": session, "n": 2}).encode())
                assert stepped["ok"] and stepped["steps_taken"] == 2
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        run(body())

    def test_unexpected_handler_exception_is_internal(self, caplog):
        async def body():
            server = make_server(port=0)

            async def broken(request, now):
                raise RuntimeError("stats store corrupted")

            server._handlers["stats"] = broken
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                failed = await self._exchange(reader, writer,
                                              b'{"op": "stats"}')
                assert failed["ok"] is False
                assert failed["error"]["code"] == "internal"
                assert failed["error"]["retryable"] is True
                assert "stats store corrupted" in failed["error"]["message"]
                hello = await self._exchange(reader, writer,
                                             b'{"op": "hello"}')
                assert hello["ok"] is True
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        with caplog.at_level("ERROR", logger="repro.serve.server"):
            run(body())
        [record] = [r for r in caplog.records
                    if r.name == "repro.serve.server"]
        assert record.exc_info is not None
        assert "stats store corrupted" in str(record.exc_info[1])


@dataclass(frozen=True, kw_only=True)
class _SetConfig:
    steps: int = 10
    seed: int = 0


class _SetSnapshotSimulator:
    """Breaks the JSON-native contract: its snapshot holds a ``set``."""

    def __init__(self, config=None):
        self.config = config if config is not None else _SetConfig()
        self.steps = 0

    def step(self):
        self.steps += 1

    def metrics(self):
        return {"steps": float(self.steps)}

    def snapshot(self):
        return {"steps_taken": self.steps, "tags": {"a", "b"}}


class TestEncoding:
    def test_unencodable_reply_is_internal_and_the_connection_serves_on(
            self, monkeypatch, caplog):
        monkeypatch.setitem(adapters.SIMULATORS, "setsnap",
                            (_SetConfig, _SetSnapshotSimulator))

        async def body():
            server = make_server(port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                exchange = TestSocket._exchange
                created = await exchange(reader, writer, json.dumps(
                    {"op": "create", "substrate": "setsnap"}).encode())
                request = json.dumps({"op": "step",
                                      "session": created["session"]})
                stepped = await exchange(reader, writer, request.encode())
                metrics = await exchange(reader, writer, json.dumps(
                    {"op": "metrics",
                     "session": created["session"]}).encode())
                hello = await exchange(reader, writer, b'{"op": "hello"}')
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()
            return stepped, metrics, hello

        bus = EventBus(enabled=True)
        previous = set_bus(bus)
        try:
            with caplog.at_level("ERROR", logger="repro.serve.server"):
                stepped, metrics, hello = run(body())
        finally:
            set_bus(previous)
        # One serve.request per reply, carrying the code the client got.
        events = bus.events("serve.request")
        assert [(e.fields["op"], e.fields["ok"], e.fields["code"])
                for e in events] == [("create", True, None),
                                     ("step", False, "internal"),
                                     ("metrics", True, None),
                                     ("hello", True, None)]
        assert stepped["ok"] is False
        assert stepped["error"]["code"] == "internal"
        assert "not encodable" in stepped["error"]["message"]
        assert metrics["ok"] and metrics["metrics"] == {"steps": 1.0}
        assert hello["ok"] is True
        assert any(r.exc_info for r in caplog.records
                   if r.name == "repro.serve.server")


class TestStats:
    def test_p95_is_the_linear_percentile_of_recent_latencies(self):
        async def body(server, client):
            assert server.stats()["p95_seconds"] == 0.0
            created = await client.create("sensornet", steps=30,
                                          n_channels=4, seed=1)
            for _ in range(7):
                await client.step(created["session"])
            return server.stats()["p95_seconds"], list(server._latencies)

        p95, latencies = run(with_server(body))
        assert len(latencies) == 8
        assert p95 == percentile_linear(latencies, 95.0)


class _SlowFirstBatch:
    """A dispatcher whose first batch blocks until released.

    ``workers = 1`` makes the batch loop run ``submit`` on an executor
    thread, so the event loop stays free to queue more steps and to call
    ``stop()`` while the first batch is in flight.
    """

    workers = 1
    max_batch = 1

    def __init__(self, real):
        self.real = real
        self.started = threading.Event()
        self.release = threading.Event()
        self.batches = 0

    def submit(self, requests):
        self.batches += 1
        if self.batches == 1:
            self.started.set()
            self.release.wait(10)
        return self.real.submit(requests)

    def close(self):
        self.real.close()


class TestStop:
    def test_step_queued_behind_a_slow_batch_is_answered(self):
        def strip(reply):
            return dict(reply, session=None)

        async def uninterrupted(server, client):
            created = await client.create("sensornet", steps=50,
                                          n_channels=4, seed=2)
            return await client.step(created["session"], n=4)

        async def interrupted():
            server = make_server()
            await server.start(listen=False)
            client = InProcessClient(server)
            ahead_id = (await client.create("sensornet", steps=50,
                                            n_channels=4, seed=1))["session"]
            behind_id = (await client.create("sensornet", steps=50,
                                             n_channels=4, seed=2))["session"]
            slow = server.dispatcher = _SlowFirstBatch(server.dispatcher)
            ahead = asyncio.create_task(client.step(ahead_id, n=4))
            for _ in range(1000):
                if slow.started.is_set():
                    break
                await asyncio.sleep(0.005)
            assert slow.started.is_set()
            behind = asyncio.create_task(client.step(behind_id, n=4))
            await asyncio.sleep(0.02)  # queued behind the slow batch
            stopping = asyncio.create_task(server.stop())
            await asyncio.sleep(0.05)
            assert not behind.done() and not stopping.done()
            slow.release.set()
            await asyncio.wait_for(stopping, timeout=5)
            return await asyncio.wait_for(asyncio.gather(ahead, behind),
                                          timeout=5)

        reference = run(with_server(uninterrupted))
        ahead, behind = run(interrupted())
        assert ahead["ok"] and ahead["steps_taken"] == 4
        assert behind["ok"]
        assert strip(behind) == strip(reference)

    def test_step_after_stop_fails_instead_of_hanging(self):
        async def body():
            server = make_server()
            await server.start(listen=False)
            client = InProcessClient(server)
            sid = (await client.create("sensornet", steps=50,
                                       n_channels=4))["session"]
            await server.stop()
            return await asyncio.wait_for(client.step(sid), timeout=5)

        late = run(body())
        assert late["ok"] is False
        assert late["error"]["code"] == "internal"


class TestRequestEvents:
    def test_every_reply_emits_one_serve_request_with_its_code(self):
        async def broken(request, now):
            raise RuntimeError("stats store corrupted")

        async def body():
            server = SimulationServer(
                ServerConfig(workers=0, governor="none",
                             admission_rate=1e-6, admission_burst=1.0),
                placements={"far": "elsewhere"})
            server._handlers["stats"] = broken
            await server.start(listen=False)
            client = InProcessClient(server)
            try:
                requests = [
                    ({"op": "hello"}, None),
                    ({"op": "hello", "v": 99}, "unsupported_version"),
                    ({"op": "nope"}, "bad_request"),
                    ({"op": "step", "session": "far"}, "moved"),
                    # Takes the one admission token, then fails lookup.
                    ({"op": "step", "session": "gone"}, "unknown_session"),
                    ({"op": "step", "session": "gone"}, "shed_rate"),
                    ({"op": "migrate_in", "handle": {"session": "far"}},
                     "wrong_node"),
                    ({"op": "stats"}, "internal"),
                ]
                replies = [await server.dispatch(dict(r))
                           for r, _ in requests]
            finally:
                await server.stop()
            return requests, replies

        bus = EventBus(enabled=True)
        previous = set_bus(bus)
        try:
            requests, replies = run(body())
        finally:
            set_bus(previous)
        events = bus.events("serve.request")
        assert [(e.fields["ok"], e.fields["code"]) for e in events] == \
            [(code is None, code) for _, code in requests]
        assert [r.get("error", {}).get("code") for r in replies] == \
            [code for _, code in requests]
        assert [e.fields["op"] for e in events] == \
            [r["op"] for r, _ in requests]


class TestConstruction:
    def test_unknown_governor_rejected(self):
        with pytest.raises(ValueError, match="governor"):
            SimulationServer(ServerConfig(governor="vibes"))

    def test_unknown_legacy_kwarg_rejected(self):
        # Options travel only inside a ServerConfig.
        with pytest.raises(TypeError, match="workers"):
            SimulationServer(workers=2)
        with pytest.raises(TypeError, match="ServerConfig"):
            SimulationServer({"workers": 2})
