"""The sharded cluster: routing, migration edges, collective governance.

The migration tests all assert the same contract from different angles:
a migrated session's state is *byte-identical* to a never-migrated
replay, because the declarative handle plus the facade's replay
guarantee is the entire transport.
"""

import asyncio
import json
import random
from collections import Counter

import pytest

from repro.api import ClusterSimulator, SensornetConfig, make_simulator
from repro.serve import ServeCluster, ServerConfig
from repro.serve.cluster import ClusterClient
from repro.serve.protocol import error_code
from repro.api.configs import ClusterConfig


def run(coro):
    return asyncio.run(coro)


def make_cluster(**kwargs):
    defaults = dict(nodes=3,
                    base=ServerConfig(governor="none",
                                      admission_rate=1000.0,
                                      admission_burst=1000.0),
                    governor="none")
    defaults.update(kwargs)
    return ServeCluster(**defaults)


async def with_cluster(body, **kwargs):
    cluster = await make_cluster(**kwargs).start(listen=False)
    try:
        return await body(cluster, cluster.cluster_client())
    finally:
        await cluster.stop()


def replay_snapshot(n_steps, **config):
    """The never-migrated reference: fresh build, reset, step."""
    cfg = SensornetConfig(**config)
    sim = make_simulator("sensornet", cfg)
    sim.reset(cfg.seed)
    for _ in range(n_steps):
        sim.step()
    return json.loads(json.dumps(sim.snapshot()))


class TestRouting:
    def test_cluster_ids_carry_their_birth_node(self):
        async def body(cluster, client):
            created = await client.create("sensornet", steps=30,
                                          n_channels=4, seed=1)
            assert created["ok"]
            assert created["session"].startswith(created["node"] + "-")
            assert cluster.placements[created["session"]] == created["node"]

        run(with_cluster(body))

    def test_creates_spread_over_nodes(self):
        async def body(cluster, client):
            nodes = set()
            for _ in range(12):
                created = await client.create("sensornet", steps=10,
                                              n_channels=4)
                nodes.add(created["node"])
            assert len(nodes) >= 2

        run(with_cluster(body))

    def test_moved_redirects_are_followed_and_cached(self):
        async def body(cluster, client):
            created = await client.create("sensornet", steps=50,
                                          n_channels=4, seed=2)
            sid = created["session"]
            src = cluster.placements[sid]
            dst = next(n for n in cluster.node_ids if n != src)
            await cluster.migrate(sid, dst)
            # The direct client at the old owner bounces with "moved"...
            direct = cluster.client(src)
            bounced = await direct.step(sid)
            assert error_code(bounced) == "moved"
            assert bounced["error"]["node"] == dst
            assert bounced["error"]["retryable"] is True
            # ...the cluster client follows the redirect transparently.
            stepped = await client.step(sid, n=3)
            assert stepped["ok"] and stepped["steps_taken"] == 3
            assert client.redirects_followed >= 1
            # Cached: the next request goes straight to the new owner.
            before = client.redirects_followed
            await client.step(sid)
            assert client.redirects_followed == before

        run(with_cluster(body))

    def test_redirect_storm_raises(self):
        class Bouncer:
            async def request(self, payload):
                from repro.serve.protocol import ErrorCode, error_response
                return error_response(ErrorCode.MOVED, "ping", node="a")

        async def body():
            client = ClusterClient({"a": Bouncer()}, max_redirects=2)
            with pytest.raises(RuntimeError, match="redirect"):
                await client.request({"op": "step", "session": "s1"})

        run(body())


class TestMigration:
    def test_post_migration_snapshot_byte_identical(self):
        async def body(cluster, client):
            created = await client.create("sensornet", steps=40,
                                          n_channels=4, seed=9)
            sid = created["session"]
            await client.step(sid, n=7)
            src = cluster.placements[sid]
            dst = next(n for n in cluster.node_ids if n != src)
            moved = await cluster.migrate(sid, dst)
            assert moved["moved"] and moved["steps_taken"] == 7
            # The session left the old node entirely.
            assert sid not in cluster.servers[src].sessions.ids()
            snap = await client.snapshot(sid)
            return snap["snapshot"]

        snapshot = run(with_cluster(body))
        assert snapshot == replay_snapshot(7, steps=40, n_channels=4, seed=9)

    def test_migrate_during_run_commits_the_budget_first(self):
        """Migration mid-``run``: the handle is exported under the
        session lock, so the in-flight run commits its full budget and
        the migrated replay lands exactly at the budget."""
        async def body(cluster, client):
            created = await client.create("sensornet", steps=25,
                                          n_channels=4, seed=4)
            sid = created["session"]
            src = cluster.placements[sid]
            dst = next(n for n in cluster.node_ids if n != src)
            run_task = asyncio.create_task(client.run(sid))
            await asyncio.sleep(0)  # let the run take the session lock
            moved = await cluster.migrate(sid, dst)
            finished = await run_task
            assert finished["ok"] and finished["steps_taken"] == 25
            assert moved["steps_taken"] == 25
            snap = await client.snapshot(sid)
            return snap["snapshot"]

        snapshot = run(with_cluster(body))
        assert snapshot == replay_snapshot(25, steps=25, n_channels=4, seed=4)

    def test_migrate_mid_step_replays_like_a_session_that_stayed(self):
        """Migration while a step is in flight: the step commits into the
        handle, the source keeps no live simulator, and every later reply
        from the destination is byte-identical to a session that never
        moved and took the same steps."""
        config = dict(steps=40, n_channels=4, seed=8)

        async def body(cluster, client):
            sid = (await client.create("sensornet", **config))["session"]
            stay = (await client.create("sensornet", **config))["session"]
            for session in (sid, stay):
                await client.step(session, n=4)
            src = cluster.placements[sid]
            dst = next(n for n in cluster.node_ids if n != src)
            stepping = asyncio.create_task(client.step(sid, n=3))
            await asyncio.sleep(0)
            assert cluster.servers[src].sessions.get(sid).lock.locked()
            moved = await cluster.migrate(sid, dst)
            assert moved["steps_taken"] == 7
            assert (await stepping)["steps_taken"] == 7
            assert sid not in cluster.servers[src].sessions.simulators
            await client.step(stay, n=3)
            replies = []
            for session in (sid, stay):
                replies.append([await client.step(session, n=2),
                                await client.metrics(session),
                                await client.snapshot(session)])
            assert sid in cluster.servers[dst].sessions.simulators
            return replies

        moved, stayed = run(with_cluster(body, nodes=2))
        for got, want in zip(moved, stayed):
            for key in ("steps_taken", "metrics", "snapshot"):
                assert json.dumps(got.get(key)) == json.dumps(want.get(key))
        assert moved[2]["snapshot"] == replay_snapshot(9, **config)

    def test_migrate_with_warm_snapshot_cache(self):
        """A warm SnapshotCache entry on the source must neither leak to
        the destination nor poison the post-migration state: the new
        node rebuilds by replay and serves the identical snapshot."""
        async def body(cluster, client):
            created = await client.create("sensornet", steps=40,
                                          n_channels=4, seed=6)
            sid = created["session"]
            await client.step(sid, n=5)
            src = cluster.placements[sid]
            warm = await client.snapshot(sid)  # cache hit on the source
            assert not warm["stale"]
            assert cluster.servers[src].sessions.snapshots.get(sid, 5)
            dst = next(n for n in cluster.node_ids if n != src)
            await cluster.migrate(sid, dst)
            # Source cache dropped with the session; destination cold.
            assert cluster.servers[src].sessions.snapshots.get(sid, 5) is None
            assert cluster.servers[dst].sessions.snapshots.get(sid, 5) is None
            again = await client.snapshot(sid)
            assert again["snapshot"] == warm["snapshot"]
            return again["snapshot"]

        snapshot = run(with_cluster(body))
        assert snapshot == replay_snapshot(5, steps=40, n_channels=4, seed=6)

    def test_rehydrate_on_wrong_node_rejected(self):
        """A handle imported on a node the placement map does not route
        the session to is refused with ``wrong_node``."""
        async def body(cluster, client):
            created = await client.create("sensornet", steps=30,
                                          n_channels=4, seed=3)
            sid = created["session"]
            src = cluster.placements[sid]
            out = await cluster.servers[src].dispatch(
                {"op": "migrate_out", "session": sid})
            assert out["ok"]
            wrong = next(n for n in cluster.node_ids if n != src)
            # Placement still says src, so `wrong` must refuse the
            # handle rather than fork the session.
            rejected = await cluster.servers[wrong].dispatch(
                {"op": "migrate_in", "handle": out["handle"]})
            assert error_code(rejected) == "wrong_node"
            assert rejected["error"]["retryable"] is False
            assert sid not in cluster.servers[wrong].sessions.ids()
            # The intended node still accepts it.
            back = await cluster.servers[src].dispatch(
                {"op": "migrate_in", "handle": out["handle"]})
            assert back["ok"]

        run(with_cluster(body))

    def test_migrate_unknown_placement_and_unknown_node(self):
        async def body(cluster, client):
            with pytest.raises(KeyError, match="placement"):
                await cluster.migrate("ghost", cluster.node_ids[0])
            created = await client.create("sensornet", steps=10,
                                          n_channels=4)
            with pytest.raises(ValueError, match="unknown node"):
                await cluster.migrate(created["session"], "n99")

        run(with_cluster(body))


class TestSimulatorOwnership:
    def test_each_node_keeps_every_session_simulator_it_owns(
            self, monkeypatch):
        """192 sessions over two in-process nodes (3x the pool workers'
        64-entry LRU): each session's simulator is built exactly once and
        stepped in place from then on, neither node drops the other's,
        and every reply matches a fresh replay byte for byte."""
        from repro.serve import batching

        builds = Counter()
        real_make = batching.make_simulator

        def counting_make(substrate, config=None, **kwargs):
            builds[config.seed] += 1
            return real_make(substrate, config, **kwargs)

        monkeypatch.setattr(batching, "make_simulator", counting_make)
        n_sessions = 192
        rng = random.Random(12)

        async def body(cluster, client):
            sids, references = [], {}
            for seed in range(n_sessions):
                config = SensornetConfig(steps=200, n_channels=4, seed=seed)
                created = await client.create("sensornet", steps=200,
                                              n_channels=4, seed=seed)
                sids.append(created["session"])
                references[created["session"]] = make_simulator(
                    "sensornet", config)

            def expected(sid):
                sim = references[sid]
                return json.loads(json.dumps(
                    {"metrics": sim.metrics(), "snapshot": sim.snapshot()}))

            async def one_op(sid):
                op = rng.choice(("step", "step", "snapshot", "metrics"))
                if op == "step":
                    n = rng.randint(1, 2)
                    reply = await client.step(sid, n=n)
                    for _ in range(n):
                        references[sid].step()
                else:
                    reply = await getattr(client, op)(sid)
                assert reply["ok"], reply
                want = expected(sid)
                for key in ("metrics", "snapshot"):
                    if key in reply:
                        assert json.dumps(reply[key]) == \
                            json.dumps(want[key]), (sid, op, key)

            for _ in range(4):
                order = rng.sample(sids, len(sids))
                for at in range(0, len(order), 16):
                    await asyncio.gather(*map(one_op, order[at:at + 16]))

            for node, server in cluster.servers.items():
                owned = {sid for sid in sids
                         if cluster.placements[sid] == node}
                assert owned and set(server.sessions.simulators) == owned
                stats = await cluster.client(node).stats()
                assert stats["stats"]["live_simulators"] == len(owned)

        run(with_cluster(body, nodes=2))
        assert sorted(builds) == list(range(n_sessions))
        assert set(builds.values()) == {1}


class TestCollectiveCluster:
    def test_collective_governors_share_one_board(self):
        async def body(cluster, client):
            governors = [s.governor for s in cluster.servers.values()]
            boards = {id(g.board) for g in governors}
            assert len(boards) == 1
            budgets = {g.worker_budget for g in governors}
            assert budgets == {6}

        run(with_cluster(body,
                         base=ServerConfig(governor="self_aware",
                                           admission_rate=1000.0,
                                           admission_burst=1000.0),
                         governor="collective", worker_budget=6))


class TestClusterSimulation:
    def test_byte_identical_replay(self):
        config = ClusterConfig(steps=120, warmup=20, seed=11)
        a = ClusterSimulator(config)
        a.run()
        b = ClusterSimulator(config)
        b.run()
        assert a.result() == b.result()
        assert a.metrics() == b.metrics()

    def test_reset_restores_the_initial_state(self):
        sim = ClusterSimulator(ClusterConfig(steps=60, warmup=10, seed=5))
        first = sim.run()
        sim.reset(5)
        assert sim.result() == []
        assert sim.run() == first

    def test_ring_places_sessions_unevenly_under_skew(self):
        sim = ClusterSimulator(ClusterConfig(seed=0))
        counts = sim.snapshot()["placements"]
        assert sum(counts.values()) == sim.config.sessions

    def test_collective_arm_gossips_and_rebalances(self):
        sim = ClusterSimulator(ClusterConfig(
            governor="collective", traffic="flash", steps=250, seed=1))
        sim.run()
        m = sim.metrics()
        # The very first govern tick may fall back (a node that gossips
        # before its peers sees a one-view board); after that the board
        # stays fresh and every decision is collective.
        assert m["collective_fraction"] >= 0.9
        assert sim._sim.board.published > 0
        # Flash co-location forces a move.
        assert sim.snapshot()["migrations"] >= 1

    def test_an_overloaded_one_node_cluster_has_nowhere_to_rebalance(self):
        sim = ClusterSimulator(ClusterConfig(
            nodes=1, sessions=2, worker_budget=3, steps=30, warmup=0,
            seed=0))
        sim.run()
        assert sim.snapshot()["migrations"] == 0

    def test_per_node_and_static_arms_never_gossip(self):
        for arm in ("per_node", "static"):
            sim = ClusterSimulator(ClusterConfig(
                governor=arm, steps=80, warmup=10, seed=2))
            sim.run()
            assert sim._sim.board.published == 0
            assert sim.snapshot()["migrations"] == 0

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError, match="governor"):
            ClusterSimulator(ClusterConfig(governor="vibes"))
        with pytest.raises(ValueError, match="traffic"):
            ClusterSimulator(ClusterConfig(traffic="tsunami"))
        with pytest.raises(ValueError, match="worker_budget"):
            ClusterSimulator(ClusterConfig(nodes=8, worker_budget=4))
