"""The named kernels: one per substrate hot path, plus paired baselines.

Every factory builds an isolated simulation (fixed seeds, no shared
state) and returns a runner ``run(n)`` advancing it ``n`` steps.  The
fault kernels also carry a ``baseline_setup`` -- the same work under a
different fault plan -- so the cost of open fault windows is measured
inside the same run.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .harness import KernelSpec, StepRunner


def _camera_setup(rows: int = 7, cols: int = 7, radius: float = 0.28,
                  n_objects: int = 48) -> StepRunner:
    from ..api.configs import CameraConfig
    from ..smartcamera.controller import SelfAwareStrategyController
    from ..smartcamera.sim import CameraSimulation

    # A larger deployment than the E2 table (49 cameras, 48 objects at
    # the default tier): the candidate index's advantage is asymptotic,
    # so the kernel measures it at the scale where camera networks
    # actually hurt.  The large tier scales the radius with the grid
    # pitch so the coverage *density* stays constant -- otherwise every
    # camera sees every point and the candidate index has nothing to
    # prune.
    config = CameraConfig(rows=rows, cols=cols, radius=radius,
                          n_objects=n_objects,
                          object_speed=0.035, detection_rate=0.08,
                          random_placement=True, seed=0)
    sim = CameraSimulation(
        config,
        controller_factory=lambda cid, rng: SelfAwareStrategyController(
            cid, epsilon=0.05, rng=rng))
    t = 0.0

    def run(n: int) -> None:
        nonlocal t
        for _ in range(int(n)):
            sim.step(t)
            t += 1.0

    return run


def _observers_setup() -> StepRunner:
    from ..smartcamera.network import CameraNetwork
    from ..smartcamera.objects import ObjectPopulation

    # The pure observer sweep: who sees each object right now?  The
    # indexed visibility scan, measured without the auction/learning
    # machinery around it.
    network = CameraNetwork.random(64, radius=0.2, seed=11)
    population = ObjectPopulation(48, speed=0.02,
                                  rng=np.random.default_rng(11))
    observers = network.observers

    def run(n: int) -> None:
        for _ in range(int(n)):
            population.step()
            for obj in population.objects:
                observers(obj)

    return run


def _swarm_setup(n_robots: int = 32,
                 events_per_step: float = 8.0) -> StepRunner:
    from ..api.configs import SwarmConfig
    from ..swarm.robots import SelfAwareSwarm
    from ..swarm.sim import SwarmMission

    # Larger than the E12 mission (32 robots, 8 events/step) so the
    # O(robots x memory x alive) attribution cost is the dominant term,
    # as it is on long real missions.
    controller = SelfAwareSwarm(rng=np.random.default_rng(7))
    config = SwarmConfig(n_robots=n_robots, steps=300,
                         events_per_step=events_per_step, seed=0)
    mission = SwarmMission(controller, config)
    t = 0.0

    def run(n: int) -> None:
        nonlocal t
        for _ in range(int(n)):
            mission.step(t)
            t += 1.0

    return run


def _cpn_setup(n: int = 30) -> StepRunner:
    from ..api.adapters import CPNSimulator
    from ..api.configs import CPNConfig
    from ..cpn.routing import OracleRouter
    from ..cpn.sim import default_flows
    from ..cpn.topology import CPNetwork

    network = CPNetwork.random_geometric(n=n, seed=3)
    network.schedule_random_disturbances(horizon=10_000.0, count=12)
    # Keep the disturbance *population* (the router still scans the
    # schedule every step) but displace every window far past the timed
    # run: each step then takes the same code path -- the change-gated
    # cached tables -- instead of mixing cheap quiet steps with
    # expensive in-window ones, which made the kernel's measured spread
    # ~1.9x and impossible to gate on.
    for disturbance in network.disturbances:
        disturbance.start += 1e9
    sim = CPNSimulator(CPNConfig(n_nodes=n, seed=3), network=network,
                       router=OracleRouter(network),
                       flows=default_flows(network, n_flows=6, seed=3))

    def run(n: int) -> None:
        for _ in range(int(n)):
            sim.step()

    return run


def _multicore_setup() -> StepRunner:
    from ..api import MulticoreConfig, MulticoreSimulator
    from ..multicore import make_multicore_goal
    from ..multicore.governor import SelfAwareGovernor

    sim = MulticoreSimulator(
        MulticoreConfig(seed=4),
        governor=SelfAwareGovernor(make_multicore_goal(),
                                   rng=np.random.default_rng(4)))

    def run(n: int) -> None:
        for _ in range(int(n)):
            sim.step()

    return run


def _cloud_setup(base_rate: float = 60.0, max_servers: int = 40,
                 initial_servers: int = 4) -> StepRunner:
    from ..api import CloudConfig, CloudSimulator
    from ..cloud.autoscaler import SelfAwareScaler, make_cloud_goal

    sim = CloudSimulator(
        CloudConfig(seed=6, base_rate=base_rate, seasonal_amplitude=0.5,
                    period=200.0, noise_std=0.05, capacity_per_server=10.0,
                    boot_delay=5, max_servers=max_servers,
                    initial_servers=initial_servers),
        scaler=SelfAwareScaler(make_cloud_goal(), boot_delay=5,
                               max_servers=max_servers))

    def run(n: int) -> None:
        for _ in range(int(n)):
            sim.step()

    return run


def _sensornet_setup(n_channels: int = 8, budget: float = 3.0) -> StepRunner:
    from ..api.adapters import SensornetSimulator
    from ..api.configs import SensornetConfig
    from ..core.attention import SalienceAttention
    from ..sensornet.field import ChannelField, mixed_channel_specs

    field = ChannelField(mixed_channel_specs(n_channels, seed=5),
                         rng=np.random.default_rng(5))
    sim = SensornetSimulator(
        SensornetConfig(n_channels=n_channels, budget=budget), field=field,
        attention=SalienceAttention(staleness_scale=1.0),
        rng=np.random.default_rng(15))

    def run(n: int) -> None:
        for _ in range(int(n)):
            sim.step()

    return run


def _node_setup() -> StepRunner:
    from ..core.levels import ladder
    from ..core.patterns import build_node
    from ..experiments.e1_levels import (ResourceAllocationEnvironment,
                                         make_e1_goal, make_e1_sensors)

    env = ResourceAllocationEnvironment(seed=0)
    goal = make_e1_goal()
    sensors = make_e1_sensors(env, np.random.default_rng(2000))
    profile = list(ladder())[-1]
    node = build_node("bench", profile, sensors, goal,
                      epsilon=0.08, forgetting=0.98,
                      rng=np.random.default_rng(1000))
    t = 0.0

    def run(n: int) -> None:
        nonlocal t
        for _ in range(int(n)):
            t += 1.0
            for entity, name, value in env.peer_reports(t):
                node.receive_report(entity, name, t, value)
            result = node.step(t, list(env.candidate_actions(t)))
            metrics = env.apply(result.decision.action, t)
            node.feedback(metrics, utility=goal.utility(metrics))

    return run


def _fault_hooks_setup(active: bool) -> StepRunner:
    from ..faults.injector import FaultInjector
    from ..faults.plan import (CLOCK_SKEW, CRASH, LINK_DEGRADE,
                               SENSOR_DROPOUT, SENSOR_NOISE, WORKLOAD_SPIKE,
                               FaultPlan, FaultSpec)

    # One spec of every kind.  The *optimised* leg (``active=False``)
    # schedules every window after the run ends, so each hook takes its
    # identity short-circuit -- what substrates pay on every step of an
    # unfaulted window, which is what the dormant-hook
    # optimisation bought.  The *baseline* keeps every window open for
    # the whole run: the full per-kind sampling cost the short-circuit
    # avoids.  (Earlier reports had this pairing inverted, reporting the
    # intended relationship as a 0.24x "slowdown".)
    start = 0.0 if active else 1e9
    plan = FaultPlan(specs=tuple(
        FaultSpec(kind=kind, start=start, end=start + 1e9, intensity=0.3)
        for kind in (SENSOR_NOISE, SENSOR_DROPOUT, CRASH, LINK_DEGRADE,
                     WORKLOAD_SPIKE, CLOCK_SKEW)), seed=9)
    injector = FaultInjector(plan, run_seed=1)
    population = tuple(range(16))
    t = 0.0

    def run(n: int) -> None:
        nonlocal t
        for _ in range(int(n)):
            injector.begin_step(t)
            injector.perturb(1.0, target="qos")
            injector.dropped(target="qos")
            injector.crashed_targets(population)
            injector.link_factor()
            injector.demand_factor()
            injector.perceived_time(t)
            t += 1.0

    # Exposed for the pairing test: which leg really holds the dormant
    # (optimised) injector is structural, not a timing accident.
    run.injector = injector
    return run


def _fault_cloud_setup(faulted: bool) -> StepRunner:
    from ..api import CloudConfig, CloudSimulator
    from ..faults.plan import (CRASH, SENSOR_NOISE, WORKLOAD_SPIKE,
                               FaultPlan, FaultSpec)

    # The full injection overhead in situ: the cloud decide/scale/serve
    # step with a permanently-open fault window versus the clean run.
    plan = None
    if faulted:
        plan = FaultPlan(specs=(
            FaultSpec(kind=CRASH, start=0.0, end=1e9, intensity=0.3),
            FaultSpec(kind=WORKLOAD_SPIKE, start=0.0, end=1e9,
                      intensity=0.5),
            FaultSpec(kind=SENSOR_NOISE, start=0.0, end=1e9, intensity=2.0,
                      target="demand"),
        ), seed=9)
    sim = CloudSimulator(CloudConfig(steps=10 ** 9, seed=6), faults=plan)

    def run(n: int) -> None:
        for _ in range(int(n)):
            sim.step()

    return run


def _emit_setup(enabled: bool) -> StepRunner:
    from ..obs.events import EventBus

    bus = EventBus(maxlen=4096, enabled=enabled)

    if enabled:
        def run(n: int) -> None:
            emit = bus.emit
            for i in range(int(n)):
                emit("bench.step", time=float(i), value=1.0, phase="hot")
    else:
        def run(n: int) -> None:
            # The guarded fast path every substrate uses: when the bus is
            # disabled the kwargs dict is never even built.
            for i in range(int(n)):
                if bus.enabled:
                    bus.emit("bench.step", time=float(i), value=1.0,
                             phase="hot")

    return run


def _cluster_route_setup(n_nodes: int = 3, n_sessions: int = 9) -> StepRunner:
    """Cluster-client round-trip per step: version check -> placement
    cache / ring guess -> moved-redirect handling -> node dispatch.
    Measures the sharding layer's overhead over plain serve.dispatch."""
    import asyncio
    import atexit

    from ..serve.cluster import ServeCluster
    from ..serve.config import ServerConfig

    loop = asyncio.new_event_loop()
    cluster = ServeCluster(
        nodes=n_nodes, governor="none",
        base=ServerConfig(workers=0, governor="none", admission_rate=1e9,
                          admission_burst=1e9, max_queue=10 ** 9,
                          govern_interval=3600.0))
    loop.run_until_complete(cluster.start(listen=False))

    def _cleanup() -> None:
        if not loop.is_closed():
            loop.run_until_complete(cluster.stop())
            loop.close()

    atexit.register(_cleanup)
    client = cluster.cluster_client()

    async def _seed_sessions() -> List[str]:
        sessions = []
        for i in range(n_sessions):
            created = await client.create(
                "sensornet", steps=10, n_channels=4, seed=i)
            sessions.append(created["session"])
        return sessions

    sessions = loop.run_until_complete(_seed_sessions())

    def run(n: int) -> None:
        async def burst() -> None:
            for i in range(int(n)):
                await client.step(sessions[i % n_sessions], n=1)
        loop.run_until_complete(burst())

    return run


def _cluster_gossip_setup(n_nodes: int = 8) -> StepRunner:
    """The collective-governance hot loop, one node's tick per step:
    publish the local self-view, read the fresh board, recompute the
    cluster-wide budget split.  Pure gossip arithmetic, no serving."""
    from ..serve.gossip import GossipBoard, NodeSelfView, budget_shares

    board = GossipBoard(ttl=1e9)
    for i in range(n_nodes):
        board.publish(NodeSelfView(
            node=f"n{i}", time=0.0, arrival_rate=5.0 + 3.0 * i,
            service_rate=4.0, pool=2, queue_depth=float(i),
            utilisation=0.6, confidence=0.9, degraded=False, sessions=4))
    t = 0.0

    def run(n: int) -> None:
        nonlocal t
        for i in range(int(n)):
            t += 1.0
            node = f"n{i % n_nodes}"
            board.publish(NodeSelfView(
                node=node, time=t, arrival_rate=5.0 + (i % 17),
                service_rate=4.0, pool=2, queue_depth=float(i % 5),
                utilisation=0.6, confidence=0.9, degraded=False,
                sessions=4))
            views = board.fresh(t)
            budget_shares(views, budget=4 * n_nodes, min_workers=1)

    return run


def _explain_ingest_setup() -> StepRunner:
    """Explanation-store ingestion: governor-shaped causal chains
    (telemetry -> prediction -> decision) folded into the bounded index
    and rollups, one event per counted step."""
    from ..experiments.e15_explain_scale import synthesize_stream
    from ..explain import ExplanationStore

    store = ExplanationStore()
    shard = 0

    def run(n: int) -> None:
        nonlocal shard
        # Vary the seed per burst so repeated timing runs do not replay
        # byte-identical latencies into the P2 estimators.
        synthesize_stream(store, int(n), seed=shard)
        shard += 1

    return run


def _serve_dispatch_setup() -> StepRunner:
    """Full in-process server round-trip per step: admission -> session
    lookup -> batch queue -> dispatcher -> response.  Measures the
    serving layer's overhead on top of a deliberately light substrate."""
    import asyncio
    import atexit

    from ..serve.config import ServerConfig
    from ..serve.server import InProcessClient, SimulationServer

    loop = asyncio.new_event_loop()
    server = SimulationServer(ServerConfig(
        workers=0, governor="self_aware", admission_rate=1e9,
        admission_burst=1e9, max_queue=10 ** 9, govern_interval=3600.0))
    loop.run_until_complete(server.start(listen=False))

    def _cleanup() -> None:
        if not loop.is_closed():
            loop.run_until_complete(server.stop())
            loop.close()

    atexit.register(_cleanup)
    client = InProcessClient(server)
    created = loop.run_until_complete(
        client.request({"op": "create", "substrate": "sensornet",
                        "config": {"steps": 10, "n_channels": 4,
                                   "seed": 0}}))
    session = created["session"]

    def run(n: int) -> None:
        async def burst() -> None:
            for _ in range(int(n)):
                await client.step(session, n=1)
        loop.run_until_complete(burst())

    return run


def _serve_batch_setup() -> StepRunner:
    """Batch dispatcher throughput: 8 sessions stepped in coalesced
    batches through the worker cache (one step counted per request)."""
    from ..api.configs import SensornetConfig
    from ..serve.batching import BatchDispatcher, StepRequest

    n_sessions = 8
    configs = [SensornetConfig(steps=10, n_channels=4, seed=i)
               for i in range(n_sessions)]
    bases = [0] * n_sessions
    dispatcher = BatchDispatcher(workers=0, max_batch=n_sessions)

    def run(n: int) -> None:
        done = 0
        while done < int(n):
            take = min(n_sessions, int(n) - done)
            requests = [StepRequest(f"bench{i}", "sensornet", configs[i],
                                    bases[i], 1) for i in range(take)]
            for i, result in enumerate(dispatcher.submit(requests)):
                bases[i] = result["steps_taken"]
            done += take

    return run


def _scenario_render_setup(chunk: int = 256) -> StepRunner:
    """Scenario-algebra rendering: one composite-tree render of ``chunk``
    ticks per counted step.  The composite exercises every node kind the
    presets use -- superposition, modulation, the per-node rng spawning
    -- so the kernel tracks the cost of arming a simulation with a
    scenario, not one primitive in isolation."""
    from ..envgen.scenario import Diurnal, HeavyTail, MarkovChurn

    scenario = (HeavyTail() + Diurnal()) * MarkovChurn()
    burst = 0

    def run(n: int) -> None:
        nonlocal burst
        for _ in range(int(n)):
            # A fresh seed per render: repeated timing runs must not
            # hand the rng a warmed allocation pattern.
            scenario.render(chunk, seed=burst, sessions=8)
            burst += 1

    return run


def _twin_replay_setup(ticks: int = 65_536) -> StepRunner:
    """Digital-twin replay: one serve adapter step per counted step,
    arrivals drawn from an in-memory synthetic trace instead of the
    Poisson stream.  Measures the full replay path -- workload lookup,
    admission, queue drain, governor -- i.e. what ``twin evaluate`` pays
    per candidate per tick."""
    from ..api.adapters import ServeSimulator
    from ..api.configs import ServeConfig
    from ..twin import SCHEMA, TraceWorkload

    rng = np.random.default_rng([0x7717, 0])
    offered = rng.poisson(9.0, size=ticks)
    header = {"schema": SCHEMA, "substrate": "serve", "source": "bench",
              "tick_seconds": 1.0, "ticks": ticks,
              "total_offered": int(offered.sum()), "total_ok": 0}
    records = [{"t": t, "offered": int(offered[t])} for t in range(ticks)]
    workload = TraceWorkload(header, records)
    sim = ServeSimulator(ServeConfig(steps=ticks, seed=0), workload=workload)
    taken = 0

    def run(n: int) -> None:
        nonlocal taken
        for _ in range(int(n)):
            if taken == ticks:  # trace exhausted: rewind, keep timing
                sim.reset(0)
                taken = 0
            sim.step()
            taken += 1

    return run


KERNELS: List[KernelSpec] = [
    KernelSpec(
        name="camera.step",
        setup=_camera_setup,
        # Longer windows than most kernels: per-step cost rides the
        # auction/handover waves (+-10% over ~100-step stretches), so
        # short windows sample the waves instead of averaging them.
        steps=600, quick_steps=120,
        description="Smart-camera network step (struct-of-arrays "
                    "auction and observer scans)"),
    KernelSpec(
        name="camera.observers",
        setup=_observers_setup,
        steps=400, quick_steps=80,
        description="Observer sweep over the whole population (cell "
                    "index + exact predicate)"),
    KernelSpec(
        name="swarm.step",
        setup=_swarm_setup,
        steps=300, quick_steps=60,
        description="Swarm coverage step (witness grid + bounded "
                    "attribution)"),
    KernelSpec(
        name="cpn.step",
        setup=_cpn_setup,
        steps=600, quick_steps=120,
        description="CPN routing step under the change-gated oracle "
                    "router"),
    KernelSpec(
        name="multicore.step",
        setup=_multicore_setup,
        steps=400, quick_steps=80,
        description="Multicore governor step (submit / manage / "
                    "platform step / feedback)"),
    KernelSpec(
        name="cloud.step",
        setup=_cloud_setup,
        steps=400, quick_steps=80,
        description="Cloud autoscaler step (decide / scale / serve)"),
    KernelSpec(
        name="sensornet.step",
        setup=_sensornet_setup,
        steps=600, quick_steps=120,
        description="Sensing node step (batched field + column "
                    "salience)"),
    KernelSpec(
        name="node.step",
        setup=_node_setup,
        steps=300, quick_steps=60,
        description="Core SelfAwareNode control step on the E1 task"),
    KernelSpec(
        name="faults.hooks",
        setup=lambda: _fault_hooks_setup(False),
        baseline_setup=lambda: _fault_hooks_setup(True),
        steps=20_000, quick_steps=4_000,
        description="Injector hook battery, dormant identity "
                    "short-circuits vs every kind active"),
    KernelSpec(
        name="faults.cloud.step",
        setup=lambda: _fault_cloud_setup(True),
        baseline_setup=lambda: _fault_cloud_setup(False),
        steps=400, quick_steps=80,
        description="Cloud autoscaler step inside an open fault window "
                    "vs the clean run"),
    KernelSpec(
        name="serve.dispatch",
        setup=_serve_dispatch_setup,
        steps=1_600, quick_steps=320,
        description="In-process server dispatch round-trip (admission, "
                    "session table, batch queue, dispatcher)"),
    KernelSpec(
        name="serve.batch",
        setup=_serve_batch_setup,
        steps=800, quick_steps=160,
        description="Batch dispatcher throughput over 8 cached sessions "
                    "(coalesce + incremental worker-cache stepping)"),
    KernelSpec(
        name="cluster.route",
        setup=_cluster_route_setup,
        steps=1_200, quick_steps=240,
        description="Cluster-client dispatch round-trip over 3 nodes "
                    "(placement cache, ring, versioned envelopes)"),
    KernelSpec(
        name="cluster.gossip",
        setup=_cluster_gossip_setup,
        steps=50_000, quick_steps=10_000,
        description="Gossip tick: publish self-view, read fresh board, "
                    "recompute the 8-node budget split"),
    KernelSpec(
        name="explain.ingest",
        setup=_explain_ingest_setup,
        steps=100_000, quick_steps=20_000,
        description="Explanation-store streaming ingest (provenance "
                    "index + cause-class rollups + P2 histograms)"),
    KernelSpec(
        name="obs.emit",
        setup=lambda: _emit_setup(True),
        steps=200_000, quick_steps=40_000,
        description="Telemetry event emission on an enabled bus"),
    KernelSpec(
        name="obs.emit.disabled",
        setup=lambda: _emit_setup(False),
        steps=1_000_000, quick_steps=200_000,
        description="Guarded emit fast path on a disabled bus "
                    "(the zero-allocation hot path)"),
    KernelSpec(
        name="envgen.scenario",
        setup=_scenario_render_setup,
        steps=150, quick_steps=30,
        description="Scenario-algebra render of a 256-tick composite "
                    "((heavy_tail + diurnal) * markov_churn) per step"),
    KernelSpec(
        name="twin.replay",
        setup=_twin_replay_setup,
        steps=2_000, quick_steps=400,
        description="Digital-twin serve tick replaying a recorded trace "
                    "(workload lookup, admission, drain, governor)"),
    # -- large tier: the same kernels at ~10x the work per step, where
    # the indexed scans' asymptotics show.  Step counts shrink to keep
    # per-repeat wall time comparable.
    KernelSpec(
        name="camera.step.large",
        setup=lambda: _camera_setup(rows=14, cols=14, radius=0.14,
                                    n_objects=120),
        steps=120, quick_steps=24, tier="large",
        description="Smart-camera step at 196 cameras x 120 objects "
                    "(constant coverage density: radius 0.14)"),
    KernelSpec(
        name="sensornet.step.large",
        setup=lambda: _sensornet_setup(n_channels=64, budget=24.0),
        steps=300, quick_steps=60, tier="large",
        description="Sensing node step at 64 channels, budget 24"),
    KernelSpec(
        name="swarm.step.large",
        setup=lambda: _swarm_setup(n_robots=64, events_per_step=12.0),
        steps=60, quick_steps=12, tier="large",
        description="Swarm coverage step at 64 robots, 12 events/step"),
    KernelSpec(
        name="cpn.step.large",
        setup=lambda: _cpn_setup(n=120),
        steps=60, quick_steps=12, tier="large",
        description="CPN routing step on a 120-node geometric network"),
    KernelSpec(
        name="cloud.step.large",
        setup=lambda: _cloud_setup(base_rate=600.0, max_servers=400,
                                   initial_servers=40),
        steps=400, quick_steps=80, tier="large",
        description="Cloud autoscaler step at 10x demand and fleet size"),
]


def get_kernels(names: Optional[List[str]] = None,
                size: str = "all") -> List[KernelSpec]:
    """Kernels by name and/or size tier (order preserved, names checked).

    ``size`` keeps every kernel (``"all"``) or only one tier
    (``"default"`` / ``"large"``); an explicit name list bypasses the
    tier filter for the named kernels.
    """
    if size not in ("all", "default", "large"):
        raise KeyError(f"unknown size tier: {size!r}; "
                       "known: all, default, large")
    if names is None:
        return [k for k in KERNELS if size == "all" or k.tier == size]
    by_name: Dict[str, KernelSpec] = {k.name: k for k in KERNELS}
    missing = [n for n in names if n not in by_name]
    if missing:
        known = ", ".join(sorted(by_name))
        raise KeyError(f"unknown kernels: {missing}; known: {known}")
    return [by_name[n] for n in names]
