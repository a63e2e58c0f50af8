"""Adapters: every substrate simulation behind the one Simulator protocol.

Each adapter owns the substrate's one stepping loop (the removed
``run_*`` entry points map onto them through the migration table in
``DESIGN.md``) and follows one contract, kept by the shared base
:class:`_Adapter` for all eight substrates -- the serving ones
included, whose models (like the camera's and the swarm's) keep no
clock, ``reset`` or ``run`` of their own:

* construction takes the substrate's frozen keyword-only ``*Config``
  -- its one parameter record -- plus keywords only for what a config
  cannot say: live objects such as a scaler, a demand function, a
  governor, a network or a twin replay workload, for the rich cases
  experiments need;
* ``reset(seed)`` rebuilds the run from the config with ``seed`` in
  place of ``config.seed``, so it equals a fresh adapter over
  ``dataclasses.replace(config, seed=seed)``; live objects passed in
  are *reused* across resets;
* ``faults=`` accepts a :class:`~repro.faults.plan.FaultPlan` (a fresh
  injector is derived per reset, seeded by the run seed) or a prebuilt
  :class:`~repro.faults.injector.FaultInjector`; inert plans resolve to
  no injector at all, keeping the disabled path instruction-identical
  to the unfaulted code.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Dict, List, Optional, Union

import numpy as np

from ..faults.injector import FaultInjector, make_injector
from ..faults.plan import FaultPlan
from ..obs import events as obs_events
from ..obs import metrics as obs_metrics
from .configs import (CameraConfig, CloudConfig, ClusterConfig, CPNConfig,
                      MulticoreConfig, SensornetConfig, ServeConfig,
                      SwarmConfig)

Faults = Union[FaultPlan, FaultInjector, None]


def _resolve_injector(faults: Faults, seed: int) -> Optional[FaultInjector]:
    """A per-run injector: plans are instantiated, injectors passed through."""
    if faults is None or isinstance(faults, FaultInjector):
        return faults
    return make_injector(faults, run_seed=seed)


# ---------------------------------------------------------------------------
# The shared shape


class _Adapter:
    """What every adapter shares: the config default, ``reset(seed)``
    re-seeding, the step clock ``_t`` and ``run()``.

    ``reset(seed)`` hands :meth:`_build` the construction config with
    ``seed`` in place of its own, plus that run's fault injector, so a
    reset adapter equals a fresh one over
    ``dataclasses.replace(config, seed=seed)``; ``self.config`` keeps
    the construction config.  ``step()`` runs :meth:`_step` at the
    current tick, then advances the clock.
    """

    #: The substrate's frozen ``*Config``; its defaults make a run.
    config_type: type

    def __init__(self, config: Optional[Any] = None, *,
                 faults: Faults = None) -> None:
        self.config = config if config is not None else self.config_type()
        self._faults = faults
        self.reset()

    def reset(self, seed: Optional[int] = None) -> Any:
        config = self.config
        if seed is not None and seed != config.seed:
            config = dataclasses.replace(config, seed=seed)
        self._build(config, _resolve_injector(self._faults, config.seed))
        self._t = 0.0
        return self

    def _build(self, config: Any, faults: Optional[FaultInjector]) -> None:
        raise NotImplementedError

    def _step(self, now: float) -> Any:
        raise NotImplementedError

    def step(self):
        record = self._step(self._t)
        self._t += 1.0
        return record

    def run(self):
        for _ in range(self.config.steps):
            self.step()
        return self.result()


# ---------------------------------------------------------------------------
# Smart-camera network


class CameraSimulator(_Adapter):
    """The smart-camera network behind the :class:`Simulator` protocol."""

    config_type = CameraConfig

    @staticmethod
    def _controller_factory(cfg: CameraConfig) -> Callable:
        from ..smartcamera.controller import (FixedStrategyController,
                                              SelfAwareStrategyController)
        from ..smartcamera.strategies import Strategy
        if cfg.controller == "fixed":
            if cfg.strategy is None:
                raise ValueError("controller='fixed' needs a strategy name")
            strategy = Strategy[cfg.strategy.upper()] \
                if cfg.strategy.upper() in Strategy.__members__ \
                else Strategy(cfg.strategy)
            return lambda cid, rng: FixedStrategyController(cid, strategy)
        if cfg.controller == "self_aware":
            return lambda cid, rng: SelfAwareStrategyController(
                cid, epsilon=cfg.epsilon, discount=cfg.discount, rng=rng)
        raise ValueError(f"unknown camera controller {cfg.controller!r}")

    def _build(self, config, faults) -> None:
        from ..smartcamera.sim import CameraSimulation
        self._sim = CameraSimulation(
            config, self._controller_factory(config), faults=faults)

    def _step(self, now: float):
        return self._sim.step(now)

    def snapshot(self) -> Dict[str, Any]:
        return {"substrate": "smartcamera", "time": self._t,
                "owned_objects": len(self._sim.ownership),
                "n_objects": len(self._sim.population),
                "n_cameras": len(self._sim.controllers),
                "steps_taken": len(self._sim.records)}

    def metrics(self) -> Dict[str, float]:
        result = self.result()
        return {"mean_tracking_utility": result.mean_tracking_utility(),
                "mean_messages": result.mean_messages(),
                "efficiency": result.efficiency(),
                "diversity_bits": result.diversity_bits(),
                "lost_fraction": result.lost_fraction()}

    def result(self):
        from ..smartcamera.sim import CameraSimResult
        return CameraSimResult(
            records=self._sim.records,
            controllers=list(self._sim.controllers.values()),
            market=self._sim.market,
            comm_cost_weight=self.config.comm_cost_weight)


# ---------------------------------------------------------------------------
# Elastic cloud cluster


class CloudSimulator(_Adapter):
    """The autoscaled cluster behind the :class:`Simulator` protocol.

    Owns the decide / scale / serve loop -- the only one: experiments
    with their own scaler, demand or goal pass them as live objects
    and step this adapter.  Fault hooks included: ``workload_spike``
    multiplies offered demand, ``crash`` kills the spec's fraction of
    active servers when its window opens (recovery pays the boot
    delay), ``sensor_noise``/``sensor_dropout`` corrupt the telemetry
    the scaler sees, and ``clock_skew`` shifts the scaler's -- never
    the cluster's -- clock.
    """

    config_type = CloudConfig

    def __init__(self, config: Optional[CloudConfig] = None, *,
                 scaler: Optional[Any] = None,
                 demand_fn: Optional[Callable[[float], float]] = None,
                 goal: Optional[Any] = None,
                 faults: Faults = None) -> None:
        self._scaler_given = scaler
        self._demand_fn_given = demand_fn
        self._goal_given = goal
        super().__init__(config, faults=faults)

    def goal(self):
        from ..cloud.autoscaler import make_cloud_goal
        if self._goal_given is not None:
            return self._goal_given
        cfg = self.config
        return make_cloud_goal(qos_weight=cfg.qos_weight,
                               cost_weight=cfg.cost_weight,
                               max_servers=cfg.max_servers)

    def _make_scaler(self, cfg: CloudConfig):
        from ..cloud.autoscaler import (ReactiveScaler, SelfAwareScaler,
                                        StaticScaler)
        if self._scaler_given is not None:
            return self._scaler_given
        if cfg.scaler == "self_aware":
            return SelfAwareScaler(self.goal(), boot_delay=cfg.boot_delay,
                                   max_servers=cfg.max_servers,
                                   capacity_guess=cfg.capacity_per_server)
        if cfg.scaler == "reactive":
            return ReactiveScaler(initial=cfg.initial_servers)
        if cfg.scaler == "static":
            return StaticScaler(cfg.static_servers)
        raise ValueError(f"unknown cloud scaler {cfg.scaler!r}")

    def _make_demand(self, cfg: CloudConfig) -> Callable[[float], float]:
        from ..envgen.workloads import RequestRateWorkload
        if self._demand_fn_given is not None:
            return self._demand_fn_given
        workload = RequestRateWorkload(
            base_rate=cfg.base_rate,
            seasonal_amplitude=cfg.seasonal_amplitude, period=cfg.period,
            noise_std=cfg.noise_std, rng=np.random.default_rng(cfg.seed))
        if cfg.scenario:
            from ..envgen.scenario import make_scenario
            track = make_scenario(cfg.scenario).render(cfg.steps,
                                                       seed=cfg.seed)
            return lambda t: workload.rate(t) * track.rate_at(t)
        return workload.rate

    def _build(self, config, faults) -> None:
        from ..cloud.cluster import ServiceCluster
        self._cluster = ServiceCluster(
            capacity_per_server=config.capacity_per_server,
            boot_delay=config.boot_delay, min_servers=config.min_servers,
            max_servers=config.max_servers,
            backlog_limit=config.backlog_limit,
            initial_servers=config.initial_servers,
            cost_per_server=config.cost_per_server)
        self._scaler = self._make_scaler(config)
        self._demand_fn = self._make_demand(config)
        self._injector = faults
        self._metrics = None
        self.history: List[Any] = []

    def _step(self, now: float):
        from ..cloud.autoscaler import _sensed_metrics
        faults = self._injector
        sensed = self._metrics
        decide_time = now
        if faults is not None:
            faults.begin_step(now)
            if faults.just_started("crash"):
                frac = min(1.0, sum(s.intensity
                                    for s in faults.active("crash")))
                if frac > 0.0 and self._cluster.n_active > 0:
                    self._cluster.fail_servers(
                        max(1, int(round(frac * self._cluster.n_active))))
            if self._metrics is not None:
                sensed = _sensed_metrics(self._metrics, faults)
            decide_time = faults.perceived_time(now, target="scaler")
        target = self._scaler.decide(decide_time, sensed)
        self._cluster.request_scale(target)
        demand = max(0.0, self._demand_fn(now))
        if faults is not None:
            demand *= faults.demand_factor()
        self._metrics = self._cluster.step(now, demand)
        self.history.append(self._metrics)
        return self._metrics

    def snapshot(self) -> Dict[str, Any]:
        return {"substrate": "cloud", "time": self._t,
                "n_active": self._cluster.n_active,
                "n_booting": self._cluster.n_booting,
                "backlog": self._cluster.backlog,
                "steps_taken": len(self.history)}

    def metrics(self) -> Dict[str, float]:
        if not self.history:
            return {"mean_qos": math.nan, "mean_cost": math.nan,
                    "mean_utility": math.nan, "dropped": 0.0}
        goal = self.goal()
        n = len(self.history)
        return {
            "mean_qos": sum(m.qos for m in self.history) / n,
            "mean_cost": sum(m.cost for m in self.history) / n,
            "mean_utility": sum(goal.utility(m.as_dict())
                                for m in self.history) / n,
            "dropped": sum(m.dropped for m in self.history)}

    def result(self) -> List[Any]:
        return self.history


# ---------------------------------------------------------------------------
# Heterogeneous multicore


class MulticoreSimulator(_Adapter):
    """The multicore platform/governor pair behind the protocol.

    Owns the submit / manage / step / feedback loop, fault hooks
    included: ``workload_spike`` submits extra arrival batches,
    ``clock_skew`` shifts the governor's view of time,
    ``sensor_dropout`` loses the telemetry the governor would have
    managed and learned from this step.
    """

    config_type = MulticoreConfig

    def __init__(self, config: Optional[MulticoreConfig] = None, *,
                 governor: Optional[Any] = None,
                 on_step: Optional[Callable[[float], None]] = None,
                 faults: Faults = None) -> None:
        self._governor_given = governor
        self._on_step = on_step
        super().__init__(config, faults=faults)

    def _make_governor(self, cfg: MulticoreConfig):
        from ..multicore import make_multicore_goal
        from ..multicore.governor import (OndemandGovernor, SelfAwareGovernor,
                                          StaticGovernor)
        if self._governor_given is not None:
            return self._governor_given
        if cfg.governor == "self_aware":
            return SelfAwareGovernor(make_multicore_goal(),
                                     epsilon=cfg.epsilon,
                                     rng=np.random.default_rng(cfg.seed))
        if cfg.governor == "ondemand":
            return OndemandGovernor()
        if cfg.governor == "static":
            return StaticGovernor()
        raise ValueError(f"unknown governor {cfg.governor!r}")

    def _build(self, config, faults) -> None:
        from ..multicore.sim import make_platform, make_workload
        self._workload = make_workload(rate=config.rate,
                                       phase_length=config.phase_length,
                                       seed=config.seed)
        self._platform = make_platform(n_big=config.n_big,
                                       n_little=config.n_little,
                                       critical_temp=config.critical_temp)
        self._governor = self._make_governor(config)
        self._injector = faults
        self._metrics = None
        self.history: List[Any] = []

    def _step(self, now: float):
        faults = self._injector
        if self._on_step is not None:
            self._on_step(now)
        if faults is None:
            self._platform.submit(self._workload.arrivals(now))
            self._governor.manage(now, self._platform, self._metrics)
            metrics = self._platform.step(now)
            self._governor.feedback(metrics)
        else:
            faults.begin_step(now)
            for _ in range(faults.spiked_count(1)):
                self._platform.submit(self._workload.arrivals(now))
            sensed = self._metrics
            if sensed is not None and faults.dropped(
                    target="multicore.metrics"):
                sensed = None
            self._governor.manage(
                faults.perceived_time(now, target="governor"),
                self._platform, sensed)
            metrics = self._platform.step(now)
            if not faults.dropped(target="multicore.feedback"):
                self._governor.feedback(metrics)
        self._metrics = metrics
        if obs_events.enabled():
            obs_metrics.counter("steps", sim="multicore").increment()
            if metrics.throttled_cores > 0:
                obs_metrics.counter("multicore.throttled_steps").increment()
            obs_metrics.histogram("multicore.throughput").observe(
                metrics.throughput)
            obs_metrics.gauge("multicore.max_temperature").set(
                metrics.max_temperature)
            obs_events.emit("multicore.step", time=now,
                            throughput=metrics.throughput,
                            energy=metrics.energy,
                            max_temperature=metrics.max_temperature,
                            throttled_cores=metrics.throttled_cores,
                            queue_length=metrics.queue_length)
        self.history.append(metrics)
        return metrics

    def snapshot(self) -> Dict[str, Any]:
        return {"substrate": "multicore", "time": self._t,
                "queue_length": (self._metrics.queue_length
                                 if self._metrics is not None else 0.0),
                "steps_taken": len(self.history)}

    def metrics(self) -> Dict[str, float]:
        result = self.result()
        return {"mean_throughput": result.mean_throughput(),
                "mean_energy": result.mean_energy(),
                "throttle_fraction": result.throttle_fraction(),
                "mean_queue": result.mean_queue()}

    def result(self):
        from ..multicore.sim import GovernorRunResult
        return GovernorRunResult(history=self.history,
                                 platform=self._platform)


# ---------------------------------------------------------------------------
# Cognitive packet network


class CPNSimulator(_Adapter):
    """The packet-routing substrate behind the protocol."""

    config_type = CPNConfig

    def __init__(self, config: Optional[CPNConfig] = None, *,
                 network: Optional[Any] = None,
                 router: Optional[Any] = None,
                 flows: Optional[List[Any]] = None,
                 faults: Faults = None) -> None:
        if flows is not None and not flows:
            raise ValueError("need at least one flow")
        self._network_given = network
        self._router_given = router
        self._flows_given = flows
        super().__init__(config, faults=faults)

    def _make_router(self, network: Any, cfg: CPNConfig):
        from ..cpn.routing import CPNRouter, OracleRouter, StaticRouter
        if self._router_given is not None:
            return self._router_given
        if cfg.router == "self_aware":
            return CPNRouter(network, epsilon=cfg.epsilon,
                             rng=np.random.default_rng(cfg.seed + 1))
        if cfg.router == "static":
            return StaticRouter(network)
        if cfg.router == "oracle":
            return OracleRouter(network)
        raise ValueError(f"unknown router {cfg.router!r}")

    def _build(self, config, faults) -> None:
        from ..cpn.sim import default_flows
        from ..cpn.topology import CPNetwork
        if self._network_given is not None:
            self.network = self._network_given
        else:
            self.network = CPNetwork.random_geometric(n=config.n_nodes,
                                                      seed=config.seed)
            if config.n_disturbances > 0:
                self.network.schedule_random_disturbances(
                    horizon=config.disturbance_horizon,
                    count=config.n_disturbances)
        self._router = self._make_router(self.network, config)
        self._flows = (self._flows_given if self._flows_given is not None
                       else default_flows(self.network,
                                          n_flows=config.n_flows,
                                          seed=config.seed))
        self._injector = faults
        self.records: List[Any] = []

    def _step(self, now: float):
        from ..cpn.sim import routing_step
        record = routing_step(
            self.network, self._router, self._flows, now,
            smart_packets_per_flow=self.config.smart_packets_per_flow,
            faults=self._injector)
        self.records.append(record)
        return record

    def snapshot(self) -> Dict[str, Any]:
        return {"substrate": "cpn", "time": self._t,
                "n_nodes": len(self.network.nodes()),
                "n_flows": len(self._flows),
                "steps_taken": len(self.records)}

    def metrics(self) -> Dict[str, float]:
        result = self.result()
        return {"delivery_rate": result.delivery_rate(),
                "mean_delay": result.mean_delay()}

    def result(self):
        from ..cpn.sim import RoutingResult
        return RoutingResult(records=self.records)


# ---------------------------------------------------------------------------
# Robot swarm


class SwarmSimulator(_Adapter):
    """The swarm coverage mission behind the protocol."""

    config_type = SwarmConfig

    def __init__(self, config: Optional[SwarmConfig] = None, *,
                 controller: Optional[Any] = None,
                 faults: Faults = None) -> None:
        self._controller_given = controller
        super().__init__(config, faults=faults)

    def _make_controller(self, cfg: SwarmConfig):
        from ..swarm.robots import (RandomPatrol, SelfAwareSwarm,
                                    StaticFormation)
        if self._controller_given is not None:
            return self._controller_given
        if cfg.controller == "self_aware":
            return SelfAwareSwarm(rng=np.random.default_rng(cfg.seed + 1))
        if cfg.controller == "static":
            return StaticFormation(cfg.n_robots)
        if cfg.controller == "patrol":
            return RandomPatrol(rng=np.random.default_rng(cfg.seed + 1))
        raise ValueError(f"unknown swarm controller {cfg.controller!r}")

    def _build(self, config, faults) -> None:
        from ..swarm.sim import SwarmMission
        self._mission = SwarmMission(self._make_controller(config), config,
                                     faults=faults)

    def _step(self, now: float):
        return self._mission.step(now)

    def snapshot(self) -> Dict[str, Any]:
        return {"substrate": "swarm", "time": self._t,
                "alive": sum(1 for r in self._mission.robots if r.alive),
                "n_robots": len(self._mission.robots),
                "steps_taken": len(self._mission.records)}

    def metrics(self) -> Dict[str, float]:
        return {"detection_rate": self.result().detection_rate()}

    def result(self):
        from ..swarm.sim import SwarmRunResult
        return SwarmRunResult(records=self._mission.records)


# ---------------------------------------------------------------------------
# Sensor network


class SensornetSimulator(_Adapter):
    """The energy-budgeted sensing node behind the protocol."""

    config_type = SensornetConfig

    def __init__(self, config: Optional[SensornetConfig] = None, *,
                 field: Optional[Any] = None,
                 attention: Optional[Any] = None,
                 rng: Optional[np.random.Generator] = None,
                 faults: Faults = None) -> None:
        self._field_given = field
        self._attention_given = attention
        self._rng_given = rng
        super().__init__(config, faults=faults)

    def _make_attention(self, cfg: SensornetConfig):
        from ..core.attention import (FullAttention, RandomAttention,
                                      RoundRobinAttention, SalienceAttention)
        if self._attention_given is not None:
            return self._attention_given
        if cfg.attention == "salience":
            return SalienceAttention(staleness_scale=cfg.staleness_scale)
        if cfg.attention == "round_robin":
            return RoundRobinAttention()
        if cfg.attention == "random":
            return RandomAttention(rng=np.random.default_rng(cfg.seed + 1))
        if cfg.attention == "full":
            return FullAttention()
        raise ValueError(f"unknown attention policy {cfg.attention!r}")

    def _build(self, config, faults) -> None:
        from ..sensornet.field import ChannelField, mixed_channel_specs
        from ..sensornet.node import SensingNode
        seed = config.seed
        if self._field_given is not None:
            field = self._field_given
        else:
            field = ChannelField(mixed_channel_specs(config.n_channels,
                                                     seed=seed),
                                 rng=np.random.default_rng(seed))
        rng = (self._rng_given if self._rng_given is not None
               else np.random.default_rng(seed + 2))
        self._node = SensingNode(field, self._make_attention(config),
                                 budget=config.budget, rng=rng,
                                 faults=faults)
        self.records: List[Any] = []
        # Running sums so metrics() stays O(1) however long the session
        # lives: a served session calls metrics() on every step request,
        # and re-summing the whole history made the per-request cost
        # grow linearly with session age.  Left-to-right accumulation in
        # append order produces bit-identical floats to sum() over the
        # records list, so payloads do not change.
        self._error_sum = 0.0
        self._energy_sum = 0.0

    def _step(self, now: float):
        record = self._node.step(now)
        self.records.append(record)
        self._error_sum += record.error
        self._energy_sum += record.energy_spent
        return record

    def snapshot(self) -> Dict[str, Any]:
        return {"substrate": "sensornet", "time": self._t,
                "total_energy": self._node.total_energy,
                "beliefs": self._node.beliefs(),
                "steps_taken": len(self.records)}

    def metrics(self) -> Dict[str, float]:
        n = len(self.records)
        if n == 0:
            result = self.result()
            return {"mean_error": result.mean_error(),
                    "mean_energy": result.mean_energy()}
        return {"mean_error": self._error_sum / n,
                "mean_energy": self._energy_sum / n}

    def result(self):
        from ..sensornet.node import SensingRunResult
        return SensingRunResult(records=self.records)


# ---------------------------------------------------------------------------
# Serving layer


class ServeSimulator(_Adapter):
    """The serving-layer control loop behind the protocol.

    The one substrate that is *about* the reproduction itself: the
    simulated system is the self-aware request-serving layer of
    :mod:`repro.serve`, with the real governor and admission controller
    in the control seat (see :mod:`repro.serve.simulation`).  A twin
    replay source (:class:`repro.twin.TraceWorkload`) is a live object,
    so it rides the ``workload`` keyword rather than the config.
    """

    config_type = ServeConfig

    def __init__(self, config: Optional[ServeConfig] = None, *,
                 workload: Optional[Any] = None,
                 faults: Faults = None) -> None:
        self._workload_given = workload
        super().__init__(config, faults=faults)

    def _build(self, config, faults) -> None:
        from ..serve.simulation import ServingSimulation
        self._sim = ServingSimulation(config, faults=faults,
                                      workload=self._workload_given)

    def _step(self, now: float):
        return self._sim.step(now)

    def snapshot(self) -> Dict[str, Any]:
        sim = self._sim
        return {"substrate": "serve", "time": self._t,
                "queue_depth": len(sim.node.queue), "pool": sim.node.pool,
                "degraded": bool(sim.governor.degraded),
                "steps_taken": len(sim.records)}

    def metrics(self) -> Dict[str, float]:
        """Scored over the post-warmup window (see
        :func:`~repro.serve.simulation.score_run`)."""
        from ..serve.simulation import score_run
        return score_run(self._sim.records, self._sim.latencies,
                         self.config.warmup)

    def result(self) -> List[Dict[str, float]]:
        return self._sim.records


class ClusterSimulator(_Adapter):
    """The sharded serving cluster behind the protocol.

    Deterministic discrete-time model of N cooperating serving nodes
    splitting one worker budget -- collectively (gossiped self-models),
    per-node, or statically (see :mod:`repro.serve.cluster`).  Takes a
    twin replay ``workload`` like :class:`ServeSimulator`.
    """

    config_type = ClusterConfig

    def __init__(self, config: Optional[ClusterConfig] = None, *,
                 workload: Optional[Any] = None,
                 faults: Faults = None) -> None:
        if faults is not None:
            raise ValueError(
                "the cluster substrate does not take fault plans yet; "
                "model node failure as gossip staleness instead")
        self._workload_given = workload
        super().__init__(config)

    def _build(self, config, faults) -> None:
        from ..serve.cluster import ClusterSimulation
        self._sim = ClusterSimulation(config, workload=self._workload_given)

    def _step(self, now: float):
        return self._sim.step(now)

    def snapshot(self) -> Dict[str, Any]:
        sim = self._sim
        return {"substrate": "cluster", "time": self._t,
                "pools": {n: sim.nodes[n].pool for n in sim.node_ids},
                "queues": {n: len(sim.nodes[n].queue) for n in sim.node_ids},
                "placements": {
                    n: sum(1 for o in sim.placements.values() if o == n)
                    for n in sim.node_ids},
                "migrations": sim.migrations,
                "steps_taken": len(sim.records)}

    def metrics(self) -> Dict[str, float]:
        """Scored like the serve substrate, plus migrations and the
        share of governor ticks taken on fresh gossip."""
        from ..serve.simulation import score_run
        sim = self._sim
        return {**score_run(sim.records, sim.latencies, self.config.warmup),
                "migrations": float(sim.migrations),
                "collective_fraction": (sim.collective_ticks
                                        / max(1, sim.govern_ticks))}

    def result(self) -> List[Dict[str, float]]:
        return self._sim.records


#: Declarative registry: substrate name -> (config class, adapter class).
SIMULATORS = {name: (adapter.config_type, adapter) for name, adapter in (
    ("smartcamera", CameraSimulator),
    ("cloud", CloudSimulator),
    ("multicore", MulticoreSimulator),
    ("cpn", CPNSimulator),
    ("swarm", SwarmSimulator),
    ("sensornet", SensornetSimulator),
    ("serve", ServeSimulator),
    ("cluster", ClusterSimulator),
)}


def make_simulator(substrate: str, config: Optional[Any] = None,
                   **kwargs: Any):
    """Build the adapter for ``substrate`` (see :data:`SIMULATORS`).

    Raises ``ValueError`` -- not a bare ``KeyError`` -- on an unknown
    name, listing the registered substrates so the caller's typo is a
    one-glance fix.
    """
    try:
        _, adapter_cls = SIMULATORS[substrate]
    except KeyError:
        known = ", ".join(sorted(SIMULATORS))
        raise ValueError(
            f"unknown substrate {substrate!r}; known: {known}") from None
    return adapter_cls(config, **kwargs)
