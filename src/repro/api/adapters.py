"""Adapters: every substrate simulation behind the one Simulator protocol.

Each adapter owns the substrate's canonical stepping loop (the removed
``run_*`` entry points map onto them through the migration table in
``DESIGN.md``) and follows one contract:

* construction takes a frozen keyword-only ``*Config`` (declarative
  path) plus optional live objects -- a controller factory, a scaler, a
  router -- for the rich cases experiments need (expert path);
* ``reset(seed)`` rebuilds the underlying simulation exactly as the
  legacy entry point did, so results are byte-identical to the old
  call; live objects passed in are *reused* across resets (pass
  factories or configs when true re-runs are needed);
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
# Smart-camera network


class CameraSimulator:
    """The smart-camera network behind the :class:`Simulator` protocol."""

    def __init__(self, config: Optional[CameraConfig] = None, *,
                 sim_config: Optional[Any] = None,
                 controller_factory: Optional[Callable] = None,
                 faults: Faults = None) -> None:
        self.config = config if config is not None else CameraConfig()
        self._sim_config = sim_config  # expert path: a ready CameraSimConfig
        self._controller_factory = controller_factory
        self._faults = faults
        self.reset(self._seed_default())

    def _seed_default(self) -> int:
        if self._sim_config is not None:
            return self._sim_config.seed
        return self.config.seed

    def _factory(self) -> Callable:
        from ..smartcamera.controller import (FixedStrategyController,
                                              SelfAwareStrategyController)
        from ..smartcamera.strategies import Strategy
        if self._controller_factory is not None:
            return self._controller_factory
        cfg = self.config
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

    def reset(self, seed: Optional[int] = None) -> "CameraSimulator":
        from ..smartcamera.sim import CameraSimConfig, CameraSimulation
        seed = self._seed_default() if seed is None else seed
        if self._sim_config is not None:
            sim_config = self._sim_config
        else:
            cfg = self.config
            breaks = (list(map(tuple, cfg.comm_weight_breaks))
                      if cfg.comm_weight_breaks is not None else None)
            sim_config = CameraSimConfig(
                rows=cfg.rows, cols=cfg.cols, radius=cfg.radius,
                n_objects=cfg.n_objects, object_speed=cfg.object_speed,
                churn_rate=cfg.churn_rate, steps=cfg.steps,
                comm_cost_weight=cfg.comm_cost_weight,
                auction_threshold=cfg.auction_threshold,
                detection_rate=cfg.detection_rate,
                random_placement=cfg.random_placement, seed=seed,
                comm_weight_breaks=breaks)
        self._sim = CameraSimulation(
            sim_config, self._factory(),
            faults=_resolve_injector(self._faults, seed))
        self._t = 0.0
        return self

    def step(self):
        record = self._sim.step(self._t)
        self._t += 1.0
        return record

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
            comm_cost_weight=self._sim.config.comm_cost_weight)

    def run(self):
        for _ in range(self._sim.config.steps):
            self.step()
        return self.result()


# ---------------------------------------------------------------------------
# Elastic cloud cluster


class CloudSimulator:
    """The autoscaled cluster behind the :class:`Simulator` protocol.

    Owns the decide / scale / serve loop, fault hooks included:
    ``workload_spike`` multiplies offered demand, ``crash`` kills the
    spec's fraction of active servers when its window opens (recovery
    pays the boot delay), ``sensor_noise``/``sensor_dropout`` corrupt
    the telemetry the scaler sees, and ``clock_skew`` shifts the
    scaler's -- never the cluster's -- clock.
    """

    def __init__(self, config: Optional[CloudConfig] = None, *,
                 scaler: Optional[Any] = None,
                 scaler_factory: Optional[Callable[[int], Any]] = None,
                 demand_fn: Optional[Callable[[float], float]] = None,
                 goal: Optional[Any] = None,
                 cluster_kwargs: Optional[Dict] = None,
                 faults: Faults = None) -> None:
        self.config = config if config is not None else CloudConfig()
        self._scaler_given = scaler
        self._scaler_factory = scaler_factory
        self._demand_fn_given = demand_fn
        self._goal_given = goal
        self._cluster_kwargs = cluster_kwargs
        self._faults = faults
        self.reset(self.config.seed)

    def goal(self):
        from ..cloud.autoscaler import make_cloud_goal
        if self._goal_given is not None:
            return self._goal_given
        cfg = self.config
        return make_cloud_goal(qos_weight=cfg.qos_weight,
                               cost_weight=cfg.cost_weight,
                               max_servers=cfg.max_servers)

    def _make_scaler(self, seed: int):
        from ..cloud.autoscaler import (ReactiveScaler, SelfAwareScaler,
                                        StaticScaler)
        if self._scaler_given is not None:
            return self._scaler_given
        if self._scaler_factory is not None:
            return self._scaler_factory(seed)
        cfg = self.config
        if cfg.scaler == "self_aware":
            return SelfAwareScaler(self.goal(), boot_delay=cfg.boot_delay,
                                   max_servers=cfg.max_servers,
                                   capacity_guess=cfg.capacity_per_server)
        if cfg.scaler == "reactive":
            return ReactiveScaler(initial=cfg.initial_servers)
        if cfg.scaler == "static":
            return StaticScaler(cfg.static_servers)
        raise ValueError(f"unknown cloud scaler {cfg.scaler!r}")

    def _make_demand(self, seed: int) -> Callable[[float], float]:
        from ..envgen.workloads import RequestRateWorkload
        if self._demand_fn_given is not None:
            return self._demand_fn_given
        cfg = self.config
        workload = RequestRateWorkload(
            base_rate=cfg.base_rate,
            seasonal_amplitude=cfg.seasonal_amplitude, period=cfg.period,
            noise_std=cfg.noise_std, rng=np.random.default_rng(seed))
        if cfg.scenario:
            from ..envgen.scenario import make_scenario
            track = make_scenario(cfg.scenario).render(cfg.steps, seed=seed)
            return lambda t: workload.rate(t) * track.rate_at(t)
        return workload.rate

    def reset(self, seed: Optional[int] = None) -> "CloudSimulator":
        from ..cloud.cluster import ServiceCluster
        seed = self.config.seed if seed is None else seed
        cfg = self.config
        kwargs = self._cluster_kwargs
        if kwargs is None:
            kwargs = {"capacity_per_server": cfg.capacity_per_server,
                      "boot_delay": cfg.boot_delay,
                      "min_servers": cfg.min_servers,
                      "max_servers": cfg.max_servers,
                      "backlog_limit": cfg.backlog_limit,
                      "initial_servers": cfg.initial_servers,
                      "cost_per_server": cfg.cost_per_server}
        self._cluster = ServiceCluster(**kwargs)
        self._scaler = self._make_scaler(seed)
        self._demand_fn = self._make_demand(seed)
        self._injector = _resolve_injector(self._faults, seed)
        self._metrics = None
        self.history: List[Any] = []
        self._t = 0.0
        return self

    def step(self):
        from ..cloud.autoscaler import _sensed_metrics
        now = self._t
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
        self._t += 1.0
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

    def run(self) -> List[Any]:
        for _ in range(self.config.steps):
            self.step()
        return self.history


# ---------------------------------------------------------------------------
# Heterogeneous multicore


class MulticoreSimulator:
    """The multicore platform/governor pair behind the protocol.

    Owns the submit / manage / step / feedback loop, fault hooks
    included: ``workload_spike`` submits extra arrival batches,
    ``clock_skew`` shifts the governor's view of time,
    ``sensor_dropout`` loses the telemetry the governor would have
    managed and learned from this step.
    """

    def __init__(self, config: Optional[MulticoreConfig] = None, *,
                 governor: Optional[Any] = None,
                 governor_factory: Optional[Callable[[int], Any]] = None,
                 workload: Optional[Any] = None,
                 platform: Optional[Any] = None,
                 on_step: Optional[Callable[[float], None]] = None,
                 faults: Faults = None) -> None:
        self.config = config if config is not None else MulticoreConfig()
        self._governor_given = governor
        self._governor_factory = governor_factory
        self._workload_given = workload
        self._platform_given = platform
        self._on_step = on_step
        self._faults = faults
        self.reset(self.config.seed)

    def _make_governor(self, seed: int):
        from ..multicore import make_multicore_goal
        from ..multicore.governor import (OndemandGovernor, SelfAwareGovernor,
                                          StaticGovernor)
        if self._governor_given is not None:
            return self._governor_given
        if self._governor_factory is not None:
            return self._governor_factory(seed)
        cfg = self.config
        if cfg.governor == "self_aware":
            return SelfAwareGovernor(make_multicore_goal(),
                                     epsilon=cfg.epsilon,
                                     rng=np.random.default_rng(seed))
        if cfg.governor == "ondemand":
            return OndemandGovernor()
        if cfg.governor == "static":
            return StaticGovernor()
        raise ValueError(f"unknown governor {cfg.governor!r}")

    def reset(self, seed: Optional[int] = None) -> "MulticoreSimulator":
        from ..multicore.sim import make_platform, make_workload
        seed = self.config.seed if seed is None else seed
        cfg = self.config
        self._workload = (self._workload_given
                          if self._workload_given is not None
                          else make_workload(rate=cfg.rate,
                                             phase_length=cfg.phase_length,
                                             seed=seed))
        self._platform = (self._platform_given
                          if self._platform_given is not None
                          else make_platform(n_big=cfg.n_big,
                                             n_little=cfg.n_little,
                                             critical_temp=cfg.critical_temp))
        self._governor = self._make_governor(seed)
        self._injector = _resolve_injector(self._faults, seed)
        self._metrics = None
        self.history: List[Any] = []
        self._t = 0.0
        return self

    def step(self):
        now = self._t
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
        self._t += 1.0
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

    def run(self):
        for _ in range(self.config.steps):
            self.step()
        return self.result()


# ---------------------------------------------------------------------------
# Cognitive packet network


class CPNSimulator:
    """The packet-routing substrate behind the protocol."""

    def __init__(self, config: Optional[CPNConfig] = None, *,
                 network: Optional[Any] = None,
                 router: Optional[Any] = None,
                 router_factory: Optional[Callable] = None,
                 flows: Optional[List[Any]] = None,
                 faults: Faults = None) -> None:
        if flows is not None and not flows:
            raise ValueError("need at least one flow")
        self.config = config if config is not None else CPNConfig()
        self._network_given = network
        self._router_given = router
        self._router_factory = router_factory
        self._flows_given = flows
        self._faults = faults
        self.reset(self.config.seed)

    def _make_router(self, network: Any, seed: int):
        from ..cpn.routing import CPNRouter, OracleRouter, StaticRouter
        if self._router_given is not None:
            return self._router_given
        if self._router_factory is not None:
            return self._router_factory(network, seed)
        cfg = self.config
        if cfg.router == "self_aware":
            return CPNRouter(network, epsilon=cfg.epsilon,
                             rng=np.random.default_rng(seed + 1))
        if cfg.router == "static":
            return StaticRouter(network)
        if cfg.router == "oracle":
            return OracleRouter(network)
        raise ValueError(f"unknown router {cfg.router!r}")

    def reset(self, seed: Optional[int] = None) -> "CPNSimulator":
        from ..cpn.sim import default_flows
        from ..cpn.topology import CPNetwork
        seed = self.config.seed if seed is None else seed
        cfg = self.config
        if self._network_given is not None:
            self.network = self._network_given
        else:
            self.network = CPNetwork.random_geometric(n=cfg.n_nodes,
                                                      seed=seed)
            if cfg.n_disturbances > 0:
                self.network.schedule_random_disturbances(
                    horizon=cfg.disturbance_horizon,
                    count=cfg.n_disturbances)
        self._router = self._make_router(self.network, seed)
        self._flows = (self._flows_given if self._flows_given is not None
                       else default_flows(self.network,
                                          n_flows=cfg.n_flows, seed=seed))
        self._injector = _resolve_injector(self._faults, seed)
        self.records: List[Any] = []
        self._t = 0.0
        return self

    def step(self):
        from ..cpn.sim import routing_step
        record = routing_step(
            self.network, self._router, self._flows, self._t,
            smart_packets_per_flow=self.config.smart_packets_per_flow,
            faults=self._injector)
        self.records.append(record)
        self._t += 1.0
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

    def run(self):
        for _ in range(self.config.steps):
            self.step()
        return self.result()


# ---------------------------------------------------------------------------
# Robot swarm


class SwarmSimulator:
    """The swarm coverage mission behind the protocol."""

    def __init__(self, config: Optional[SwarmConfig] = None, *,
                 mission_config: Optional[Any] = None,
                 controller: Optional[Any] = None,
                 controller_factory: Optional[Callable[[int], Any]] = None,
                 faults: Faults = None) -> None:
        self.config = config if config is not None else SwarmConfig()
        self._mission_config = mission_config  # expert: SwarmMissionConfig
        self._controller_given = controller
        self._controller_factory = controller_factory
        self._faults = faults
        seed = (mission_config.seed if mission_config is not None
                else self.config.seed)
        self.reset(seed)

    def _make_controller(self, seed: int):
        from ..swarm.robots import (RandomPatrol, SelfAwareSwarm,
                                    StaticFormation)
        if self._controller_given is not None:
            return self._controller_given
        if self._controller_factory is not None:
            return self._controller_factory(seed)
        cfg = self.config
        if cfg.controller == "self_aware":
            return SelfAwareSwarm(rng=np.random.default_rng(seed + 1))
        if cfg.controller == "static":
            return StaticFormation(cfg.n_robots)
        if cfg.controller == "patrol":
            return RandomPatrol(rng=np.random.default_rng(seed + 1))
        raise ValueError(f"unknown swarm controller {cfg.controller!r}")

    def reset(self, seed: Optional[int] = None) -> "SwarmSimulator":
        from ..swarm.sim import SwarmMission, SwarmMissionConfig
        seed = self.config.seed if seed is None else seed
        cfg = self.config
        if self._mission_config is not None:
            mission_config = self._mission_config
        else:
            mission_config = SwarmMissionConfig(
                n_robots=cfg.n_robots, steps=cfg.steps,
                events_per_step=cfg.events_per_step,
                hotspot_fraction=cfg.hotspot_fraction,
                n_hotspots=cfg.n_hotspots,
                shift_fracs=tuple(cfg.shift_fracs),
                failure_fracs=tuple(map(tuple, cfg.failure_fracs)),
                seed=seed)
        self._mission = SwarmMission(
            self._make_controller(seed), mission_config,
            faults=_resolve_injector(self._faults, seed))
        self._t = 0.0
        return self

    def step(self):
        record = self._mission.step(self._t)
        self._t += 1.0
        return record

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

    def run(self):
        for _ in range(self._mission.config.steps):
            self.step()
        return self.result()


# ---------------------------------------------------------------------------
# Sensor network


class SensornetSimulator:
    """The energy-budgeted sensing node behind the protocol."""

    def __init__(self, config: Optional[SensornetConfig] = None, *,
                 field: Optional[Any] = None,
                 attention: Optional[Any] = None,
                 rng: Optional[np.random.Generator] = None,
                 faults: Faults = None) -> None:
        self.config = config if config is not None else SensornetConfig()
        self._field_given = field
        self._attention_given = attention
        self._rng_given = rng
        self._faults = faults
        self.reset(self.config.seed)

    def _make_attention(self, seed: int):
        from ..core.attention import (FullAttention, RandomAttention,
                                      RoundRobinAttention, SalienceAttention)
        if self._attention_given is not None:
            return self._attention_given
        cfg = self.config
        if cfg.attention == "salience":
            return SalienceAttention(staleness_scale=cfg.staleness_scale)
        if cfg.attention == "round_robin":
            return RoundRobinAttention()
        if cfg.attention == "random":
            return RandomAttention(rng=np.random.default_rng(seed + 1))
        if cfg.attention == "full":
            return FullAttention()
        raise ValueError(f"unknown attention policy {cfg.attention!r}")

    def reset(self, seed: Optional[int] = None) -> "SensornetSimulator":
        from ..sensornet.field import ChannelField, mixed_channel_specs
        from ..sensornet.node import SensingNode
        seed = self.config.seed if seed is None else seed
        cfg = self.config
        if self._field_given is not None:
            field = self._field_given
        else:
            field = ChannelField(mixed_channel_specs(cfg.n_channels,
                                                     seed=seed),
                                 rng=np.random.default_rng(seed))
        rng = (self._rng_given if self._rng_given is not None
               else np.random.default_rng(seed + 2))
        self._node = SensingNode(field, self._make_attention(seed),
                                 budget=cfg.budget, rng=rng,
                                 faults=_resolve_injector(self._faults, seed))
        self.records: List[Any] = []
        # Running sums so metrics() stays O(1) however long the session
        # lives: a served session calls metrics() on every step request,
        # and re-summing the whole history made the per-request cost
        # grow linearly with session age.  Left-to-right accumulation in
        # append order produces bit-identical floats to sum() over the
        # records list, so payloads do not change.
        self._error_sum = 0.0
        self._energy_sum = 0.0
        self._t = 0.0
        return self

    def step(self):
        record = self._node.step(self._t)
        self.records.append(record)
        self._error_sum += record.error
        self._energy_sum += record.energy_spent
        self._t += 1.0
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

    def run(self):
        for _ in range(self.config.steps):
            self.step()
        return self.result()


# ---------------------------------------------------------------------------
# Serving layer


class _ServingAdapter:
    """What the serving-layer adapters share: ``reset`` re-seeds the
    config and builds the simulation (:meth:`_build`); the protocol
    calls delegate to it."""

    def reset(self, seed: Optional[int] = None) -> Any:
        config = self.config
        if seed is not None and seed != config.seed:
            config = dataclasses.replace(config, seed=seed)
        self._sim = self._build(config)
        return self

    def step(self):
        return self._sim.step()

    def snapshot(self) -> Dict[str, Any]:
        return self._sim.snapshot()

    def metrics(self) -> Dict[str, float]:
        return self._sim.metrics()

    def result(self):
        return self._sim.records

    def run(self):
        return self._sim.run()


class ServeSimulator(_ServingAdapter):
    """The serving-layer control loop behind the protocol.

    The one substrate that is *about* the reproduction itself: the
    simulated system is the self-aware request-serving layer of
    :mod:`repro.serve`, with the real governor and admission controller
    in the control seat (see :mod:`repro.serve.simulation`).
    """

    def __init__(self, config: Optional[ServeConfig] = None, *,
                 workload: Optional[Any] = None,
                 faults: Faults = None) -> None:
        self.config = config if config is not None else ServeConfig()
        #: Twin replay source (:class:`repro.twin.TraceWorkload`); a live
        #: object, so it rides the expert path rather than the config.
        self._workload_given = workload
        self._faults = faults
        self.reset(self.config.seed)

    def _build(self, config: ServeConfig) -> Any:
        from ..serve.simulation import ServingSimulation
        return ServingSimulation(
            config, workload=self._workload_given,
            faults=_resolve_injector(self._faults, config.seed))


class ClusterSimulator(_ServingAdapter):
    """The sharded serving cluster behind the protocol.

    Deterministic discrete-time model of N cooperating serving nodes
    splitting one worker budget -- collectively (gossiped self-models),
    per-node, or statically (see :mod:`repro.serve.cluster`).
    """

    def __init__(self, config: Optional[ClusterConfig] = None, *,
                 workload: Optional[Any] = None,
                 faults: Faults = None) -> None:
        self.config = config if config is not None else ClusterConfig()
        if faults is not None:
            raise ValueError(
                "the cluster substrate does not take fault plans yet; "
                "model node failure as gossip staleness instead")
        #: Twin replay source (:class:`repro.twin.TraceWorkload`).
        self._workload_given = workload
        self.reset(self.config.seed)

    def _build(self, config: ClusterConfig) -> Any:
        from ..serve.cluster import ClusterSimulation
        return ClusterSimulation(config, workload=self._workload_given)


#: Declarative registry: substrate name -> (config class, adapter class).
SIMULATORS = {
    "smartcamera": (CameraConfig, CameraSimulator),
    "cloud": (CloudConfig, CloudSimulator),
    "multicore": (MulticoreConfig, MulticoreSimulator),
    "cpn": (CPNConfig, CPNSimulator),
    "swarm": (SwarmConfig, SwarmSimulator),
    "sensornet": (SensornetConfig, SensornetSimulator),
    "serve": (ServeConfig, ServeSimulator),
    "cluster": (ClusterConfig, ClusterSimulator),
}


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
