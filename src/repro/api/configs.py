"""Normalised simulator configs: frozen dataclasses, keyword-only fields.

One ``*Config`` per substrate, all following the same conventions:

* **frozen** -- a config is a value, shareable between shards and
  hashable into cache keys; mutation bugs are impossible.
* **keyword-only** -- call sites read as documentation and survive
  field reordering.
* **JSON-safe fields** -- strings, numbers, tuples; behavioural choices
  (which controller, which scaler) are named by string rather than
  passed as live objects, so a config can ride through the parallel
  engine untouched.  Adapters additionally accept live objects (a
  scaler, a governor, a network) for what a config cannot say.

Each config is its substrate's only parameter record: the simulation
classes (:class:`~repro.smartcamera.sim.CameraSimulation`,
:class:`~repro.swarm.sim.SwarmMission`) take it directly.  The mapping
from each removed ``run_*`` entry point's kwargs to these fields is the
migration table in ``DESIGN.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True, kw_only=True)
class CameraConfig:
    """Smart-camera network run; the fixed-vs-learning choice is the
    ``controller`` field."""

    rows: int = 3
    cols: int = 3
    radius: float = 0.28
    n_objects: int = 8
    object_speed: float = 0.02
    churn_rate: float = 0.02
    steps: int = 500
    comm_cost_weight: float = 0.01
    auction_threshold: float = 0.3
    detection_rate: float = 0.15
    random_placement: bool = False
    seed: int = 0
    #: Optional run-time changes to the communication price:
    #: ``(time, weight)`` breakpoints.  Models stakeholders re-pricing
    #: the bandwidth/utility trade-off after deployment; when ``None``
    #: the constant ``comm_cost_weight`` applies throughout.
    comm_weight_breaks: Optional[Tuple[Tuple[float, float], ...]] = None
    #: ``"self_aware"`` (learning controllers) or ``"fixed"`` (every
    #: camera pinned to ``strategy``).
    controller: str = "self_aware"
    #: Strategy name for ``controller="fixed"`` (a
    #: :class:`~repro.smartcamera.strategies.Strategy` value name).
    strategy: Optional[str] = None
    epsilon: float = 0.1
    discount: float = 0.995


@dataclass(frozen=True, kw_only=True)
class CloudConfig:
    """Autoscaled cluster run (legacy: a scaler object, a cluster
    kwargs dict and ad-hoc demand closures)."""

    steps: int = 600
    seed: int = 0
    # Cluster
    capacity_per_server: float = 10.0
    boot_delay: int = 5
    min_servers: int = 1
    max_servers: int = 40
    backlog_limit: float = 400.0
    initial_servers: int = 4
    cost_per_server: float = 1.0
    #: ``"self_aware"``, ``"reactive"`` or ``"static"``.
    scaler: str = "self_aware"
    static_servers: int = 4
    # Goal (legacy make_cloud_goal kwargs)
    qos_weight: float = 0.7
    cost_weight: float = 0.3
    # Demand (legacy demand_fn closure, as a seasonal workload)
    base_rate: float = 60.0
    seasonal_amplitude: float = 0.5
    period: float = 200.0
    noise_std: float = 0.05
    #: Named adversarial scenario (:data:`repro.envgen.SCENARIOS`)
    #: multiplying the demand rate; ``""`` keeps the legacy seasonal
    #: demand untouched.
    scenario: str = ""


@dataclass(frozen=True, kw_only=True)
class MulticoreConfig:
    """Heterogeneous multicore run (legacy: a governor object with
    ``make_workload``/``make_platform`` kwargs)."""

    steps: int = 600
    seed: int = 0
    rate: float = 1.2
    phase_length: int = 250
    n_big: int = 2
    n_little: int = 4
    critical_temp: float = 85.0
    #: ``"self_aware"``, ``"ondemand"`` or ``"static"``.
    governor: str = "self_aware"
    epsilon: float = 0.08


@dataclass(frozen=True, kw_only=True)
class CPNConfig:
    """Cognitive packet network run (legacy: a hand-built
    topology/router/flows)."""

    steps: int = 500
    seed: int = 0
    n_nodes: int = 30
    n_flows: int = 6
    smart_packets_per_flow: int = 2
    #: ``"self_aware"`` (CPN measuring router), ``"static"`` or
    #: ``"oracle"``.
    router: str = "self_aware"
    epsilon: float = 0.05
    n_disturbances: int = 0
    disturbance_horizon: float = 1000.0


@dataclass(frozen=True, kw_only=True)
class SwarmConfig:
    """Swarm coverage mission (legacy: a mission config plus a
    controller object)."""

    n_robots: int = 9
    steps: int = 800
    events_per_step: float = 3.0
    hotspot_fraction: float = 0.7
    n_hotspots: int = 2
    #: Hotspots jump at these times (fractions of the run).
    shift_fracs: Tuple[float, ...] = (0.4,)
    #: (time fraction, robot index) pairs: robots that die mid-mission.
    failure_fracs: Tuple[Tuple[float, int], ...] = ((0.7, 0), (0.7, 1))
    seed: int = 0
    #: ``"self_aware"``, ``"static"`` or ``"patrol"``.
    controller: str = "self_aware"


@dataclass(frozen=True, kw_only=True)
class SensornetConfig:
    """Energy-budgeted sensing run (legacy: a hand-built
    field/attention pair)."""

    steps: int = 500
    seed: int = 0
    n_channels: int = 8
    budget: float = 3.0
    #: ``"salience"``, ``"round_robin"``, ``"random"`` or ``"full"``.
    attention: str = "salience"
    staleness_scale: float = 1.0


@dataclass(frozen=True, kw_only=True)
class ServeConfig:
    """Serving-layer control loop run (:mod:`repro.serve.simulation`):
    Poisson request arrivals against an admission-gated worker pool,
    governed by either the self-aware :class:`~repro.serve.governor.ServeGovernor`
    or a static design-time configuration."""

    steps: int = 400
    seed: int = 0
    #: Mean offered load in requests per tick (Poisson draws per tick).
    offered_load: float = 12.0
    #: Optional seasonal modulation of the offered load (0 disables).
    spike_amplitude: float = 0.0
    period: float = 200.0
    #: Mean service demand per request, in abstract work units.
    mean_service: float = 1.0
    #: Work units one worker serves per tick.
    per_worker_rate: float = 4.0
    #: ``"self_aware"`` (ServeGovernor) or ``"static"``.
    governor: str = "self_aware"
    static_workers: int = 2
    min_workers: int = 1
    max_workers: int = 16
    #: The p95-latency SLO, in ticks; also the goodput deadline.
    slo_p95: float = 8.0
    #: Governor cadence: one tick() every this many simulation ticks.
    govern_every: int = 4
    #: Scale-up lag: ordered workers come online this many ticks later.
    boot_delay: int = 2
    admit_headroom: float = 1.25
    #: Ticks excluded from metrics() (the governor's learning ramp).
    warmup: int = 80
    #: Window (ticks) for the sensed arrival rate.
    stats_window: int = 25
    #: Window (completions) for the sensed p95 latency.
    latency_window: int = 200
    epsilon: float = 0.02
    #: Named adversarial scenario (:data:`repro.envgen.SCENARIOS`)
    #: multiplying the offered load per tick; a correlated-failure
    #: scenario also arms its fault plan (unless explicit faults were
    #: passed to the simulation).  ``""`` keeps legacy traffic untouched.
    scenario: str = ""


@dataclass(frozen=True, kw_only=True)
class ClusterConfig:
    """Sharded serving cluster run (:mod:`repro.serve.cluster`): ``nodes``
    cooperating serving nodes behind a consistent-hash ring, sharing a
    cluster-wide worker budget.  The ``governor`` arm selects how that
    budget is governed: ``"collective"`` gossips each node's learned
    self-model and splits the budget by believed load (the paper's
    collective self-awareness level), ``"per_node"`` gives each node an
    isolated self-aware governor capped at its fair share, ``"static"``
    fixes every pool at design time."""

    steps: int = 400
    seed: int = 0
    nodes: int = 4
    #: Client sessions, placed on the ring by id.
    sessions: int = 16
    #: Total offered load across the cluster, requests per tick.
    offered_load: float = 40.0
    #: ``"skewed"`` (Zipf session popularity), ``"flash"`` (uniform with
    #: a flash crowd on a few sessions) or ``"uniform"``.
    traffic: str = "skewed"
    #: Zipf exponent for the skewed tier (rank-j weight ~ 1/(j+1)^s).
    zipf_s: float = 1.6
    #: Flash-crowd window: at ``flash_at`` the ``flash_sessions``
    #: hottest sessions multiply their weight by ``flash_factor``
    #: for ``flash_len`` ticks.
    flash_at: int = 160
    flash_len: int = 120
    flash_factor: float = 8.0
    flash_sessions: int = 2
    mean_service: float = 1.0
    per_worker_rate: float = 4.0
    #: ``"collective"``, ``"per_node"`` or ``"static"``.
    governor: str = "collective"
    #: Cluster-wide worker budget the arms split.
    worker_budget: int = 12
    min_workers: int = 1
    slo_p95: float = 8.0
    govern_every: int = 4
    boot_delay: int = 2
    admit_headroom: float = 1.25
    #: Gossip staleness bound (ticks); views older than this are ignored
    #: and the collective arm falls back to its fair-share cap.
    gossip_ttl: float = 12.0
    #: Session rebalancing (collective arm only): every
    #: ``rebalance_every`` ticks a node whose believed load exceeds
    #: ``hot_utilisation`` x capacity sheds its second-hottest session
    #: to the node with most headroom; the moving session's arrivals
    #: are dropped for ``migration_freeze`` ticks (the migration cost).
    rebalance: bool = True
    rebalance_every: int = 8
    hot_utilisation: float = 1.05
    migration_freeze: int = 2
    #: Virtual-node points per node on the placement ring.
    ring_replicas: int = 64
    warmup: int = 80
    stats_window: int = 25
    latency_window: int = 200
    epsilon: float = 0.02
    #: Named adversarial scenario (:data:`repro.envgen.SCENARIOS`)
    #: multiplying the cluster-wide offered load per tick; its session
    #: mix, when it defines one, overrides the ``traffic`` tier's.
    #: ``""`` keeps the legacy tiers byte-identical.
    scenario: str = ""
