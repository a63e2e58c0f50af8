"""``repro.api`` -- the one façade over every substrate simulation.

Every substrate runs through a protocol-shaped adapter (the
per-substrate ``run_*`` helpers were removed in 2.0; ``DESIGN.md`` has
the migration table):

>>> from repro.api import CameraSimulator, CameraConfig
>>> sim = CameraSimulator(CameraConfig(steps=50, seed=3))
>>> result = sim.run()

Every adapter satisfies :class:`Simulator` --
``reset(seed)/step()/snapshot()/metrics()`` -- takes a frozen
keyword-only config, and accepts ``faults=FaultPlan(...)`` to attach
the deterministic fault injector (see :mod:`repro.faults`).
"""

from .adapters import (SIMULATORS, CameraSimulator, CloudSimulator,
                       ClusterSimulator, CPNSimulator, MulticoreSimulator,
                       SensornetSimulator, ServeSimulator, SwarmSimulator,
                       make_simulator)
from .configs import (CameraConfig, CloudConfig, ClusterConfig, CPNConfig,
                      MulticoreConfig, SensornetConfig, ServeConfig,
                      SwarmConfig)
from .protocol import Simulator

__all__ = [
    "Simulator",
    "SIMULATORS",
    "make_simulator",
    "CameraConfig", "CameraSimulator",
    "CloudConfig", "CloudSimulator",
    "MulticoreConfig", "MulticoreSimulator",
    "CPNConfig", "CPNSimulator",
    "SwarmConfig", "SwarmSimulator",
    "SensornetConfig", "SensornetSimulator",
    "ServeConfig", "ServeSimulator",
    "ClusterConfig", "ClusterSimulator",
]
