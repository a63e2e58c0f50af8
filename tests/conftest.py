"""Shared test configuration.

``REPRO_FORCE_NAIVE=1`` flips the eight module-level fast-path
defaults (witness grid, swarm SoA, bandit, camera spatial grid, camera
scans, camera step, sensornet field, sensornet node) to their naive
reference implementations before tests import anything.  CI's
``perf-equivalence`` job runs the whole ``tests/perf`` suite under both
settings, so the golden tables and equivalence fixtures are checked
against the scalar paths too -- a vectorisation bug can never land as
"tests passed on the fast path only".
"""

import os


def _force_naive_paths() -> None:
    from repro.learning import bandits
    from repro.sensornet import field, node
    from repro.smartcamera import network
    from repro.smartcamera import sim as camera_sim
    from repro.swarm import robots, sim

    sim.USE_WITNESS_GRID = False
    robots.USE_FAST_SWARM = False
    bandits.USE_FAST_BANDIT = False
    network.USE_SPATIAL_GRID = False
    network.USE_FAST_SCANS = False
    camera_sim.USE_FAST_CAMERA = False
    field.USE_FAST_FIELD = False
    node.USE_FAST_SENSORNET = False


if os.environ.get("REPRO_FORCE_NAIVE") == "1":
    _force_naive_paths()
