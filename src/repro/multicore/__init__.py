"""Heterogeneous multi-core substrate (paper refs [8], [16], [47]).

A big.LITTLE platform model with DVFS, an RC thermal model and hardware
throttling, plus governors from design-time-static through reactive to
self-aware (learned affinity mapping + goal-driven frequency selection
under a thermal constraint).  Experiment E5 reproduces the on-the-fly
computing claim: run-time mapping beats design-time-fixed configuration
on the throughput/energy/temperature trade-off.
"""

from .governor import (FREQ_ACTIONS, Governor, OndemandGovernor,
                       SelfAwareGovernor, StaticGovernor, dispatch_fifo,
                       make_multicore_goal)
from .platform import (BIG, DVFS_LEVELS, LITTLE, Core, CoreType, Platform,
                       PlatformMetrics)
from .sim import (DEFAULT_AFFINITY, DEFAULT_CLASSES, GovernorRunResult,
                  make_platform, make_workload)

__all__ = [
    "FREQ_ACTIONS", "Governor", "OndemandGovernor", "SelfAwareGovernor",
    "StaticGovernor", "dispatch_fifo", "make_multicore_goal",
    "BIG", "DVFS_LEVELS", "LITTLE", "Core", "CoreType", "Platform",
    "PlatformMetrics",
    "DEFAULT_AFFINITY", "DEFAULT_CLASSES", "GovernorRunResult",
    "make_platform", "make_workload",
]
