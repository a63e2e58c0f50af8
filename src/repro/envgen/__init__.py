"""Environment and workload generators shared by all substrates.

Models of the paper's complexity challenges (Section II): uncertainty
(noise, Markov modulation), ongoing change (random walks, seasonality,
drift), and exogenous shocks.
"""

from .driftgen import DriftingBandit
from .processes import (BoundedRandomWalk, MarkovModulatedProcess,
                        SeasonalProcess, Shock, ShockSchedule)
from .scenario import (SCENARIOS, Concat, Constant, CorrelatedFailure,
                       Diurnal, FlashCrowd, FlashMix, HeavyTail, MarkovChurn,
                       Modulate, Scenario, ScenarioTrack, SessionMix,
                       Superpose, UniformMix, ZipfMix, make_scenario)
from .workloads import (RequestRateWorkload, Task, TaskClass,
                        TaskStreamWorkload)

__all__ = [
    "DriftingBandit",
    "BoundedRandomWalk", "MarkovModulatedProcess", "SeasonalProcess",
    "Shock", "ShockSchedule",
    "RequestRateWorkload", "Task", "TaskClass", "TaskStreamWorkload",
    "SCENARIOS", "Scenario", "ScenarioTrack", "make_scenario",
    "Constant", "Diurnal", "HeavyTail", "FlashCrowd", "MarkovChurn",
    "CorrelatedFailure", "Superpose", "Modulate", "Concat",
    "SessionMix", "UniformMix", "ZipfMix", "FlashMix",
]
