"""Multi-objective evaluation metrics for the benchmark suite."""

from .pareto import coverage, spread
from .regret import (cumulative_regret, instantaneous_regret,
                     normalised_regret, regret_slope, total_regret)
from .tradeoff import (AdaptationReport, adaptation_after, mean_utility,
                       phase_utilities, stability, tradeoff_summary,
                       violation_rate)

__all__ = [
    "coverage", "spread",
    "cumulative_regret", "instantaneous_regret", "normalised_regret",
    "regret_slope", "total_regret",
    "AdaptationReport", "adaptation_after", "mean_utility",
    "phase_utilities", "stability", "tradeoff_summary", "violation_rate",
]
