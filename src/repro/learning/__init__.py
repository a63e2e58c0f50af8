"""Common learning techniques for realising self-awareness (paper ref [61]).

Standalone online-learning algorithms that the framework and the
substrates plug in: an ε-greedy bandit, recursive least squares,
time-series forecasters and concept-drift detectors.  This package has
no dependency on :mod:`repro.core`; the dependency points the other way.
"""

from .bandits import EpsilonGreedy
from .drift import DDM, PageHinkley, WindowDriftDetector
from .forecast import (ARForecaster, EWMAForecaster, Forecaster,
                       HoltForecaster, NaiveForecaster, make_forecaster)
from .regression import RecursiveLeastSquares

__all__ = [
    "EpsilonGreedy",
    "DDM", "PageHinkley", "WindowDriftDetector",
    "ARForecaster", "EWMAForecaster", "Forecaster", "HoltForecaster",
    "NaiveForecaster", "make_forecaster",
    "RecursiveLeastSquares",
]
