"""Summary statistics for experiment reporting.

Small, dependency-light helpers: mean/std, bootstrap confidence
intervals, paired comparison (win/loss with effect size) and a
numpy-identical linear percentile for short windows.  The
experiment harness reports every headline number with a CI because the
substrates are stochastic simulators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class Summary:
    """Mean with a bootstrap confidence interval."""

    mean: float
    lo: float
    hi: float
    n: int

    def __str__(self) -> str:
        return f"{self.mean:.3f} [{self.lo:.3f}, {self.hi:.3f}]"


def summarise(values: Sequence[float], confidence: float = 0.95,
              n_boot: int = 2000,
              rng: Optional[np.random.Generator] = None) -> Summary:
    """Mean and percentile-bootstrap CI of ``values`` (NaNs dropped)."""
    clean = np.asarray([v for v in values if not math.isnan(v)], dtype=float)
    if clean.size == 0:
        return Summary(mean=math.nan, lo=math.nan, hi=math.nan, n=0)
    if clean.size == 1:
        v = float(clean[0])
        return Summary(mean=v, lo=v, hi=v, n=1)
    rng = rng if rng is not None else np.random.default_rng(0)
    boots = rng.choice(clean, size=(n_boot, clean.size), replace=True).mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(boots, [alpha, 1.0 - alpha])
    return Summary(mean=float(clean.mean()), lo=float(lo), hi=float(hi),
                   n=int(clean.size))


def percentile_linear(values: Iterable[float], q: float) -> float:
    """``float(np.percentile(values, q))`` without numpy's per-call cost.

    Same "linear" method and the same float operations as numpy: the
    virtual index is ``(n-1)*(q/100)``; between its neighbours ``a`` and
    ``b`` at fraction ``t`` the result is ``a + (b-a)*t`` when
    ``t < 0.5`` and ``b - (b-a)*(1-t)`` otherwise.  At or past the last
    index numpy takes the last value, with ``t`` measured from index
    -1.  Equal to numpy bit for bit on finite values; for the windows
    of at most a few hundred values the simulators keep, sorting them
    costs about 1 µs against numpy's ~40 µs.  Raises ``ValueError``
    when ``values`` is empty.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("need at least one value")
    index = (n - 1) * (q / 100)
    if index >= n - 1:
        a = b = ordered[-1]
        t = index + 1
    else:
        lo = int(index)
        a, b = ordered[lo], ordered[lo + 1]
        t = index - lo
    d = b - a
    return float(a + d * t if t < 0.5 else b - d * (1 - t))


@dataclass(frozen=True)
class PairedComparison:
    """Result of comparing treatment vs. baseline across paired runs."""

    mean_diff: float
    win_rate: float
    effect_size: float
    n: int

    @property
    def treatment_wins(self) -> bool:
        """Whether the treatment beat the baseline on average."""
        return self.mean_diff > 0


def compare_paired(treatment: Sequence[float],
                   baseline: Sequence[float]) -> PairedComparison:
    """Paired comparison (same seeds in both arms).

    ``effect_size`` is Cohen's d on the paired differences (0 when the
    differences have no variance).
    """
    if len(treatment) != len(baseline):
        raise ValueError("paired series must have equal length")
    pairs = [(t, b) for t, b in zip(treatment, baseline)
             if not (math.isnan(t) or math.isnan(b))]
    if not pairs:
        return PairedComparison(mean_diff=math.nan, win_rate=math.nan,
                                effect_size=math.nan, n=0)
    diffs = np.asarray([t - b for t, b in pairs])
    wins = float(np.mean(diffs > 0))
    sd = float(diffs.std(ddof=1)) if diffs.size > 1 else 0.0
    effect = float(diffs.mean() / sd) if sd > 0 else 0.0
    return PairedComparison(mean_diff=float(diffs.mean()), win_rate=wins,
                            effect_size=effect, n=diffs.size)


def improvement_factor(treatment_mean: float, baseline_mean: float) -> float:
    """Ratio treatment/baseline, guarded against zero/NaN baselines."""
    if math.isnan(treatment_mean) or math.isnan(baseline_mean):
        return math.nan
    if baseline_mean == 0:
        return math.inf if treatment_mean > 0 else 1.0
    return treatment_mean / baseline_mean
