"""Timing core: kernel specs, warmup/repeat measurement, percentile rates.

A *kernel* is a per-step function of one substrate simulation.  Its
:class:`KernelSpec` carries a ``setup`` factory returning a fresh runner
``run(n)`` that advances the simulation ``n`` steps; the harness warms
the runner up (filling caches, histories and learned state, exactly as a
long experiment run would) and then times ``repeats`` back-to-back
blocks of ``steps`` steps on the same live state, reporting step *rates*
(steps per second) so that bigger is always better.

Specs may also carry a ``baseline_setup`` building a paired variant of
the same kernel; both are measured in the same process and the ratio of
median rates is the kernel's measured speedup over the baseline (the
``speedup_vs_naive`` field of the report schema).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

# Rate percentiles use the repository's one interpolating percentile
# (numpy's linear method; ``ValueError`` on an empty list).
from ..metrics.stats import percentile_linear as percentile

#: A runner advances its simulation ``n`` steps.
StepRunner = Callable[[int], None]
#: A setup builds a fresh runner (fresh simulation state).
Setup = Callable[[], StepRunner]


@dataclass
class KernelSpec:
    """One benchmarkable simulation kernel."""

    name: str
    setup: Setup
    #: Naive reference implementation of the same kernel, when the
    #: optimisation kept one; timed alongside for the speedup column.
    baseline_setup: Optional[Setup] = None
    #: Steps per timed repeat in full / quick mode.
    steps: int = 400
    quick_steps: int = 80
    description: str = ""
    #: Size tier: ``"default"`` kernels measure the everyday experiment
    #: scale; ``"large"`` kernels re-measure the same hot path at ~10x
    #: the work per step, where the asymptotic optimisation gap (index
    #: vs scan, batch vs loop) actually opens up.  ``--size`` filters.
    tier: str = "default"


@dataclass
class KernelResult:
    """Measured rates for one kernel in one mode."""

    steps: int
    repeats: int
    warmup: int
    seconds: List[float]

    @property
    def rates(self) -> List[float]:
        """Steps per second of each repeat."""
        return [self.steps / s if s > 0 else float("inf")
                for s in self.seconds]

    def as_dict(self) -> Dict:
        rates = sorted(self.rates)
        return {
            "steps": self.steps,
            "repeats": self.repeats,
            "warmup": self.warmup,
            "seconds": [round(s, 6) for s in self.seconds],
            "median_rate": round(percentile(rates, 50.0), 3),
            "p10_rate": round(percentile(rates, 10.0), 3),
            "p90_rate": round(percentile(rates, 90.0), 3),
            "median_ms_per_step": round(
                1000.0 / percentile(rates, 50.0), 6) if rates else None,
        }


#: Iterations of the fixed calibration loop per timed repeat -- sized
#: for ~10-20ms windows, long enough to ride over scheduler ticks.
CALIBRATION_ITERS = 200_000


def _calibration_workload(n: int) -> int:
    """A fixed, allocation-light, pure-Python integer loop.

    Nothing in the repository's simulation code can change its speed:
    it measures only how fast the interpreter runs on this host right
    now.  The regression gate uses its rate to tell "the runner is
    slow today" (calibration slows down with everything else) apart
    from "the code got slower" (calibration is unmoved).
    """
    acc = 0
    for i in range(n):
        acc = (acc + i * i) & 0xFFFFFF
    return acc


def measure_calibration(repeats: int = 5) -> float:
    """Median rate of the calibration loop, in iterations per second."""
    _calibration_workload(CALIBRATION_ITERS // 4)  # warm the code object
    rates: List[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _calibration_workload(CALIBRATION_ITERS)
        rates.append(CALIBRATION_ITERS / (time.perf_counter() - t0))
    rates.sort()
    return rates[len(rates) // 2]


def _measure(setup: Setup, steps: int, repeats: int,
             warmup: int) -> KernelResult:
    runner = setup()
    if warmup > 0:
        runner(warmup)
    seconds: List[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        runner(steps)
        seconds.append(time.perf_counter() - t0)
    return KernelResult(steps=steps, repeats=repeats, warmup=warmup,
                        seconds=seconds)


def run_spec(spec: KernelSpec, quick: bool = False,
             steps: Optional[int] = None, repeats: int = 5,
             warmup: Optional[int] = None,
             with_baseline: bool = True) -> Dict:
    """Measure one kernel (and its paired baseline, when it has one).

    Returns the kernel's report entry: rate percentiles for the
    optimised path, the same for the baseline when present, the measured
    ``speedup_vs_naive`` ratio of median rates, and a ``spread`` noise
    indicator (p90/p10 of the optimised rates -- large values mean the
    machine was too noisy to gate on).
    """
    n_steps = steps if steps is not None else (
        spec.quick_steps if quick else spec.steps)
    n_warmup = warmup if warmup is not None else max(1, n_steps // 4)
    result = _measure(spec.setup, n_steps, repeats, n_warmup)
    entry = result.as_dict()
    if spec.description:
        entry["description"] = spec.description
    rates = sorted(result.rates)
    p10 = percentile(rates, 10.0)
    entry["spread"] = round(percentile(rates, 90.0) / p10, 4) \
        if p10 > 0 else None
    if with_baseline and spec.baseline_setup is not None:
        baseline = _measure(spec.baseline_setup, n_steps, repeats, n_warmup)
        entry["baseline"] = baseline.as_dict()
        base_median = percentile(sorted(baseline.rates), 50.0)
        if base_median > 0:
            entry["speedup_vs_naive"] = round(
                entry["median_rate"] / base_median, 3)
    # Host-speed sample adjacent in time to this kernel's windows:
    # co-tenant noise storms last seconds, long enough to slow every
    # repeat of one kernel while leaving the rest of the run (and a
    # single end-of-run calibration) untouched.  The gate compares this
    # per-kernel sample against the baseline's to tell such storms
    # apart from real code regressions.
    entry["calibration_rate"] = round(measure_calibration(repeats=3), 1)
    return entry
