"""Continuous benchmark harness for the hot simulation kernels.

``python -m repro.bench`` times the per-step kernels of every substrate
(camera network, CPN routing, swarm coverage, multicore governor, cloud
autoscaler, sensor network, the core ``SelfAwareNode.step`` and the
observability emit path), each with warmup and repeated timed runs, and
reports median / p10 / p90 step rates as machine-readable JSON
(``repro.bench/v1`` schema).

Where a kernel is paired with a baseline (the same work with every fault
window open, say), the harness times both in the same run and records
the ratio -- so "N x the cost of the baseline" is always measured, never
remembered.

``--compare OLD.json --max-regress 10%`` turns the harness into a CI
regression gate.
"""

from .harness import KernelResult, KernelSpec, run_spec
from .kernels import KERNELS, get_kernels
from .report import (SCHEMA, build_report, compare_reports, parse_percent,
                     write_report)

__all__ = [
    "KernelResult", "KernelSpec", "run_spec",
    "KERNELS", "get_kernels",
    "SCHEMA", "build_report", "compare_reports", "parse_percent",
    "write_report",
]
