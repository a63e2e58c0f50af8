"""The quick experiment suite under test, as its own process.

    python perfbench/suite_proc.py OUT [--setup-only] [--seconds S] [--trace]

Runs the jobs of ``run_all --quick`` one at a time through the engine's
public :func:`~repro.experiments.engine.run_suite` with one job and no
cache -- the path ``python -m repro.experiments.run_all --quick --jobs 1
--no-cache`` takes -- timing each call.  It prints ``ready`` once the suite
is importable and built, runs the suite again and again for about ``S``
seconds (at least twice, and no pass that would end past ``S``) and
writes a JSON report to ``OUT``: per-pass job times, the host's speed
gauged (:func:`~reference.reference_seconds`) before each job and after
the last one, a digest of every table (and the jobs whose tables changed
between passes), peak RSS and, with ``--trace``, the time spent inside
each job's own shard and reduce functions.

Digests hash :func:`~repro.experiments.engine.canonical_table_text` after
masking the cells that hold wall-clock measurements (:data:`TIMED_CELLS`),
which the canonical form keeps and which differ between fresh runs.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import importlib
import json
import re
import resource
import sys
import time
from typing import Dict, List

from repro.experiments.engine import canonical_table_text, run_suite
from repro.experiments.run_all import suite_jobs
from reference import reference_seconds
from tracing import Tracer, durations

#: Columns whose values are timings, per experiment id.
TIMED_CELLS = {"E11": ("journal_overhead_pct",),
               "E15": ("ingest_eps", "query_seconds")}
#: Timing-derived numbers inside table notes.
TIMED_NOTES = {"E15": re.compile(r"query time grew [0-9.]+x")}


def table_digest(table) -> str:
    masked = copy.deepcopy(table)
    for column in TIMED_CELLS.get(table.experiment_id, ()):
        for row in masked.rows:
            if column in row:
                row[column] = "<timing>"
    pattern = TIMED_NOTES.get(table.experiment_id)
    if pattern is not None:
        masked.notes = pattern.sub("<timing>", masked.notes)
    text = canonical_table_text(masked)
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0, metavar="S")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    jobs = suite_jobs(quick=True)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer()
    if args.trace:
        # Each job's shard and reduce functions are its own.
        for job in jobs:
            module = importlib.import_module(job.module)
            for attr in (job.shard_fn, job.reduce_fn):
                tracer.wrap(module, attr, job.name)

    passes: List[Dict[str, float]] = []
    gauges: List[List[float]] = []
    digests: Dict[str, List[str]] = {}
    unstable: List[str] = []
    begin = time.perf_counter()
    while (len(passes) < 2 or time.perf_counter() - begin
           + sum(passes[-1].values()) <= args.seconds):
        times: Dict[str, float] = {}
        gauges.append([reference_seconds()])
        for job in jobs:
            t0 = time.perf_counter()
            report = run_suite([job], n_jobs=1, cache=False)
            times[job.name] = time.perf_counter() - t0
            digest = [table_digest(table) for table in report.tables]
            if digests.setdefault(job.name, digest) != digest:
                unstable.append(job.name)
            gauges[-1].append(reference_seconds())
        passes.append(times)
    with open(args.out, "w") as handle:
        json.dump({"passes": passes, "gauges": gauges, "digests": digests,
                   "unstable": unstable,
                   "inside": {job.name: sum(durations(tracer.spans, job.name))
                              / len(passes) for job in jobs},
                   "maxrss_kb": resource.getrusage(
                       resource.RUSAGE_SELF).ru_maxrss}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
