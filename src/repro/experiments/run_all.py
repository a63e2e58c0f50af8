"""Run the full experiment suite and print every table.

``python -m repro.experiments.run_all [--quick] [--jobs N] [--cache |
--no-cache] [--cache-dir DIR] [--markdown FILE] [--telemetry [TRACE]]``

``--quick`` shrinks seeds/steps for a fast smoke run; the default sizes
are the ones EXPERIMENTS.md records.  The suite executes on the
:mod:`~repro.experiments.engine`: every experiment decomposes into
``(experiment, seed)`` shards, ``--jobs N`` fans them out over a worker
pool (default: all cores), and the reduce step reassembles the tables
in suite order -- the printed tables are byte-identical at any worker
count.  ``--cache`` (the default) reuses shard results from
``--cache-dir`` (``.repro_cache/``) when neither the code nor the shard
parameters changed; any edit under ``src/repro`` invalidates the whole
cache via the engine's code fingerprint.

``--telemetry`` enables the ``repro.obs`` stack for the whole suite:
every table's notes gain wall-clock and step-rate provenance, a metrics
summary is printed to stderr, and (when a path is given) the full event
stream is written as a JSONL trace.  Workers ship their event/metric
buffers home with each shard result, so traces and counters cover the
whole suite even when it ran on a pool.  Cached shards replay metrics
and step counts but not events.

Ablation coverage: A1 (aggregation), A2 (forecasters), A4 (auction
pricing) and A5 (knowledge-representation granularity) run here in both
quick and full mode.  A3 -- the meta-switching-trigger ablation -- is
*intentionally* absent as a standalone job: EXPERIMENTS.md reports it
inside E8, whose table already compares the window and detector
triggers head-on (rows ``meta(window)`` vs ``meta(detector)``).
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from typing import List, Optional

from ..obs import TelemetrySession
from .engine import (DEFAULT_CACHE_DIR, EngineReport, RetryPolicy, SuiteJob,
                     run_suite)
from .harness import print_tables, write_markdown_report

_PKG = "repro.experiments"


def _job(name: str, module: str, seeds, shard_fn: str = "run_shard",
         reduce_fn: str = "reduce", **params) -> SuiteJob:
    return SuiteJob(name=name, module=f"{_PKG}.{module}", shard_fn=shard_fn,
                    reduce_fn=reduce_fn, seeds=tuple(seeds), params=params)


def suite_jobs(quick: bool = False) -> List[SuiteJob]:
    """The whole suite as engine jobs, in DESIGN.md table order.

    Seeds and size parameters are spelled out explicitly (rather than
    relying on each module's defaults) so shard cache keys are stable
    and self-describing.  See the module docstring for why the A-series
    is A1/A2/A4/A5 here and A3 lives inside E8.
    """
    if quick:
        return [
            _job("E1", "e1_levels", (0,), steps=700),
            _job("E2", "e2_camera", (0,), steps=300),
            _job("E3", "e3_cloud", (0,), steps=300),
            _job("E3-goal", "e3_cloud", (0,), "run_goal_change_shard",
                 "reduce_goal_change", steps=300),
            _job("E4", "e4_volunteer", (0, 1), steps=1200),
            _job("E5", "e5_multicore", (0,), steps=400),
            _job("E5-goal", "e5_multicore", (0,), "run_goal_change_shard",
                 "reduce_goal_change", steps=400),
            _job("E6", "e6_cpn", (0,), n_nodes=30, steps=300),
            _job("E6-qos", "e6_cpn", (0,), "run_qos_classes_shard",
                 "reduce_qos_classes", steps=300),
            _job("E7", "e7_attention", (0,), budgets=(2.0, 6.0), steps=250),
            _job("E7-detect", "e7_attention", (0,),
                 "run_detection_table_shard", "reduce_detection_table",
                 budgets=(2.0, 4.0), steps=600),
            _job("E8", "e8_meta", (0, 1), steps=1200, turbulent_drift=250),
            _job("E9", "e9_collective", (0,), sizes=(10, 50),
                 gossip_rounds=30),
            _job("E10", "e10_priors", (0, 1), steps=400),
            _job("E11", "e11_explain", (0,), steps=300),
            _job("E12", "e12_swarm", (0,), steps=300, n_robots=9),
            _job("E13", "e13_resilience", (0,), steps=240,
                 intensities=(0.0, 0.5)),
            _job("E14", "e14_serving", (0,), steps=300,
                 loads=(4.0, 16.0)),
            _job("E15", "e15_explain_scale", (0,),
                 lengths=(30_000, 120_000), queries=12),
            _job("E16", "e16_cluster", (0,), steps=250,
                 tiers=("skewed", "flash")),
            _job("E18", "e18_twin", (0,), steps=300,
                 scenario="flash_crowd"),
            _job("A1", "ablations", (0,), "run_aggregation_shard",
                 "reduce_aggregation", steps=700),
            _job("A2", "ablations", (0,), "run_forecasters_shard",
                 "reduce_forecasters", steps=300),
            _job("A4", "ablations", (0,), "run_auction_pricing_shard",
                 "reduce_auction_pricing", n_auctions=500),
            _job("A5", "ablations", (0,), "run_knowledge_representation_shard",
                 "reduce_knowledge_representation", steps=500,
                 granularities=(1, 3, 5, 11, 41)),
        ]
    return [
        _job("E1", "e1_levels", (0, 1, 2, 3, 4), steps=1500),
        _job("E2", "e2_camera", (0, 1, 2), steps=800),
        _job("E3", "e3_cloud", (0, 1, 2), steps=600),
        _job("E3-goal", "e3_cloud", (0, 1, 2), "run_goal_change_shard",
             "reduce_goal_change", steps=600),
        _job("E4", "e4_volunteer", (0, 1, 2, 3, 4), steps=3000),
        _job("E5", "e5_multicore", (0, 1, 2), steps=1000),
        _job("E5-goal", "e5_multicore", (0, 1), "run_goal_change_shard",
             "reduce_goal_change", steps=800),
        _job("E6", "e6_cpn", (0, 1, 2), n_nodes=30, steps=600),
        _job("E6-qos", "e6_cpn", (0, 1, 2), "run_qos_classes_shard",
             "reduce_qos_classes", steps=500),
        _job("E7", "e7_attention", (0, 1, 2, 3),
             budgets=(1.0, 2.0, 4.0, 8.0), steps=500),
        _job("E7-detect", "e7_attention", (0, 1, 2),
             "run_detection_table_shard", "reduce_detection_table",
             budgets=(2.0, 4.0), steps=1500),
        _job("E8", "e8_meta", (0, 1, 2, 3, 4), steps=4000,
             turbulent_drift=250),
        _job("E9", "e9_collective", (0, 1, 2), sizes=(10, 50, 200),
             gossip_rounds=30),
        _job("E10", "e10_priors", (0, 1, 2, 3, 4), steps=800),
        _job("E11", "e11_explain", (0, 1, 2), steps=600),
        _job("E12", "e12_swarm", (0, 1, 2), steps=800, n_robots=9),
        _job("E13", "e13_resilience", (0, 1, 2), steps=500,
             intensities=(0.0, 0.3, 0.6)),
        _job("E14", "e14_serving", (0, 1, 2), steps=600,
             loads=(4.0, 8.0, 16.0, 28.0)),
        _job("E15", "e15_explain_scale", (0, 1),
             lengths=(100_000, 300_000, 1_000_000)),
        _job("E16", "e16_cluster", (0, 1, 2), steps=400,
             tiers=("skewed", "flash", "uniform")),
        _job("E18", "e18_twin", (0, 1, 2), steps=400,
             scenario="flash_crowd"),
        _job("A1", "ablations", (0, 1, 2, 3), "run_aggregation_shard",
             "reduce_aggregation", steps=1200),
        _job("A2", "ablations", (0, 1, 2), "run_forecasters_shard",
             "reduce_forecasters", steps=600),
        _job("A4", "ablations", (0,), "run_auction_pricing_shard",
             "reduce_auction_pricing", n_auctions=2000),
        _job("A5", "ablations", (0, 1, 2, 3),
             "run_knowledge_representation_shard",
             "reduce_knowledge_representation", steps=1200,
             granularities=(1, 3, 5, 11, 41)),
    ]


def list_experiments() -> List[str]:
    """One line per suite job: id, quick-suite membership, title.

    Titles come from each experiment module's docstring (first line), so
    the listing can never drift from the modules themselves.
    """
    import importlib
    quick_ids = {job.name for job in suite_jobs(quick=True)}
    lines = []
    for job in suite_jobs(quick=False):
        doc = importlib.import_module(job.module).__doc__ or ""
        title = doc.strip().splitlines()[0] if doc.strip() else ""
        suite = "quick+full" if job.name in quick_ids else "full only"
        lines.append(f"{job.name:<10} {suite:<10} {title}")
    return lines


def collect_report(quick: bool = False,
                   telemetry: Optional[TelemetrySession] = None,
                   jobs: int = 1,
                   cache: bool = False,
                   cache_dir: str = DEFAULT_CACHE_DIR,
                   quiet: bool = False,
                   retry: Optional[RetryPolicy] = None) -> EngineReport:
    """Run the suite on the engine; tables plus shard accounting."""
    progress = None if quiet else (
        lambda line: print(line, file=sys.stderr))
    return run_suite(suite_jobs(quick=quick), n_jobs=jobs, cache=cache,
                     cache_dir=cache_dir, telemetry=telemetry,
                     progress=progress, retry=retry)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small seeds/steps for a smoke run")
    parser.add_argument("--list", action="store_true",
                        help="print experiment ids, titles and quick-suite "
                             "membership, then exit")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: all cores); "
                             "tables are identical at any value")
    parser.add_argument("--cache", dest="cache", action="store_true",
                        default=True,
                        help="reuse cached shard results (default)")
    parser.add_argument("--no-cache", dest="cache", action="store_false",
                        help="always execute every shard")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                        metavar="DIR",
                        help="shard cache location (default: %(default)s)")
    parser.add_argument("--markdown", metavar="FILE", default=None,
                        help="additionally write the tables to FILE as "
                             "a markdown report")
    parser.add_argument("--telemetry", metavar="TRACE", nargs="?",
                        const="", default=None,
                        help="enable repro.obs for the suite; with a path, "
                             "also write the JSONL event trace there")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="retry each failing shard up to N times with "
                             "exponential backoff (default: no retry); "
                             "failures surface the worker's full traceback")
    parser.add_argument("--backoff", type=float, default=0.5,
                        metavar="SECONDS",
                        help="base retry backoff; attempt k waits "
                             "backoff * 2**(k-1) seconds (default: "
                             "%(default)s)")
    parser.add_argument("--shard-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-shard wall-clock deadline (worker pools "
                             "only; counts as a failure for --retries)")
    args = parser.parse_args()
    if args.list:
        for line in list_experiments():
            print(line)
        return
    retry = RetryPolicy(max_attempts=args.retries + 1, backoff=args.backoff,
                        timeout=args.shard_timeout)
    session = None
    if args.telemetry is not None:
        session = TelemetrySession(trace_path=args.telemetry or None,
                                   echo_summary=True)
    with (session if session is not None else nullcontext()):
        report = collect_report(quick=args.quick, telemetry=session,
                                jobs=args.jobs, cache=args.cache,
                                cache_dir=args.cache_dir, retry=retry)
    if args.cache and report.cached_shards:
        print(f"[cache: {report.cached_shards}/{report.total_shards} "
              f"shards reused]", file=sys.stderr)
    print_tables(report.tables)
    if args.markdown:
        write_markdown_report(report.tables, args.markdown,
                              title="pyselfaware experiment results")
        print(f"markdown report written to {args.markdown}", file=sys.stderr)


if __name__ == "__main__":
    main()
