"""CLI: ``python -m repro.bench`` -- run, report and gate the kernels.

Examples
--------
Full run, canonical output::

    python -m repro.bench --out BENCH_10.json

Quick CI pass with a regression gate against the committed baseline::

    python -m repro.bench --quick --out bench-ci.json \
        --compare BENCH_10.json --max-regress 10% --skip-on-noise \
        --summary-path "$GITHUB_STEP_SUMMARY"

Only the large-tier kernels (the ~10x-scale re-measurements)::

    python -m repro.bench --size large --out bench-large.json
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .harness import measure_calibration, run_spec
from .kernels import get_kernels
from .report import (build_report, main_compare, parse_percent,
                     summary_lines, write_report)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Benchmark the per-step simulation kernels.")
    parser.add_argument("--quick", action="store_true",
                        help="fewer steps per repeat (CI mode)")
    parser.add_argument("--out", default="BENCH_10.json",
                        help="output JSON path (default: BENCH_10.json)")
    parser.add_argument("--kernels", default=None,
                        help="comma-separated kernel subset")
    parser.add_argument("--size", default="all",
                        choices=("default", "large", "all"),
                        help="size tier to run (default: all); --kernels "
                             "names bypass the filter")
    parser.add_argument("--steps", type=int, default=None,
                        help="override steps per repeat for every kernel")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repeats per kernel (default: 5)")
    parser.add_argument("--warmup", type=int, default=None,
                        help="warmup steps (default: steps // 4)")
    parser.add_argument("--no-baselines", action="store_true",
                        help="skip the paired baseline legs")
    parser.add_argument("--compare", metavar="OLD.json", default=None,
                        help="gate against a previous report")
    parser.add_argument("--max-regress", default="10%",
                        help="allowed median-rate loss (default: 10%%)")
    parser.add_argument("--skip-on-noise", action="store_true",
                        help="do not fail the gate on noisy kernels")
    parser.add_argument("--summary-path", metavar="FILE", default=None,
                        help="append a markdown report (and gate verdicts, "
                             "including noise skips) to FILE -- pass "
                             "$GITHUB_STEP_SUMMARY in CI")
    parser.add_argument("--list", action="store_true",
                        help="list kernels and exit")
    args = parser.parse_args(argv)

    names = ([n.strip() for n in args.kernels.split(",") if n.strip()]
             if args.kernels else None)
    try:
        specs = get_kernels(names, size=args.size)
    except KeyError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.list:
        for spec in specs:
            pair = " [paired with a baseline]" \
                if spec.baseline_setup is not None else ""
            print(f"{spec.name:<20} {spec.description}{pair}")
        return 0

    try:
        max_regress = parse_percent(args.max_regress)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    kernels = {}
    for spec in specs:
        print(f"timing {spec.name} ...", flush=True)
        kernels[spec.name] = run_spec(
            spec, quick=args.quick, steps=args.steps,
            repeats=args.repeats, warmup=args.warmup,
            with_baseline=not args.no_baselines)
    calibration = measure_calibration(repeats=args.repeats)
    report = build_report(kernels, quick=args.quick, repeats=args.repeats,
                          calibration_rate=calibration)
    write_report(report, args.out)
    print(f"\nwrote {args.out} "
          f"(host calibration {calibration:.0f} loop-iters/s)")
    for line in summary_lines(report):
        print("  " + line)

    if args.compare:
        return main_compare(args.compare, report, max_regress,
                            skip_on_noise=args.skip_on_noise,
                            summary_path=args.summary_path)
    if args.summary_path:
        from .report import markdown_summary
        with open(args.summary_path, "a", encoding="utf-8") as fh:
            fh.write(markdown_summary(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
