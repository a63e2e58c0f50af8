"""Bench report: ``repro.bench/v1`` JSON, writing and regression gating.

Report layout::

    {
      "schema": "repro.bench/v1",
      "quick": false,
      "python": "3.12.3",
      "platform": "Linux-...",
      "params": {"repeats": 5},
      "calibration_rate": ...,   # fixed pure-Python loop, iters/s
                                 # (host-speed reference for the gate)
      "kernels": {
        "camera.step": {
          "steps": 300, "repeats": 5, "warmup": 75,
          "seconds": [...],
          "median_rate": ..., "p10_rate": ..., "p90_rate": ...,
          "median_ms_per_step": ..., "spread": ...,
          "calibration_rate": ...,  # host-speed sample taken next to
                                    # this kernel's timed windows

          "baseline": { ...same rate fields for the paired baseline... },
          "speedup_vs_naive": ...
        }, ...
      }
    }

Rates are steps per second (bigger is better).  ``spread`` is p90/p10
of the optimised rates within the run -- the noise indicator the CI gate
consults before trusting a comparison.
"""

from __future__ import annotations

import json
import platform as platform_mod
import sys
from typing import Dict, List, Tuple

SCHEMA = "repro.bench/v1"

#: A kernel whose within-run p90/p10 rate spread exceeds this is too
#: noisy to gate on (co-tenant CI runners routinely produce 2x swings).
NOISE_SPREAD = 1.5


def build_report(kernels: Dict[str, Dict], quick: bool,
                 repeats: int,
                 calibration_rate: float = None) -> Dict:
    """Assemble the full report document."""
    report = {
        "schema": SCHEMA,
        "quick": quick,
        "python": platform_mod.python_version(),
        "platform": platform_mod.platform(),
        "params": {"repeats": repeats},
        "kernels": kernels,
    }
    if calibration_rate is not None:
        report["calibration_rate"] = round(calibration_rate, 1)
    return report


def write_report(report: Dict, path: str) -> None:
    """Write the report as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_report(path: str) -> Dict:
    """Read a report, validating the schema marker."""
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    schema = report.get("schema")
    if schema != SCHEMA:
        raise ValueError(f"{path}: expected schema {SCHEMA!r}, "
                         f"got {schema!r}")
    return report


def parse_percent(text: str) -> float:
    """Parse a regression budget: ``"10%"`` -> 0.10, ``"0.1"`` -> 0.1."""
    text = text.strip()
    if text.endswith("%"):
        value = float(text[:-1]) / 100.0
    else:
        value = float(text)
    if not 0.0 <= value < 1.0:
        raise ValueError(f"max-regress must be in [0%, 100%), got {text!r}")
    return value


def compare_reports(old: Dict, new: Dict, max_regress: float,
                    skip_on_noise: bool = False) -> Tuple[bool, List[str]]:
    """Gate ``new`` against ``old``: no kernel may lose more than
    ``max_regress`` of its median step rate.

    Returns ``(ok, lines)`` where ``lines`` is a human-readable verdict
    per kernel.  With ``skip_on_noise``, kernels whose within-run spread
    (in either report) exceeds :data:`NOISE_SPREAD` are reported but do
    not fail the gate -- a noisy runner must not turn timing jitter into
    a red build.

    When both reports carry ``calibration_rate`` samples (the fixed
    pure-Python loop :func:`~repro.bench.harness.measure_calibration`
    times next to every kernel and once per run), regression thresholds
    are scaled by the measured host slowdown: a co-tenant runner that
    drags the calibration loop down 15% is allowed to drag a kernel
    down the same 15% without going red, because no code change can
    slow the calibration loop.  Per-kernel samples are preferred over
    the run-level one -- noise storms last seconds, long enough to slow
    one kernel's every repeat while leaving the rest of the run calm.
    A *faster* host never relaxes the gate (factors clamp at 1.0).
    """
    ok = True
    lines: List[str] = []
    old_kernels = old.get("kernels", {})
    new_kernels = new.get("kernels", {})
    cal_old = old.get("calibration_rate")
    cal_new = new.get("calibration_rate")
    host_scale = 1.0
    if cal_old and cal_new:
        host_scale = min(1.0, cal_new / cal_old)
        if host_scale < 1.0:
            lines.append(
                f"host calibration: {cal_old:.0f} -> {cal_new:.0f} "
                f"loop-iters/s ({cal_new / cal_old:.2f}x) -- "
                f"regression thresholds scaled to match")
    for name in sorted(old_kernels):
        if name not in new_kernels:
            lines.append(f"{name}: MISSING from new run")
            ok = False
            continue
        old_rate = old_kernels[name].get("median_rate")
        new_rate = new_kernels[name].get("median_rate")
        if not old_rate or not new_rate:
            lines.append(f"{name}: no comparable median_rate, skipped")
            continue
        change = new_rate / old_rate - 1.0
        cal_o = old_kernels[name].get("calibration_rate") or cal_old
        cal_n = new_kernels[name].get("calibration_rate") or cal_new
        scale = (min(1.0, cal_n / cal_o) if cal_o and cal_n
                 else host_scale)
        adjusted = new_rate / (old_rate * scale) - 1.0
        noisy = any(
            (entry.get("spread") or 0.0) > NOISE_SPREAD
            for entry in (old_kernels[name], new_kernels[name]))
        regressed = adjusted < -max_regress
        verdict = "ok"
        if regressed and noisy and skip_on_noise:
            verdict = "SKIPPED (noisy runner)"
        elif regressed:
            verdict = "REGRESSION"
            ok = False
        elif noisy:
            verdict = "ok (noisy)"
        elif change < -max_regress:
            verdict = f"ok (host-adjusted {adjusted:+.1%})"
        lines.append(
            f"{name}: {old_rate:.1f} -> {new_rate:.1f} steps/s "
            f"({change:+.1%}) {verdict}")
    for name in sorted(set(new_kernels) - set(old_kernels)):
        # A kernel the baseline has never seen must not slip through the
        # gate silently: fail until the committed baseline is regenerated
        # to cover it, so new kernels can't ship ungated.
        lines.append(f"{name}: UNGATED new kernel missing from baseline "
                     "(regenerate the committed baseline to cover it)")
        ok = False
    return ok, lines


def summary_lines(report: Dict) -> List[str]:
    """One line per kernel for terminal output."""
    lines: List[str] = []
    for name in sorted(report.get("kernels", {})):
        entry = report["kernels"][name]
        line = (f"{name:<20} {entry['median_rate']:>12.1f} steps/s "
                f"(p10 {entry['p10_rate']:.1f}, p90 {entry['p90_rate']:.1f})")
        speedup = entry.get("speedup_vs_naive")
        if speedup is not None:
            line += f"  {speedup:.2f}x vs naive"
        lines.append(line)
    return lines


def markdown_summary(report: Dict, gate: Tuple[bool, List[str]] = None,
                     baseline_path: str = None,
                     max_regress: float = None) -> str:
    """Render the report (and optional gate verdicts) as markdown.

    Written to ``$GITHUB_STEP_SUMMARY`` by CI so the per-kernel rates
    and every gate verdict -- including ``--skip-on-noise`` skips,
    otherwise invisible in a green build -- appear on the run page.
    """
    out: List[str] = ["## Benchmark report", ""]
    out.append("| kernel | median steps/s | p10 | p90 | vs naive |")
    out.append("|---|---:|---:|---:|---:|")
    for name in sorted(report.get("kernels", {})):
        entry = report["kernels"][name]
        speedup = entry.get("speedup_vs_naive")
        out.append(
            f"| {name} | {entry['median_rate']:.1f} "
            f"| {entry['p10_rate']:.1f} | {entry['p90_rate']:.1f} "
            f"| {f'{speedup:.2f}x' if speedup is not None else '-'} |")
    if gate is not None:
        ok, lines = gate
        out.append("")
        out.append(f"### Gate vs `{baseline_path}` "
                   f"(max regress {max_regress:.0%}): "
                   f"{'PASS' if ok else 'FAIL'}")
        out.append("")
        for line in lines:
            marker = ("⚠️ " if ("SKIPPED" in line or "noisy" in line
                               or "host" in line)
                      else "❌ " if ("REGRESSION" in line
                                    or "MISSING" in line
                                    or "UNGATED" in line)
                      else "")
            out.append(f"- {marker}{line}")
    out.append("")
    return "\n".join(out)


def main_compare(old_path: str, new_report: Dict, max_regress: float,
                 skip_on_noise: bool,
                 summary_path: str = None) -> int:
    """Load ``old_path``, compare, print verdicts; returns an exit code."""
    old = load_report(old_path)
    ok, lines = compare_reports(old, new_report, max_regress,
                                skip_on_noise=skip_on_noise)
    print(f"comparison vs {old_path} (max regress "
          f"{max_regress:.0%}):")
    for line in lines:
        print("  " + line)
    if summary_path:
        with open(summary_path, "a", encoding="utf-8") as fh:
            fh.write(markdown_summary(new_report, gate=(ok, lines),
                                      baseline_path=old_path,
                                      max_regress=max_regress))
    if not ok:
        print("FAIL: benchmark regression detected", file=sys.stderr)
        return 1
    print("PASS: no benchmark regression")
    return 0
