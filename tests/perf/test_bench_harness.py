"""Unit tests for the ``repro.bench`` harness, report and CI gate."""

import json

import pytest

from repro.bench import (KERNELS, KernelSpec, build_report, compare_reports,
                         get_kernels, parse_percent, run_spec, write_report)
from repro.bench.harness import KernelResult, percentile
from repro.bench.report import SCHEMA, load_report, summary_lines


class TestPercentile:
    def test_endpoints_and_median(self):
        vals = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(vals, 0.0) == 1.0
        assert percentile(vals, 100.0) == 5.0
        assert percentile(vals, 50.0) == 3.0

    def test_interpolates(self):
        assert percentile([1.0, 2.0], 50.0) == 1.5

    def test_single_value(self):
        assert percentile([7.0], 0.9) == 7.0


class TestKernelResult:
    def test_rates_and_dict(self):
        result = KernelResult(steps=100, repeats=3, warmup=25,
                              seconds=[0.5, 0.4, 0.25])
        assert result.rates == [200.0, 250.0, 400.0]
        doc = result.as_dict()
        assert doc["steps"] == 100
        assert doc["median_rate"] == 250.0
        assert doc["p10_rate"] <= doc["median_rate"] <= doc["p90_rate"]
        assert doc["median_ms_per_step"] == pytest.approx(4.0)


class TestRunSpec:
    def test_counts_steps_and_pairs_baseline(self):
        calls = {"fast": 0, "naive": 0}

        def setup(which):
            def factory():
                def run(n):
                    calls[which] += int(n)
                return run
            return factory

        spec = KernelSpec(name="toy", setup=setup("fast"),
                          baseline_setup=setup("naive"),
                          steps=40, quick_steps=8)
        entry = run_spec(spec, quick=True, repeats=2, warmup=4)
        # warmup once + 2 timed repeats, for each variant.
        assert calls == {"fast": 4 + 2 * 8, "naive": 4 + 2 * 8}
        assert entry["steps"] == 8
        assert "baseline" in entry
        assert entry["speedup_vs_naive"] > 0
        assert entry["spread"] >= 1.0

    def test_without_baseline(self):
        spec = KernelSpec(name="toy", setup=lambda: (lambda n: None),
                          steps=10, quick_steps=2)
        entry = run_spec(spec, quick=False, repeats=2, with_baseline=False)
        assert entry["steps"] == 10
        assert "baseline" not in entry
        assert "speedup_vs_naive" not in entry


class TestKernelRegistry:
    def test_all_kernels_named_and_described(self):
        names = [spec.name for spec in KERNELS]
        assert len(names) == len(set(names))
        assert len(names) >= 8
        assert all(spec.description for spec in KERNELS)

    def test_subset_preserves_order(self):
        subset = get_kernels(["cpn.step", "camera.step"])
        assert [s.name for s in subset] == ["cpn.step", "camera.step"]

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError):
            get_kernels(["nope.step"])

    def test_size_tiers_partition_the_registry(self):
        default = get_kernels(size="default")
        large = get_kernels(size="large")
        everything = get_kernels(size="all")
        assert {k.name for k in default} | {k.name for k in large} \
            == {k.name for k in everything}
        assert all(k.tier == "large" for k in large)
        assert all(k.name.endswith(".large") for k in large)
        assert {"camera.step.large", "sensornet.step.large",
                "swarm.step.large", "cpn.step.large",
                "cloud.step.large"} <= {k.name for k in large}
        # Only the fault kernels pair a baseline (a different fault
        # plan over the same work); no large kernel has one.
        assert {k.name for k in everything
                if k.baseline_setup is not None} \
            == {"faults.hooks", "faults.cloud.step"}

    def test_unknown_size_raises(self):
        with pytest.raises(KeyError):
            get_kernels(size="xl")

    def test_names_bypass_the_size_filter(self):
        subset = get_kernels(["camera.step.large", "cpn.step"],
                             size="default")
        assert [s.name for s in subset] == ["camera.step.large",
                                            "cpn.step"]

    def test_twin_replay_rewinds_its_adapter_through_reset(self,
                                                           monkeypatch):
        """Past the end of its trace the ``twin.replay`` kernel rewinds
        the serve adapter with ``reset(0)`` and keeps stepping."""
        from repro.api import adapters
        from repro.bench.kernels import _twin_replay_setup

        built = []

        class Recorded(adapters.ServeSimulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(adapters, "ServeSimulator", Recorded)
        run = _twin_replay_setup(ticks=8)
        run(20)
        (sim,) = built
        assert sim.snapshot()["steps_taken"] == 4

    @pytest.mark.parametrize("setup_name,adapter_name", [
        ("_sensornet_setup", "SensornetSimulator"),
        ("_cpn_setup", "CPNSimulator")])
    def test_substrate_kernels_step_their_adapter(self, monkeypatch,
                                                  setup_name, adapter_name):
        """``sensornet.step`` and ``cpn.step`` time the adapter the E6/E7
        tables and served sessions run, not the bare model loop."""
        from repro.api import adapters
        from repro.bench import kernels

        built = []
        base = getattr(adapters, adapter_name)

        class Recorded(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(adapters, adapter_name, Recorded)
        run = getattr(kernels, setup_name)()
        run(20)
        (sim,) = built
        assert sim.snapshot()["steps_taken"] == 20


class TestParsePercent:
    def test_percent_and_fraction(self):
        assert parse_percent("10%") == pytest.approx(0.10)
        assert parse_percent("0.25") == pytest.approx(0.25)
        assert parse_percent(" 5% ") == pytest.approx(0.05)

    @pytest.mark.parametrize("bad", ["150%", "-1%", "1.0", "abc"])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            parse_percent(bad)


def _report(rates, spreads=None, calibration=None):
    spreads = spreads or {}
    kernels = {
        name: {"median_rate": rate, "spread": spreads.get(name, 1.0)}
        for name, rate in rates.items()
    }
    return build_report(kernels, quick=True, repeats=3,
                        calibration_rate=calibration)


class TestCompareReports:
    def test_within_budget_passes(self):
        ok, lines = compare_reports(_report({"a": 100.0}),
                                    _report({"a": 95.0}), 0.10)
        assert ok
        assert any("ok" in line for line in lines)

    def test_regression_fails(self):
        ok, lines = compare_reports(_report({"a": 100.0}),
                                    _report({"a": 80.0}), 0.10)
        assert not ok
        assert any("REGRESSION" in line for line in lines)

    def test_noisy_regression_skipped_when_asked(self):
        old = _report({"a": 100.0}, spreads={"a": 3.0})
        new = _report({"a": 50.0})
        ok, lines = compare_reports(old, new, 0.10, skip_on_noise=True)
        assert ok
        assert any("SKIPPED" in line for line in lines)
        ok, _ = compare_reports(old, new, 0.10, skip_on_noise=False)
        assert not ok

    def test_missing_kernel_fails(self):
        ok, lines = compare_reports(_report({"a": 1.0, "b": 1.0}),
                                    _report({"a": 1.0}), 0.10)
        assert not ok
        assert any("MISSING" in line for line in lines)

    def test_new_kernel_missing_from_baseline_fails(self):
        # A kernel the committed baseline has never seen must fail the
        # gate (not pass silently) until the baseline is regenerated.
        ok, lines = compare_reports(_report({"a": 1.0}),
                                    _report({"a": 1.0, "b": 1.0}), 0.10)
        assert not ok
        assert any("b: UNGATED" in line and "baseline" in line
                   for line in lines)
        # ...and skip-on-noise must not rescue it: the kernel has no
        # timing comparison to be noisy about.
        ok, _ = compare_reports(_report({"a": 1.0}),
                                _report({"a": 1.0, "b": 1.0}), 0.10,
                                skip_on_noise=True)
        assert not ok

    def test_improvement_passes(self):
        ok, _ = compare_reports(_report({"a": 100.0}),
                                _report({"a": 250.0}), 0.10)
        assert ok


class TestHostCalibration:
    def test_slow_host_forgives_matching_slowdown(self):
        # Host ran the fixed loop 20% slower; a kernel down 15% is the
        # host's fault, not the code's, and must not go red.
        old = _report({"a": 100.0}, calibration=1000.0)
        new = _report({"a": 85.0}, calibration=800.0)
        ok, lines = compare_reports(old, new, 0.10)
        assert ok
        assert any("host calibration" in line for line in lines)
        assert any("host-adjusted" in line for line in lines)

    def test_slow_host_still_catches_real_regressions(self):
        # Down 40% on a host that is only 20% slower: still a
        # regression after scaling.
        old = _report({"a": 100.0}, calibration=1000.0)
        new = _report({"a": 60.0}, calibration=800.0)
        ok, lines = compare_reports(old, new, 0.10)
        assert not ok
        assert any("REGRESSION" in line for line in lines)

    def test_fast_host_never_relaxes_the_gate(self):
        # The clamp: a faster host must not hide a real 12% loss.
        old = _report({"a": 100.0}, calibration=1000.0)
        new = _report({"a": 88.0}, calibration=1300.0)
        ok, _ = compare_reports(old, new, 0.10)
        assert not ok

    def test_per_kernel_sample_beats_run_level(self):
        # The run-level samples agree (no global slowdown) but the
        # kernel's own adjacent sample caught a noise storm: the
        # per-kernel factor must win and forgive the dip.
        old = _report({"a": 100.0}, calibration=1000.0)
        new = _report({"a": 85.0}, calibration=1000.0)
        old["kernels"]["a"]["calibration_rate"] = 1000.0
        new["kernels"]["a"]["calibration_rate"] = 820.0
        ok, lines = compare_reports(old, new, 0.10)
        assert ok
        assert any("host-adjusted" in line for line in lines)

    def test_missing_calibration_means_no_scaling(self):
        # Old reports (pre-calibration schema) gate exactly as before.
        ok, lines = compare_reports(_report({"a": 100.0}),
                                    _report({"a": 85.0},
                                            calibration=800.0), 0.10)
        assert not ok
        assert not any("host" in line for line in lines)

    def test_measure_calibration_is_positive_and_repeatable(self):
        from repro.bench.harness import measure_calibration
        rate = measure_calibration(repeats=3)
        assert rate > 0
        again = measure_calibration(repeats=3)
        # Same host moments apart: within a generous 3x band -- this
        # guards units (iters/s, not seconds), not timing precision.
        assert rate / 3 < again < rate * 3


class TestReportIO:
    def test_roundtrip_and_schema(self, tmp_path):
        report = _report({"a": 10.0})
        assert report["schema"] == SCHEMA
        path = tmp_path / "bench.json"
        write_report(report, str(path))
        loaded = load_report(str(path))
        assert loaded == json.loads(path.read_text())
        assert loaded["kernels"]["a"]["median_rate"] == 10.0

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/v9"}')
        with pytest.raises(ValueError):
            load_report(str(path))

    def test_summary_lines_mention_speedup(self):
        report = _report({"a": 10.0})
        report["kernels"]["a"].update(
            p10_rate=9.0, p90_rate=11.0, speedup_vs_naive=2.5)
        lines = summary_lines(report)
        assert len(lines) == 1
        assert "2.50x vs naive" in lines[0]

    def test_markdown_summary_surfaces_noise_skips(self):
        from repro.bench.report import markdown_summary

        old = _report({"a": 100.0}, spreads={"a": 3.0})
        new = _report({"a": 50.0})
        new["kernels"]["a"].update(p10_rate=45.0, p90_rate=55.0)
        gate = compare_reports(old, new, 0.10, skip_on_noise=True)
        text = markdown_summary(new, gate=gate, baseline_path="OLD.json",
                                max_regress=0.10)
        assert "| a | 50.0 |" in text
        assert "PASS" in text
        # The skip -- invisible in a green terminal run -- is called out.
        assert "SKIPPED (noisy runner)" in text


class TestCLI:
    def test_list_and_tiny_run(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "cpn.step" in out

        path = tmp_path / "bench.json"
        code = main(["--kernels", "obs.emit.disabled", "--steps", "2000",
                     "--repeats", "2", "--warmup", "100",
                     "--out", str(path)])
        assert code == 0
        report = load_report(str(path))
        assert "obs.emit.disabled" in report["kernels"]

    def test_unknown_kernel_exits_2(self):
        from repro.bench.__main__ import main

        assert main(["--kernels", "bogus"]) == 2
        assert main(["--max-regress", "200%", "--kernels", "obs.emit"]) == 2

    def test_summary_path_writes_markdown(self, tmp_path):
        from repro.bench.__main__ import main

        out = tmp_path / "bench.json"
        summary = tmp_path / "summary.md"
        code = main(["--kernels", "obs.emit.disabled", "--steps", "2000",
                     "--repeats", "2", "--warmup", "100",
                     "--out", str(out), "--summary-path", str(summary)])
        assert code == 0
        text = summary.read_text()
        assert "## Benchmark report" in text
        assert "obs.emit.disabled" in text

        # With --compare, the gate verdicts land in the summary too.
        code = main(["--kernels", "obs.emit.disabled", "--steps", "2000",
                     "--repeats", "2", "--warmup", "100",
                     "--out", str(out), "--compare", str(out),
                     "--skip-on-noise", "--summary-path", str(summary)])
        assert code == 0
        assert "### Gate vs" in summary.read_text()
