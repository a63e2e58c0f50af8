"""The discrete-time serving model: determinism, shapes, and the claim."""

import json

from repro.api import ServeConfig, ServeSimulator, make_simulator


def small(**overrides):
    base = dict(steps=240, seed=3, offered_load=16.0, warmup=60)
    base.update(overrides)
    return ServeConfig(**base)


class TestDeterminism:
    def test_same_config_replays_byte_identically(self):
        a = ServeSimulator(small())
        b = ServeSimulator(small())
        a.run()
        b.run()
        assert json.dumps(a.result()) == json.dumps(b.result())
        assert json.dumps(a.metrics()) == json.dumps(b.metrics())

    def test_reset_replays_in_place(self):
        sim = ServeSimulator(small())
        first = (json.dumps(sim.run()), json.dumps(sim.metrics()))
        sim.reset(3)
        second = (json.dumps(sim.run()), json.dumps(sim.metrics()))
        assert first == second

    def test_seeds_differ(self):
        a = ServeSimulator(small(seed=1))
        b = ServeSimulator(small(seed=2))
        a.run()
        b.run()
        assert a.result() != b.result()


class TestShapes:
    def test_snapshot_shape(self):
        sim = make_simulator("serve", small())
        for _ in range(5):
            sim.step()
        snap = sim.snapshot()
        assert snap["substrate"] == "serve"
        assert snap["steps_taken"] == 5
        assert {"queue_depth", "pool", "degraded"} <= set(snap)

    def test_metrics_keys_and_bounds(self):
        sim = ServeSimulator(small())
        sim.run()
        metrics = sim.metrics()
        assert set(metrics) == {"goodput", "p95_latency", "shed_fraction",
                                "mean_pool", "slo_attainment", "offered"}
        assert 0.0 <= metrics["shed_fraction"] <= 1.0
        assert 0.0 <= metrics["slo_attainment"] <= 1.0
        assert metrics["goodput"] >= 0.0
        assert metrics["mean_pool"] >= 1.0

    def test_record_accounting_balances(self):
        sim = ServeSimulator(small())
        for record in sim.run():
            assert record["offered"] == record["admitted"] + record["shed"]
            assert record["good"] <= record["completions"]
            assert record["effective"] <= record["pool"]


class TestControl:
    def test_governor_outserves_static_under_overload(self):
        """The E14 direction at smoke size: at an offered load well above
        the static pool's capacity, the self-aware arm completes more
        SLO-met work per tick."""
        results = {}
        for arm in ("static", "self_aware"):
            sim = ServeSimulator(small(governor=arm))
            sim.run()
            results[arm] = sim.metrics()
        assert (results["self_aware"]["goodput"]
                > 1.2 * results["static"]["goodput"])

    def test_static_arm_never_scales(self):
        sim = ServeSimulator(small(governor="static", static_workers=2))
        assert all(r["pool"] == 2.0 for r in sim.run())

    def test_boot_delay_defers_scale_up(self):
        """Pool growth can only land ``boot_delay`` ticks after a
        governor decision tick."""
        cfg = small(boot_delay=5, govern_every=4)
        sim = ServeSimulator(cfg)
        records = sim.run()
        grow_ticks = [r["time"] for i, r in enumerate(records)
                      if i and r["pool"] > records[i - 1]["pool"]]
        assert grow_ticks, "never scaled up under overload"
        # A decision at tick t books capacity for t + boot_delay; growth
        # therefore lands at least boot_delay after *some* decision tick.
        for t in grow_ticks:
            decision_ticks = [d for d in range(int(t) + 1)
                              if d % cfg.govern_every == 0]
            assert any(t >= d + cfg.boot_delay for d in decision_ticks)
