"""The governor: scaling, the SLO, degradation and self-explanation."""

import pytest

from repro.serve import (GovernorDecision, ServeGovernor, ServeSelfModel,
                         StaticGovernor)

SLO = 8.0


def make_governor(**kwargs):
    defaults = dict(slo_p95=SLO, min_workers=1, max_workers=8,
                    service_rate_guess=4.0, epsilon=0.0, seed=0)
    defaults.update(kwargs)
    return ServeGovernor(**defaults)


def stats(*, queue=0.0, arrival=0.0, p95=1.0, util=0.2, shed=0.0,
          pool=1.0, completions=0.0):
    return {"queue_depth": queue, "arrival_rate": arrival,
            "p95_latency": p95, "utilisation": util,
            "shed_fraction": shed, "pool_size": pool,
            "completion_rate": completions}


class TestScaling:
    def test_scales_up_under_sustained_pressure(self):
        """Offered 24 req/tick at 4 req/worker: telemetry responds to the
        pool the governor picks, and the pool must grow to match."""
        governor = make_governor()
        decision = None
        for t in range(12):
            pool = governor.pool_target
            saturated = pool < 6
            decision = governor.tick(float(t), stats(
                queue=40.0 if saturated else 4.0, arrival=24.0,
                p95=SLO * 1.5 if saturated else 2.0,
                util=1.0 if saturated else 0.8,
                pool=float(pool),
                completions=min(24.0, pool * 4.0)))
        assert decision.pool_target >= 6  # needs ~6 workers for 24 req/tick
        assert not decision.degraded

    def test_scales_down_when_idle(self):
        governor = make_governor()
        for t in range(8):  # first learn what pressure looks like
            governor.tick(float(t), stats(
                queue=30.0, arrival=24.0, p95=SLO, util=1.0,
                pool=float(governor.pool_target),
                completions=governor.pool_target * 4.0))
        high = governor.pool_target
        for t in range(8, 24):
            decision = governor.tick(float(t), stats(
                arrival=2.0, p95=1.0, util=0.3,
                pool=float(governor.pool_target),
                completions=2.0))
        assert decision.pool_target < high
        assert decision.pool_target <= 2  # 2 req/tick needs one worker

    def test_admission_tracks_chosen_capacity(self):
        governor = make_governor()
        decision = governor.tick(0.0, stats(arrival=4.0, util=0.5,
                                            pool=1.0, completions=4.0))
        capacity = decision.pool_target * governor.model.service_estimate
        assert decision.admission_rate == pytest.approx(
            capacity * governor.admit_headroom)
        assert decision.max_queue >= capacity  # >= one tick of drain


class TestDegradation:
    def _pressure(self, governor, t, lying=False):
        """Healthy telemetry, or telemetry whose outcomes keep
        contradicting the model's predictions (a lying p95)."""
        pool = governor.pool_target
        p95 = (SLO * 40.0 if lying and t % 2 else 0.0) if lying else 2.0
        return governor.tick(float(t), stats(
            queue=8.0, arrival=8.0, p95=p95, util=1.0,
            pool=float(pool), completions=pool * 4.0))

    def test_contradictory_telemetry_trips_the_monitor(self):
        governor = make_governor()
        for t in range(10):
            healthy = self._pressure(governor, t)
        assert not healthy.degraded
        healthy_rate = healthy.admission_rate

        tripped = None
        for t in range(10, 60):
            decision = self._pressure(governor, t, lying=True)
            if decision.degraded:
                tripped = decision
                break
        assert tripped is not None, "monitor never tripped on garbage"
        # Degraded mode: admission tightened well below the healthy
        # setting for the same capacity belief.
        assert tripped.admission_rate < healthy_rate
        assert governor.degraded

    def test_healthy_run_never_degrades(self):
        governor = make_governor()
        for t in range(30):
            decision = self._pressure(governor, t)
        assert not decision.degraded

    def test_wall_clock_units_never_degrade_a_lightly_loaded_server(self):
        """The server's default configuration: SLO and p95 in *seconds*,
        service rate in requests/second.  The model's latency prediction
        must live in the same unit, or the SLO is infeasible for every
        pool size, prediction error explodes and the governor parks
        itself in degraded mode on an otherwise healthy server."""
        governor = ServeGovernor(slo_p95=0.25, min_workers=1, max_workers=4,
                                 service_rate_guess=200.0, epsilon=0.0,
                                 seed=0)
        decision = None
        for t in range(40):
            decision = governor.tick(float(t), stats(
                queue=0.0, arrival=20.0, p95=0.004, util=0.1,
                pool=float(governor.pool_target), completions=20.0))
        assert not decision.degraded
        assert governor.monitor.last_confidence > governor.monitor.threshold
        # The SLO constraint is satisfiable: a single worker's predicted
        # sojourn at this load sits well inside a 250 ms budget.
        predicted = governor.model.predict(
            {"arrival_rate": 20.0, "queue_depth": 0.0}, 1)
        assert predicted["latency"] < 0.25


class TestSelfModel:
    def test_service_rate_is_learned_only_from_saturated_ticks(self):
        model = ServeSelfModel(service_rate_guess=4.0, slo_p95=SLO)
        model.observe(arrival_rate=5.0, utilisation=0.2,
                      completion_rate=100.0, pool_size=2.0)
        assert model.service_estimate == 4.0  # idle ticks teach nothing
        model.observe(arrival_rate=5.0, utilisation=1.0,
                      completion_rate=12.0, pool_size=2.0)
        assert model.service_estimate > 4.0  # 6/worker observed, moves up

    def test_latency_prediction_is_monotone_in_pool_size(self):
        model = ServeSelfModel(service_rate_guess=4.0, slo_p95=SLO)
        context = {"arrival_rate": 10.0, "queue_depth": 20.0}
        latencies = [model.predict(context, n)["latency"]
                     for n in (1, 2, 4, 8)]
        assert latencies == sorted(latencies, reverse=True)

    def test_confidence_needs_maturity_and_accuracy(self):
        model = ServeSelfModel(service_rate_guess=4.0, slo_p95=SLO,
                               warmup_observations=4)
        assert model.confidence({}, 1) == 0.0  # no observations yet
        for _ in range(4):
            model.observe(arrival_rate=4.0, utilisation=1.0,
                          completion_rate=4.0, pool_size=1.0)
        mature = model.confidence({}, 1)
        assert mature == pytest.approx(1.0)
        context = {"arrival_rate": 4.0, "queue_depth": 0.0}
        for _ in range(10):  # wildly wrong outcomes erode confidence
            model.update(context, 1, {"goodput": 400.0, "latency": SLO * 50})
        assert model.confidence(context, 1) < 0.5 * mature


class TestExplainAndStatic:
    def test_explain_reports_governor_state(self):
        governor = make_governor()
        governor.tick(0.0, stats(arrival=4.0, pool=1.0, completions=4.0))
        text = governor.explain()
        assert "Governor state" in text
        assert "pool target" in text
        assert "service rate" in text

    def test_static_governor_never_moves(self):
        static = StaticGovernor(pool_size=3, service_rate_guess=4.0,
                                slo_p95=SLO)
        first = static.tick(0.0, stats(arrival=100.0, queue=500.0,
                                       p95=SLO * 10))
        second = static.tick(99.0, stats())
        assert first == second
        assert isinstance(first, GovernorDecision)
        assert first.pool_target == 3
        assert not static.degraded
        assert "design time" in static.explain()

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_governor(min_workers=5, max_workers=2)
        with pytest.raises(ValueError):
            make_governor(admit_headroom=0.5)
        with pytest.raises(ValueError):
            StaticGovernor(pool_size=0)
