"""Tests for the autoscaler family."""

import math

import pytest

from repro.api import CloudConfig, CloudSimulator
from repro.cloud.autoscaler import (OracleScaler, ReactiveScaler,
                                    SelfAwareScaler, StaticScaler,
                                    make_cloud_goal)
from repro.cloud.cluster import ClusterMetrics


def metrics_with(utilisation=0.5, demand=50.0, backlog=0.0, n_active=5,
                 served=None):
    served = served if served is not None else demand
    return ClusterMetrics(time=0.0, demand=demand, served=served, dropped=0.0,
                          backlog=backlog, n_active=n_active, n_booting=0,
                          utilisation=utilisation, qos=1.0, cost=float(n_active))


class TestStaticScaler:
    def test_constant(self):
        s = StaticScaler(7)
        assert s.decide(0.0, None) == 7
        assert s.decide(5.0, metrics_with()) == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            StaticScaler(0)


class TestReactiveScaler:
    def test_scales_up_on_high_utilisation(self):
        s = ReactiveScaler(high=0.8, low=0.3, step=2, cooldown=0, initial=4)
        assert s.decide(0.0, metrics_with(utilisation=0.95)) == 6

    def test_scales_down_on_low_utilisation(self):
        s = ReactiveScaler(high=0.8, low=0.3, step=2, cooldown=0, initial=4)
        assert s.decide(0.0, metrics_with(utilisation=0.1)) == 2

    def test_holds_in_band(self):
        s = ReactiveScaler(high=0.8, low=0.3, step=2, cooldown=0, initial=4)
        assert s.decide(0.0, metrics_with(utilisation=0.5)) == 4

    def test_cooldown_blocks_consecutive_actions(self):
        s = ReactiveScaler(high=0.8, low=0.3, step=2, cooldown=5, initial=4)
        s.decide(0.0, metrics_with(utilisation=0.95))
        # Within the cooldown the target is frozen.
        assert s.decide(1.0, metrics_with(utilisation=0.95)) == \
            s.decide(2.0, metrics_with(utilisation=0.95))

    def test_backlog_triggers_scale_up(self):
        s = ReactiveScaler(cooldown=0, initial=4, step=2)
        assert s.decide(0.0, metrics_with(utilisation=0.5, backlog=10.0)) == 6

    def test_never_below_one(self):
        s = ReactiveScaler(cooldown=0, initial=1, step=5)
        assert s.decide(0.0, metrics_with(utilisation=0.0)) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ReactiveScaler(high=0.3, low=0.8)


class TestSelfAwareScaler:
    def test_scales_with_demand_level(self):
        goal = make_cloud_goal()
        s = SelfAwareScaler(goal, boot_delay=0, capacity_guess=10.0)
        for _ in range(20):
            n_low = s.decide(0.0, metrics_with(demand=20.0))
        s2 = SelfAwareScaler(goal, boot_delay=0, capacity_guess=10.0)
        for _ in range(20):
            n_high = s2.decide(0.0, metrics_with(demand=200.0))
        assert n_high > n_low

    def test_goal_reweighting_shifts_choice_immediately(self):
        goal = make_cloud_goal(qos_weight=0.9, cost_weight=0.1)
        s = SelfAwareScaler(goal, boot_delay=0, capacity_guess=10.0)
        for _ in range(10):
            n_qos_heavy = s.decide(0.0, metrics_with(demand=100.0))
        goal.set_weights({"qos": 0.1, "cost": 0.9})
        n_cost_heavy = s.decide(1.0, metrics_with(demand=100.0))
        assert n_cost_heavy < n_qos_heavy

    def test_learns_true_capacity_from_saturated_steps(self):
        goal = make_cloud_goal()
        s = SelfAwareScaler(goal, boot_delay=0, capacity_guess=10.0)
        # Saturated telemetry reveals true capacity of 5 per server.
        for _ in range(30):
            s.decide(0.0, metrics_with(demand=100.0, served=25.0, n_active=5,
                                       utilisation=1.0))
        assert s.capacity_estimate == pytest.approx(5.0, abs=0.5)

    def test_unsaturated_steps_do_not_mislead_capacity(self):
        goal = make_cloud_goal()
        s = SelfAwareScaler(goal, boot_delay=0, capacity_guess=10.0)
        for _ in range(30):
            s.decide(0.0, metrics_with(demand=10.0, served=10.0, n_active=5,
                                       utilisation=0.2))
        assert s.capacity_estimate == pytest.approx(10.0)

    def test_handles_no_telemetry(self):
        goal = make_cloud_goal()
        s = SelfAwareScaler(goal, boot_delay=3)
        assert s.decide(0.0, None) >= 1

    def test_validation(self):
        goal = make_cloud_goal()
        with pytest.raises(ValueError):
            SelfAwareScaler(goal, capacity_guess=0.0)
        with pytest.raises(ValueError):
            SelfAwareScaler(goal, headroom=0.5)


class TestEndToEnd:
    def _demand(self, t):
        return 60.0 + 40.0 * math.sin(2 * math.pi * t / 150.0)

    def _run(self, scaler, steps=400):
        goal = make_cloud_goal()
        history = CloudSimulator(
            CloudConfig(steps=steps, capacity_per_server=10.0, boot_delay=5,
                        max_servers=40),
            scaler=scaler, demand_fn=self._demand, goal=goal).run()
        utilities = [goal.utility(m.as_dict()) for m in history]
        return sum(utilities) / len(utilities), history

    def test_self_aware_beats_underprovisioned_static(self):
        goal = make_cloud_goal()
        u_static, _ = self._run(StaticScaler(3))
        u_aware, _ = self._run(SelfAwareScaler(goal, boot_delay=5))
        assert u_aware > u_static + 0.2

    def test_self_aware_cheaper_than_overprovisioned_static(self):
        goal = make_cloud_goal()
        _, h_static = self._run(StaticScaler(20))
        _, h_aware = self._run(SelfAwareScaler(goal, boot_delay=5))
        cost_static = sum(m.cost for m in h_static)
        cost_aware = sum(m.cost for m in h_aware)
        assert cost_aware < 0.8 * cost_static

    def test_self_aware_close_to_oracle(self):
        goal = make_cloud_goal()
        u_oracle, _ = self._run(OracleScaler(self._demand, 10.0, 5, goal))
        u_aware, _ = self._run(SelfAwareScaler(goal, boot_delay=5))
        assert u_aware > 0.93 * u_oracle

    def test_history_length(self):
        _, h = self._run(StaticScaler(5), steps=123)
        assert len(h) == 123
