"""Tests for the energy-budgeted sensing substrate."""


import numpy as np
import pytest

from repro.api import SensornetConfig, SensornetSimulator
from repro.core.attention import (FullAttention, RandomAttention,
                                  SalienceAttention)
from repro.sensornet.field import ChannelField, ChannelSpec, mixed_channel_specs
from repro.sensornet.node import SensingNode


class TestChannelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelSpec("x", volatility=-0.1)
        with pytest.raises(ValueError):
            ChannelSpec("x", volatility=0.1, importance=0.0)
        with pytest.raises(ValueError):
            ChannelSpec("x", volatility=0.1, sample_cost=0.0)

    def test_mixed_specs_heterogeneous(self):
        specs = mixed_channel_specs(8, seed=0)
        assert len(specs) == 8
        vols = {s.volatility for s in specs}
        assert len(vols) >= 2  # quiet and volatile bands present
        assert any(s.importance > 1.0 for s in specs)


class TestChannelField:
    def test_truth_evolves(self):
        field = ChannelField(mixed_channel_specs(4, seed=1),
                             rng=np.random.default_rng(1))
        name = field.names()[3]  # the volatile band
        before = field.truth(name)
        for _ in range(50):
            field.step()
        assert field.truth(name) != before

    def test_unique_names_required(self):
        specs = [ChannelSpec("a", 0.01), ChannelSpec("a", 0.02)]
        with pytest.raises(ValueError):
            ChannelField(specs)

    def test_weighted_error_charges_ignorance(self):
        field = ChannelField([ChannelSpec("a", 0.01)],
                             rng=np.random.default_rng(2))
        assert field.weighted_error({}) == pytest.approx(0.5)

    def test_weighted_error_zero_for_perfect_beliefs(self):
        field = ChannelField([ChannelSpec("a", 0.01)],
                             rng=np.random.default_rng(3))
        beliefs = {"a": field.truth("a")}
        assert field.weighted_error(beliefs) == pytest.approx(0.0)

    def test_importance_weights_errors(self):
        field = ChannelField([ChannelSpec("a", 0.01, importance=3.0),
                              ChannelSpec("b", 0.01, importance=1.0)],
                             rng=np.random.default_rng(4))
        only_a = {"a": field.truth("a")}
        only_b = {"b": field.truth("b")}
        # Knowing the important channel reduces error more.
        assert field.weighted_error(only_a) < field.weighted_error(only_b)


class TestSensingNode:
    def _field(self, seed=0):
        return ChannelField(mixed_channel_specs(6, seed=seed),
                            rng=np.random.default_rng(seed))

    def test_budget_respected(self):
        field = self._field()
        node = SensingNode(field, FullAttention(), budget=1.0,
                           rng=np.random.default_rng(10))
        for t in range(20):
            record = node.step(float(t))
            assert record.energy_spent <= 1.0 + 1e-9

    def test_beliefs_populate_over_time(self):
        field = self._field()
        node = SensingNode(field, RandomAttention(np.random.default_rng(0)),
                           budget=2.0, rng=np.random.default_rng(11))
        for t in range(50):
            node.step(float(t))
        assert len(node.beliefs()) >= 4

    def test_error_decreases_with_budget(self):
        tight = SensornetSimulator(
            SensornetConfig(steps=300, budget=1.0), field=self._field(1),
            attention=FullAttention(), rng=np.random.default_rng(12)).run()
        loose = SensornetSimulator(
            SensornetConfig(steps=300, budget=10.0), field=self._field(1),
            attention=FullAttention(), rng=np.random.default_rng(12)).run()
        assert loose.mean_error(skip=20) < tight.mean_error(skip=20)

    def test_salience_relevance_seeded_from_importance(self):
        field = self._field()
        attention = SalienceAttention()
        SensingNode(field, attention, budget=2.0,
                    rng=np.random.default_rng(13))
        assert len(attention.relevance) == len(field.names())

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            SensingNode(self._field(), FullAttention(), budget=0.0)


class TestAttentionComparison:
    def test_salience_beats_unaware_truncation(self):
        errs = {}
        for name, make in [("full", FullAttention),
                           ("salience",
                            lambda: SalienceAttention(staleness_scale=1.0))]:
            vals = []
            for seed in range(3):
                field = ChannelField(mixed_channel_specs(8, seed=seed),
                                     rng=np.random.default_rng(seed))
                res = SensornetSimulator(
                    SensornetConfig(steps=400, budget=2.0), field=field,
                    attention=make(),
                    rng=np.random.default_rng(100 + seed)).run()
                vals.append(res.mean_error(skip=50))
            errs[name] = np.mean(vals)
        assert errs["salience"] < 0.5 * errs["full"]

    def test_salience_no_worse_than_random(self):
        errs = {}
        for name, make in [("random",
                            lambda: RandomAttention(np.random.default_rng(7))),
                           ("salience",
                            lambda: SalienceAttention(staleness_scale=1.0))]:
            vals = []
            for seed in range(3):
                field = ChannelField(mixed_channel_specs(8, seed=seed),
                                     rng=np.random.default_rng(seed))
                res = SensornetSimulator(
                    SensornetConfig(steps=400, budget=4.0), field=field,
                    attention=make(),
                    rng=np.random.default_rng(200 + seed)).run()
                vals.append(res.mean_error(skip=50))
            errs[name] = np.mean(vals)
        assert errs["salience"] <= errs["random"] * 1.05
