"""The Scenario re-wire left cluster traffic byte-identical.

PR 10 replaced :class:`ClusterSimulation`'s inline Zipf/flash/uniform
weight expressions with :mod:`repro.envgen.scenario` session mixes.
Two guards prove nothing moved:

* weight-level equality -- every tier's weight vector equals the legacy
  inline expression, element for element, across the tick range (robust
  to numpy version drift);
* a pinned golden hash of an E16 shard captured on the pre-refactor
  code -- the full pipeline (weights -> multinomial -> admission ->
  metrics) reproduced bit for bit.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.api import ClusterSimulator
from repro.api.configs import ClusterConfig

#: sha256 of ``json.dumps(run_shard(0, steps=120, tiers=(skewed, flash,
#: uniform)), sort_keys=True)`` captured on the pre-refactor generators.
GOLDEN_E16_SHARD_HASH = \
    "b3685b51b79050fcc36a29637e3942f446ece68b8ef0c742dd0ed68ffa336dd8"


def _legacy_weights(cfg: ClusterConfig, t: float) -> np.ndarray:
    """The inline expression ClusterSimulation shipped before PR 10."""
    n = cfg.sessions
    if cfg.traffic == "skewed":
        weights = 1.0 / np.power(np.arange(1, n + 1, dtype=float),
                                 cfg.zipf_s)
    else:
        weights = np.ones(n, dtype=float)
        if (cfg.traffic == "flash"
                and cfg.flash_at <= t < cfg.flash_at + cfg.flash_len):
            weights[:cfg.flash_sessions] *= cfg.flash_factor
    return weights / weights.sum()


class TestWeightEquality:
    @pytest.mark.parametrize("tier", ("skewed", "flash", "uniform"))
    def test_every_tier_matches_the_legacy_expression(self, tier):
        cfg = ClusterConfig(traffic=tier)
        sim = ClusterSimulator(cfg)._sim
        for t in (0.0, 100.0, 159.0, 160.0, 200.0, 279.0, 280.0, 399.0):
            np.testing.assert_array_equal(
                sim._weights(t), _legacy_weights(cfg, t),
                err_msg=f"tier {tier!r} diverged at t={t}")

    def test_nondefault_zipf_and_flash_parameters(self):
        skew = ClusterConfig(traffic="skewed", zipf_s=0.8, sessions=32)
        np.testing.assert_array_equal(
            ClusterSimulator(skew)._sim._weights(0.0),
            _legacy_weights(skew, 0.0))
        flash = ClusterConfig(traffic="flash", flash_at=10, flash_len=5,
                              flash_factor=3.0, flash_sessions=4)
        for t in (9.0, 10.0, 12.0, 15.0):
            np.testing.assert_array_equal(
                ClusterSimulator(flash)._sim._weights(t),
                _legacy_weights(flash, t))


class TestGoldenShard:
    def test_e16_shard_hash_is_unchanged(self):
        from repro.experiments import e16_cluster
        shard = e16_cluster.run_shard(
            0, steps=120, tiers=("skewed", "flash", "uniform"))
        digest = hashlib.sha256(
            json.dumps(shard, sort_keys=True).encode()).hexdigest()
        assert digest == GOLDEN_E16_SHARD_HASH, (
            "E16 tables moved: the Scenario re-wire (or a later change) "
            "altered cluster traffic byte-for-byte")


class TestScenarioFieldIsInert:
    def test_unset_scenario_changes_nothing(self):
        plain = ClusterSimulator(ClusterConfig(steps=60, seed=0)).run()
        again = ClusterSimulator(ClusterConfig(steps=60, seed=0,
                                               scenario="")).run()
        assert json.dumps(plain) == json.dumps(again)

    def test_scenario_modulates_the_cluster_load(self):
        base = ClusterSimulator(ClusterConfig(steps=60, seed=0)).run()
        spiked = ClusterSimulator(ClusterConfig(
            steps=60, seed=0,
            scenario="flash_crowd")).run()
        assert sum(r["offered"] for r in spiked) \
            != sum(r["offered"] for r in base)
