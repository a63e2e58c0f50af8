"""Scenario algebra: presets, determinism, composition, registry."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.envgen.scenario import (SCENARIOS, Concat, Constant,
                                   CorrelatedFailure, Diurnal, FlashCrowd,
                                   FlashMix, HeavyTail, MarkovChurn, Modulate,
                                   Superpose, UniformMix, ZipfMix,
                                   make_scenario)
from repro.faults.plan import CRASH, WORKLOAD_SPIKE


class TestRegistry:
    def test_every_preset_is_registered(self):
        assert set(SCENARIOS) == {"steady", "diurnal", "heavy_tail",
                                  "flash_crowd", "correlated_failure",
                                  "markov_churn"}

    def test_make_scenario_builds_each_preset(self):
        for name in SCENARIOS:
            scenario = make_scenario(name)
            track = scenario.render(50, seed=0)
            assert track.ticks == 50
            assert np.all(track.rates >= 0.0)

    def test_make_scenario_accepts_overrides(self):
        scenario = make_scenario("diurnal", amplitude=0.9, period=40.0)
        assert scenario.amplitude == 0.9
        assert scenario.period == 40.0

    def test_unknown_name_lists_the_registry(self):
        with pytest.raises(ValueError, match="unknown scenario 'nope'"):
            make_scenario("nope")
        with pytest.raises(ValueError, match="diurnal"):
            make_scenario("nope")


class TestSeedDeterminism:
    """Same spec + seed -> identical rate vectors, for every preset."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_preset_renders_identically(self, name):
        a = make_scenario(name).render(200, seed=7)
        b = make_scenario(name).render(200, seed=7)
        np.testing.assert_array_equal(a.rates, b.rates)

    @pytest.mark.parametrize("name", ("heavy_tail", "markov_churn"))
    def test_stochastic_presets_vary_with_seed(self, name):
        a = make_scenario(name).render(300, seed=0)
        b = make_scenario(name).render(300, seed=1)
        assert not np.array_equal(a.rates, b.rates)

    def test_composition_is_seed_deterministic(self):
        def build():
            return (HeavyTail() + Diurnal()) * MarkovChurn()
        np.testing.assert_array_equal(build().render(150, seed=3).rates,
                                      build().render(150, seed=3).rates)


class TestAlgebra:
    def test_superpose_adds_rates(self):
        track = (Constant(level=2.0) + Constant(level=3.0)).render(10, seed=0)
        np.testing.assert_allclose(track.rates, 5.0)

    def test_modulate_multiplies_rates(self):
        track = (Constant(level=2.0) * Constant(level=3.0)).render(10, seed=0)
        np.testing.assert_allclose(track.rates, 6.0)

    def test_operator_sugar_matches_explicit_combinators(self):
        sugar = (Diurnal() + Constant()) * Constant(level=0.5)
        explicit = Modulate(
            base=Superpose(parts=(Diurnal(), Constant())),
            envelope=Constant(level=0.5))
        np.testing.assert_array_equal(sugar.render(80, seed=1).rates,
                                      explicit.render(80, seed=1).rates)

    def test_then_switches_at_the_breakpoint(self):
        track = Constant(level=1.0).then(Constant(level=9.0),
                                         at=20).render(40, seed=0)
        assert isinstance(Constant().then(Constant(), at=5), Concat)
        np.testing.assert_allclose(track.rates[:20], 1.0)
        np.testing.assert_allclose(track.rates[20:], 9.0)

    def test_rate_at_clamps_to_the_last_tick(self):
        track = Constant(level=4.0).render(10, seed=0)
        assert track.rate_at(9.0) == 4.0
        assert track.rate_at(99.0) == 4.0


class TestPresets:
    def test_diurnal_oscillates_around_base(self):
        track = Diurnal(base=1.0, amplitude=0.5, period=100.0).render(
            200, seed=0)
        assert track.rates.max() > 1.3
        assert track.rates.min() < 0.7

    def test_flash_crowd_window_multiplies_the_rate(self):
        track = FlashCrowd(at=30.0, length=20.0, factor=8.0).render(
            100, seed=0)
        np.testing.assert_allclose(track.rates[:30], 1.0)
        np.testing.assert_allclose(track.rates[30:50], 8.0)
        np.testing.assert_allclose(track.rates[50:], 1.0)

    def test_flash_crowd_defines_a_session_mix(self):
        mix = FlashCrowd(at=10.0, length=5.0, sessions=2).session_mix()
        assert isinstance(mix, FlashMix)
        inside = mix.weights(12.0, 8)
        outside = mix.weights(50.0, 8)
        assert inside[0] > outside[0]

    def test_heavy_tail_bursts_above_base(self):
        track = HeavyTail().render(400, seed=2)
        assert track.rates.max() > 2.0

    def test_markov_churn_occupies_both_regimes(self):
        track = MarkovChurn(low=0.5, high=2.0, stay=0.9).render(500, seed=0)
        assert (np.isclose(track.rates, 0.5).any()
                and np.isclose(track.rates, 2.0).any())

    def test_correlated_failure_arms_a_fault_plan(self):
        scenario = CorrelatedFailure(at=50.0, length=30.0, intensity=0.4)
        track = scenario.render(200, seed=5)
        assert track.plan is not None
        kinds = sorted(spec.kind for spec in track.plan.specs)
        assert kinds == sorted((CRASH, WORKLOAD_SPIKE))
        for spec in track.plan.specs:
            assert spec.start == 50.0 and spec.end == 80.0
            assert spec.intensity == 0.4

    def test_fault_windows_clip_to_the_horizon(self):
        track = CorrelatedFailure(at=50.0, length=100.0).render(80, seed=0)
        assert all(spec.end == 80.0 for spec in track.plan.specs)

    def test_benign_presets_carry_no_plan(self):
        for name in ("steady", "diurnal", "flash_crowd"):
            assert make_scenario(name).render(50, seed=0).plan is None


class TestSessionMixes:
    def test_zipf_mix_matches_the_legacy_cluster_expression(self):
        n, s = 16, 1.6
        legacy = 1.0 / np.power(np.arange(1, n + 1, dtype=float), s)
        legacy = legacy / legacy.sum()
        np.testing.assert_array_equal(ZipfMix(s=s).weights(0.0, n), legacy)

    def test_uniform_mix_is_flat(self):
        np.testing.assert_allclose(UniformMix().weights(3.0, 8), 1.0 / 8)

    def test_mixes_render_alongside_rates(self):
        track = FlashCrowd(at=5.0, length=5.0).render(20, seed=0, sessions=4)
        assert track.mixes is not None
        assert track.mixes.shape == (20, 4)
        np.testing.assert_allclose(track.mixes.sum(axis=1), 1.0)


# -- properties of the algebra ----------------------------------------------
#
# A node's generator is keyed by its tree path, so these pin what does
# hold under composition -- not that composition is associative or
# commutative for stochastic parts (it is not).

_unit = st.floats(0.0, 1.0)
# Deterministic primitives; every render is non-negative, so the final
# clamp at zero never masks a part's contribution.
_deterministic = st.one_of(
    st.builds(Constant, level=st.floats(0.0, 5.0)),
    st.builds(Diurnal, base=st.floats(1.0, 3.0), amplitude=_unit,
              period=st.floats(5.0, 300.0), phase=st.floats(0.0, 6.0)),
    st.builds(FlashCrowd, at=st.floats(0.0, 150.0),
              length=st.floats(1.0, 80.0), factor=st.floats(0.0, 10.0)),
    st.builds(CorrelatedFailure, at=st.floats(0.0, 150.0),
              length=st.floats(1.0, 80.0), intensity=_unit))
_primitives = st.one_of(
    _deterministic,
    st.builds(HeavyTail, base=st.floats(0.0, 2.0), alpha=st.floats(0.5, 3.0),
              gap=st.floats(2.0, 60.0), scale=st.floats(0.1, 5.0),
              decay=st.floats(0.0, 0.9)),
    st.builds(MarkovChurn, low=_unit, high=st.floats(1.0, 3.0),
              stay=st.floats(0.5, 0.99)))
_specs = st.recursive(_primitives, lambda inner: st.one_of(
    st.builds(lambda a, b: a + b, inner, inner),
    st.builds(lambda a, b: a * b, inner, inner),
    st.builds(lambda a, b, at: a.then(b, at=at), inner, inner,
              st.integers(1, 200))), max_leaves=4)
_ticks = st.integers(1, 240)
_seeds = st.integers(0, 2**16)
_ZERO = Constant(level=0.0)


def _rates(spec, ticks, seed):
    return spec.render(ticks, seed=seed).rates


class TestAlgebraProperties:
    @settings(max_examples=40, deadline=None)
    @given(spec=_specs, ticks=_ticks, seed=_seeds)
    def test_same_spec_ticks_and_seed_render_the_same_track(self, spec,
                                                            ticks, seed):
        first = spec.render(ticks, seed=seed, sessions=4)
        again = spec.render(ticks, seed=seed, sessions=4)
        assert first.rates.tobytes() == again.rates.tobytes()
        assert first.plan == again.plan
        assert (first.mixes is None) == (again.mixes is None)
        if first.mixes is not None:
            assert first.mixes.tobytes() == again.mixes.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(parts=st.lists(_primitives, min_size=2, max_size=3),
           k=st.integers(0, 2), replacement=_primitives, ticks=_ticks,
           seed=_seeds)
    def test_replacing_a_summand_leaves_the_others_contributions(
            self, parts, k, replacement, ticks, seed):
        """A sum is exactly the sum of each part's contribution at its
        position, and that contribution depends on nothing else -- so
        swapping part ``k`` moves only its own term."""
        k %= len(parts)
        swapped = parts[:k] + [replacement] + parts[k + 1:]
        for spec in (parts, swapped):
            alone = []
            for j, part in enumerate(spec):
                slots = [_ZERO] * len(spec)
                slots[j] = part
                alone.append(_rates(Superpose(parts=tuple(slots)),
                                    ticks, seed))
            expected = alone[0]
            for contribution in alone[1:]:
                expected = expected + contribution
            total = _rates(Superpose(parts=tuple(spec)), ticks, seed)
            assert total.tobytes() == expected.tobytes()
        for j in range(len(parts)):
            if j != k:
                slots = [_ZERO] * len(parts)
                slots[j] = parts[j]
                assert _rates(Superpose(parts=tuple(slots)), ticks,
                              seed).tobytes() == alone[j].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(a=_specs, b=_specs, other=_specs, at=st.integers(1, 200),
           ticks=_ticks, seed=_seeds)
    def test_replacing_a_then_segment_leaves_the_other(self, a, b, other,
                                                       at, ticks, seed):
        base = _rates(a.then(b, at=at), ticks, seed)
        new_tail = _rates(a.then(other, at=at), ticks, seed)
        new_head = _rates(other.then(b, at=at), ticks, seed)
        assert base[:at].tobytes() == new_tail[:at].tobytes()
        assert base[at:].tobytes() == new_head[at:].tobytes()

    @settings(max_examples=40, deadline=None)
    @given(part=_deterministic, other=_specs, at=st.integers(1, 200),
           ticks=_ticks, seed=_seeds, alone_seed=_seeds)
    def test_deterministic_segment_renders_as_alone(self, part, other, at,
                                                    ticks, seed, alone_seed):
        head = _rates(part.then(other, at=at), ticks, seed)
        assert head[:at].tobytes() == _rates(
            part, min(at, ticks), alone_seed).tobytes()
        if at < ticks:
            tail = _rates(other.then(part, at=at), ticks, seed)
            assert tail[at:].tobytes() == _rates(
                part, ticks - at, alone_seed).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(failure=st.builds(CorrelatedFailure, at=st.floats(0.0, 150.0),
                             length=st.floats(1.0, 80.0), intensity=_unit),
           at=st.integers(1, 200), ticks=_ticks, seed=_seeds)
    def test_then_shifts_fault_windows_and_clips_them(self, failure, at,
                                                      ticks, seed):
        def specs(spec):
            plan = spec.render(ticks, seed=seed).plan
            return () if plan is None else plan.specs

        head = specs(failure.then(Constant(), at=at))
        assert head == failure.fault_specs(min(at, ticks))
        assert all(s.end <= min(at, ticks) for s in head)
        tail = specs(Constant().then(failure, at=at))
        if at >= ticks:
            assert tail == ()
            return
        alone = failure.fault_specs(ticks - at)
        assert [(s.kind, s.start, s.end) for s in tail] == [
            (s.kind, s.start + at, s.end + at) for s in alone]
        assert all(at <= s.start < s.end <= ticks for s in tail)
