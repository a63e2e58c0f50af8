"""Tests for environment processes."""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.envgen.processes import (BoundedRandomWalk, MarkovModulatedProcess,
                                    SeasonalProcess, Shock, ShockSchedule)


class TestBoundedRandomWalk:
    def test_stays_in_bounds(self):
        walk = BoundedRandomWalk(sigma=0.5, lo=0.0, hi=1.0,
                                 rng=np.random.default_rng(0))
        values = [walk.step() for _ in range(1000)]
        assert all(0.0 <= v <= 1.0 for v in values)

    def test_mean_reversion(self):
        walk = BoundedRandomWalk(mean=0.5, reversion=0.3, sigma=0.02,
                                 start=0.99, rng=np.random.default_rng(1))
        for _ in range(200):
            walk.step()
        assert abs(walk.current - 0.5) < 0.2

    def test_retarget_moves_attractor(self):
        walk = BoundedRandomWalk(mean=0.2, reversion=0.3, sigma=0.01,
                                 rng=np.random.default_rng(2))
        for _ in range(100):
            walk.step()
        walk.retarget(0.8)
        for _ in range(200):
            walk.step()
        assert walk.current > 0.6

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            BoundedRandomWalk(lo=1.0, hi=0.0)

    @pytest.mark.parametrize("start", [0.3, -0.0, math.inf, math.nan])
    @pytest.mark.parametrize("lo", [0.0, -0.0])
    def test_step_matches_np_clip_formulation(self, start, lo):
        """The value-first clamp replaced ``float(np.clip(...))``; the
        walk and its generator must not notice."""
        walk = BoundedRandomWalk(mean=0.5, reversion=0.05, sigma=0.4,
                                 lo=lo, hi=1.0, start=start,
                                 rng=np.random.default_rng(7))
        rng = np.random.default_rng(7)
        current = start
        for _ in range(500):
            drift = 0.05 * (0.5 - current)
            current = float(np.clip(current + drift + rng.normal(0.0, 0.4),
                                    lo, 1.0))
            value = walk.step()
            assert _bits(value) == _bits(current) or (
                math.isnan(value) and math.isnan(current))
        assert (walk._rng.bit_generator.state
                == rng.bit_generator.state)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestValueFirstClamp:
    """``min(max(x, lo), hi)`` -- the spelling every scalar clamp in the
    package uses -- equals scalar ``np.clip`` bit for bit, including
    signed zeros, infinities and NaN (the reverse nesting
    ``min(hi, max(lo, x))`` does not: it turns NaN into ``lo``)."""

    @given(st.floats(), st.floats(allow_nan=False),
           st.floats(allow_nan=False))
    @example(-0.0, 0.0, 1.0)
    @example(0.0, -0.0, 1.0)
    @example(-0.0, -1.0, 0.0)
    @example(0.0, -1.0, -0.0)
    @example(math.nan, 0.0, 1.0)
    @example(math.inf, 0.0, 1.0)
    @example(-math.inf, 0.0, 1.0)
    @example(0.5, -math.inf, math.inf)
    @settings(max_examples=1000, deadline=None)
    def test_equals_scalar_np_clip(self, x, lo, hi):
        assume(lo <= hi)
        ours = min(max(x, lo), hi)
        ref = float(np.clip(x, lo, hi))
        if math.isnan(ref):
            assert math.isnan(ours)
        else:
            assert _bits(ours) == _bits(ref)


class TestSeasonalProcess:
    def test_period_repeats(self):
        p = SeasonalProcess(base=1.0, amplitude=0.5, period=50.0, noise_std=0.0)
        assert p.value(10.0) == pytest.approx(p.value(60.0))

    def test_amplitude_bounds_cleanly(self):
        p = SeasonalProcess(base=1.0, amplitude=0.5, period=50.0, noise_std=0.0)
        values = [p.value(t) for t in np.linspace(0, 50, 200)]
        assert max(values) == pytest.approx(1.5, abs=0.01)
        assert min(values) == pytest.approx(0.5, abs=0.01)

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            SeasonalProcess(period=0.0)


class TestShockSchedule:
    def test_shock_window(self):
        s = Shock(start=10.0, duration=5.0, magnitude=2.0)
        assert not s.active(9.9)
        assert s.active(10.0)
        assert s.active(14.9)
        assert not s.active(15.0)

    def test_offset_sums_overlapping(self):
        sched = ShockSchedule([Shock(0.0, 10.0, 1.0), Shock(5.0, 10.0, 2.0)])
        assert sched.offset(7.0) == pytest.approx(3.0)
        assert sched.offset(12.0) == pytest.approx(2.0)
        assert sched.offset(20.0) == 0.0

    def test_random_schedule_alternates_sign(self):
        sched = ShockSchedule.random(horizon=1000.0, n_shocks=4,
                                     magnitude=0.5,
                                     rng=np.random.default_rng(0))
        mags = [s.magnitude for s in sched.shocks]
        assert mags == [0.5, -0.5, 0.5, -0.5]

    def test_any_active(self):
        sched = ShockSchedule([Shock(10.0, 5.0, 1.0)])
        assert sched.any_active(12.0)
        assert not sched.any_active(2.0)


class TestMarkovModulatedProcess:
    def test_two_state_emits_both_levels(self):
        p = MarkovModulatedProcess.two_state(low=0.0, high=1.0, stay=0.8,
                                             rng=np.random.default_rng(0))
        values = {round(p.step(), 6) for _ in range(500)}
        assert values == {0.0, 1.0}

    def test_sticky_chain_dwells(self):
        p = MarkovModulatedProcess.two_state(low=0.0, high=1.0, stay=0.99,
                                             rng=np.random.default_rng(1))
        values = [p.step() for _ in range(1000)]
        switches = sum(1 for a, b in zip(values, values[1:]) if a != b)
        assert switches < 50

    def test_transition_matrix_validated(self):
        with pytest.raises(ValueError):
            MarkovModulatedProcess([0.0, 1.0], [[0.5, 0.4], [0.5, 0.5]])
        with pytest.raises(ValueError):
            MarkovModulatedProcess([0.0, 1.0], [[1.0, 0.0]])

    def test_stationary_distribution_respected(self):
        p = MarkovModulatedProcess(
            levels=[0.0, 1.0],
            transition=[[0.9, 0.1], [0.3, 0.7]],
            rng=np.random.default_rng(2))
        values = [p.step() for _ in range(20000)]
        # Stationary P(high) = 0.1 / (0.1 + 0.3) = 0.25.
        assert np.mean(values) == pytest.approx(0.25, abs=0.03)
