"""``percentile_linear`` against ``np.percentile``, bit for bit."""

import struct
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import harness
from repro.metrics.stats import percentile_linear

QS = st.sampled_from([0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0])


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestPercentileLinear:
    @given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=250),
           QS)
    @settings(max_examples=400, deadline=None)
    def test_int_values_match_numpy(self, values, q):
        assert (_bits(percentile_linear(values, q))
                == _bits(float(np.percentile(values, q))))

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=250),
           QS)
    @settings(max_examples=400, deadline=None)
    def test_float_values_match_numpy(self, values, q):
        # Near the float range, b - a overflows in both (inf, or NaN at
        # t = 0), identically.  Equal floats of opposite sign (0.0,
        # -0.0) may sort in either order, so the sign of a zero result
        # is the sort's, not the formula's: compare zeros by value.
        ours = percentile_linear(values, q)
        with np.errstate(over="ignore", invalid="ignore"):
            ref = float(np.percentile(values, q))
        if ours == 0.0 and ref == 0.0:
            return
        assert _bits(ours) == _bits(ref)

    @given(st.lists(st.floats(0.0, 500.0), min_size=1, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_latency_windows_match_numpy_p95(self, window):
        """The serving simulators' use: p95 of a short latency window."""
        assert (_bits(percentile_linear(window, 95.0))
                == _bits(float(np.percentile(window, 95.0))))

    def test_unsorted_input_and_any_iterable(self):
        assert percentile_linear(deque([3.0, 1.0, 2.0]), 50.0) == 2.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile_linear([], 95.0)

    def test_bench_harness_percentile_is_the_same_function(self):
        assert harness.percentile is percentile_linear
        with pytest.raises(ValueError):
            harness.percentile([], 50.0)
