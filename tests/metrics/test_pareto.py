"""Tests for Pareto metrics."""

from repro.metrics.pareto import coverage, spread


class TestCoverage:
    def test_full_coverage(self):
        a = [(1.0, 1.0)]
        b = [(0.5, 0.5), (0.2, 0.9)]
        assert coverage(a, b) == 1.0

    def test_no_coverage(self):
        assert coverage([(0.1, 0.1)], [(0.5, 0.5)]) == 0.0

    def test_equal_points_count_as_covered(self):
        assert coverage([(0.5, 0.5)], [(0.5, 0.5)]) == 1.0

    def test_empty_b(self):
        assert coverage([(1.0, 1.0)], []) == 0.0

    def test_asymmetric(self):
        a = [(1.0, 0.0), (0.0, 1.0)]
        b = [(0.5, 0.5)]
        assert coverage(a, b) == 0.0
        assert coverage(b, a) == 0.0


class TestSpread:
    def test_fewer_than_two_points(self):
        assert spread([]) == 0.0
        assert spread([(0.5, 0.5)]) == 0.0

    def test_wider_front_has_larger_spread(self):
        narrow = [(0.5, 0.5), (0.52, 0.48)]
        wide = [(1.0, 0.0), (0.0, 1.0)]
        assert spread(wide) > spread(narrow)
