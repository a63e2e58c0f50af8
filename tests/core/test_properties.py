"""Property-based tests on the framework's core invariants."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.goals import Constraint, Goal, Objective, dominates, pareto_front
from repro.core.knowledge import KnowledgeBase
from repro.core.models import EmpiricalActionModel
from repro.core.spans import private
from repro.metrics.pareto import coverage

metric_values = st.dictionaries(
    st.sampled_from(["a", "b", "c"]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    min_size=0, max_size=3)

weight_triples = st.tuples(
    st.floats(min_value=0.01, max_value=10.0),
    st.floats(min_value=0.01, max_value=10.0),
    st.floats(min_value=0.01, max_value=10.0))


class TestGoalProperties:
    @given(metric_values, weight_triples)
    @settings(max_examples=80, deadline=None)
    def test_utility_always_in_unit_interval(self, metrics, weights):
        goal = Goal(objectives=[Objective("a"), Objective("b"),
                                Objective("c", maximise=False)],
                    weights=dict(zip("abc", weights)))
        assert 0.0 <= goal.utility(metrics) <= 1.0

    @given(st.floats(min_value=0.0, max_value=1.0), weight_triples)
    @settings(max_examples=50, deadline=None)
    def test_utility_monotone_in_maximised_objective(self, value, weights):
        goal = Goal(objectives=[Objective("a"), Objective("b"),
                                Objective("c", maximise=False)],
                    weights=dict(zip("abc", weights)))
        base = {"a": value, "b": 0.5, "c": 0.5}
        better = dict(base, a=min(1.0, value + 0.1))
        assert goal.utility(better) >= goal.utility(base) - 1e-12

    @given(st.lists(st.floats(min_value=0, max_value=1), min_size=2,
                    max_size=2),
           st.lists(st.floats(min_value=0, max_value=1), min_size=2,
                    max_size=2))
    @settings(max_examples=60, deadline=None)
    def test_dominance_is_antisymmetric(self, a, b):
        if dominates(a, b):
            assert not dominates(b, a)

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1), st.floats(0, 1)),
                    min_size=1, max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_pareto_front_is_complete(self, points):
        # Every point outside the front is dominated by some front member.
        front = set(pareto_front(points))
        for i, p in enumerate(points):
            if i not in front:
                assert any(dominates(points[j], p) for j in front)


class TestConstraintProperties:
    @given(st.floats(min_value=-100, max_value=100),
           st.floats(min_value=-100, max_value=100))
    @settings(max_examples=60, deadline=None)
    def test_violation_nonnegative_and_consistent(self, bound, raw):
        for kind in ("max", "min"):
            constraint = Constraint("x", kind, bound)
            violation = constraint.violation(raw)
            assert violation >= 0.0
            assert constraint.satisfied(raw) == (violation == 0.0)


class TestModelProperties:
    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1,
                    max_size=40),
           st.floats(min_value=0.5, max_value=1.0))
    @settings(max_examples=50, deadline=None)
    def test_empirical_prediction_within_observed_range(self, outcomes,
                                                        forgetting):
        model = EmpiricalActionModel(forgetting=forgetting)
        for value in outcomes:
            model.update({}, "a", {"m": value})
        predicted = model.predict({}, "a")["m"]
        assert min(outcomes) - 1e-9 <= predicted <= max(outcomes) + 1e-9

    @given(st.integers(min_value=1, max_value=100))
    @settings(max_examples=30, deadline=None)
    def test_confidence_monotone_in_experience(self, n):
        model = EmpiricalActionModel(forgetting=1.0)
        last = model.confidence({}, "a")
        for _ in range(n):
            model.update({}, "a", {"m": 1.0})
            current = model.confidence({}, "a")
            assert current >= last
            last = current
        assert 0.0 <= last < 1.0


class TestKnowledgeProperties:
    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=1,
                    max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_belief_matches_latest_observation(self, values):
        kb = KnowledgeBase()
        for t, value in enumerate(values):
            kb.observe(private("x"), float(t), value)
        assert kb.value(private("x")) == values[-1]
        assert kb.belief(private("x")).confidence == 1.0


class TestParetoMetricProperties:
    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)),
                    min_size=1, max_size=8),
           st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)),
                    min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_coverage_in_unit_interval(self, a, b):
        assert 0.0 <= coverage(a, b) <= 1.0

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)),
                    min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_self_coverage_is_total(self, points):
        assert coverage(points, points) == 1.0
