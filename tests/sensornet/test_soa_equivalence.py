"""The column-resolved sensing step against the scalar reference.

Byte-identity means *all* visible state: the step records, the node's
beliefs and knowledge-base histories, every sensor's sample counter and
RNG stream position, and the field generator's state.  The column step
is taken only for a plain :class:`SalienceAttention`; other policies
(and salience subclasses) take the policy step, which asks the policy
itself.  The scalar reference steps are deleted: what they produced on
these runs is pinned in ``tests/perf/golden_path_payloads.json``.  The
batched field is still compared live against each walk's own scalar
``BoundedRandomWalk.step``.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.attention import (FullAttention, RandomAttention,
                                  RoundRobinAttention, SalienceAttention)
from repro.envgen.processes import BoundedRandomWalk
from repro.sensornet.field import ChannelField, mixed_channel_specs
from repro.sensornet.node import SensingNode
from repro.sensornet.soa import step_walks_batched

from ..perf import goldens


def _policy(name, seed):
    return {
        "salience": lambda: SalienceAttention(staleness_scale=1.0),
        "full": lambda: FullAttention(),
        "rr": lambda: RoundRobinAttention(),
        "random": lambda: RandomAttention(
            rng=np.random.default_rng(seed + 500)),
    }[name]()


def _run(name, n_channels=8, seed=5, budget=3.0, steps=200):
    field = ChannelField(mixed_channel_specs(n_channels, seed=seed),
                         rng=np.random.default_rng(seed))
    node = SensingNode(field, _policy(name, seed), budget=budget,
                       rng=np.random.default_rng(seed + 10))
    records = [node.step(float(t)) for t in range(steps)]
    return node, records


def _visible_state(node, records):
    state = goldens.sensornet_state(node)
    state["records"] = [(r.time, r.error, r.energy_spent, r.channels_sampled)
                        for r in records]
    return state


class TestSensingStepEquivalence:
    @pytest.mark.parametrize("shape", [(8, 5, 3.0), (8, 0, 3.0),
                                       (64, 3, 24.0), (5, 11, 2.0)])
    def test_salience_fast_matches_naive(self, shape):
        n_channels, seed, budget = shape
        node, records = _run("salience", n_channels=n_channels, seed=seed,
                             budget=budget)
        goldens.assert_matches_path_golden(
            f"sensornet.step.salience.{n_channels}.{seed}.{budget:g}",
            _visible_state(node, records))
        assert node._columns_step

    @pytest.mark.parametrize("name", ["full", "rr", "random"])
    def test_other_policies_fall_back_and_still_match(self, name):
        node, records = _run(name)
        goldens.assert_matches_path_golden(f"sensornet.step.{name}",
                                           _visible_state(node, records))
        assert not node._columns_step  # columns model salience only

    def test_salience_subclass_policy_path(self):
        class Tweaked(SalienceAttention):
            def salience(self, scope, knowledge, t):
                return 1.0

        field = ChannelField(mixed_channel_specs(4, seed=1),
                             rng=np.random.default_rng(1))
        node = SensingNode(field, Tweaked(), budget=2.0,
                           rng=np.random.default_rng(2))
        assert not node._columns_step


def _scalar_reference(field):
    """The field's walks stepped one by one by their own scalar step."""
    for walk in field._signals.values():
        walk.step()


class TestBatchedFieldEquivalence:
    @pytest.mark.parametrize("n_channels", [1, 8, 64])
    def test_walk_values_and_rng_state_match(self, n_channels):
        fast = ChannelField(mixed_channel_specs(n_channels, seed=3),
                            rng=np.random.default_rng(3))
        naive = ChannelField(mixed_channel_specs(n_channels, seed=3),
                             rng=np.random.default_rng(3))
        for _ in range(300):
            fast.step()
            _scalar_reference(naive)
        assert [fast.truth(n) for n in fast.names()] \
            == [naive.truth(n) for n in naive.names()]
        assert fast._rng.bit_generator.state == naive._rng.bit_generator.state

    def test_retarget_stays_visible_to_the_batch(self):
        """Parameter columns are re-read per call, so run-time changes
        to a walk's dynamics take effect immediately."""
        fast = ChannelField(mixed_channel_specs(4, seed=9),
                            rng=np.random.default_rng(9))
        naive = ChannelField(mixed_channel_specs(4, seed=9),
                             rng=np.random.default_rng(9))
        for f, step in ((fast, fast.step),
                        (naive, lambda: _scalar_reference(naive))):
            step()
            walk = f._signals[f.names()[2]]
            walk.sigma = 0.5
            walk.mean = 0.9
            step()
            step()
        assert [fast.truth(n) for n in fast.names()] \
            == [naive.truth(n) for n in naive.names()]


def _numpy_step_walks(walks, rng):
    """All-numpy reference for ``step_walks_batched``: parameter
    columns via ``np.fromiter``, one batched draw, then an elementwise
    update and array ``np.clip``."""
    k = len(walks)
    cur = np.fromiter((w.current for w in walks), np.float64, count=k)
    mean = np.fromiter((w.mean for w in walks), np.float64, count=k)
    rev = np.fromiter((w.reversion for w in walks), np.float64, count=k)
    sigma = np.fromiter((w.sigma for w in walks), np.float64, count=k)
    lo = np.fromiter((w.lo for w in walks), np.float64, count=k)
    hi = np.fromiter((w.hi for w in walks), np.float64, count=k)
    z = rng.normal(0.0, sigma)
    with np.errstate(invalid="ignore"):  # an infinite walk turns NaN
        new = np.clip(cur + rev * (mean - cur) + z, lo, hi).tolist()
    for w, v in zip(walks, new):
        w.current = v


def _same(a, b):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return struct.pack("<d", a) == struct.pack("<d", b)


# Walk parameters.  Bounds are normalised to +0.0: array ``np.clip``
# maps +0.0 onto a -0.0 bound where the scalar clamp (and the scalar
# ``BoundedRandomWalk.step``) keeps +0.0 -- see the scalar-loop test
# below, which does cover signed-zero bounds.
_BOUND = st.floats(-5.0, 5.0).map(lambda x: x + 0.0)
_START = st.one_of(st.floats(-5.0, 5.0),
                   st.sampled_from([0.0, -0.0, math.inf, -math.inf,
                                    math.nan]))
_WALK = st.tuples(st.floats(-5.0, 5.0), st.floats(0.0, 1.0),
                  st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
                  _BOUND, _BOUND, _START)


def _walks(params, seed):
    rng = np.random.default_rng(seed)
    walks = []
    for mean, rev, sigma, a, b, start in params:
        lo, hi = min(a, b), max(a, b)
        if not lo < hi:
            hi = lo + 1.0
        walk = BoundedRandomWalk(mean=mean, reversion=rev, sigma=sigma,
                                 lo=lo, hi=hi, start=0.0, rng=rng)
        walk.current = start
        walks.append(walk)
    return walks, rng


class TestStepWalksBatchedProperties:
    @given(st.lists(_WALK, min_size=1, max_size=40),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_numpy_formulation(self, params, seed):
        ours, ours_rng = _walks(params, seed)
        ref, ref_rng = _walks(params, seed)
        for _ in range(4):
            step_walks_batched(ours, ours_rng)
            _numpy_step_walks(ref, ref_rng)
            assert all(_same(a.current, b.current)
                       for a, b in zip(ours, ref))
            assert all(type(a.current) is float for a in ours)
        assert ours_rng.bit_generator.state == ref_rng.bit_generator.state

    @given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 1.0),
                              st.floats(0.0, 0.5),
                              st.sampled_from([-1.0, -0.0, 0.0]),
                              st.sampled_from([0.0, -0.0, 1.0]), _START),
                    min_size=1, max_size=20),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_scalar_step_loop(self, params, seed):
        """Signed-zero bounds included: the batch is the scalar
        ``BoundedRandomWalk.step`` loop, draw for draw."""
        ours, ours_rng = _walks(params, seed)
        ref, ref_rng = _walks(params, seed)
        for _ in range(4):
            step_walks_batched(ours, ours_rng)
            for w in ref:
                w.step()
            assert all(_same(a.current, b.current)
                       for a, b in zip(ours, ref))
        assert ours_rng.bit_generator.state == ref_rng.bit_generator.state
