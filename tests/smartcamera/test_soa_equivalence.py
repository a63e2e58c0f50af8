"""The struct-of-arrays camera step against the object-graph reference.

Byte-identity here means *all* visible state, not just the records: the
ownership map, the market statistics, the controllers' learned usage
counts and the simulation RNG's stream position.  Any divergence --
one reordered float, one extra draw -- would silently skew every
downstream E2 number, so these tests compare exact equality.  The
object-graph reference step (with and without its spatial grid) is
deleted; the state it produced on these runs is pinned in
``tests/perf/golden_path_payloads.json`` and is what the one remaining
step is compared against.
"""

import math

import numpy as np
import pytest

from repro.api import CameraConfig
from repro.smartcamera.controller import (FixedStrategyController,
                                          SelfAwareStrategyController)
from repro.smartcamera.network import CameraNetwork
from repro.smartcamera.objects import MovingObject
from repro.smartcamera.sim import CameraSimulation
from repro.smartcamera.soa import (CameraColumns, best_observer_row_scalar,
                                   possible_rows, seeing_ids_scalar)
from repro.smartcamera.strategies import Strategy

from ..perf import goldens


def _config(seed, **overrides):
    kwargs = dict(rows=4, cols=4, radius=0.24, n_objects=14,
                  object_speed=0.035, detection_rate=0.1,
                  random_placement=True, seed=seed)
    kwargs.update(overrides)
    return CameraConfig(**kwargs)


def _run(config, self_aware=True, steps=150):
    sim = CameraSimulation(
        config,
        controller_factory=(
            (lambda cid, rng: SelfAwareStrategyController(
                cid, epsilon=0.05, rng=rng)) if self_aware else
            (lambda cid, rng: FixedStrategyController(
                cid, Strategy.ACTIVE_SMOOTH))))
    for t in range(steps):
        sim.step(float(t))
    return sim


class TestCameraStepEquivalence:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_fast_matches_naive_both_grid_variants(self, seed):
        goldens.assert_matches_path_golden(
            f"camera.step.seed{seed}",
            goldens.camera_state(_run(_config(seed))))

    def test_fixed_strategy_and_price_break_runs_match(self):
        config = _config(7, comm_cost_weight=0.003,
                         comm_weight_breaks=[(60.0, 0.03)])
        goldens.assert_matches_path_golden(
            "camera.step.fixed_price_break",
            goldens.camera_state(_run(config, self_aware=False)))


class TestColumnScans:
    """The scalar column scans against the reference network queries."""

    def _network_and_points(self, seed):
        network = CameraNetwork.random(40, radius=0.2, seed=seed)
        rng = np.random.default_rng(seed + 100)
        points = rng.random((200, 2)).tolist()
        # Points exactly on a rim exercise the exact predicate.
        cam = next(iter(network.cameras.values()))
        points.append([cam.x + cam.radius, cam.y])
        points.append([cam.x, cam.y + cam.radius * (1 - 1e-13)])
        return network, points

    @pytest.mark.parametrize("seed", [1, 5])
    def test_seeing_and_best_rows_match_naive(self, seed):
        network, points = self._network_and_points(seed)
        cols = CameraColumns(network)
        answers = []
        for x, y in points:
            row = best_observer_row_scalar(cols, x, y)
            answers.append((seeing_ids_scalar(cols, x, y),
                            None if row < 0 else cols.id_list[row]))
        goldens.assert_matches_path_golden(f"camera.scans.seed{seed}",
                                           answers)

    def test_possible_rows_is_a_superset_of_seeing(self):
        network, points = self._network_and_points(9)
        cols = CameraColumns(network)
        for x, y in points:
            possible = set(possible_rows(cols, x, y).tolist())
            seen = {cols.row_of[cid]
                    for cid in seeing_ids_scalar(cols, x, y)}
            assert seen <= possible
            # ...and excluded rows provably cannot see the point.
            for r in set(range(cols.n)) - possible:
                assert math.hypot(x - cols.x_list[r],
                                  y - cols.y_list[r]) \
                    > cols.radius_list[r]

    def test_network_fast_queries_dispatch_to_columns(self):
        network = CameraNetwork.random(25, radius=0.22, seed=2)
        rng = np.random.default_rng(77)
        answers = []
        for i in range(100):
            x, y = rng.random(2)
            obj = MovingObject(object_id=i, x=float(x), y=float(y))
            answers.append((network.observers(obj),
                            network.best_observer(obj)))
        goldens.assert_matches_path_golden("camera.network.queries",
                                           answers)
