"""E6 claim checks: CPN routing resilience (DESIGN.md E6).

Shape checks: under the DoS attack the self-aware router keeps delivery
near its pre-attack level (static routing collapses), its attack-time
delivery sits close to the omniscient oracle's, and the steady-state
delay overhead vs static stays moderate (the price of adaptivity).
"""

import pytest

from repro.experiments import e6_cpn

from . import claim_tables


@pytest.fixture(scope="module")
def table():
    return claim_tables.e6()


def test_static_collapses_under_attack(table):
    static = table.row_by("router", "static")
    assert static["delivery_drop_under_attack"] > 0.08


def test_cpn_resists_attack(table):
    cpn = table.row_by("router", "cpn-self-aware")
    static = table.row_by("router", "static")
    assert cpn["delivery_attack"] > static["delivery_attack"] + 0.05
    assert cpn["delivery_drop_under_attack"] < 0.05


def test_cpn_close_to_oracle_under_attack(table):
    cpn = table.row_by("router", "cpn-self-aware")
    oracle = table.row_by("router", "oracle")
    assert cpn["delivery_attack"] >= oracle["delivery_attack"] - 0.05


def test_adaptivity_overhead_bounded(table):
    cpn = table.row_by("router", "cpn-self-aware")
    static = table.row_by("router", "static")
    assert cpn["delay"] < 1.6 * static["delay"]


@pytest.fixture(scope="module")
def qos_table():
    return e6_cpn.run_qos_classes(seeds=(0, 1), steps=400)


def _class_row(table, router, traffic_class):
    for row in table.rows:
        if row["router"] == router and row["traffic_class"] == traffic_class:
            return row
    raise KeyError((router, traffic_class))


def test_qos_classes_take_their_own_paths(qos_table):
    delay_row = _class_row(qos_table, "class-aware", "delay-sensitive")
    loss_row = _class_row(qos_table, "class-aware", "loss-sensitive")
    # The fast path is 2 delay units; the clean path ~6.
    assert delay_row["delay"] < 3.0
    assert loss_row["delay"] > 4.5
    assert loss_row["delivery"] > 0.97


def test_class_blind_compromises_someone(qos_table):
    blind_delay = _class_row(qos_table, "class-blind", "delay-sensitive")
    aware_delay = _class_row(qos_table, "class-aware", "delay-sensitive")
    blind_loss = _class_row(qos_table, "class-blind", "loss-sensitive")
    aware_loss = _class_row(qos_table, "class-aware", "loss-sensitive")
    # One class must be worse off under the blind router: either the
    # delay class pays extra latency or the loss class pays delivery.
    latency_penalty = blind_delay["delay"] > 1.5 * aware_delay["delay"]
    delivery_penalty = blind_loss["delivery"] < aware_loss["delivery"] - 0.03
    assert latency_penalty or delivery_penalty
