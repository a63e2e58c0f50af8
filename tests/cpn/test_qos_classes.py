"""Tests for per-flow QoS classes in the CPN router."""

import networkx as nx
import numpy as np
import pytest

from repro.api import CPNConfig, CPNSimulator
from repro.cpn.routing import (CPNRouter, DEFAULT_QOS, DELAY_SENSITIVE,
                               LOSS_SENSITIVE, QoSClass)
from repro.cpn.sim import Flow, forward_packet
from repro.cpn.topology import CPNetwork
from repro.experiments.e6_cpn import make_theta_network


class TestQoSClass:
    def test_ready_made_classes_ordered(self):
        assert DELAY_SENSITIVE.loss_equivalent_delay \
            < DEFAULT_QOS.loss_equivalent_delay \
            < LOSS_SENSITIVE.loss_equivalent_delay

    def test_validation(self):
        with pytest.raises(ValueError):
            QoSClass(name="x", loss_equivalent_delay=-1.0)

    def test_flow_carries_qos(self):
        flow = Flow(source=0, dest=1, qos=DELAY_SENSITIVE)
        assert flow.qos is DELAY_SENSITIVE
        assert Flow(source=0, dest=1).qos is None


class TestPerClassScoring:
    def _router_with_lossy_entry(self):
        net = make_theta_network(seed=0)
        router = CPNRouter(net, rng=np.random.default_rng(0))
        # Teach the router: via node 1 is fast but lossy.
        for _ in range(20):
            router.observe_hop(0, 1, 5, delay=1.0, t=0.0)
            router.observe_hop(1, 5, 5, delay=1.0, t=0.0)
            router.observe_hop(0, 2, 5, delay=1.5, t=0.0)
            router.observe_hop(2, 3, 5, delay=1.5, t=0.0)
            router.observe_hop(3, 4, 5, delay=1.5, t=0.0)
            router.observe_hop(4, 5, 5, delay=1.5, t=0.0)
        for _ in range(5):
            router.observe_loss(0, 1, 5, t=0.0)
            router.observe_hop(0, 1, 5, delay=1.0, t=0.0)
        return router

    def test_classes_pick_different_hops(self):
        router = self._router_with_lossy_entry()
        assert router.next_hop(0, 5, 0.0, qos=DELAY_SENSITIVE) == 1
        assert router.next_hop(0, 5, 0.0, qos=LOSS_SENSITIVE) == 2

    def test_default_qos_matches_none(self):
        router = self._router_with_lossy_entry()
        # loss_penalty default equals DEFAULT_QOS weight, so the two
        # spellings agree.
        assert router.next_hop(0, 5, 0.0) == \
            router.next_hop(0, 5, 0.0, qos=DEFAULT_QOS)


class TestNoBacktrack:
    def test_avoid_excludes_previous_node(self):
        net = make_theta_network(seed=1)
        router = CPNRouter(net, rng=np.random.default_rng(1))
        hop = router.next_hop(1, 5, 0.0, avoid=0)
        assert hop != 0

    def test_avoid_relaxed_when_only_option(self):
        g = nx.path_graph(3)  # 0-1-2; from 1, dest 0, avoiding 0 -> stuck?
        net = CPNetwork(g, rng=np.random.default_rng(2))
        router = CPNRouter(net, rng=np.random.default_rng(3))
        # From node 0, dest 2, avoiding 1: node 1 is the only neighbour.
        assert router.next_hop(0, 2, 0.0, avoid=1) == 1

    def test_packets_do_not_ping_pong(self):
        net = make_theta_network(seed=4)
        router = CPNRouter(net, epsilon=0.0, rng=np.random.default_rng(4))
        outcome = forward_packet(net, router, 0, 5, 0.0)
        # The worst simple path is 4 hops; without backtracking a greedy
        # packet cannot wander much beyond it.
        assert outcome.hops <= 6


class TestEndToEndClasses:
    def test_class_aware_routing_separates_flows(self):
        net = make_theta_network(seed=5)
        router = CPNRouter(net, epsilon=0.2, rng=np.random.default_rng(5))
        flows = [Flow(source=0, dest=5, qos=DELAY_SENSITIVE),
                 Flow(source=0, dest=5, qos=LOSS_SENSITIVE)]
        CPNSimulator(CPNConfig(steps=300, smart_packets_per_flow=3),
                     network=net, router=router, flows=flows).run()
        # Converged: the two classes take different first hops.
        assert router.next_hop(0, 5, 300.0, qos=DELAY_SENSITIVE) == 1
        assert router.next_hop(0, 5, 300.0, qos=LOSS_SENSITIVE) == 2
