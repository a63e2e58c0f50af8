"""Tests for the routers and the forwarding simulation."""


import networkx as nx
import numpy as np
import pytest

from repro.api import CPNConfig, CPNSimulator
from repro.cpn.routing import CPNRouter, OracleRouter, StaticRouter
from repro.cpn.sim import Flow, default_flows, forward_packet
from repro.cpn.topology import CPNetwork, LinkDisturbance


def simple_net(seed=0):
    return CPNetwork.grid(3, 3, seed=seed)


class TestStaticRouter:
    def test_routes_along_shortest_path(self):
        net = simple_net()
        router = StaticRouter(net)
        outcome = forward_packet(net, router, 0, 8, 0.0)
        assert outcome.delivered
        assert outcome.hops == 4  # Manhattan distance on 3x3 grid

    def test_ignores_dynamics(self):
        net = simple_net()
        router = StaticRouter(net)
        hop_before = router.next_hop(0, 8, 0.0)
        net.add_disturbance(LinkDisturbance(edge=(0, hop_before), start=0.0,
                                            duration=100.0, delay_factor=100.0))
        assert router.next_hop(0, 8, 50.0) == hop_before


class TestOracleRouter:
    def test_reroutes_around_disturbance(self):
        g = nx.cycle_graph(4)
        net = CPNetwork(g, rng=np.random.default_rng(0))
        router = OracleRouter(net)
        router.new_step(0.0)
        net.add_disturbance(LinkDisturbance(edge=(0, 1), start=10.0,
                                            duration=100.0, delay_factor=50.0))
        router.new_step(50.0)
        assert router.next_hop(0, 2, 50.0) == 3


class TestCPNRouter:
    def test_converges_to_near_shortest_paths(self):
        net = CPNetwork.random_geometric(n=20, seed=1)
        router = CPNRouter(net, epsilon=0.2, rng=np.random.default_rng(2))
        flows = default_flows(net, n_flows=4, seed=1)
        CPNSimulator(CPNConfig(steps=500), network=net, router=router,
                     flows=flows).run()
        for flow in flows:
            true_delay = nx.shortest_path_length(net.graph, flow.source,
                                                 flow.dest, weight="delay")
            node, total, hops = flow.source, 0.0, 0
            while node != flow.dest and hops < 100:
                nxt = router.next_hop(node, flow.dest, 0.0)
                total += net.base_delay(node, nxt)
                node = nxt
                hops += 1
            assert node == flow.dest
            assert total <= 2.0 * true_delay + 0.5

    def test_loss_estimate_rises_on_losses(self):
        net = simple_net()
        router = CPNRouter(net, loss_alpha=0.5, rng=np.random.default_rng(3))
        for _ in range(5):
            router.observe_loss(0, 1, 8, 0.0)
        assert router.loss_estimate(0, 8, 1) > 0.9
        router.observe_hop(0, 1, 8, delay=1.0, t=0.0)
        assert router.loss_estimate(0, 8, 1) < 0.9  # successes decay it

    def test_lossy_link_avoided(self):
        g = nx.cycle_graph(4)
        net = CPNetwork(g, rng=np.random.default_rng(4))
        router = CPNRouter(net, loss_penalty=20.0, loss_alpha=0.5,
                           rng=np.random.default_rng(5))
        # Hammer the 0->1 entry with losses toward dest 2.
        for _ in range(10):
            router.observe_loss(0, 1, 2, 0.0)
        assert router.next_hop(0, 2, 0.0) == 3

    def test_q_backup_moves_toward_target(self):
        net = simple_net()
        router = CPNRouter(net, learning_rate=1.0,
                           rng=np.random.default_rng(6))
        router.observe_hop(0, 1, 8, delay=2.0, t=0.0)
        expected = 2.0 + router.best_remaining(1, 8)
        assert router.q_value(0, 8, 1) == pytest.approx(expected)

    def test_param_validation(self):
        net = simple_net()
        with pytest.raises(ValueError):
            CPNRouter(net, learning_rate=0.0)
        with pytest.raises(ValueError):
            CPNRouter(net, epsilon=1.5)
        with pytest.raises(ValueError):
            CPNRouter(net, loss_alpha=0.0)


class TestForwardPacket:
    def test_ttl_expiry(self):
        net = simple_net()
        router = StaticRouter(net)
        outcome = forward_packet(net, router, 0, 8, 0.0, max_hops=2)
        assert not outcome.delivered
        assert outcome.hops == 2

    def test_certain_loss_drops_packet(self):
        g = nx.path_graph(2)
        g[0][1]["loss"] = 1.0
        net = CPNetwork(g, rng=np.random.default_rng(7))
        outcome = forward_packet(net, StaticRouter(net), 0, 1, 0.0)
        assert not outcome.delivered


class TestRunRouting:
    def test_flow_validation(self):
        with pytest.raises(ValueError):
            Flow(source=1, dest=1)
        with pytest.raises(ValueError):
            Flow(source=0, dest=1, packets_per_step=0)
        net = simple_net()
        with pytest.raises(ValueError):
            CPNSimulator(CPNConfig(steps=10), network=net,
                         router=StaticRouter(net), flows=[])

    def test_records_and_windows(self):
        net = simple_net()
        net.launch_attack(victim=4, start=5.0, duration=5.0)
        result = CPNSimulator(CPNConfig(steps=20), network=net,
                              router=StaticRouter(net),
                              flows=[Flow(0, 8)]).run()
        assert len(result.records) == 20
        assert result.attack_window() == (5.0, 10.0)
        assert 0.0 <= result.delivery_rate() <= 1.0

    def test_cpn_resists_attack_better_than_static(self):
        def scenario(seed):
            net = CPNetwork.random_geometric(n=25, seed=seed)
            centrality = nx.betweenness_centrality(net.graph)
            victim = max(centrality, key=centrality.get)
            net.launch_attack(victim, start=150.0, duration=150.0,
                              loss_add=0.4)
            return net

        static_rates, cpn_rates = [], []
        for seed in range(2):
            net = scenario(seed)
            flows = default_flows(net, n_flows=5, seed=seed)
            static_rates.append(CPNSimulator(
                CPNConfig(steps=300), network=net, router=StaticRouter(net),
                flows=flows).run().delivery_rate(150, 300))
            net = scenario(seed)
            cpn = CPNRouter(net, epsilon=0.2, rng=np.random.default_rng(seed))
            cpn_rates.append(CPNSimulator(
                CPNConfig(steps=300), network=net, router=cpn,
                flows=flows).run().delivery_rate(150, 300))
        assert np.mean(cpn_rates) > np.mean(static_rates)
