"""Cognitive packet network substrate (paper refs [38], [39]).

A hop-by-hop packet-forwarding simulator on dynamic topologies.  The
self-aware router (Q-routing with smart-packet exploration) continuously
monitors the delay and loss its choices achieve and re-routes around
degradation and denial-of-service attacks; baselines are design-time
static shortest paths and an omniscient oracle.  Experiment E6.
"""

from .routing import (CPNRouter, DEFAULT_QOS, DELAY_SENSITIVE,
                      LOSS_SENSITIVE, OracleRouter, QoSClass, Router,
                      StaticRouter)
from .sim import (Flow, PacketOutcome, RoutingResult, RoutingStepRecord,
                  default_flows, forward_packet)
from .topology import CPNetwork, LinkDisturbance

__all__ = [
    "CPNRouter", "DEFAULT_QOS", "DELAY_SENSITIVE", "LOSS_SENSITIVE",
    "OracleRouter", "QoSClass", "Router", "StaticRouter",
    "Flow", "PacketOutcome", "RoutingResult", "RoutingStepRecord",
    "default_flows", "forward_packet",
    "CPNetwork", "LinkDisturbance",
]
