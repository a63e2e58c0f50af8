"""Cloud substrate: elastic autoscaling and volunteer service composition.

Two case studies from the paper's cloud strand: self-aware autoscaling of
an elastic cluster against a QoS/cost goal under changing workloads
(refs [56], [58]; experiment E3), and service composition over churning,
drifting volunteer providers (refs [14], [15]; experiment E4).
"""

from .autoscaler import (Autoscaler, OracleScaler, ReactiveScaler,
                         SelfAwareScaler, StaticScaler, make_cloud_goal)
from .cluster import ClusterMetrics, ServiceCluster
from .composition import (CompositionResult, Heartbeat, ProviderSelector,
                          RandomSelector, SelfAwareSelector,
                          StaticRankSelector, StimulusAwareSelector,
                          VolunteerPool, VolunteerProvider, run_composition)

__all__ = [
    "Autoscaler", "OracleScaler", "ReactiveScaler", "SelfAwareScaler",
    "StaticScaler", "make_cloud_goal",
    "ClusterMetrics", "ServiceCluster",
    "CompositionResult", "Heartbeat", "ProviderSelector", "RandomSelector",
    "SelfAwareSelector", "StaticRankSelector", "StimulusAwareSelector",
    "VolunteerPool", "VolunteerProvider", "run_composition",
]
