"""The computational self-awareness framework (the paper's contribution).

This package translates the psychology-derived concepts of the paper into
an engineering API:

- levels of self-awareness (:mod:`~repro.core.levels`),
- public/private awareness spans (:mod:`~repro.core.spans`),
- self-knowledge (:mod:`~repro.core.knowledge`),
- self-models (:mod:`~repro.core.models`),
- goals and run-time trade-offs (:mod:`~repro.core.goals`),
- reasoners and self-expression (:mod:`~repro.core.reasoner`,
  :mod:`~repro.core.actuators`),
- meta-self-awareness (:mod:`~repro.core.meta`),
- self-explanation (:mod:`~repro.core.explanation`),
- attention (:mod:`~repro.core.attention`),
- collective self-awareness (:mod:`~repro.core.collective`),
- the assembled node and loop (:mod:`~repro.core.node`,
  :mod:`~repro.core.loop`, :mod:`~repro.core.patterns`).
"""

from .actuators import ActuationResult, Actuator, ExpressionEngine, Guard
from .assessment import SelfAssessment, assess
from .attention import (AttentionPolicy, FullAttention, RandomAttention,
                        RoundRobinAttention, SalienceAttention)
from .collective import (AggregationResult, CentralAggregator,
                         CommunicationNetwork, GossipEstimator,
                         HierarchicalAggregator)
from .explanation import ExplanationLog, ExplanationReport, LoggedStep, narrate
from .goals import (Constraint, Goal, GoalEvaluation, Objective, dominates,
                    knee_point, pareto_front)
from .hierarchy import Intervention, Supervisor
from .knowledge import Belief, History, KnowledgeBase, Observation
from .levels import CapabilityProfile, SelfAwarenessLevel, ladder
from .loop import (Environment, SimulationClock, Trace, TraceStep,
                   run_control_loop)
from .meta import (MetaReasoner, StrategyStats, SwitchEvent, SwitchHistory,
                   switches_from_events)
from .models import (BlendedModel, ContextualActionModel, EmpiricalActionModel,
                     ModelQualityTracker, PredictiveModel, PriorModel)
from .node import SelfAwareNode, StepResult
from .patterns import (build_model, build_node, build_reasoner,
                       build_static_node, clone_goal)
from .reasoner import Decision, Reasoner, StaticPolicy, UtilityReasoner
from .sensors import Sensor, SensorReading, SensorSuite
from .spans import Scope, Span, private, public

__all__ = [
    "ActuationResult", "Actuator", "ExpressionEngine", "Guard",
    "SelfAssessment", "assess",
    "AttentionPolicy", "FullAttention", "RandomAttention",
    "RoundRobinAttention", "SalienceAttention",
    "AggregationResult", "CentralAggregator", "CommunicationNetwork",
    "GossipEstimator", "HierarchicalAggregator",
    "ExplanationLog", "ExplanationReport", "LoggedStep", "narrate",
    "Constraint", "Goal", "GoalEvaluation", "Objective", "dominates",
    "knee_point", "pareto_front",
    "Intervention", "Supervisor",
    "Belief", "History", "KnowledgeBase", "Observation",
    "CapabilityProfile", "SelfAwarenessLevel", "ladder",
    "Environment", "SimulationClock", "Trace", "TraceStep", "run_control_loop",
    "MetaReasoner", "StrategyStats", "SwitchEvent", "SwitchHistory",
    "switches_from_events",
    "BlendedModel", "ContextualActionModel", "EmpiricalActionModel",
    "ModelQualityTracker", "PredictiveModel", "PriorModel",
    "SelfAwareNode", "StepResult",
    "build_model", "build_node", "build_reasoner", "build_static_node",
    "clone_goal",
    "Decision", "Reasoner", "StaticPolicy", "UtilityReasoner",
    "Sensor", "SensorReading", "SensorSuite",
    "Scope", "Span", "private", "public",
]
