"""Reasoners: turning self-knowledge into decisions.

The output side of the awareness loop.  A reasoner chooses among candidate
actions (configurations, routes, mappings...) using whatever knowledge the
node's capability profile grants it:

- :class:`StaticPolicy` -- the design-time classic: one fixed choice.
- :class:`UtilityReasoner` -- goal-aware model-based reasoning: predict
  each action's metric outcomes with a self-model, evaluate against the
  current :class:`~repro.core.goals.Goal`, and pick the best (weighted
  utility, or knee-of-Pareto when weightless).

Every decision returns a :class:`Decision` record carrying the evidence it
was based on, which is what makes *self-explanation* possible downstream
(:mod:`repro.core.explanation`).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Hashable, Mapping, Optional, Sequence

import numpy as np

from .goals import Goal, GoalEvaluation, knee_point
from .models import PredictiveModel


@dataclass
class Decision:
    """The outcome of one deliberation, with its supporting evidence.

    ``considered`` maps each candidate action to the predicted raw metrics
    used to judge it; ``evaluations`` maps candidates to their goal
    evaluation.  Both may be empty for non-deliberative policies.
    """

    action: Hashable
    time: float
    reason: str
    explored: bool = False
    considered: Dict[Hashable, Dict[str, float]] = field(default_factory=dict)
    evaluations: Dict[Hashable, GoalEvaluation] = field(default_factory=dict)
    goal_version: Optional[int] = None

    def margin(self) -> float:
        """Utility gap between the chosen action and the runner-up.

        A small margin indicates a close call; explanations report it and
        the meta level can treat persistent near-ties as a sign that the
        action set no longer discriminates.
        Returns ``inf`` when fewer than two candidates were evaluated.
        """
        if len(self.evaluations) < 2:
            return math.inf
        utilities = sorted((ev.utility for ev in self.evaluations.values()), reverse=True)
        return utilities[0] - utilities[1]


class Reasoner(ABC):
    """Chooses one action from a candidate set given a context."""

    @abstractmethod
    def decide(self, time: float, context: Mapping[str, float],
               actions: Sequence[Hashable]) -> Decision:
        """Choose an action at ``time`` given ``context``."""

    def learn(self, context: Mapping[str, float], action: Hashable,
              outcome: Mapping[str, float]) -> None:
        """Feed back the observed outcome of an executed action.

        Default: no learning (static and purely reactive policies).
        """


class StaticPolicy(Reasoner):
    """Always selects the same action: behaviour fixed at design time.

    The canonical baseline throughout the benchmark suite.  If the fixed
    action is absent from the offered candidates the first candidate is
    taken (a real static system would simply fail).
    """

    def __init__(self, action: Hashable) -> None:
        self.action = action

    def decide(self, time: float, context: Mapping[str, float],
               actions: Sequence[Hashable]) -> Decision:
        if not actions:
            raise ValueError("no candidate actions offered")
        chosen = self.action if self.action in actions else actions[0]
        return Decision(action=chosen, time=time,
                        reason="static design-time policy")


class UtilityReasoner(Reasoner):
    """Goal-aware, model-based deliberation.

    For each candidate action the reasoner asks its self-model what the
    raw metrics would be, evaluates that prediction against the current
    goal, and picks the feasible candidate with the highest utility
    (falling back to least-total-violation when nothing is feasible).

    Exploration: with probability ``epsilon`` -- further scaled up when
    the model's confidence in the greedy choice is low -- a uniformly
    random candidate is tried instead.  Self-aware systems must *gather*
    the experience their models are built from (Cox's point that awareness
    includes deciding what information to gather next).

    Parameters
    ----------
    goal:
        The (mutable) goal to optimise.  The reasoner reads it afresh on
        every decision, so run-time goal changes take effect immediately.
    model:
        Predictive self-model consulted per candidate.
    epsilon:
        Base exploration rate in ``[0, 1]``.
    confidence_floor:
        Below this model confidence the exploration rate is doubled.
    use_knee:
        When ``True``, selection ignores the goal's weights and picks the
        knee of the Pareto front of predicted score vectors instead
        (ablation knob for DESIGN.md design-choice 1).
    rng:
        Random generator for exploration draws.
    """

    def __init__(
        self,
        goal: Goal,
        model: PredictiveModel,
        epsilon: float = 0.1,
        confidence_floor: float = 0.3,
        use_knee: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        self.goal = goal
        self.model = model
        self.epsilon = epsilon
        self.confidence_floor = confidence_floor
        self.use_knee = use_knee
        self._rng = rng if rng is not None else np.random.default_rng()

    def decide(self, time: float, context: Mapping[str, float],
               actions: Sequence[Hashable]) -> Decision:
        if not actions:
            raise ValueError("no candidate actions offered")
        considered: Dict[Hashable, Dict[str, float]] = {}
        evaluations: Dict[Hashable, GoalEvaluation] = {}
        for action in actions:
            predicted = self.model.predict(context, action)
            considered[action] = predicted
            evaluations[action] = self.goal.evaluate(predicted)

        greedy, reason = self._select(actions, considered, evaluations)

        explore_rate = self.epsilon
        if self.model.confidence(context, greedy) < self.confidence_floor:
            explore_rate = min(1.0, 2.0 * self.epsilon)
        explored = bool(self._rng.random() < explore_rate) and len(actions) > 1
        if explored:
            others = [a for a in actions if a != greedy]
            chosen = others[int(self._rng.integers(len(others)))]
            reason = (f"exploring (rate {explore_rate:.2f}) to improve the "
                      f"self-model; greedy choice was {greedy}")
        else:
            chosen = greedy

        return Decision(
            action=chosen, time=time, reason=reason, explored=explored,
            considered=considered, evaluations=evaluations,
            goal_version=self.goal.version)

    def _select(
        self,
        actions: Sequence[Hashable],
        considered: Mapping[Hashable, Mapping[str, float]],
        evaluations: Mapping[Hashable, GoalEvaluation],
    ):
        """Greedy choice under the configured aggregation scheme."""
        feasible = [a for a in actions if evaluations[a].feasible]
        pool = feasible if feasible else list(actions)
        if not feasible:
            # Least-bad infeasible option: minimise total violation first.
            pool.sort(key=lambda a: evaluations[a].total_violation)
            worst = evaluations[pool[0]].total_violation
            pool = [a for a in pool
                    if evaluations[a].total_violation <= worst + 1e-12]
            prefix = "all candidates violate constraints; least violation, then "
        else:
            prefix = ""

        if self.use_knee and len(pool) > 1:
            vectors = [self.goal.score_vector(considered[a]) for a in pool]
            idx = knee_point(vectors)
            chosen = pool[idx if idx is not None else 0]
            return chosen, prefix + "knee of predicted Pareto front"

        chosen = max(pool, key=lambda a: evaluations[a].utility)
        return chosen, (prefix +
                        f"highest predicted utility "
                        f"{evaluations[chosen].utility:.3f} under "
                        f"goal '{self.goal.name}' v{self.goal.version}")

    def learn(self, context: Mapping[str, float], action: Hashable,
              outcome: Mapping[str, float]) -> None:
        self.model.update(context, action, outcome)
