"""Self-models: descriptive, predictive and empirical models of self.

Kounev's strand of the literature (Section III) centres on systems that
build *models of themselves and their interactions with their environment*
and use them for run-time reasoning: *self-reflection* (descriptive
models), *self-prediction* (what would happen if ...), and
*self-adaptation* (acting on the models).

This module defines the model interfaces the reasoners consume plus
model implementations that learn purely from run-time experience --
the paper's argument that self-awareness reduces the need for a-priori
domain modelling depends on exactly this: models are *acquired*, not
supplied.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict, Hashable, List, Mapping, Tuple


class PredictiveModel(ABC):
    """Predicts the metric outcomes of taking an action in a context.

    Concrete models map ``(context, action)`` to a predicted raw metric
    vector.  ``confidence`` reports how much experience backs a given
    prediction, which goal reasoners and the meta level both use.
    """

    @abstractmethod
    def predict(self, context: Mapping[str, float], action: Hashable) -> Dict[str, float]:
        """Predicted raw metrics of ``action`` in ``context``."""

    @abstractmethod
    def update(self, context: Mapping[str, float], action: Hashable,
               outcome: Mapping[str, float]) -> None:
        """Learn from one observed ``(context, action, outcome)`` experience."""

    @abstractmethod
    def confidence(self, context: Mapping[str, float], action: Hashable) -> float:
        """How well-founded a prediction is, in ``[0, 1]``."""

    def reset(self) -> None:
        """Discard all learned state (metacognitive "start over").

        Default: no-op, appropriate for models with nothing learned
        (e.g. fixed priors).  Learning models override this; the
        hierarchical supervisor invokes it when it judges a child's
        knowledge to be stale beyond repair.
        """


class EmpiricalActionModel(PredictiveModel):
    """Context-free empirical model: per-action running outcome statistics.

    The simplest acquirable self-model: "when I did A, metrics looked like
    this on average".  An exponential forgetting factor lets the model track
    non-stationary worlds (ongoing change, Section II).

    Parameters
    ----------
    forgetting:
        Per-update exponential forgetting in ``(0, 1]``; ``1.0`` keeps the
        plain running mean, smaller values weight recent outcomes more.
    confidence_scale:
        Number of experiences after which confidence saturates near 1.
    """

    def __init__(self, forgetting: float = 1.0, confidence_scale: float = 10.0) -> None:
        if not 0.0 < forgetting <= 1.0:
            raise ValueError("forgetting must be in (0, 1]")
        if confidence_scale <= 0:
            raise ValueError("confidence_scale must be positive")
        self.forgetting = forgetting
        self.confidence_scale = confidence_scale
        self._means: Dict[Hashable, Dict[str, float]] = {}
        self._counts: Dict[Hashable, float] = {}

    def predict(self, context: Mapping[str, float], action: Hashable) -> Dict[str, float]:
        return dict(self._means.get(action, {}))

    def update(self, context: Mapping[str, float], action: Hashable,
               outcome: Mapping[str, float]) -> None:
        means = self._means.setdefault(action, {})
        # Effective count decays under forgetting so the step size stays
        # bounded below and the model remains plastic.
        count = self._counts.get(action, 0.0) * self.forgetting + 1.0
        self._counts[action] = count
        step = 1.0 / count
        for metric, value in outcome.items():
            old = means.get(metric, value)
            means[metric] = old + step * (value - old)

    def confidence(self, context: Mapping[str, float], action: Hashable) -> float:
        count = self._counts.get(action, 0.0)
        return count / (count + self.confidence_scale)

    def known_actions(self) -> List[Hashable]:
        """Actions with at least one recorded experience."""
        return list(self._means)

    def reset(self) -> None:
        """Forget every recorded experience."""
        self._means.clear()
        self._counts.clear()


class ContextualActionModel(PredictiveModel):
    """Empirical model conditioned on a discretised context.

    Contexts are binned by a caller-supplied ``bin_fn`` (default: round each
    context feature to one decimal); within a bin the model behaves like
    :class:`EmpiricalActionModel`.  This lets systems learn that the same
    action has different effects in different situations -- the minimum
    requirement for anticipating environment change rather than merely
    averaging over it.
    """

    def __init__(
        self,
        forgetting: float = 1.0,
        confidence_scale: float = 5.0,
        bin_fn=None,
    ) -> None:
        self._bin_fn = bin_fn if bin_fn is not None else _default_bin
        self.forgetting = forgetting
        self.confidence_scale = confidence_scale
        self._bins: Dict[Hashable, EmpiricalActionModel] = {}

    def _bin_model(self, context: Mapping[str, float]) -> EmpiricalActionModel:
        key = self._bin_fn(context)
        model = self._bins.get(key)
        if model is None:
            model = EmpiricalActionModel(
                forgetting=self.forgetting, confidence_scale=self.confidence_scale)
            self._bins[key] = model
        return model

    def predict(self, context: Mapping[str, float], action: Hashable) -> Dict[str, float]:
        local = self._bin_model(context).predict(context, action)
        if local:
            return local
        # Fall back to the pooled estimate across bins when the local bin
        # has no experience for this action yet.
        pooled: Dict[str, List[float]] = {}
        for model in self._bins.values():
            for metric, value in model.predict(context, action).items():
                pooled.setdefault(metric, []).append(value)
        return {m: sum(vs) / len(vs) for m, vs in pooled.items()}

    def update(self, context: Mapping[str, float], action: Hashable,
               outcome: Mapping[str, float]) -> None:
        self._bin_model(context).update(context, action, outcome)

    def confidence(self, context: Mapping[str, float], action: Hashable) -> float:
        return self._bin_model(context).confidence(context, action)

    def bin_count(self) -> int:
        """Number of distinct context bins with any experience."""
        return len(self._bins)

    def reset(self) -> None:
        """Forget every bin."""
        self._bins.clear()


def _default_bin(context: Mapping[str, float]) -> Tuple[Tuple[str, float], ...]:
    """Quantise every context feature to 0.25 steps to form a bin key.

    Coarse bins trade precision for sample efficiency: a run-time learner
    sees each situation only a handful of times, and fine-grained context
    keys would leave every bin starved (the knowledge-representation
    trade-off the framework literature calls out).
    """
    return tuple(sorted((k, round(4.0 * float(v)) / 4.0)
                        for k, v in context.items()))


class PriorModel(PredictiveModel):
    """A fixed, design-time model (never learns).

    Baseline for the design-time-knowledge experiment (E10): the classic
    approach encodes the designer's beliefs about action outcomes before
    deployment.  If those beliefs are wrong -- or the world changes -- the
    model stays wrong, which is precisely the failure mode self-awareness
    addresses.

    Parameters
    ----------
    table:
        Mapping of action to predicted raw metric vector.
    stated_confidence:
        The (possibly unwarranted) confidence the designer assigned.
    """

    def __init__(self, table: Mapping[Hashable, Mapping[str, float]],
                 stated_confidence: float = 1.0) -> None:
        self._table = {a: dict(m) for a, m in table.items()}
        self.stated_confidence = stated_confidence

    def predict(self, context: Mapping[str, float], action: Hashable) -> Dict[str, float]:
        return dict(self._table.get(action, {}))

    def update(self, context: Mapping[str, float], action: Hashable,
               outcome: Mapping[str, float]) -> None:
        """A design-time model ignores run-time evidence by definition."""

    def confidence(self, context: Mapping[str, float], action: Hashable) -> float:
        return self.stated_confidence if action in self._table else 0.0


class BlendedModel(PredictiveModel):
    """Prior knowledge blended with run-time experience.

    Predictions interpolate between a :class:`PriorModel` and a learned
    model, weighted by the learned model's confidence: with no experience
    the prior dominates; as evidence accumulates the learned model takes
    over.  This realises the paper's "reduce -- not eliminate -- a-priori
    modelling" framing and is ablated in E10.
    """

    def __init__(self, prior: PredictiveModel, learned: PredictiveModel) -> None:
        self.prior = prior
        self.learned = learned

    def predict(self, context: Mapping[str, float], action: Hashable) -> Dict[str, float]:
        w = self.learned.confidence(context, action)
        learned_pred = self.learned.predict(context, action)
        prior_pred = self.prior.predict(context, action)
        metrics = set(learned_pred) | set(prior_pred)
        blended: Dict[str, float] = {}
        for m in metrics:
            lp = learned_pred.get(m)
            pp = prior_pred.get(m)
            if lp is None:
                blended[m] = pp  # type: ignore[assignment]
            elif pp is None:
                blended[m] = lp
            else:
                blended[m] = w * lp + (1.0 - w) * pp
        return blended

    def update(self, context: Mapping[str, float], action: Hashable,
               outcome: Mapping[str, float]) -> None:
        self.learned.update(context, action, outcome)

    def confidence(self, context: Mapping[str, float], action: Hashable) -> float:
        return max(self.learned.confidence(context, action),
                   self.prior.confidence(context, action) * 0.5)

    def reset(self) -> None:
        """Forget the learned component; the prior is design-time state."""
        self.learned.reset()


class ModelQualityTracker:
    """Tracks a predictive model's own accuracy: the meta level's raw data.

    Records the absolute prediction error each time an outcome arrives and
    maintains an exponentially weighted error per metric.  Meta-self-aware
    systems read this to decide whether their model of self is still fit
    for purpose (e.g. after concept drift).
    """

    def __init__(self, alpha: float = 0.1) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._ewma_error: Dict[str, float] = {}
        self.observations = 0

    def record(self, predicted: Mapping[str, float], actual: Mapping[str, float]) -> float:
        """Record one prediction/outcome pair; returns the mean abs error."""
        self.observations += 1
        errors = []
        for metric, actual_value in actual.items():
            if metric not in predicted:
                continue
            err = abs(predicted[metric] - actual_value)
            errors.append(err)
            old = self._ewma_error.get(metric, err)
            self._ewma_error[metric] = old + self.alpha * (err - old)
        return sum(errors) / len(errors) if errors else math.nan

    def error(self, metric: str) -> float:
        """Current smoothed absolute error for ``metric`` (NaN if unseen)."""
        return self._ewma_error.get(metric, math.nan)

    def mean_error(self) -> float:
        """Mean smoothed error across all tracked metrics (NaN if none)."""
        if not self._ewma_error:
            return math.nan
        return sum(self._ewma_error.values()) / len(self._ewma_error)
