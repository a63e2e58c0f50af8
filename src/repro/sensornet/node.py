"""The energy-budgeted sensing node, built from the core framework.

This substrate deliberately *reuses* the framework pieces: a
:class:`~repro.core.sensors.SensorSuite` over the hidden field, a
:class:`~repro.core.knowledge.KnowledgeBase` holding beliefs, and any
:class:`~repro.core.attention.AttentionPolicy` deciding where the
per-step energy budget goes.  Experiment E7 sweeps the budget and the
policy; the salience policy is the paper's "self-awareness directs
attention" claim in executable form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:
    from ..faults.injector import FaultInjector

import numpy as np

from ..core.attention import AttentionPolicy, SalienceAttention
from ..core.knowledge import KnowledgeBase
from ..obs import events as obs_events
from ..obs import metrics as obs_metrics
from ..core.sensors import Sensor, SensorSuite
from ..core.spans import public
from .field import ChannelField
from .soa import NodeColumns


@dataclass(slots=True)
class SensingStepRecord:
    """Telemetry for one sensing step."""

    time: float
    error: float
    energy_spent: float
    channels_sampled: int


@dataclass
class SensingRunResult:
    """Outcome of one sensing run."""

    records: List[SensingStepRecord]

    def mean_error(self, skip: int = 0) -> float:
        """Mean weighted tracking error (after ``skip`` warm-up steps)."""
        steps = self.records[skip:]
        if not steps:
            return math.nan
        return sum(r.error for r in steps) / len(steps)

    def mean_energy(self) -> float:
        """Mean energy spent per step."""
        if not self.records:
            return math.nan
        return sum(r.energy_spent for r in self.records) / len(self.records)


class SensingNode:
    """One constrained node attending to a :class:`ChannelField`."""

    def __init__(self, field: ChannelField, attention: AttentionPolicy,
                 budget: float,
                 rng: Optional[np.random.Generator] = None,
                 faults: Optional["FaultInjector"] = None) -> None:
        if budget <= 0:
            raise ValueError("budget must be positive")
        self.field = field
        self.attention = attention
        self.budget = budget
        self.faults = faults
        # The column step models exactly SalienceAttention's scoring (a
        # subclass could override salience(), so `type is` not
        # isinstance); any other policy is asked through its own select().
        self._columns_step = type(attention) is SalienceAttention
        self._cols: Optional[NodeColumns] = None
        self.knowledge = KnowledgeBase()
        rng = rng if rng is not None else np.random.default_rng()
        # Built once: beliefs() is the snapshot of every served step.
        self._channel_scopes = [(name, public(name)) for name in field.specs]
        self.suite = SensorSuite()
        for name, scope in self._channel_scopes:
            spec = field.specs[name]
            self.suite.add(Sensor(
                scope=scope,
                read_fn=lambda n=name: field.truth(n),
                noise_std=spec.noise_std,
                cost=spec.sample_cost,
                rng=np.random.default_rng(rng.integers(2 ** 31))))
        # Salience policies can weight channels by their goal importance.
        if isinstance(attention, SalienceAttention):
            for name, scope in self._channel_scopes:
                attention.set_relevance(scope, field.specs[name].importance)
        self.total_energy = 0.0

    def beliefs(self) -> Dict[str, float]:
        """Current believed value per channel (absent channels omitted)."""
        value = self.knowledge.value
        out: Dict[str, float] = {}
        for name, scope in self._channel_scopes:
            believed = value(scope)
            if not math.isnan(believed):
                out[name] = believed
        return out

    def step(self, t: float) -> SensingStepRecord:
        """Advance the field, attend within budget, score the beliefs.

        An attached fault injector can skew the clock the attention
        policy sees (staleness misjudged) and drop selected samples
        before they are taken (the channel read fails this step).
        """
        self.field.step()
        faults = self.faults
        attend_t = t
        if faults is not None:
            faults.begin_step(t)
            attend_t = faults.perceived_time(t, target="attention")
        if self._columns_step:
            return self._step_columns(t, attend_t)
        return self._step_policy(t, attend_t)

    def _step_policy(self, t: float, attend_t: float) -> SensingStepRecord:
        """The step for any attention policy: ask it what to sample."""
        faults = self.faults
        scopes = self.attention.select(self.suite, self.knowledge, attend_t,
                                       self.budget)
        if faults is not None:
            scopes = [s for s in scopes if not faults.dropped(target=s.name)]
        readings = self.suite.sample_into(self.knowledge, t, scopes)
        spent = sum(self.suite.sensor(r.scope).cost for r in readings)
        self.total_energy += spent
        error = self.field.weighted_error(self.beliefs())
        return self._finish_step(t, error, spent, len(readings))

    def _finish_step(self, t: float, error: float, spent: float,
                     n_readings: int) -> SensingStepRecord:
        """Step tail: observability and the step record."""
        if obs_events.enabled():
            obs_metrics.counter("steps", sim="sensornet").increment()
            obs_metrics.counter("sensornet.energy_spent").increment(spent)
            obs_metrics.counter("sensornet.samples").increment(n_readings)
            obs_metrics.histogram("sensornet.error").observe(error)
            obs_events.emit("sensornet.step", time=t, error=error,
                            energy_spent=spent,
                            channels_sampled=n_readings)
        return SensingStepRecord(time=t, error=error, energy_spent=spent,
                                 channels_sampled=n_readings)

    def _step_columns(self, t: float, attend_t: float) -> SensingStepRecord:
        """Struct-of-arrays step for a plain :class:`SalienceAttention`.

        Byte-identical to :meth:`_step_policy` with the same policy:
        salience scoring, budget fitting and error scoring run over
        pre-resolved per-channel columns (no ``Scope`` hashing in the
        per-channel loops); the chosen sensors are still sampled one by
        one through :meth:`~repro.core.sensors.Sensor.sample` (each owns
        its RNG stream) and recorded through the shared knowledge base,
        so all visible state -- beliefs, histories, sensor counters, RNG
        positions -- is what the policy's own ``select()`` would leave.
        Staleness is judged at the perceived time ``attend_t``; dropped
        samples are filtered in selection order.
        """
        cols = self._cols
        if cols is None:
            cols = self._cols = NodeColumns(self)
        att = self.attention
        kb = self.knowledge
        k = cols.k
        scope_list = cols.scopes
        histories = cols.histories
        kb_histories = kb._histories
        rel_get = att.relevance.get
        novelty = att.novelty_bonus
        min_history = att.min_history
        window = att.volatility_window
        scale = att.staleness_scale
        costs = cols.costs

        # Salience per scope, inlined from SalienceAttention.salience
        # (same branches, same float expressions), then value density.
        density: List[float] = [0.0] * k
        for i in range(k):
            scope = scope_list[i]
            rel = rel_get(scope, 1.0)
            hist = histories[i]
            if hist is None:
                hist = kb_histories.get(scope)
                histories[i] = hist
            if hist is None or not hist:
                sal = rel * novelty
            elif len(hist) < min_history:
                sal = rel * novelty
            else:
                vol = hist.std(window)
                if math.isnan(vol):
                    vol = 0.0
                stale = max(0.0, attend_t - hist.latest.time)
                sal = rel * (vol + 1e-3) * math.sqrt(stale / scale)
            cost = costs[i]
            density[i] = sal / cost if cost > 0 else math.inf
        # Stable descending sort over scope order == the policy's
        # sorted(scopes, key=value_density, reverse=True).
        order = sorted(range(k), key=density.__getitem__, reverse=True)

        # Greedy budget fit (_fit_budget), on the precomputed costs.
        budget = self.budget
        chosen: List[int] = []
        fit_spent = 0.0
        for i in order:
            cost = costs[i]
            if cost == 0.0 or fit_spent + cost <= budget + 1e-12:
                chosen.append(i)
                fit_spent += cost
        faults = self.faults
        if faults is not None:
            chosen = [i for i in chosen
                      if not faults.dropped(target=scope_list[i].name)]
        # Sample the chosen sensors in selection order, recording valid
        # readings exactly like SensorSuite.sample_into.
        sensors = cols.sensors
        spec_of = cols.spec_of
        belief_vals = cols.belief_vals
        spent = 0  # sum()'s start: an all-dropped step spends int 0
        for i in chosen:
            sensor = sensors[i]
            reading = sensor.sample(t)
            if reading.is_valid():
                kb.observe(sensor.scope, t, reading.value)
                if histories[i] is None:
                    histories[i] = kb_histories[sensor.scope]
                belief_vals[spec_of[i]] = reading.value
            spent += sensor.cost
        self.total_energy += spent
        error = cols.weighted_error()
        return self._finish_step(t, error, spent, len(chosen))
