"""Meta-self-awareness: being aware of one's own awareness.

Morin's highest level (Section IV): advanced organisms are aware *that*
they are self-aware -- in computational terms, a system that monitors the
quality of its own models and reasoning processes and can change them.
Cox's metacognitive loop (Section III) is the engineering reading: learn
and reason about, and therefore act on, one's own reasoning.

:class:`MetaReasoner` wraps a portfolio of sub-reasoners (strategies).
It delegates decisions to the active strategy while monitoring each
strategy's *realised* utility; when the active strategy underperforms --
detected either by a pluggable drift detector on the utility stream or by
sliding-window comparison against the portfolio -- it switches.  The
switching trigger is an explicit design-choice knob (DESIGN.md choice 3,
ablated in E8).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Hashable, List, Mapping, Optional, Sequence

from ..obs import events as obs_events
from ..obs import metrics as obs_metrics
from .reasoner import Decision, Reasoner


@dataclass
class StrategyStats:
    """Per-strategy bookkeeping the meta level maintains about itself."""

    decisions: int = 0
    active_steps: int = 0
    window: Deque[float] = field(default_factory=lambda: deque(maxlen=64))

    def record(self, utility: float) -> None:
        self.decisions += 1
        self.window.append(utility)

    @property
    def recent_utility(self) -> float:
        """Mean realised utility over the recent window (NaN when empty)."""
        if not self.window:
            return math.nan
        return sum(self.window) / len(self.window)


@dataclass
class SwitchEvent:
    """A recorded strategy switch, for self-explanation."""

    time: float
    from_strategy: str
    to_strategy: str
    reason: str


class MetaReasoner(Reasoner):
    """A reasoner about reasoners: monitors and switches its own strategy.

    Parameters
    ----------
    strategies:
        Named portfolio of sub-reasoners.  All of them receive ``learn``
        feedback (so dormant strategies stay warm); only the active one
        decides.
    initial:
        Name of the initially active strategy (default: first).
    detector_factory:
        Zero-argument callable building a fresh drift detector for the
        active strategy's utility stream: anything whose ``update(value)``
        returns ``True`` on a change, such as
        :class:`~repro.learning.drift.PageHinkley`.  ``None`` disables
        drift-based switching.
    probe_interval:
        Every ``probe_interval`` decisions, one decision is delegated to a
        non-active strategy chosen round-robin, so the meta level keeps
        fresh evidence about alternatives.  ``0`` disables probing.
    switch_margin:
        A rival must beat the active strategy's recent utility by this
        margin before a window-comparison switch fires (hysteresis against
        thrashing).
    cooldown:
        Minimum number of decisions between switches.
    """

    def __init__(
        self,
        strategies: Mapping[str, Reasoner],
        initial: Optional[str] = None,
        detector_factory=None,
        probe_interval: int = 10,
        switch_margin: float = 0.05,
        cooldown: int = 20,
    ) -> None:
        if not strategies:
            raise ValueError("need at least one strategy")
        self.strategies: Dict[str, Reasoner] = dict(strategies)
        self.active = initial if initial is not None else next(iter(self.strategies))
        if self.active not in self.strategies:
            raise ValueError(f"unknown initial strategy {self.active!r}")
        self._detector_factory = detector_factory
        self._detector = detector_factory() if detector_factory else None
        self.probe_interval = probe_interval
        self.switch_margin = switch_margin
        self.cooldown = cooldown
        self.stats: Dict[str, StrategyStats] = {
            name: StrategyStats() for name in self.strategies}
        self.switches: List[SwitchEvent] = []
        self._decision_count = 0
        self._since_switch = 0
        self._probe_cursor = 0
        self._last_delegate: Optional[str] = None
        # Provenance: seq ids of the recent ``meta.utility`` events --
        # the evidence a switch decision is based on.  ``meta.switch``
        # events cite them as causes, and the core loop cites the last
        # switch itself (see ``last_switch_seq``).
        self._utility_seqs: Deque[int] = deque(maxlen=8)
        self.last_switch_seq: Optional[int] = None

    # -- awareness of own awareness ---------------------------------------

    def self_assessment(self) -> Dict[str, float]:
        """The meta level's current view of its own strategies' quality."""
        return {name: st.recent_utility for name, st in self.stats.items()}

    def describe(self) -> str:
        """Narrative of the meta level's state, for self-explanation."""
        assessment = ", ".join(
            f"{n}={u:.3f}" if not math.isnan(u) else f"{n}=?"
            for n, u in self.self_assessment().items())
        return (f"active strategy '{self.active}' after "
                f"{len(self.switches)} switch(es); recent utilities: {assessment}")

    # -- Reasoner interface -------------------------------------------------

    def decide(self, time: float, context: Mapping[str, float],
               actions: Sequence[Hashable]) -> Decision:
        self._decision_count += 1
        self._since_switch += 1
        delegate_name = self.active
        probing = False
        if (self.probe_interval > 0 and len(self.strategies) > 1
                and self._decision_count % self.probe_interval == 0):
            others = [n for n in self.strategies if n != self.active]
            delegate_name = others[self._probe_cursor % len(others)]
            self._probe_cursor += 1
            probing = True
        self._last_delegate = delegate_name
        decision = self.strategies[delegate_name].decide(time, context, actions)
        self.stats[delegate_name].active_steps += 1
        suffix = (f" [meta: probing strategy '{delegate_name}']" if probing
                  else f" [meta: strategy '{delegate_name}']")
        decision.reason = decision.reason + suffix
        return decision

    def learn(self, context: Mapping[str, float], action: Hashable,
              outcome: Mapping[str, float]) -> None:
        for strategy in self.strategies.values():
            strategy.learn(context, action, outcome)

    # -- the metacognitive loop -------------------------------------------

    def observe_utility(self, time: float, utility: float) -> Optional[SwitchEvent]:
        """Feed the realised utility of the last decision; maybe switch.

        Call once per step after the outcome is known.  Returns the switch
        event when one occurred.
        """
        credited = self._last_delegate if self._last_delegate is not None else self.active
        self.stats[credited].record(utility)
        if obs_events.enabled():
            # The meta level measures its own reasoners through the same
            # telemetry substrate everything else uses: one event per
            # observed utility, plus a per-strategy utility histogram.
            observed = obs_events.emit(
                "meta.utility", time=time, strategy=credited,
                active=self.active, utility=utility)
            if observed is not None:
                self._utility_seqs.append(observed.seq)
            obs_metrics.histogram("meta.strategy_utility",
                                  strategy=credited).observe(utility)

        if len(self.strategies) < 2 or self._since_switch < self.cooldown:
            return None

        # Trigger A: drift detector on the active strategy's utility stream.
        if self._detector is not None and credited == self.active:
            if self._detector.update(utility):
                return self._switch(time, reason="drift detected in own utility stream")

        # Trigger B: a rival's recent utility beats the active one's by margin.
        active_u = self.stats[self.active].recent_utility
        if not math.isnan(active_u):
            best_name, best_u = self.active, active_u
            for name, st in self.stats.items():
                u = st.recent_utility
                if name != self.active and not math.isnan(u) and u > best_u:
                    best_name, best_u = name, u
            if best_name != self.active and best_u - active_u > self.switch_margin:
                return self._switch(
                    time, to=best_name,
                    reason=(f"strategy '{best_name}' recently outperforms "
                            f"'{self.active}' by {best_u - active_u:.3f}"))
        return None

    def _switch(self, time: float, to: Optional[str] = None,
                reason: str = "") -> SwitchEvent:
        """Change the active strategy (to ``to``, or the best-looking rival)."""
        if to is None:
            candidates = {n: st.recent_utility for n, st in self.stats.items()
                          if n != self.active and not math.isnan(st.recent_utility)}
            if candidates:
                to = max(candidates, key=candidates.get)
            else:
                others = [n for n in self.strategies if n != self.active]
                to = others[0]
        event = SwitchEvent(time=time, from_strategy=self.active,
                            to_strategy=to, reason=reason)
        self.switches.append(event)
        self.active = to
        self._since_switch = 0
        if self._detector_factory is not None:
            self._detector = self._detector_factory()
        if obs_events.enabled():
            # The switch decision cites the utility observations it was
            # based on -- the causal chain the explanation store resolves.
            emitted = obs_events.emit(
                "meta.switch", time=time,
                from_strategy=event.from_strategy,
                to_strategy=event.to_strategy,
                reason=event.reason,
                causes=tuple(self._utility_seqs))
            if emitted is not None:
                self.last_switch_seq = emitted.seq
            obs_metrics.counter("meta.switches").increment()
        return event


class SwitchHistory(List[SwitchEvent]):
    """A switch sequence that knows whether its source stream was complete.

    Behaves exactly like the list :func:`switches_from_events` used to
    return, plus a ``truncated`` flag: ``True`` when the stream showed
    seq gaps (ring-buffer overflow, partial trace) or the caller passed
    a non-zero drop count -- the reconstruction may then be missing
    switches and must not be presented as the full history.
    """

    def __init__(self, switches: Sequence[SwitchEvent] = (),
                 truncated: bool = False) -> None:
        super().__init__(switches)
        self.truncated = truncated


def switches_from_events(events, dropped: int = 0) -> SwitchHistory:
    """Reconstruct the switch history from a telemetry event stream.

    Accepts any iterable of :class:`repro.obs.events.Event` (e.g.
    ``bus.events()`` or a parsed JSONL trace's event dicts) and returns
    the :class:`SwitchHistory` it encodes -- the meta level's decisions
    are reproducible from telemetry alone, with no access to the
    reasoner object.

    Pass the *full* stream (``bus.events()`` with no name filter, or
    every trace record): seq discontinuities are how a lossy stream is
    detected, and any gap -- or a non-zero ``dropped`` count, e.g.
    ``bus.dropped`` -- sets the result's ``truncated`` flag instead of
    returning a silently incomplete history.
    """
    switches = SwitchHistory(truncated=bool(dropped))
    next_seq: Optional[int] = None
    for event in events:
        if isinstance(event, Mapping):
            name, fields = event.get("event"), event
            seq = event.get("seq")
        else:
            name, fields, seq = event.name, event.fields, event.seq
        if seq is not None:
            seq = int(seq)
            if next_seq is not None and seq != next_seq:
                switches.truncated = True
            next_seq = seq + 1
        if name != "meta.switch":
            continue
        switches.append(SwitchEvent(
            time=fields["time"], from_strategy=fields["from_strategy"],
            to_strategy=fields["to_strategy"], reason=fields["reason"]))
    return switches
