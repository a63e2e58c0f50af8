"""Composable adversarial workload scenarios: the environment as data.

The paper argues self-awareness pays off in "complex, uncertain and
dynamic environments"; this module makes those environments first-class
experimental inputs.  A :class:`Scenario` is a *frozen, seed-
deterministic spec* -- a value, like a :class:`~repro.faults.plan.FaultPlan`
-- that renders to per-tick rate vectors (and optional per-session mix
weights) consumed by any substrate that takes an offered load.  Specs
compose through a small algebra:

* ``a + b`` (:class:`Superpose`) -- rates add, e.g. a diurnal base with
  heavy-tail bursts on top;
* ``a * b`` (:class:`Modulate`) -- rates multiply, e.g. a flash-crowd
  envelope over any base profile;
* ``a.then(b, at=t)`` (:class:`Concat`) -- time concatenation with known
  change points, for adaptation-speed measurements.

Named adversarial presets live in the :data:`SCENARIOS` registry,
mirroring :data:`repro.api.SIMULATORS`: ``diurnal``, ``heavy_tail``
(Pareto inter-arrival bursts), ``flash_crowd``, ``correlated_failure``
(scenario windows that arm :mod:`repro.faults` plans) and
``markov_churn`` (the volunteer-cloud MMPP idiom).  Presets are built by
:func:`make_scenario`, which raises the same sorted-registry
``ValueError`` as :func:`repro.api.make_simulator`.

Determinism: ``scenario.render(ticks, seed)`` derives every stochastic
node's generator from ``default_rng([0x5CE4A, seed, *tree_path])``, so
the same spec, ticks and seed render a byte-identical track.  The tree
path is part of that key: re-grouping or reordering a composition
(``(a + b) + c`` against ``a + (b + c)``, or ``b + a`` against
``a + b``) moves stochastic parts to other paths and changes their
draws.  What composition does preserve is each part's own contribution:
replacing one part of a ``+`` or a ``then`` leaves every other part's
contribution byte-identical, and a deterministic part renders inside a
``then`` segment exactly as it renders alone.

Session mixes (:class:`SessionMix` and friends) describe how one offered
load splits over a session population; the cluster substrate's
Zipf/flash/uniform traffic tiers are expressed through them with
byte-identical weight vectors (see ``tests/serve/test_traffic_identity``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..faults.plan import CRASH, WORKLOAD_SPIKE, FaultPlan, FaultSpec
from .processes import MarkovModulatedProcess

#: Root of the per-node RNG seed sequence used by :meth:`Scenario.render`.
_SCENARIO_SEED_ROOT = 0x5CE4A


# ---------------------------------------------------------------------------
# Session mixes: how one offered load splits over a session population
# ---------------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class SessionMix:
    """Uniform split (the base class doubles as the ``uniform`` mix)."""

    def weights(self, t: float, n: int) -> np.ndarray:
        """Normalised popularity weights over ``n`` sessions at tick ``t``."""
        weights = np.ones(n, dtype=float)
        return weights / weights.sum()


@dataclass(frozen=True, kw_only=True)
class UniformMix(SessionMix):
    """Every session equally popular."""


@dataclass(frozen=True, kw_only=True)
class ZipfMix(SessionMix):
    """Zipf-skewed popularity: rank-j weight ~ 1/j**s."""

    s: float = 1.6

    def weights(self, t: float, n: int) -> np.ndarray:
        weights = 1.0 / np.power(np.arange(1, n + 1, dtype=float), self.s)
        return weights / weights.sum()


@dataclass(frozen=True, kw_only=True)
class FlashMix(SessionMix):
    """Uniform popularity with a flash-crowd window on the first sessions.

    On ``[at, at + length)`` the first ``sessions`` sessions multiply
    their weight by ``factor`` -- the cluster substrate's flash tier.
    """

    at: float = 160.0
    length: float = 120.0
    factor: float = 8.0
    sessions: int = 2

    def weights(self, t: float, n: int) -> np.ndarray:
        weights = np.ones(n, dtype=float)
        if self.at <= t < self.at + self.length:
            weights[:self.sessions] *= self.factor
        return weights / weights.sum()


# ---------------------------------------------------------------------------
# The rendered form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioTrack:
    """A rendered scenario: per-tick rate multipliers, ready to consume.

    ``rates[t]`` is the non-negative offered-load multiplier at tick
    ``t`` (1.0 means "the config's base load, unmodified").  ``mixes``
    is the per-tick session weight matrix when the scenario carries a
    mix and ``sessions`` was given to :meth:`Scenario.render`.  ``plan``
    is the armed :class:`~repro.faults.plan.FaultPlan` when the scenario
    schedules correlated failures, else ``None``.
    """

    rates: np.ndarray
    mixes: Optional[np.ndarray] = None
    plan: Optional[FaultPlan] = None

    @property
    def ticks(self) -> int:
        return int(len(self.rates))

    def rate_at(self, t: float) -> float:
        """Multiplier at tick ``t`` (the last tick's value past the end)."""
        index = min(int(t), len(self.rates) - 1)
        return float(self.rates[index])


# ---------------------------------------------------------------------------
# The scenario algebra
# ---------------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """A frozen, seed-deterministic workload scenario spec.

    Subclasses implement :meth:`_render` (per-tick rate multipliers
    from a node-local generator) and may contribute fault windows
    (:meth:`fault_specs`) and a session mix (:meth:`session_mix`).
    Specs are values: hashable, picklable, comparable -- they ride
    through the experiment engine's shard cache keys unchanged.
    """

    # -- rendering ---------------------------------------------------------

    def _children(self) -> Tuple["Scenario", ...]:
        return ()

    def _render(self, ticks: int, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def _render_tree(self, ticks: int, seed: int,
                     path: Tuple[int, ...]) -> np.ndarray:
        rng = np.random.default_rng([_SCENARIO_SEED_ROOT, seed, *path])
        return self._render(ticks, rng)

    def render(self, ticks: int, seed: int = 0, *,
               sessions: Optional[int] = None) -> ScenarioTrack:
        """Render to a :class:`ScenarioTrack` of ``ticks`` ticks.

        Each node in the spec tree draws from its own generator seeded
        by ``(root, seed, tree path)``, so rendering is deterministic in
        ``(spec, ticks, seed)``.  Re-grouping or reordering the spec
        moves parts to other tree paths, and so re-keys the draws of
        its stochastic parts.
        """
        if ticks <= 0:
            raise ValueError("ticks must be positive")
        rates = np.maximum(0.0, self._render_tree(ticks, seed, ()))
        mixes = None
        mix = self.session_mix()
        if sessions is not None and mix is not None:
            mixes = np.stack([mix.weights(float(t), sessions)
                              for t in range(ticks)])
        specs = self.fault_specs(ticks)
        plan = FaultPlan(specs=specs, seed=seed) if specs else None
        return ScenarioTrack(rates=rates, mixes=mixes, plan=plan)

    # -- optional channels -------------------------------------------------

    def fault_specs(self, ticks: int) -> Tuple[FaultSpec, ...]:
        """Fault windows this scenario arms (correlated-failure presets)."""
        specs: Tuple[FaultSpec, ...] = ()
        for child in self._children():
            specs = specs + child.fault_specs(ticks)
        return specs

    def session_mix(self) -> Optional[SessionMix]:
        """The session mix, when this scenario shapes a population split."""
        for child in self._children():
            mix = child.session_mix()
            if mix is not None:
                return mix
        return None

    # -- algebra -----------------------------------------------------------

    def superpose(self, other: "Scenario") -> "Superpose":
        """Additive composition: rates add tick-wise (``a + b``)."""
        return Superpose(parts=(self, other))

    def modulate(self, other: "Scenario") -> "Modulate":
        """Multiplicative composition: rates multiply tick-wise (``a * b``)."""
        return Modulate(base=self, envelope=other)

    def then(self, other: "Scenario", *, at: int) -> "Concat":
        """Time concatenation: this scenario until ``at``, then ``other``."""
        return Concat(parts=(self, other), breakpoints=(at,))

    def __add__(self, other: "Scenario") -> "Superpose":
        return self.superpose(other)

    def __mul__(self, other: "Scenario") -> "Modulate":
        return self.modulate(other)


# -- primitives -------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class Constant(Scenario):
    """A flat multiplier (the identity scenario at ``level=1.0``)."""

    level: float = 1.0

    def _render(self, ticks: int, rng: np.random.Generator) -> np.ndarray:
        return np.full(ticks, self.level, dtype=float)


@dataclass(frozen=True, kw_only=True)
class Diurnal(Scenario):
    """Deterministic day/night seasonality: ``base + amp * sin``."""

    base: float = 1.0
    amplitude: float = 0.5
    period: float = 200.0
    phase: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("period must be positive")

    def _render(self, ticks: int, rng: np.random.Generator) -> np.ndarray:
        t = np.arange(ticks, dtype=float)
        return self.base + self.amplitude * np.sin(
            2.0 * math.pi * t / self.period + self.phase)


@dataclass(frozen=True, kw_only=True)
class HeavyTail(Scenario):
    """Pareto inter-arrival bursts: long calms, then clustered spikes.

    Burst epochs arrive with heavy-tailed gaps ``gap * (1 + Pareto(alpha))``
    and heavy-tailed magnitudes ``scale * (1 + Pareto(alpha))``; each
    burst decays geometrically over the following ticks.  ``alpha`` near
    1 makes both gaps and magnitudes wild; large ``alpha`` approaches a
    regular pulse train.
    """

    base: float = 1.0
    alpha: float = 1.5
    gap: float = 40.0
    scale: float = 3.0
    decay: float = 0.65

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.gap <= 0:
            raise ValueError("gap must be positive")
        if not 0.0 <= self.decay < 1.0:
            raise ValueError("decay must be in [0, 1)")

    def _render(self, ticks: int, rng: np.random.Generator) -> np.ndarray:
        rates = np.full(ticks, self.base, dtype=float)
        t = self.gap * (1.0 + float(rng.pareto(self.alpha)))
        while t < ticks:
            magnitude = self.scale * (1.0 + float(rng.pareto(self.alpha)))
            tick = int(t)
            while tick < ticks and magnitude > 1e-3:
                rates[tick] += magnitude
                magnitude *= self.decay
                tick += 1
            t += self.gap * (1.0 + float(rng.pareto(self.alpha)))
        return rates


@dataclass(frozen=True, kw_only=True)
class FlashCrowd(Scenario):
    """A flash-crowd window: ``factor``x load on ``[at, at + length)``.

    Doubles as a session mix (:class:`FlashMix`): when rendered with a
    session population, the first ``sessions`` sessions absorb the
    crowd -- the cluster substrate's flash tier.
    """

    at: float = 160.0
    length: float = 120.0
    factor: float = 8.0
    sessions: int = 2

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("length must be positive")
        if self.factor < 0:
            raise ValueError("factor must be non-negative")

    def _render(self, ticks: int, rng: np.random.Generator) -> np.ndarray:
        rates = np.ones(ticks, dtype=float)
        t = np.arange(ticks, dtype=float)
        window = (t >= self.at) & (t < self.at + self.length)
        rates[window] = self.factor
        return rates

    def session_mix(self) -> Optional[SessionMix]:
        return FlashMix(at=self.at, length=self.length,
                        factor=self.factor, sessions=self.sessions)


@dataclass(frozen=True, kw_only=True)
class MarkovChurn(Scenario):
    """Markov-modulated load: the volunteer-cloud MMPP idiom.

    A hidden two-state chain (stay probability ``stay``) pins the rate
    to ``low`` or ``high``; optional Gaussian noise rides on top.  The
    chain is :class:`~repro.envgen.processes.MarkovModulatedProcess`,
    driven from the node's render generator.
    """

    low: float = 0.6
    high: float = 1.6
    stay: float = 0.95
    noise_std: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.stay < 1.0:
            raise ValueError("stay must be in (0, 1)")

    def _render(self, ticks: int, rng: np.random.Generator) -> np.ndarray:
        chain = MarkovModulatedProcess.two_state(
            low=self.low, high=self.high, stay=self.stay,
            noise_std=self.noise_std, rng=rng)
        return np.array([chain.step() for _ in range(ticks)], dtype=float)


@dataclass(frozen=True, kw_only=True)
class CorrelatedFailure(Scenario):
    """A failure storm: load stays flat, but the window arms fault plans.

    On ``[at, at + length)`` every kind in ``kinds`` becomes an active
    :class:`~repro.faults.plan.FaultSpec` at ``intensity`` -- crash plus
    workload-spike by default, the "correlated failure" everyone's
    capacity model gets wrong.  :meth:`Scenario.render` packages the
    specs as a :class:`~repro.faults.plan.FaultPlan` seeded by the
    render seed; substrates arm an injector from it.
    """

    at: float = 200.0
    length: float = 60.0
    intensity: float = 0.5
    kinds: Tuple[str, ...] = (CRASH, WORKLOAD_SPIKE)
    target: Optional[str] = None

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError("length must be positive")
        if not self.kinds:
            raise ValueError("need at least one fault kind")

    def _render(self, ticks: int, rng: np.random.Generator) -> np.ndarray:
        return np.ones(ticks, dtype=float)

    def fault_specs(self, ticks: int) -> Tuple[FaultSpec, ...]:
        end = min(float(ticks), self.at + self.length)
        if end <= self.at:
            return ()
        return tuple(FaultSpec(kind=kind, start=self.at, end=end,
                               intensity=self.intensity, target=self.target)
                     for kind in self.kinds)


# -- combinators ------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class Superpose(Scenario):
    """Additive composition: the sum of the parts' rates."""

    parts: Tuple[Scenario, ...]

    def __post_init__(self) -> None:
        if len(self.parts) < 2:
            raise ValueError("superpose needs at least two parts")

    def _children(self) -> Tuple[Scenario, ...]:
        return self.parts

    def _render_tree(self, ticks: int, seed: int,
                     path: Tuple[int, ...]) -> np.ndarray:
        total = self.parts[0]._render_tree(ticks, seed, path + (0,))
        for i, part in enumerate(self.parts[1:], start=1):
            total = total + part._render_tree(ticks, seed, path + (i,))
        return total


@dataclass(frozen=True, kw_only=True)
class Modulate(Scenario):
    """Multiplicative composition: ``base`` shaped by ``envelope``."""

    base: Scenario
    envelope: Scenario

    def _children(self) -> Tuple[Scenario, ...]:
        return (self.base, self.envelope)

    def _render_tree(self, ticks: int, seed: int,
                     path: Tuple[int, ...]) -> np.ndarray:
        return (self.base._render_tree(ticks, seed, path + (0,))
                * self.envelope._render_tree(ticks, seed, path + (1,)))


@dataclass(frozen=True, kw_only=True)
class Concat(Scenario):
    """Piecewise concatenation with known change points.

    ``breakpoints[i]`` is the tick where ``parts[i + 1]`` takes over;
    each part renders on its own local clock starting at 0.  Fault
    windows from a part are shifted by its segment start and clipped to
    its segment.  Session mixes do not concatenate (their windows are
    absolute-time specs); compose mixes directly instead.
    """

    parts: Tuple[Scenario, ...]
    breakpoints: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.breakpoints) != len(self.parts) - 1:
            raise ValueError("need exactly one breakpoint between parts")
        if any(b <= 0 for b in self.breakpoints):
            raise ValueError("breakpoints must be positive")
        if list(self.breakpoints) != sorted(set(self.breakpoints)):
            raise ValueError("breakpoints must be strictly increasing")

    def _children(self) -> Tuple[Scenario, ...]:
        return self.parts

    def _segments(self, ticks: int):
        starts = (0,) + self.breakpoints
        ends = self.breakpoints + (ticks,)
        return zip(self.parts, starts, ends)

    def _render_tree(self, ticks: int, seed: int,
                     path: Tuple[int, ...]) -> np.ndarray:
        rates = np.zeros(ticks, dtype=float)
        for i, (part, start, end) in enumerate(self._segments(ticks)):
            if start >= ticks:
                break
            length = max(0, min(end, ticks) - start)
            if length > 0:
                rendered = part._render_tree(length, seed, path + (i,))
                rates[start:start + length] = rendered
        return rates

    def fault_specs(self, ticks: int) -> Tuple[FaultSpec, ...]:
        specs = []
        for part, start, end in self._segments(ticks):
            if start >= ticks:
                break
            length = max(0, min(end, ticks) - start)
            for spec in part.fault_specs(length):
                specs.append(FaultSpec(
                    kind=spec.kind, start=spec.start + start,
                    end=min(spec.end + start, float(min(end, ticks))),
                    intensity=spec.intensity, target=spec.target))
        return tuple(specs)

    def session_mix(self) -> Optional[SessionMix]:
        return None


# ---------------------------------------------------------------------------
# The preset registry
# ---------------------------------------------------------------------------

#: Named adversarial presets: name -> factory of a frozen spec, exactly
#: as :data:`repro.api.SIMULATORS` maps substrate names to classes.
#: Factories accept keyword overrides for their primitive's fields.
SCENARIOS: Dict[str, Callable[..., Scenario]] = {
    "steady": Constant,
    "diurnal": Diurnal,
    "heavy_tail": HeavyTail,
    "flash_crowd": FlashCrowd,
    "correlated_failure": CorrelatedFailure,
    "markov_churn": MarkovChurn,
}


def make_scenario(name: str, **overrides) -> Scenario:
    """Build the named preset (see :data:`SCENARIOS`).

    Raises ``ValueError`` -- not a bare ``KeyError`` -- on an unknown
    name, listing the registered scenarios so the caller's typo is a
    one-glance fix (the :func:`repro.api.make_simulator` convention).
    """
    try:
        factory = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(
            f"unknown scenario {name!r}; known: {known}") from None
    return factory(**overrides)
