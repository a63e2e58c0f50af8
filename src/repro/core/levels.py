"""Levels of computational self-awareness.

The paper's second framework concept (Section IV) is that self-awareness is
not monolithic: organisms -- and computing systems -- exhibit *levels* of
self-awareness of increasing sophistication.  Following Lewis et al. the
levels here are a translation of Neisser's levels of human self-knowledge
into capabilities a computing system may or may not possess:

``STIMULUS``
    Awareness of individual environmental and internal stimuli as they
    occur (Neisser's *ecological self*).  A stimulus-aware system can react,
    but holds no model of interactions or history.

``INTERACTION``
    Awareness of interactions with other entities and of the system's role
    within a wider collective (Neisser's *interpersonal self*).

``TIME``
    Awareness of history and of likely futures: the system keeps traces of
    past phenomena and can extrapolate (Neisser's *extended self*).

``GOAL``
    Awareness of the system's own goals, constraints and trade-offs between
    them, including the fact that goals may change at run time (Neisser's
    *private/conceptual self*).

``META``
    Meta-self-awareness: awareness of the system's own awareness -- which
    models it runs, how well they perform, and the ability to reason about
    and change them (Morin's meta-self-awareness).

Levels are partially cumulative in practice ("full-stack" self-awareness
spans all of them), but the framework deliberately permits *minimal*
systems that implement only the levels they need; :class:`CapabilityProfile`
captures an arbitrary subset.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Iterator


class SelfAwarenessLevel(enum.IntEnum):
    """One level of computational self-awareness.

    The integer ordering encodes increasing sophistication and is used by
    ablation experiments (E1) to construct progressively more capable
    controllers.  Ordering does **not** imply strict prerequisite: a system
    may be time-aware without being interaction-aware.
    """

    STIMULUS = 1
    INTERACTION = 2
    TIME = 3
    GOAL = 4
    META = 5

    @property
    def neisser_name(self) -> str:
        """The human-psychology (Neisser/Morin) counterpart of this level."""
        return _NEISSER_NAMES[self]

    def describe(self) -> str:
        """Return a one-line description suitable for self-explanation."""
        return _DESCRIPTIONS[self]


_NEISSER_NAMES = {
    SelfAwarenessLevel.STIMULUS: "ecological self",
    SelfAwarenessLevel.INTERACTION: "interpersonal self",
    SelfAwarenessLevel.TIME: "extended self",
    SelfAwarenessLevel.GOAL: "private/conceptual self",
    SelfAwarenessLevel.META: "meta-self-awareness",
}

_DESCRIPTIONS = {
    SelfAwarenessLevel.STIMULUS: (
        "aware of individual internal and external stimuli as they occur"
    ),
    SelfAwarenessLevel.INTERACTION: (
        "aware of interactions with other entities and its role among them"
    ),
    SelfAwarenessLevel.TIME: (
        "aware of past phenomena and able to anticipate likely futures"
    ),
    SelfAwarenessLevel.GOAL: (
        "aware of its own goals, constraints and the trade-offs between them"
    ),
    SelfAwarenessLevel.META: (
        "aware of its own awareness: which models it runs and how well"
    ),
}


@dataclass(frozen=True)
class CapabilityProfile:
    """The set of self-awareness levels a system possesses.

    The framework stresses that "full-stack" awareness is not always
    appropriate; a profile names exactly which capabilities are present so
    that architectures can be assembled minimally and compared in
    ablation studies.

    Parameters
    ----------
    levels:
        The levels present.  Stored as a frozenset; iteration order is by
        increasing level.
    """

    levels: FrozenSet[SelfAwarenessLevel] = field(default_factory=frozenset)

    @classmethod
    def of(cls, *levels: SelfAwarenessLevel) -> "CapabilityProfile":
        """Build a profile from explicit levels."""
        return cls(frozenset(levels))

    @classmethod
    def up_to(cls, level: SelfAwarenessLevel) -> "CapabilityProfile":
        """Cumulative profile containing every level up to ``level``.

        Used by the E1 ablation, which grows capability one level at a time.
        """
        return cls(frozenset(lv for lv in SelfAwarenessLevel if lv <= level))

    @classmethod
    def full_stack(cls) -> "CapabilityProfile":
        """Profile with every level (including meta-self-awareness)."""
        return cls(frozenset(SelfAwarenessLevel))

    @classmethod
    def minimal(cls) -> "CapabilityProfile":
        """Stimulus-awareness only: the least self-aware reactive system."""
        return cls(frozenset({SelfAwarenessLevel.STIMULUS}))

    def has(self, level: SelfAwarenessLevel) -> bool:
        """Whether ``level`` is present in this profile."""
        return level in self.levels

    def with_level(self, level: SelfAwarenessLevel) -> "CapabilityProfile":
        """Return a new profile that additionally possesses ``level``."""
        return CapabilityProfile(self.levels | {level})

    def without_level(self, level: SelfAwarenessLevel) -> "CapabilityProfile":
        """Return a new profile lacking ``level`` (for ablations)."""
        return CapabilityProfile(self.levels - {level})

    def is_meta_self_aware(self) -> bool:
        """Whether the profile includes the meta level."""
        return SelfAwarenessLevel.META in self.levels

    def dominates(self, other: "CapabilityProfile") -> bool:
        """Whether this profile is a strict superset of ``other``."""
        return self.levels > other.levels

    def __iter__(self) -> Iterator[SelfAwarenessLevel]:
        return iter(sorted(self.levels))

    def __len__(self) -> int:
        return len(self.levels)

    def __contains__(self, level: object) -> bool:
        return level in self.levels

    def describe(self) -> str:
        """Human-readable summary for self-explanation reports."""
        if not self.levels:
            return "no self-awareness (pre-reflective)"
        names = ", ".join(lv.name.lower() for lv in self)
        return f"self-awareness levels: {names}"


def ladder(up_to_level: SelfAwarenessLevel = SelfAwarenessLevel.META) -> Iterable[CapabilityProfile]:
    """Yield cumulative profiles from minimal to ``up_to_level``.

    ``ladder()`` produces the sequence used by the levels-ablation
    experiment: stimulus; stimulus+interaction; ...; full stack.
    """
    for level in SelfAwarenessLevel:
        if level > up_to_level:
            break
        yield CapabilityProfile.up_to(level)
