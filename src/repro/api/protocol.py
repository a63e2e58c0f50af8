"""The uniform simulator protocol every substrate adapts to.

Before this facade each substrate exposed its own ad-hoc ``run_*``
entry point (removed in 2.0; see the migration table in ``DESIGN.md``)
with a private calling convention, which made cross-substrate
machinery -- the fault injector, the resilience sweep, generic
tooling -- impossible to write once.  :class:`Simulator` is the
common surface:

``reset(seed)``
    (Re)build the simulation from its config for one run: ``reset(s)``
    equals a fresh adapter over ``dataclasses.replace(config, seed=s)``.
``step()``
    Advance one tick; returns the substrate's native step record.
``snapshot()`` / ``metrics()``
    A view of current state; headline aggregate metrics over the steps
    taken so far.  Both are *fresh* (new objects aliasing no simulator
    state, so later steps never change them) and *JSON-native* (only
    ``dict``, ``list``, ``str``, ``int``, ``float`` -- NaN allowed --
    ``bool`` and ``None``, so ``json.loads(json.dumps(x)) == x`` with
    identical types): the serving layer caches and encodes them as is.

Fault plans attach at construction through this protocol: every adapter
accepts ``faults=FaultPlan(...)`` and threads the resulting injector
into the substrate's step function.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Protocol, runtime_checkable


@runtime_checkable
class Simulator(Protocol):
    """What every adapted substrate simulation offers."""

    def reset(self, seed: Optional[int] = None) -> "Simulator":
        """Rebuild the simulation (optionally reseeded); returns self."""
        ...

    def step(self) -> Any:
        """Advance one tick; returns the substrate's step record."""
        ...

    def snapshot(self) -> Dict[str, Any]:
        """A fresh, JSON-native view of the current simulation state."""
        ...

    def metrics(self) -> Dict[str, float]:
        """Fresh, JSON-native aggregate metrics over the steps taken
        since the last reset."""
        ...
