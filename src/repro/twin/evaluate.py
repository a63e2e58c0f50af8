"""Twin evaluation: score governor candidates against a recorded trace.

The point of the twin: given yesterday's real arrival trace, run N
governor candidates through the deterministic serving model over the
*identical* request sequence and rank them before any of them touches
production.  :func:`evaluate_candidates` builds one simulation per
candidate with the trace as its workload, runs it, and reports goodput,
p95 latency, shed fraction, mean pool and *regret* -- the goodput gap to
the best candidate on this trace.

Candidate specs are strings, substrate-dependent:

* serve traces: ``"self_aware"`` or ``"static:N"`` (a static pool of
  ``N`` workers; bare ``"static"`` uses the config default);
* cluster traces: ``"collective"``, ``"per_node"`` or ``"static"``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from ..api.adapters import make_simulator
from ..api.configs import ClusterConfig, ServeConfig
from .trace import TraceWorkload

#: Default candidate slates per substrate.
DEFAULT_CANDIDATES = {
    "serve": ("self_aware", "static:2", "static:4"),
    "cluster": ("collective", "per_node", "static"),
}


@dataclass(frozen=True)
class CandidateResult:
    """One governor candidate's score on one trace."""

    candidate: str
    goodput: float
    p95_latency: float
    shed_fraction: float
    mean_pool: float
    offered: float
    regret: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"candidate": self.candidate, "goodput": self.goodput,
                "p95_latency": self.p95_latency,
                "shed_fraction": self.shed_fraction,
                "mean_pool": self.mean_pool, "offered": self.offered,
                "regret": self.regret}


def parse_candidate(spec: str, substrate: str) -> Dict[str, Any]:
    """Config overrides for one candidate spec string."""
    spec = spec.strip()
    if substrate == "cluster":
        if spec not in ("collective", "per_node", "static"):
            raise ValueError(
                f"unknown cluster candidate {spec!r}; "
                "known: collective, per_node, static")
        return {"governor": spec}
    if spec == "self_aware":
        return {"governor": "self_aware"}
    if spec == "static":
        return {"governor": "static"}
    if spec.startswith("static:"):
        try:
            workers = int(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(
                f"bad candidate {spec!r}; static:N needs an integer N") \
                from None
        if workers < 1:
            raise ValueError(f"bad candidate {spec!r}; N must be >= 1")
        return {"governor": "static", "static_workers": workers}
    raise ValueError(
        f"unknown serve candidate {spec!r}; known: self_aware, static, "
        "static:N")


def _build_simulation(workload: TraceWorkload, overrides: Dict[str, Any],
                      *, seed: int, steps: int,
                      config_kwargs: Dict[str, Any]) -> Any:
    if workload.substrate == "cluster":
        substrate, config_cls = "cluster", ClusterConfig
    else:
        substrate, config_cls = "serve", ServeConfig
    config = config_cls(steps=steps, seed=seed,
                        **{**config_kwargs, **overrides})
    return make_simulator(substrate, config, workload=workload)


def evaluate_candidates(workload: TraceWorkload,
                        candidates: Optional[Sequence[str]] = None, *,
                        seed: int = 0, steps: Optional[int] = None,
                        warmup: Optional[int] = None,
                        **config_kwargs: Any) -> List[CandidateResult]:
    """Run every candidate over the trace; results in candidate order.

    ``steps`` defaults to the trace length; ``warmup`` defaults to the
    substrate config's warmup capped at a fifth of the trace, so short
    live recordings still score a non-empty window.  Extra keyword
    arguments are passed through to the substrate config (e.g.
    ``slo_p95=...``, ``per_worker_rate=...``).
    """
    if workload.ticks == 0:
        raise ValueError("trace is empty; nothing to replay")
    if candidates is None:
        candidates = DEFAULT_CANDIDATES.get(
            workload.substrate, DEFAULT_CANDIDATES["serve"])
    if not candidates:
        raise ValueError("need at least one candidate")
    steps = workload.ticks if steps is None else int(steps)
    config_kwargs = dict(config_kwargs)
    if warmup is None:
        default_cls = (ClusterConfig if workload.substrate == "cluster"
                       else ServeConfig)
        default_warmup = dataclasses.fields(default_cls)
        default_warmup = next(f.default for f in default_warmup
                              if f.name == "warmup")
        warmup = min(int(default_warmup), steps // 5)
    config_kwargs["warmup"] = int(warmup)
    results: List[CandidateResult] = []
    for spec in candidates:
        overrides = parse_candidate(spec, workload.substrate)
        sim = _build_simulation(workload, overrides, seed=seed, steps=steps,
                                config_kwargs=config_kwargs)
        sim.run()
        metrics = sim.metrics()
        results.append(CandidateResult(
            candidate=spec,
            goodput=float(metrics["goodput"]),
            p95_latency=float(metrics["p95_latency"]),
            shed_fraction=float(metrics["shed_fraction"]),
            mean_pool=float(metrics["mean_pool"]),
            offered=float(metrics["offered"])))
    best = max((r.goodput for r in results
                if not math.isnan(r.goodput)), default=0.0)
    return [dataclasses.replace(r, regret=best - r.goodput)
            for r in results]


def rank_candidates(results: Sequence[CandidateResult]) -> List[str]:
    """Candidate names best-first (goodput descending, name tie-break)."""
    return [r.candidate
            for r in sorted(results, key=lambda r: (-r.goodput, r.candidate))]


def render_table(results: Sequence[CandidateResult]) -> str:
    """A fixed-width report table, best candidate first."""
    ordered = sorted(results, key=lambda r: (-r.goodput, r.candidate))
    header = (f"{'candidate':<14} {'goodput':>9} {'p95':>8} "
              f"{'shed':>7} {'pool':>7} {'regret':>8}")
    lines = [header, "-" * len(header)]
    for r in ordered:
        lines.append(f"{r.candidate:<14} {r.goodput:>9.3f} "
                     f"{r.p95_latency:>8.2f} {r.shed_fraction:>7.3f} "
                     f"{r.mean_pool:>7.2f} {r.regret:>8.3f}")
    return "\n".join(lines)
