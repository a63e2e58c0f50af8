"""pyselfaware: computational self-awareness, from psychology to engineering.

A full reproduction of the framework described in Peter R. Lewis,
*"Self-aware Computing Systems: From Psychology to Engineering"*
(DATE 2017), together with simulators for every case-study substrate the
paper grounds the framework in, and a benchmark suite testing the paper's
central hypothesis: systems that engage in self-awareness can better
manage trade-offs between goals at run time in complex, uncertain and
dynamic environments.

Subpackages
-----------
``repro.core``
    The framework: levels, spans, knowledge, self-models, goals,
    reasoners, self-expression, meta-self-awareness, self-explanation,
    attention, collective self-awareness.
``repro.learning``
    Common learning techniques (an ε-greedy bandit, RLS, forecasting,
    drift detection).
``repro.envgen``
    Synthetic environment and workload generators (drift, shocks,
    seasonality, Markov modulation).
``repro.metrics``
    Multi-objective evaluation: Pareto coverage and spread, regret,
    adaptation metrics, a linear percentile.
``repro.smartcamera`` / ``repro.cloud`` / ``repro.multicore`` /
``repro.cpn`` / ``repro.sensornet`` / ``repro.swarm``
    The case-study substrates, each with self-aware and baseline
    controllers.
``repro.experiments``
    The experiment harness and one module per experiment in DESIGN.md.
``repro.obs``
    Observability: structured events, metrics (streaming percentiles),
    phase timers and JSONL trace export, wired through the core loop,
    every simulator and the experiment harness.  Off by default.
"""

from . import core, learning, obs

__version__ = "8.0.0"

__all__ = ["core", "learning", "obs", "__version__"]
