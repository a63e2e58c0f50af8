"""Parallel seed-sharded execution engine with on-disk result caching.

The experiment suite decomposes naturally into ``(experiment, seed)``
shards: every ``eN_*`` module exposes a picklable
``run_shard(seed, **params)`` returning a JSON-safe payload, and a
``reduce(shards, seeds=..., **params)`` that rebuilds the published
:class:`~repro.experiments.harness.ExperimentTable` objects from the
per-seed payloads.  The engine

1. expands a list of :class:`SuiteJob` descriptions into shard specs,
2. executes them -- in-process for ``jobs=1``, else over a
   ``multiprocessing`` pool (fork start method where available),
3. reduces results back in declaration order, so the output tables are
   byte-identical to a serial run regardless of worker count, and
4. merges worker telemetry (event buffers + metric snapshots shipped
   with each shard result) into the parent
   :class:`~repro.obs.TelemetrySession` in deterministic
   (experiment, seed) order.

A content-keyed shard cache can sit underneath: the key hashes the
experiment name, shard function, seed, parameters and a fingerprint of
every ``src/repro`` source file, so *any* code change invalidates every
cached shard while re-runs of unchanged code are pure disk reads.
Cache entries live as JSON under ``.repro_cache/`` (configurable);
events are deliberately not cached -- replaying a stale event stream
would be misleading and the files would dwarf the payloads -- so cached
shards contribute metrics and step counts but no trace events.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import multiprocessing
import os
import re
import time
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from ..obs import TelemetrySession
from .harness import ExperimentTable, format_table

#: Where shard results live unless the caller says otherwise.
DEFAULT_CACHE_DIR = ".repro_cache"

#: Preferred start method: fork keeps imports warm; spawn is the
#: portable fallback (everything shipped between processes is picklable
#: and workers re-import experiment modules by name).
_START_METHOD = ("fork" if "fork" in multiprocessing.get_all_start_methods()
                 else "spawn")


# ---------------------------------------------------------------------------
# Job and shard descriptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteJob:
    """One experiment entry: which module, which functions, which seeds.

    ``params`` is passed verbatim to ``shard_fn(seed, **params)`` and,
    together with ``seeds=``, to ``reduce_fn(payloads, seeds=seeds,
    **params)`` -- the two signatures are symmetric by convention.
    """

    name: str
    module: str
    shard_fn: str
    reduce_fn: str
    seeds: Tuple[int, ...]
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ShardSpec:
    """One unit of work: a single (experiment, seed) cell."""

    job_name: str
    module: str
    shard_fn: str
    seed: int
    params: Tuple[Tuple[str, Any], ...]
    telemetry: bool = False

    @property
    def kwargs(self) -> Dict[str, Any]:
        """The params as the keyword dict ``shard_fn`` expects."""
        return dict(self.params)


@dataclass
class ShardResult:
    """What a worker ships home for one shard.

    ``payload`` is whatever ``run_shard`` returned (JSON-safe by
    contract); ``events`` and ``metrics`` carry the worker's telemetry
    buffers for the parent session to absorb; ``steps`` is the worker's
    ``steps`` counter total, feeding the per-table step-rate note.
    """

    job_name: str
    seed: int
    payload: Any
    wall: float
    steps: float = 0.0
    events: List[Dict[str, Any]] = field(default_factory=list)
    metrics: Dict[str, Any] = field(default_factory=dict)
    cached: bool = False
    #: Full worker-side traceback text when the shard failed (the
    #: parent decides whether to retry or raise), ``None`` on success.
    error: Optional[str] = None
    #: How many executions this result took (1 = first try).
    attempts: int = 1


@dataclass(frozen=True)
class RetryPolicy:
    """How the engine treats a failing or hanging shard.

    ``max_attempts`` bounds executions per shard (1 = no retry); between
    attempts the engine sleeps ``backoff * 2**(failures-1)`` seconds.
    ``timeout`` is a wall-clock deadline per attempt, measured from when
    the parent starts waiting on the shard; it needs a worker pool to be
    enforceable (an in-process shard cannot be pre-empted) and so is
    ignored at ``jobs=1``.  Deterministic by construction: a retried
    shard re-runs the same seeded code, so a success-after-retry yields
    the byte-identical payload a first-try success would have.
    """

    max_attempts: int = 1
    backoff: float = 0.5
    timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff < 0:
            raise ValueError("backoff must be non-negative")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive")

    def delay(self, failures: int) -> float:
        """Exponential backoff before retry number ``failures``."""
        return self.backoff * (2.0 ** (failures - 1))


@dataclass
class EngineReport:
    """Tables plus the execution accounting the tests assert against."""

    tables: List[ExperimentTable]
    executed_shards: int = 0
    cached_shards: int = 0
    wall: float = 0.0

    @property
    def total_shards(self) -> int:
        """Every shard the suite needed, however it was satisfied."""
        return self.executed_shards + self.cached_shards


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------

def _execute_shard(spec: ShardSpec) -> ShardResult:
    """Run one shard (module-level so pools can pickle it).

    Always runs inside a fresh :class:`TelemetrySession` when telemetry
    is requested -- including in the ``jobs=1`` in-process path -- so
    serial and parallel runs execute identical code and produce
    identical event streams.
    """
    module = importlib.import_module(spec.module)
    shard_fn = getattr(module, spec.shard_fn)
    start = perf_counter()
    try:
        if spec.telemetry:
            session = TelemetrySession()
            with session:
                payload = shard_fn(spec.seed, **spec.kwargs)
            wall = perf_counter() - start
            return ShardResult(
                spec.job_name, spec.seed, payload, wall,
                steps=session.registry.total("steps"),
                events=[event.as_dict() for event in session.bus.events()],
                metrics=session.registry.snapshot())
        payload = shard_fn(spec.seed, **spec.kwargs)
        return ShardResult(spec.job_name, spec.seed, payload,
                           perf_counter() - start)
    except Exception as exc:
        raise RuntimeError(
            f"shard {spec.job_name!r} seed {spec.seed} "
            f"({spec.module}.{spec.shard_fn}) failed: {exc!r}") from exc


def _execute_shard_safe(spec: ShardSpec) -> ShardResult:
    """:func:`_execute_shard`, but failures come home as data.

    A worker that raised across the pool boundary loses its traceback
    (the parent re-raises only the exception repr).  Capturing
    ``traceback.format_exc()`` into ``ShardResult.error`` instead lets
    the parent print the *worker's* full stack and apply the retry
    policy.
    """
    try:
        return _execute_shard(spec)
    except Exception:
        return ShardResult(spec.job_name, spec.seed, payload=None,
                           wall=0.0, error=traceback.format_exc())


# ---------------------------------------------------------------------------
# Content-keyed cache
# ---------------------------------------------------------------------------

def code_fingerprint(package_root: Optional[str] = None) -> str:
    """SHA-256 over every ``*.py`` file under the repro package.

    Cheap (a few ms), and the coarsest sound invalidation rule: any
    source change anywhere in ``src/repro`` flushes the whole cache.
    Finer per-module tracking would miss cross-module behaviour changes
    (a simulator edit changes every experiment that drives it).
    """
    if package_root is None:
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(package_root)):
        dirnames.sort()
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            digest.update(os.path.relpath(path, package_root).encode())
            digest.update(b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\0")
    return digest.hexdigest()


def shard_cache_key(spec: ShardSpec, fingerprint: str) -> str:
    """Deterministic key for one shard under one code state."""
    blob = json.dumps(
        {"experiment": spec.job_name, "module": spec.module,
         "shard_fn": spec.shard_fn, "seed": spec.seed,
         "params": spec.kwargs, "code": fingerprint},
        sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:40]


class ShardCache:
    """JSON shard results on disk, keyed by content (see module docs).

    Layout: ``<root>/<experiment>/<key>.json``.  Writes are atomic
    (temp file + rename) so a crashed run never leaves a torn entry;
    unreadable entries count as misses.
    """

    def __init__(self, root: str = DEFAULT_CACHE_DIR,
                 fingerprint: Optional[str] = None) -> None:
        self.root = root
        self.fingerprint = (fingerprint if fingerprint is not None
                            else code_fingerprint())
        self.hits = 0
        self.misses = 0

    def _path(self, spec: ShardSpec) -> str:
        bucket = re.sub(r"[^A-Za-z0-9._-]", "_", spec.job_name) or "job"
        return os.path.join(self.root, bucket,
                            shard_cache_key(spec, self.fingerprint) + ".json")

    def load(self, spec: ShardSpec) -> Optional[ShardResult]:
        """The cached result for ``spec``, or ``None`` on a miss."""
        path = self._path(spec)
        try:
            with open(path) as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        return ShardResult(
            job_name=spec.job_name, seed=spec.seed,
            payload=record["payload"], wall=float(record.get("wall", 0.0)),
            steps=float(record.get("steps", 0.0)),
            metrics=record.get("metrics", {}), cached=True)

    def store(self, spec: ShardSpec, result: ShardResult) -> None:
        """Persist one executed shard (events deliberately excluded)."""
        path = self._path(spec)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        record = {"experiment": spec.job_name, "seed": spec.seed,
                  "payload": result.payload, "wall": result.wall,
                  "steps": result.steps, "metrics": result.metrics}
        tmp = path + f".tmp{os.getpid()}"
        with open(tmp, "w") as handle:
            json.dump(record, handle)
        os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Suite execution
# ---------------------------------------------------------------------------

def _as_tables(reduced: Any) -> List[ExperimentTable]:
    """Normalise a reduce result (table or list of tables) to a list."""
    if isinstance(reduced, ExperimentTable):
        return [reduced]
    return list(reduced)


def _run_pending(pending: Sequence[ShardSpec], n_jobs: int,
                 retry: RetryPolicy,
                 progress: Optional[Callable[[str], None]]
                 ) -> Dict[Tuple[str, int], ShardResult]:
    """Execute shards under the retry policy; raise on final failure.

    The error raised for a shard that exhausted its attempts embeds the
    worker's full traceback (or the timeout note), so ``run_all --jobs``
    failures are as debuggable as serial ones.
    """
    results: Dict[Tuple[str, int], ShardResult] = {}

    def _note_retry(spec: ShardSpec, failures: int, error: str) -> None:
        if progress is not None:
            reason = error.strip().splitlines()[-1] if error else "failed"
            progress(f"[retrying {spec.job_name} seed {spec.seed} "
                     f"(attempt {failures} failed: {reason})]")

    def _fail(spec: ShardSpec, attempts: int, error: str) -> None:
        raise RuntimeError(
            f"shard {spec.job_name!r} seed {spec.seed} "
            f"({spec.module}.{spec.shard_fn}) failed after {attempts} "
            f"attempt(s); worker traceback follows:\n{error}")

    if n_jobs <= 1 or len(pending) == 1:
        # In-process: the timeout is unenforceable (nothing can pre-empt
        # the shard), the retry loop still applies.
        for spec in pending:
            for attempt in range(1, retry.max_attempts + 1):
                result = _execute_shard_safe(spec)
                result.attempts = attempt
                if result.error is None:
                    break
                if attempt < retry.max_attempts:
                    _note_retry(spec, attempt, result.error)
                    time.sleep(retry.delay(attempt))
            if result.error is not None:
                _fail(spec, result.attempts, result.error)
            results[(spec.job_name, spec.seed)] = result
        return results

    context = multiprocessing.get_context(_START_METHOD)
    with context.Pool(processes=min(n_jobs, len(pending))) as pool:
        # Submission queue: (spec, attempt number, async handle).
        # Retries append to the tail, so surviving shards keep draining
        # while a flaky one backs off; a worker stuck past its timeout
        # is abandoned (the pool tears it down on exit).
        queue = [(spec, 1, pool.apply_async(_execute_shard_safe, (spec,)))
                 for spec in pending]
        index = 0
        while index < len(queue):
            spec, attempt, handle = queue[index]
            index += 1
            try:
                result = handle.get(retry.timeout)
            except multiprocessing.TimeoutError:
                result = ShardResult(
                    spec.job_name, spec.seed, payload=None, wall=0.0,
                    error=(f"shard timed out after {retry.timeout:.1f}s "
                           f"(attempt {attempt})"))
            if result.error is None:
                result.attempts = attempt
                results[(spec.job_name, spec.seed)] = result
                continue
            if attempt < retry.max_attempts:
                _note_retry(spec, attempt, result.error)
                time.sleep(retry.delay(attempt))
                queue.append((spec, attempt + 1,
                              pool.apply_async(_execute_shard_safe, (spec,))))
                continue
            _fail(spec, attempt, result.error)
    return results


def run_suite(jobs: Sequence[SuiteJob],
              n_jobs: Optional[int] = None,
              cache: bool = False,
              cache_dir: str = DEFAULT_CACHE_DIR,
              telemetry: Optional[TelemetrySession] = None,
              progress: Optional[Callable[[str], None]] = None,
              retry: Optional[RetryPolicy] = None) -> EngineReport:
    """Execute a suite of jobs and reduce them back to tables.

    Parameters
    ----------
    jobs:
        Suite entries, in the order their tables should appear.
    n_jobs:
        Worker count; ``None`` means ``os.cpu_count()``.  ``1`` runs
        shards in-process (no pool), which is also the telemetry-exact
        path: with workers, histograms merge approximately (see
        :class:`~repro.obs.metrics.MergedHistogram`) -- counters,
        gauges, events and the tables themselves are identical either
        way.
    cache:
        When true, satisfy shards from ``cache_dir`` where possible and
        persist freshly executed ones.
    telemetry:
        An *active* :class:`TelemetrySession` to absorb worker event
        buffers and metric snapshots into, in (experiment, seed) order.
    progress:
        Called with one line per finished experiment (run_all wires
        this to stderr).
    retry:
        Per-shard :class:`RetryPolicy` (attempts, exponential backoff,
        wall-clock timeout); default: one attempt, no timeout.  A shard
        that exhausts the policy raises with the worker's full
        traceback.
    """
    n_jobs = n_jobs if n_jobs is not None else (os.cpu_count() or 1)
    retry = retry if retry is not None else RetryPolicy()
    started = perf_counter()
    want_telemetry = telemetry is not None

    specs = [ShardSpec(job_name=job.name, module=job.module,
                       shard_fn=job.shard_fn, seed=seed,
                       params=tuple(sorted(job.params.items())),
                       telemetry=want_telemetry)
             for job in jobs for seed in job.seeds]

    shard_cache = ShardCache(cache_dir) if cache else None
    results: Dict[Tuple[str, int], ShardResult] = {}
    pending: List[ShardSpec] = []
    for spec in specs:
        hit = shard_cache.load(spec) if shard_cache is not None else None
        if hit is not None:
            results[(spec.job_name, spec.seed)] = hit
        else:
            pending.append(spec)

    if pending:
        results.update(_run_pending(pending, n_jobs, retry, progress))
        if shard_cache is not None:
            for spec in pending:
                shard_cache.store(spec, results[(spec.job_name, spec.seed)])

    tables: List[ExperimentTable] = []
    for job in jobs:
        shard_results = [results[(job.name, seed)] for seed in job.seeds]
        module = importlib.import_module(job.module)
        reduce_fn = getattr(module, job.reduce_fn)
        reduce_start = perf_counter()
        job_tables = _as_tables(
            reduce_fn([r.payload for r in shard_results],
                      seeds=job.seeds, **dict(job.params)))
        reduce_wall = perf_counter() - reduce_start
        if telemetry is not None:
            for result in shard_results:
                telemetry.absorb(result.events, result.metrics)
        _stamp_provenance(job_tables, shard_results, reduce_wall,
                          telemetry=want_telemetry)
        tables.extend(job_tables)
        if progress is not None:
            cached_count = sum(1 for r in shard_results if r.cached)
            shard_note = (f"{len(shard_results)} shards"
                          + (f", {cached_count} cached" if cached_count else ""))
            wall = sum(r.wall for r in shard_results) + reduce_wall
            progress(f"[{job.name} done in {wall:.1f}s ({shard_note})]")

    executed = sum(1 for r in results.values() if not r.cached)
    cached = sum(1 for r in results.values() if r.cached)
    return EngineReport(tables=tables, executed_shards=executed,
                        cached_shards=cached, wall=perf_counter() - started)


def _stamp_provenance(tables: Sequence[ExperimentTable],
                      shard_results: Sequence[ShardResult],
                      reduce_wall: float, telemetry: bool) -> None:
    """Append each table's provenance note: shard wall time and step rate.

    ``wall`` sums the shard walls (work done, not wall-clock elapsed --
    under a pool the same shards cost the same work, spread over
    workers), so the note stays meaningful at any ``--jobs``.
    """
    wall = sum(r.wall for r in shard_results) + reduce_wall
    steps = sum(r.steps for r in shard_results)
    note = f"wall {wall:.2f}s"
    if telemetry and steps > 0 and wall > 0:
        note += f", {steps:g} steps, {steps / wall:.0f} steps/s [telemetry]"
    cached_count = sum(1 for r in shard_results if r.cached)
    if cached_count:
        note += f" ({cached_count}/{len(shard_results)} shards cached)"
    for table in tables:
        table.append_note(note)


# ---------------------------------------------------------------------------
# Determinism helpers
# ---------------------------------------------------------------------------

#: Note segments :func:`_stamp_provenance` stamps that vary
#: run to run: wall clock, step rate, cache accounting.
_VOLATILE_NOTE = re.compile(r"^wall \d")


def canonical_table_text(table: ExperimentTable) -> str:
    """``format_table`` output with volatile provenance notes removed.

    The determinism guarantee -- serial, parallel and cache-served runs
    agree byte for byte -- covers every row and column but not the
    wall-clock/step-rate note, which honestly varies.  Tests compare
    this canonical form.
    """
    rendered = format_table(table)
    if not table.notes:
        return rendered
    kept = [segment for segment in table.notes.split("; ")
            if not _VOLATILE_NOTE.match(segment)]
    canonical_notes = "; ".join(kept)
    lines = rendered.splitlines()
    # The notes render as the final "note: ..." line format_table appends.
    if lines and lines[-1].startswith("note: "):
        lines = lines[:-1]
        if canonical_notes:
            lines.append(f"note: {canonical_notes}")
    return "\n".join(lines)


def canonical_suite_text(tables: Sequence[ExperimentTable]) -> str:
    """Whole-suite canonical form (tables joined in order)."""
    return "\n\n".join(canonical_table_text(table) for table in tables)
