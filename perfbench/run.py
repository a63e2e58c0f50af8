"""End-to-end benchmark: cluster churn over sockets and the quick suite.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program under test is the ``repro``
package in ``src/``; each workload runs it as its own process and drives
it from this one (the generator):

* ``cluster-churn`` -- a 2-node :class:`~repro.serve.ServeCluster`
  (``serve_proc.py``) behind a :class:`~repro.serve.ClusterClient`,
  closed loop over :data:`SLOTS` Zipf-skewed sessions that are replaced
  after :data:`LIFETIME` steps, mixing steps, snapshots and metrics;
* ``suite-quick`` -- the quick experiment suite (``suite_proc.py``).

Every run checks the program's outputs: served step positions, a replay of
sampled sessions through :func:`repro.api.make_simulator` compared byte for
byte with the served metrics and snapshot, and the suite's table digests
against ``suite_digests.json``.

The host's speed drifts between runs by far more than any bound, so every
gated timing (``setup_s`` and the ``*_scaled`` metrics) is scaled to a
fixed host speed: fixed work of the benchmark's own (``reference.py``) is
timed before and after each launch, each measured window (cluster-churn:
Python work and round trips through an echo process) and each job run
(suite-quick: Python work), and each timing is scaled by how much slower
than its nominal time that work ran.  The unscaled figures are printed and given as
``bench.*`` per-layer metrics.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  A traced run measures the workload once
untraced and once with spans around each layer's public calls; the
per-layer numbers come from the traced pass and ``trace.overhead.*`` is
traced minus untraced for each end-to-end metric.  A failed output check
exits with status 1, a run that cannot measure with status 2.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import itertools
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from reference import REFERENCE_S, WIRE_S, reference_seconds, wire_seconds
from tracing import (EXTRA, NAME, PARENT, RID, T0, T1, Tracer, covered,
                     durations, mean, self_times)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "suite_digests.json"

#: Each workload launches its program this many times; setup_s is the median.
SETUPS = 5
#: Load before measuring, covering the governor's first tick (1 s interval).
WARMUP_S = 1.5
#: Every run must end within this many seconds.
DEADLINE_S = 175
#: A traced run's second, traced pass measures this share of --seconds:
#: its spans cost memory and analysis time, and the means it reports
#: need far fewer calls.
TRACED_SHARE = 0.5
#: cluster-churn measures in windows of this many seconds, gauging the
#: host's speed (reference.py) before and after each.
WINDOW_S = 2.0

# cluster-churn
SLOTS = 192
CHANNELS = 4
LIFETIME = 40
ZIPF_S = 1.0
STEP_SHARE, SNAPSHOT_SHARE = 0.60, 0.25  # the rest are metrics reads
CLUSTER_REPLAY_SAMPLE = 16
RING_REPLICAS = 64  # ServeCluster's default, so client and nodes agree

FAILED_LATENCY = math.inf


class SetupError(RuntimeError):
    """The program could not be launched or did not answer as expected."""


# ---------------------------------------------------------------------------
# Processes and helpers
# ---------------------------------------------------------------------------

CHILDREN: List[subprocess.Popen] = []


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Child:
    """A program process; speaks line-by-line on stdout, stops on stdin EOF."""

    def __init__(self, *args: str) -> None:
        self.args = args
        self.proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        CHILDREN.append(self.proc)

    def line(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise SetupError(f"{' '.join(self.args)} exited with "
                             f"{self.proc.wait()} before answering")
        return line

    def finish(self, timeout: float = 60.0) -> str:
        out, _ = self.proc.communicate(timeout=timeout)
        if self.proc.returncode != 0:
            raise SetupError(f"{' '.join(self.args)} exited with "
                             f"{self.proc.returncode}")
        return out


def stop_children() -> None:
    for proc in CHILDREN:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def maxrss_mb(output: str) -> float:
    for line in reversed(output.splitlines()):
        if line.startswith("{"):
            return json.loads(line)["maxrss_kb"] / 1024.0
    raise SetupError("program did not report its peak RSS")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; failed operations enter as ``inf``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def windows(samples: List[Tuple[float, float]],
            bounds: List[Tuple[float, float]]) -> List[List[float]]:
    """Values of ``(time, value)`` samples grouped by the ``[start, end)``
    window their time falls in."""
    starts = [lo for lo, _ in bounds]
    groups: List[List[float]] = [[] for _ in bounds]
    for at, value in samples:
        k = bisect.bisect_right(starts, at) - 1
        if k >= 0 and at < bounds[k][1]:
            groups[k].append(value)
    return groups


def slowdowns(gauges: List[float],
              nominal: float = REFERENCE_S) -> List[float]:
    """How much slower than at its ``nominal`` time the host ran each
    interval between consecutive gauges (the mean of the two)."""
    return [(a + b) / (2.0 * nominal) for a, b in zip(gauges, gauges[1:])]


class SetupClock:
    """Times one launch, raw and scaled by the host's speed gauged just
    before it and once the launched process is idle or gone."""

    def __init__(self) -> None:
        self.gauge = reference_seconds()
        self.start = time.perf_counter()
        self.raw = 0.0

    def lap(self) -> None:
        self.raw = time.perf_counter() - self.start

    def stop(self, into: List[Tuple[float, float]]) -> None:
        into.append((self.raw, self.raw / slowdowns(
            [self.gauge, reference_seconds()])[0]))


def setup_metrics(m: "Measurement", times: List[Tuple[float, float]]) -> None:
    m.e2e["setup_s"] = statistics.median(scaled for _, scaled in times)
    m.layer["bench.setup_s"] = statistics.median(raw for raw, _ in times)


def canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True)


def replay(seed: int, steps: int) -> Tuple[Any, Any]:
    """Metrics and snapshot of a sensornet session replayed from reset."""
    from repro.api import SensornetConfig, make_simulator
    sim = make_simulator("sensornet",
                         SensornetConfig(n_channels=CHANNELS, seed=seed))
    sim.reset(seed)
    for _ in range(steps):
        sim.step()
    return (json.loads(json.dumps(sim.metrics())),
            json.loads(json.dumps(sim.snapshot())))


def create_payload(seed: int) -> Dict[str, Any]:
    return {"op": "create", "v": 1, "substrate": "sensornet",
            "config": {"n_channels": CHANNELS, "seed": seed}}


class Measurement:
    """One pass of a workload: end-to-end values plus what tracing needs."""

    def __init__(self) -> None:
        self.e2e: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong: List[str] = []
        self.report: List[str] = []
        self.window = (0.0, 0.0)
        self.server_spans: List[list] = []
        self.client_spans: List[list] = []
        self.layer: Dict[str, float] = {}

    def add(self, line: str) -> None:
        self.report.append(line)


# ---------------------------------------------------------------------------
# cluster-churn
# ---------------------------------------------------------------------------


class Churn:
    """Closed-loop op mix over Zipf-skewed, periodically replaced sessions."""

    def __init__(self, client: Any, seed: int, seeds: List[int],
                 sids: List[str], trace: bool) -> None:
        self.client = client
        self.rng = random.Random(f"cluster-churn:{seed}:ops")
        self.seeds = seeds
        self.sids = sids
        self.pos = [0] * len(sids)
        weights = [1.0 / (k + 1) ** ZIPF_S for k in range(len(sids))]
        total = sum(weights)
        self.cdf = list(itertools.accumulate(w / total for w in weights))
        self.trace = trace
        self.rid = 0
        self.wrong: List[str] = []
        #: Op kind -> (completed at, latency) of every recorded op.
        self.lat: Dict[str, List[Tuple[float, float]]] = {
            "write": [], "read": [], "other": []}

    async def call(self, payload: Dict[str, Any]) -> Tuple[Dict, float]:
        if self.trace:
            self.rid += 1
            payload["trace"] = self.rid
        t0 = time.perf_counter()
        reply = await self.client.request(payload)
        return reply, time.perf_counter() - t0

    def _wrong(self, slot: int, what: str) -> None:
        self.wrong.append(f"session {self.sids[slot]}: {what}")

    async def op(self, record: bool) -> None:
        slot = min(bisect.bisect_left(self.cdf, self.rng.random()),
                   len(self.sids) - 1)
        u = self.rng.random()
        sid = self.sids[slot]
        if u < STEP_SHARE:
            kind, op = "write", {"op": "step", "session": sid, "n": 1}
        elif u < STEP_SHARE + SNAPSHOT_SHARE:
            kind, op = "read", {"op": "snapshot", "session": sid}
        else:
            kind, op = "read", {"op": "metrics", "session": sid}
        reply, seconds = await self.call(op)
        ok = reply.get("ok") is True
        if ok and op["op"] == "step":
            if reply.get("steps_taken") == self.pos[slot] + 1:
                self.pos[slot] += 1
            else:
                ok = False
                self._wrong(slot, f"steps_taken {reply.get('steps_taken')}"
                                  f" != {self.pos[slot] + 1}")
        elif ok and op["op"] == "snapshot":
            snap = reply.get("snapshot") or {}
            if snap.get("steps_taken") != self.pos[slot] or reply.get("stale"):
                ok = False
                self._wrong(slot, f"snapshot at {snap.get('steps_taken')}, "
                                  f"stale={reply.get('stale')}, expected "
                                  f"{self.pos[slot]}")
        elif ok and not isinstance(reply.get("metrics"), dict):
            ok = False
            self._wrong(slot, "metrics reply without metrics")
        if record:
            self.lat[kind].append((time.perf_counter(),
                                   seconds if ok else FAILED_LATENCY))
        if self.pos[slot] >= LIFETIME:
            await self.replace(slot, record)

    async def replace(self, slot: int, record: bool) -> None:
        reply, seconds = await self.call({"op": "close",
                                          "session": self.sids[slot]})
        closed = reply.get("ok") is True
        seed = self.rng.randrange(2 ** 31)
        created, more = await self.call(create_payload(seed))
        if record:
            now = time.perf_counter()
            self.lat["other"].append((now, seconds if closed
                                      else FAILED_LATENCY))
            self.lat["other"].append((now, more if created.get("ok") is True
                                      else FAILED_LATENCY))
        if created.get("ok") is not True:
            raise SetupError(f"create failed: {created}")
        self.sids[slot] = created["session"]
        self.seeds[slot] = seed
        self.pos[slot] = 0

    async def run(self, seconds: float, record: bool) -> None:
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            await self.op(record)


async def cluster_pass(seed: int, seconds: float, spans: Optional[str],
                       setups: int, m: Measurement) -> None:
    from repro.serve import Client, ClusterClient, HashRing, ServerConfig

    tracer = None
    if spans:
        tracer = Tracer()
        tracer.wrap(ClusterClient, "request", "serve.cluster.route",
                    rid_of=lambda a, k: a[1].get("trace"))
        tracer.wrap(Client, "request", "serve.wire.client")
        tracer.wrap(HashRing, "owner", "serve.ring.owner")

    rng = random.Random(f"cluster-churn:{seed}")
    first_seeds = [rng.randrange(2 ** 31) for _ in range(SLOTS)]
    setup_times: List[Tuple[float, float]] = []
    for attempt in range(setups):
        last = attempt == setups - 1
        clock = SetupClock()
        server = Child("perfbench/serve_proc.py",
                       *(["--spans", spans] if spans and last else []))
        ports = json.loads(server.line())["ports"]
        nodes = {node: await Client.connect("127.0.0.1", port)
                 for node, port in sorted(ports.items())}
        client = ClusterClient(dict(nodes), ring=HashRing(
            sorted(ports), replicas=RING_REPLICAS))
        sids = []
        for s in first_seeds:
            reply = await client.request(create_payload(s))
            if reply.get("ok") is not True:
                raise SetupError(f"create failed: {reply}")
            sids.append(reply["session"])
        clock.lap()
        clock.stop(setup_times)
        if not last:
            await client.close()
            server.finish()

    # Until a node's governor first ticks, its admission settings are the
    # ones serve_proc.py started it with; every tick sets all three.
    shipped = ServerConfig()
    untouched = (shipped.admission_rate, shipped.admission_burst,
                 shipped.max_queue)

    async def settings(node: Any) -> Tuple[float, float, float]:
        admission = (await node.stats())["stats"]["admission"]
        return admission["rate"], admission["burst"], admission["max_queue"]

    churn = Churn(client, seed, list(first_seeds), sids, trace=bool(spans))
    await churn.run(WARMUP_S, record=False)
    waited = WARMUP_S
    for node in nodes.values():
        while await settings(node) == untouched:
            if waited > 5.0:
                raise SetupError("governor did not tick within 5 s")
            await churn.run(0.25, record=False)
            waited += 0.25
    warm_wrong = len(churn.wrong)

    # Measured in windows with the host's speed gauged around each; the
    # generator, the cluster and the echo process share one CPU, so the
    # gauge times it.  A request is Python work and a round trip between
    # two processes, so the gauge is both.
    echo = Child("perfbench/reference.py", "--echo")

    def gauge() -> float:
        return reference_seconds() + wire_seconds(echo.proc)

    gauges = [gauge()]
    bounds: List[Tuple[float, float]] = []
    for _ in range(max(1, round(seconds / WINDOW_S))):
        start = time.perf_counter()
        await churn.run(WINDOW_S, record=True)
        bounds.append((start, time.perf_counter()))
        gauges.append(gauge())
    echo.finish()
    m.window = (bounds[0][0], bounds[-1][1])
    elapsed = sum(hi - lo for lo, hi in bounds)

    samples = churn.lat["write"] + churn.lat["read"] + churn.lat["other"]
    every = [late for _, late in samples]
    ok = sum(1 for x in every if x != FAILED_LATENCY)
    m.attempted, m.failed = len(every), len(every) - ok

    for slot in random.Random(f"cluster-churn:{seed}:replay").sample(
            range(SLOTS), CLUSTER_REPLAY_SAMPLE):
        sid = churn.sids[slot]
        metrics = await client.request({"op": "metrics", "session": sid})
        snap = await client.request({"op": "snapshot", "session": sid})
        want_metrics, want_snap = replay(churn.seeds[slot], churn.pos[slot])
        m.attempted += 2
        if (canonical(metrics.get("metrics")) != canonical(want_metrics)
                or canonical(snap.get("snapshot")) != canonical(want_snap)):
            m.failed += 1
            m.wrong.append(f"session {sid}: served state differs from "
                           f"replay at step {churn.pos[slot]}")
    m.wrong.extend(churn.wrong)
    redirects = client.redirects_followed
    await client.close()
    m.e2e["peak_rss_mb"] = maxrss_mb(server.finish())
    if spans:
        with open(spans) as handle:
            m.server_spans = json.load(handle)
        m.client_spans = tracer.spans

    write_p50 = percentile([x for _, x in churn.lat["write"]], 50) * 1e3
    read_p50 = percentile([x for _, x in churn.lat["read"]], 50) * 1e3
    setup_metrics(m, setup_times)
    groups = windows(samples, bounds)
    slow = slowdowns(gauges, REFERENCE_S + WIRE_S)
    m.layer["bench.ops_per_s"] = ok / elapsed
    m.e2e["ops_per_s_scaled"] = statistics.median(
        sum(1 for x in group if x != FAILED_LATENCY) / (hi - lo) * k
        for group, (lo, hi), k in zip(groups, bounds, slow))
    for q in (50, 90, 99):
        m.layer[f"bench.op_p{q}_ms"] = statistics.median(
            percentile(group, q) for group in groups) * 1e3
    for q in (50, 90):
        m.e2e[f"op_p{q}_ms_scaled"] = statistics.median(
            percentile(group, q) / k for group, k in zip(groups, slow)) * 1e3
    m.layer["bench.reference_ms"] = statistics.median(gauges) * 1e3
    m.layer["bench.cluster.write_p50_ms"] = write_p50
    m.layer["bench.cluster.read_p50_ms"] = read_p50
    m.layer["serve.cluster.redirects"] = float(redirects)
    m.add(f"ops_per_s          {m.layer['bench.ops_per_s']:.1f} 1/s, "
          f"scaled {m.e2e['ops_per_s_scaled']:.1f}  (closed loop, one "
          f"stream, {ok}/{len(every)} ok in {elapsed:.2f} s)")
    m.add(f"write_p50_ms       {write_p50:.3f} ms  (step, "
          f"{len(churn.lat['write'])} ops)")
    m.add(f"read_p50_ms        {read_p50:.3f} ms  (snapshot + metrics, "
          f"{len(churn.lat['read'])} ops)")
    m.add(f"op_p50_ms          {m.layer['bench.op_p50_ms']:.3f} ms, scaled "
          f"{m.e2e['op_p50_ms_scaled']:.3f}  (all ops incl. "
          f"{len(churn.lat['other'])} close/create; median of "
          f"{len(bounds)} per-{WINDOW_S:g} s p50s)")
    m.add(f"op_p90_ms          {m.layer['bench.op_p90_ms']:.3f} ms, scaled "
          f"{m.e2e['op_p90_ms_scaled']:.3f}  (median of per-window p90s)")
    m.add(f"op_p99_ms          {m.layer['bench.op_p99_ms']:.3f} ms  (median "
          f"of per-window p99s, whole run "
          f"{percentile(every, 99) * 1e3:.3f} ms; not gated)")
    m.add(f"reference_ms       {m.layer['bench.reference_ms']:.3f} ms  "
          f"(median of {len(gauges)} gauges, "
          f"{min(gauges) * 1e3:.2f}-{max(gauges) * 1e3:.2f})")
    m.add(f"redirects          {redirects}; warmup wrong replies "
          f"{warm_wrong}")


def measure_cluster_churn(seed: int, seconds: float, spans: Optional[str],
                          setups: int) -> Measurement:
    m = Measurement()
    asyncio.run(cluster_pass(seed, seconds, spans, setups, m))
    return m


# ---------------------------------------------------------------------------
# suite-quick
# ---------------------------------------------------------------------------


def measure_suite_quick(seed: int, seconds: float, spans: Optional[str],
                        setups: int) -> Measurement:
    """The suite's inputs are its own fixed seeds; ``seed`` changes nothing
    (and the digests would catch it if it did)."""
    m = Measurement()
    if not DIGESTS.is_file():
        raise SetupError(f"missing {DIGESTS.name}")
    want = json.loads(DIGESTS.read_text())
    out = str(OUT_DIR / f"suite-{os.getpid()}.json")
    # The process that runs the suite starts right after it is ready, so
    # set-up is timed on launches that only set up and exit.
    setup_times: List[Tuple[float, float]] = []
    for _ in range(setups):
        clock = SetupClock()
        runner = Child("perfbench/suite_proc.py", out, "--setup-only")
        runner.line()
        clock.lap()
        runner.finish()
        clock.stop(setup_times)
    runner = Child("perfbench/suite_proc.py", out, "--seconds", str(seconds),
                   *(["--trace"] if spans else []))
    runner.line()
    begin = time.perf_counter()
    runner.finish(timeout=DEADLINE_S)
    m.window = (begin, time.perf_counter())
    with open(out) as handle:
        report = json.load(handle)
    os.remove(out)

    for job, digest in want.items():
        m.attempted += len(digest)
        if report["digests"].get(job) != digest:
            m.failed += len(digest)
            m.wrong.append(f"{job}: tables differ from the recorded digest")
    for job in report["unstable"]:
        m.wrong.append(f"{job}: tables changed between passes")
    # Every run of every job counts.  Over eight runs, percentiles over all
    # of them spread 0.07-0.08 between runs, against 0.14-0.16 for each
    # job's fastest pass: the host's speed swings, and more samples move
    # less with it.  Each job run is also scaled by the host's speed
    # gauged just before and after it.
    runs = [t for one in report["passes"] for t in one.values()]
    scaled = [t / k for one, gauges in zip(report["passes"], report["gauges"])
              for t, k in zip(one.values(), slowdowns(gauges))]
    gauges = [g for one in report["gauges"] for g in one]
    walls = [sum(one.values()) for one in report["passes"]]
    setup_metrics(m, setup_times)
    m.e2e["peak_rss_mb"] = report["maxrss_kb"] / 1024.0
    m.e2e["ops_per_s_scaled"] = len(scaled) / sum(scaled)
    m.layer["bench.ops_per_s"] = len(runs) / sum(runs)
    for q in (50, 90):
        m.e2e[f"op_p{q}_ms_scaled"] = percentile(scaled, q) * 1e3
    for q in (50, 90, 99):
        m.layer[f"bench.op_p{q}_ms"] = percentile(runs, q) * 1e3
    m.layer["bench.reference_ms"] = statistics.median(gauges) * 1e3
    if spans:
        inside = report["inside"]
        for job in report["passes"][0]:
            m.layer[f"experiments.{job}.s"] = inside.get(job, 0.0)
        m.layer["experiments.engine.self_s"] = (statistics.mean(walls)
                                                - sum(inside.values()))
    m.add(f"suite_s            {statistics.mean(walls):.3f} s  (mean of "
          f"{len(walls)} passes: {', '.join(f'{w:.2f}' for w in walls)} s; "
          f"--jobs 1, no cache)")
    m.add(f"ops_per_s          {m.layer['bench.ops_per_s']:.3f} jobs/s, "
          f"scaled {m.e2e['ops_per_s_scaled']:.3f}")
    for q in (50, 90):
        m.add(f"op_p{q}_ms          {m.layer[f'bench.op_p{q}_ms']:.1f} ms "
              f"per job, scaled {m.e2e[f'op_p{q}_ms_scaled']:.1f}")
    m.add(f"op_p99_ms          {m.layer['bench.op_p99_ms']:.1f} ms per job "
          f"(of {len(runs)} job runs; not gated)")
    m.add(f"reference_ms       {m.layer['bench.reference_ms']:.3f} ms  "
          f"(median of {len(gauges)} gauges, "
          f"{min(gauges) * 1e3:.2f}-{max(gauges) * 1e3:.2f})")
    return m


WORKLOADS = {"cluster-churn": measure_cluster_churn,
             "suite-quick": measure_suite_quick}


# ---------------------------------------------------------------------------
# Per-layer analysis of a traced pass
# ---------------------------------------------------------------------------


def in_window(spans: List[list], window: Tuple[float, float]) -> List[list]:
    return [s for s in spans if window[0] <= s[T0] < window[1]]


def outside(trips: Dict[Any, Tuple[float, float]],
            busy: List[Tuple[float, float]]) -> List[float]:
    """For each ``(start, end)`` trip, the part no ``busy`` interval
    covers."""
    busy = sorted(busy)
    starts = [lo for lo, _ in busy]
    longest = max((hi - lo for lo, hi in busy), default=0.0)
    out = []
    for start, end in trips.values():
        lo = bisect.bisect_left(starts, start - longest)
        hi = bisect.bisect_right(starts, end)
        out.append(end - start - covered(start, end, busy[lo:hi]))
    return out


def serving_layers(m: Measurement) -> Dict[str, float]:
    """Per-layer metrics from a traced serving pass's spans."""
    every = m.server_spans
    gov_ids = {s[0] for s in every if s[NAME] == "serve.governor.tick"}
    admits = [s for s in every if s[NAME] == "serve.admission.admit"]
    spans = in_window(every, m.window)
    client = in_window(m.client_spans, m.window)

    def us(values: List[float]) -> float:
        return mean(values) * 1e6

    def named(name: str) -> List[list]:
        return [s for s in spans if s[NAME] == name]

    out: Dict[str, float] = {}
    dispatch = named("serve.server.dispatch")
    out["serve.server.dispatch.count"] = float(len(dispatch))
    out["serve.server.dispatch.self_us"] = us(
        self_times(spans, "serve.server.dispatch"))
    batches = named("serve.batching.step_batch")
    requests = sum(s[EXTRA][0] for s in batches)
    requested = sum(s[EXTRA][1] for s in batches)
    executed = len(named("api.step"))
    out["serve.batching.step_batch.self_us"] = us(
        self_times(spans, "serve.batching.step_batch"))
    submits = named("serve.batching.submit")
    out["serve.batching.submit.count"] = float(len(submits))
    out["serve.batching.batch_size"] = mean([s[EXTRA] for s in submits])
    out["serve.batching.cache_hit_ratio"] = (
        1.0 - len(named("api.make")) / requests if requests else 0.0)
    out["serve.batching.useful_step_share"] = (
        requested / executed if executed else 0.0)
    out["serve.admission.admit_us"] = us(
        durations(spans, "serve.admission.admit"))
    # The warm-up ends once every governor has ticked (see WARMUP_S).
    out["serve.admission.shed"] = float(sum(
        s[EXTRA] for s in admits if s[T0] >= m.window[0]))
    out["serve.admission.warmup_shed"] = float(sum(
        s[EXTRA] for s in admits if s[T0] < m.window[0]))
    for op in ("get", "create", "close"):
        out[f"serve.sessions.{op}_us"] = us(
            durations(spans, f"serve.sessions.{op}"))
    lookups = named("serve.sessions.snapshot_get")
    out["serve.sessions.snapshot_hit_ratio"] = (
        mean([s[EXTRA] for s in lookups]))
    for op in ("step", "metrics", "snapshot", "make", "reset"):
        out[f"api.{op}_us"] = us(durations(spans, f"api.{op}"))
    in_ticks = [s for s in spans if s[NAME] == "serve.governor.tick"
                and s[PARENT] not in gov_ids]
    out["serve.governor.ticks"] = float(len(in_ticks))
    out["serve.governor.tick_us"] = us([s[T1] - s[T0] for s in in_ticks])

    # Wire: the client's round trip minus the time the server spent inside
    # dispatch -- this request's, or another connection's that held the
    # event loop meanwhile.
    trips = {s[RID]: (s[T0], s[T1]) for s in client
             if s[NAME] == "serve.wire.client" and s[RID] is not None}
    out["serve.wire.self_us"] = us(outside(
        trips, [(s[T0], s[T1]) for s in dispatch]))
    out["serve.cluster.route.self_us"] = us(
        self_times(client, "serve.cluster.route"))
    out["serve.ring.owner_us"] = us(durations(m.client_spans,
                                              "serve.ring.owner"))
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def check_program() -> None:
    """Fail unless the program's source is in this checkout."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro
    if SRC not in Path(repro.__file__).resolve().parents:
        raise SetupError(f"imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def result_value(value: float) -> float:
    return value if math.isfinite(value) else sys.float_info.max


def run(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    measure = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    untraced = measure(args.seed, args.seconds, None, SETUPS)
    passes = [untraced]
    if args.trace:
        spans = str(OUT_DIR / f"spans-{os.getpid()}.json")
        traced = measure(args.seed, args.seconds * TRACED_SHARE, spans, 1)
        if os.path.exists(spans):
            os.remove(spans)
        passes.append(traced)
        layer = dict.fromkeys((m["name"] for m in spec["per_layer"]), 0.0)
        layer.update(traced.layer)
        # The generator's own figures come from the untraced pass, next to
        # the end-to-end metrics they qualify.
        layer.update({k: v for k, v in untraced.layer.items()
                      if k.startswith("bench.")})
        if traced.server_spans:
            layer.update(serving_layers(traced))
        for name, value in untraced.e2e.items():
            layer[f"trace.overhead.{name}"] = traced.e2e[name] - value
        wanted = spec["per_layer"]
        values = layer
    else:
        wanted = spec["end_to_end"]
        values = untraced.e2e

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SetupError(f"metrics not measured: {missing}")
    print(f"{args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for label, m in zip(("untraced", "traced"), passes):
        if args.trace:
            print(f"[{label}]")
        for line in m.report:
            print(f"  {line}")
        print(f"  setup_s {m.layer['bench.setup_s']:.4f} s, scaled "
              f"{m.e2e['setup_s']:.4f}, "
              f"peak_rss_mb {m.e2e['peak_rss_mb']:.1f} MB")
    wrong = [w for m in passes for w in m.wrong]
    for line in wrong[:20]:
        print(f"  WRONG: {line}")
    if args.trace:
        for name in sorted(values):
            print(f"  {name} = {values[name]:.6g}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(m.attempted for m in passes),
        "failed": sum(m.failed for m in passes),
        "metrics": {m["name"]: {"value": result_value(values[m["name"]]),
                                "unit": m["unit"]} for m in wanted}}))
    return 0 if not wrong else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    def expire(signum, frame):
        raise SetupError(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, expire)
    # Terminated from outside: unwind so the finally below stops children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if args.workload == "cluster-churn":
        # The generator and the cluster (a child, so it inherits this) share
        # one CPU.  In a closed loop only one of them runs at a time, and a
        # hand-over within a CPU wakes no idle one; on a shared VM host that
        # wake-up took a varying share of every request (four alternating
        # rounds: 910-1009 ops/s on one CPU, 762-950 on two).
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    signal.alarm(DEADLINE_S)
    try:
        check_program()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return run(args, spec)
    except (SetupError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        stop_children()


if __name__ == "__main__":
    sys.exit(main())
