"""Fixed work of the benchmark's own that gauges the host's current speed.

The benchmark runs on shared virtual machines whose speed drifts by up to
2.5-fold over minutes (other tenants), far more than the bound on any
metric.  Both sides of a comparison run the same interpreter and this same
file, so the time :func:`reference_seconds` takes tracks the host, not the
program under test.  Timings taken next to it are scaled to a host on
which it takes :data:`REFERENCE_S`: a measured time ``t`` while the
reference takes ``r`` reads ``t * REFERENCE_S / r``.

Programs slow down unevenly: a tight arithmetic loop slowed less than the
experiment suite did when the host slowed, and an object-heavy simulation
more.  So the work mixes three kinds, about a third of the time each: an
integer loop, a small grid-and-objects simulation like the program's
substrates, and parsing and compiling Python source.

A served request spends much of its time outside Python, in system calls
and in handing the CPU between processes, which the host slows
differently from Python work.  :func:`wire_seconds` gauges that part: JSON lines sent to a
process running :func:`echo` and read back.

    python3 perfbench/reference.py --echo
"""

from __future__ import annotations

import ast
import json
import math
import random
import subprocess
import sys
import time

#: The speed every scaled timing is expressed at: the reference work takes
#: this long.  A unit, not a measurement; it is about the reference's time
#: on a calm 2.1 GHz Xeon KVM guest.
REFERENCE_S = 0.010
#: The same for :func:`wire_seconds`: :data:`ROUND_TRIPS` round trips.
WIRE_S = 0.010
#: Each gauge times its work this many times and takes the fastest: other
#: processes on the CPU (the cluster's background work, a collection) can
#: only slow a run down.
REPEATS = 3
#: Round trips in one timing of :func:`wire_seconds`.
ROUND_TRIPS = 400

_LINE = json.dumps({"op": "step", "v": 1, "session": "n1-00000000002a",
                    "n": 1, "trace": 123456, "steps_taken": 17,
                    "metrics": {"energy": [0.25] * 8, "ok": True}}) + "\n"

_SOURCE = "\n".join(
    f"def f{k}(xs, n={k}):\n"
    f"    out = [x * n for x in xs if x % {k + 2}]\n"
    f"    return {{'k': {k}, 'sum': sum(out), 'max': max(out or [0])}}\n"
    for k in range(30))


class _Agent:
    __slots__ = ("x", "y", "seen")

    def __init__(self, x: float, y: float) -> None:
        self.x, self.y, self.seen = x, y, {}


def _loop() -> int:
    total = 0
    for i in range(80_000):
        total += i * i
    return total


def _simulate() -> int:
    rng = random.Random(7)
    agents = [_Agent(rng.random() * 50, rng.random() * 50) for _ in range(100)]
    for _ in range(6):
        grid: dict = {}
        for i, a in enumerate(agents):
            grid.setdefault((int(a.x // 5), int(a.y // 5)), []).append(i)
        for i, a in enumerate(agents):
            cx, cy = int(a.x // 5), int(a.y // 5)
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    for j in grid.get((cx + dx, cy + dy), ()):
                        b = agents[j]
                        if j != i and math.hypot(a.x - b.x, a.y - b.y) < 5:
                            a.seen[j] = a.seen.get(j, 0) + 1
            a.x = min(50.0, max(0.0, a.x + rng.gauss(0, 1)))
            a.y = min(50.0, max(0.0, a.y + rng.gauss(0, 1)))
    return sum(len(a.seen) for a in agents)


def _compile() -> int:
    tree = ast.parse(_SOURCE)
    compile(tree, "<reference>", "exec")
    return sum(1 for _ in ast.walk(tree))


def reference_seconds() -> float:
    """The fastest of :data:`REPEATS` runs of the reference work."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _loop()
        _simulate()
        _compile()
        times.append(time.perf_counter() - t0)
    return min(times)


def wire_seconds(echo: subprocess.Popen) -> float:
    """The fastest of :data:`REPEATS` runs of :data:`ROUND_TRIPS`
    round trips of a JSON line through ``echo``, a text-mode process with
    piped standard streams running :func:`echo`."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(ROUND_TRIPS):
            echo.stdin.write(_LINE)
            echo.stdin.flush()
            json.loads(echo.stdout.readline())
        times.append(time.perf_counter() - t0)
    return min(times)


def echo() -> None:
    """Write each JSON line of standard input back to standard output."""
    for line in sys.stdin:
        sys.stdout.write(json.dumps(json.loads(line)) + "\n")
        sys.stdout.flush()


if __name__ == "__main__" and sys.argv[1:] == ["--echo"]:
    echo()
