"""The cluster under test, as its own process.

    python perfbench/serve_proc.py [--spans PATH]

Runs a 2-node :class:`~repro.serve.ServeCluster` under the collective
governor, each node a :class:`~repro.serve.SimulationServer` with the
shipped :class:`~repro.serve.ServerConfig` (``workers=0``, self-aware
governor, default admission), listening on free localhost ports.  The
process prints one JSON line ``{"ports": {node: port}}`` once it accepts
connections, serves until its standard input closes, stops cleanly and
prints ``{"maxrss_kb": ...}``.

With ``--spans`` the public calls of every serving layer are wrapped by a
:class:`~tracing.Tracer` and the spans are written to ``PATH`` at exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
from typing import Any, Dict

from tracing import Tracer

#: Cluster nodes (one socket each on the generator side).
CLUSTER_NODES = 2


def instrument(tracer: Tracer) -> None:
    """Wrap the public calls of each serving layer."""
    from repro.api import adapters
    from repro.serve import admission, batching, governor, server, sessions

    # A StepRequest is built in the dispatching task and executed by the
    # batch loop; remember which request built it so the batch spans can
    # name the requests they serve.
    built: Dict[int, Any] = {}
    step_request = server.StepRequest

    def traced_step_request(*args: Any, **kwargs: Any) -> Any:
        work = step_request(*args, **kwargs)
        built[id(work)] = tracer.current_rid()
        return work

    server.StepRequest = traced_step_request

    def request_rid(args, kwargs):
        request = args[1] if len(args) > 1 else kwargs["request"]
        return request.get("trace") if isinstance(request, dict) else None

    def batch_rids(args, kwargs):
        return [built.pop(id(work), None) for work in args[1]]

    tracer.wrap(server.SimulationServer, "dispatch", "serve.server.dispatch",
                rid_of=request_rid)
    tracer.wrap(admission.AdmissionController, "admit",
                "serve.admission.admit",
                extra=lambda a, k, verdict: int(verdict != admission.ADMIT))
    for method in ("get", "create", "close"):
        tracer.wrap(sessions.SessionTable, method, f"serve.sessions.{method}")
    tracer.wrap(sessions.SnapshotCache, "get", "serve.sessions.snapshot_get",
                extra=lambda a, k, hit: int(hit is not None))
    tracer.wrap(batching.BatchDispatcher, "submit", "serve.batching.submit",
                rid_of=batch_rids, extra=lambda a, k, r: len(a[1]))
    tracer.wrap(batching, "run_step_batch", "serve.batching.step_batch",
                extra=lambda a, k, r: [len(a[0]),
                                       sum(w.n_steps for w in a[0])])
    tracer.wrap(batching, "make_simulator", "api.make")
    for method in ("reset", "step", "metrics", "snapshot"):
        tracer.wrap(adapters.SensornetSimulator, method, f"api.{method}")
    tracer.wrap(governor.ServeGovernor, "tick", "serve.governor.tick")
    tracer.wrap(governor.CollectiveGovernor, "tick", "serve.governor.tick")


async def serve() -> None:
    from repro.serve import ServeCluster, ServerConfig

    fabric = ServeCluster(nodes=CLUSTER_NODES, base=ServerConfig(),
                          governor="collective")
    await fabric.start(listen=True)
    print(json.dumps({"ports": {node: server.port
                                for node, server in fabric.servers.items()}}),
          flush=True)
    try:
        # Serve until the generator closes our standard input.
        await asyncio.get_running_loop().run_in_executor(
            None, sys.stdin.buffer.read)
    finally:
        await fabric.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", default=None, metavar="PATH")
    args = parser.parse_args()
    tracer = None
    if args.spans:
        tracer = Tracer()
        instrument(tracer)
    asyncio.run(serve())
    if tracer is not None:
        tracer.dump(args.spans)
    print(json.dumps({"maxrss_kb": resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
