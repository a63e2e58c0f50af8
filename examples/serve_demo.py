"""Serving demo: a self-aware server rides out a load ramp.

Starts a :class:`repro.serve.SimulationServer` on a free port, then
drives it from concurrent socket clients in two phases over identical
sessions:

1. *gentle* -- each client paces its step requests, the governor
   watches a healthy system and learns its service rate;
2. *stampede* -- the clients drop their pacing and hammer the server;
   the governor senses the queue and latency pressure and re-expresses
   itself: pool size up to its ceiling, admission tightened, load shed
   when the SLO would otherwise be lost.

At the end the server's own account of the episode is printed -- its
stats block and the governor's natural-language ``explain()``.  The
demo exits non-zero if any reply was neither ``ok`` nor a ``shed_*``
error.

Run:  python examples/serve_demo.py
Longer, with a telemetry trace of serve.* events:
      python examples/serve_demo.py --seconds 10 --trace serve.jsonl
Record a replayable repro.twin/v1 arrival trace of the episode:
      python examples/serve_demo.py --record demo_trace.jsonl
      python -m repro.twin demo_trace.jsonl
"""

import argparse
import asyncio
import contextlib
import sys
import zlib

from repro.obs import TelemetrySession
from repro.serve import Client, ServerConfig, SimulationServer
from repro.serve.protocol import error_code


async def drive_client(name: str, host: str, port: int,
                       gentle_until: float, deadline: float,
                       loop: asyncio.AbstractEventLoop) -> dict:
    """One client: create a session, pace politely, then stampede."""
    client = await Client.connect(host, port)
    tally = {"name": name, "ok": 0, "shed": 0, "errors": 0}
    try:
        # crc32, not hash(): str hashing is randomised per process, and
        # the demo's sessions should replay identically across runs.
        created = await client.create("sensornet", steps=100_000,
                                      n_channels=4,
                                      seed=zlib.crc32(name.encode()) % 1000)
        session = created["session"]
        while loop.time() < deadline:
            response = await client.step(session, n=2)
            if response.get("ok"):
                tally["ok"] += 1
            elif (error_code(response) or "").startswith("shed_"):
                tally["shed"] += 1
                await asyncio.sleep(0.005)  # shed tells us to back off
            else:
                tally["errors"] += 1
            if loop.time() < gentle_until:
                await asyncio.sleep(0.02)  # polite pacing, phase 1
        await client.close_session(session)
    finally:
        await client.close()
    return tally


async def demo(seconds: float, clients: int, workers: int) -> dict:
    server = SimulationServer(ServerConfig(
        port=0, workers=workers, governor="self_aware",
        min_workers=1, max_workers=4, slo_p95=0.05,
        admission_rate=400.0, admission_burst=200.0, max_queue=64.0,
        govern_interval=max(0.25, seconds / 12.0)))
    await server.start()
    loop = asyncio.get_running_loop()
    print(f"server up on {server.host}:{server.port} "
          f"(workers={workers}, governor=self_aware, "
          f"slo p95={0.05:.2f}s)")
    gentle = seconds * 0.4
    print(f"phase 1 (gentle, {gentle:.1f}s): {clients} paced clients")
    print(f"phase 2 (stampede, {seconds - gentle:.1f}s): "
          "pacing off, governor on the spot")
    t0 = loop.time()
    tallies = await asyncio.gather(*(
        drive_client(f"c{i}", server.host, server.port,
                     t0 + gentle, t0 + seconds, loop)
        for i in range(clients)))

    admin = await Client.connect(server.host, server.port)
    try:
        stats = (await admin.stats())["stats"]
        explained = await admin.request({"op": "explain"})
    finally:
        await admin.close()
    await server.stop()

    total_ok = sum(t["ok"] for t in tallies)
    total_shed = sum(t["shed"] for t in tallies)
    total_err = sum(t["errors"] for t in tallies)
    print(f"\nclients: {total_ok} served, {total_shed} shed, "
          f"{total_err} errors")
    print(f"server:  p95 {stats['p95_seconds'] * 1000:.1f} ms over "
          f"{stats['requests_completed']} requests, "
          f"{stats['batches_run']} batches, "
          f"admission {stats['admission']}")
    print(f"degraded={stats['degraded']} "
          f"snapshot_cache={stats['snapshot_cache']}")
    print("\nthe governor, in its own words:")
    print(explained["explanation"])
    return {"ok": total_ok, "shed": total_shed, "errors": total_err}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seconds", type=float, default=6.0,
                        help="total demo duration (default: 6)")
    parser.add_argument("--clients", type=int, default=6,
                        help="concurrent socket clients (default: 6)")
    parser.add_argument("--workers", type=int, default=0,
                        help="process-pool size; 0 steps in-process "
                             "(default: 0)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="write a JSONL telemetry trace")
    parser.add_argument("--record", default=None, metavar="PATH",
                        help="write a repro.twin/v1 arrival trace "
                             "(replay: python -m repro.twin PATH)")
    parser.add_argument("--record-tick", type=float, default=0.2,
                        metavar="SECONDS",
                        help="tick width for --record bucketing "
                             "(default: 0.2)")
    args = parser.parse_args(argv)
    scope = (TelemetrySession(trace_path=args.trace, echo_summary=True)
             if args.trace or args.record else contextlib.nullcontext())
    recorder = None
    with scope as session:
        if args.record:
            from repro.twin import TraceRecorder
            recorder = TraceRecorder(source="examples/serve_demo.py",
                                     tick_seconds=args.record_tick,
                                     substrate="serve")
            recorder.attach(session.bus)
        try:
            totals = asyncio.run(demo(args.seconds, args.clients,
                                      args.workers))
        finally:
            if recorder is not None:
                recorder.detach()
                written = recorder.write(args.record)
                print(f"\nrecorded {written} ticks "
                      f"({recorder.total_offered} requests, "
                      f"{recorder.total_ok} ok) -> {args.record}")
    if totals["errors"]:
        print(f"{totals['errors']} replies were neither ok nor shed",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
