"""Committed golden payloads and the byte-identity check against them.

``golden_shard_payloads.json`` pins experiment shard payloads;
``golden_path_payloads.json`` pins the visible state of individual
substrate runs -- records, ownership and belief maps, learned counts,
RNG stream positions -- including runs with faults armed.  The path
payloads were recorded from the object-graph reference steps (and
checked equal under the struct-of-arrays steps) before the reference
steps were deleted, so they are now the oracle those steps used to be.

A payload matches when its canonical JSON text equals the committed
one: ``json`` round-trips turn tuples into lists and integer keys into
strings, floats keep their exact ``repr``, and ``NaN`` compares equal
to itself as text.
"""

import json
import os

_HERE = os.path.dirname(__file__)
SHARD_GOLDEN_PATH = os.path.join(_HERE, "golden_shard_payloads.json")
PATH_GOLDEN_PATH = os.path.join(_HERE, "golden_path_payloads.json")

_loaded = {}


def load(path):
    """The committed golden file at ``path`` (parsed once per process)."""
    if path not in _loaded:
        with open(path, "r", encoding="utf-8") as fh:
            _loaded[path] = json.load(fh)
    return _loaded[path]


def canonical(payload):
    """Canonical JSON text of ``payload`` (see the module docstring)."""
    return json.dumps(json.loads(json.dumps(payload)), sort_keys=True)


def assert_matches_path_golden(case, payload):
    """Assert ``payload`` serialises exactly like the committed ``case``."""
    committed = load(PATH_GOLDEN_PATH)[case]
    assert canonical(payload) == json.dumps(committed, sort_keys=True), (
        f"{case} drifted from its committed golden payload")


def record_path_goldens(payloads):
    """Add ``payloads`` (case -> payload) to the committed path goldens.

    Run once, on the parent of the change a new case is meant to guard;
    the file keeps one case per line, sorted, so a diff shows exactly
    which cases were added.
    """
    committed = dict(load(PATH_GOLDEN_PATH))
    committed.update({case: json.loads(canonical(payload))
                      for case, payload in payloads.items()})
    lines = [f" {json.dumps(case)}: "
             f"{json.dumps(committed[case], sort_keys=True)}"
             for case in sorted(committed)]
    with open(PATH_GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    _loaded.pop(PATH_GOLDEN_PATH, None)


def serving_state(sim):
    """A serve or cluster adapter's records, scores and RNG position."""
    return {"records": sim._sim.records, "metrics": sim.metrics(),
            "snapshot": sim.snapshot(),
            "rng": sim._sim.rng.bit_generator.state}


def camera_state(sim):
    """Everything a camera run leaves behind that a step could move."""
    return {
        "records": [(r.time, r.tracking_utility, r.messages, r.handovers,
                     r.owned_objects, r.lost_objects, r.comm_weight)
                    for r in sim.records],
        "ownership": sorted(sim.ownership.items()),
        "market": (sim.market.auctions_run, sim.market.trades,
                   sim.market.volume),
        "usage": {cid: sorted((s.value, n) for s, n in c.usage.items())
                  for cid, c in sim.controllers.items()},
        "rng": sim._rng.bit_generator.state,
    }


def sensornet_state(node):
    """The node's beliefs, sensor counters and every RNG position."""
    return {
        "beliefs": node.beliefs(),
        "total_energy": node.total_energy,
        "sensors": {s.scope.name: (s.samples_taken,
                                   s._rng.bit_generator.state)
                    for s in (node.suite.sensor(sc)
                              for sc in node.suite.scopes())},
        "field_rng": node.field._rng.bit_generator.state,
        "truth": {n: node.field.truth(n) for n in node.field.names()},
    }
