"""Wire fuzz: every line a client writes gets exactly one structured reply.

Arbitrary bytes, non-JSON text, non-object JSON, unknown ops and
wrongly-typed fields are written to a listening
:class:`~repro.serve.SimulationServer`.  Each line must be answered by
one JSON object carrying the protocol envelope, and a valid ``hello``
afterwards must still succeed on the same connection.
"""

import asyncio
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve import ServerConfig, SimulationServer
from repro.serve.protocol import ErrorCode

OPS = ["hello", "create", "step", "run", "snapshot", "metrics", "close",
       "stats", "explain", "migrate_out", "migrate_in"]
CODES = {code.value for code in ErrorCode}

TEXT = st.text(st.characters(blacklist_categories=("Cs",),
                             blacklist_characters="\n"), max_size=40)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10, 10),
                    st.floats(allow_nan=False, allow_infinity=False),
                    TEXT)
JSON = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(TEXT, inner, max_size=3)), max_leaves=8)

#: Requests with the right and wrong types in every field the ops read.
#: Step counts stay small and session ids are never ones the server
#: minted, so no line can start a long run.
REQUESTS = st.fixed_dictionaries(
    {"op": st.one_of(st.sampled_from(OPS), TEXT, JSON)},
    optional={"v": st.one_of(st.sampled_from([1, 0, 2]), JSON),
              "session": st.one_of(TEXT.map(lambda t: "fuzz-" + t), JSON),
              "n": st.one_of(st.integers(-3, 3), JSON),
              "substrate": st.one_of(st.sampled_from(["sensornet", "cloud"]),
                                     JSON),
              "config": st.one_of(
                  st.dictionaries(st.sampled_from(["steps", "seed",
                                                   "n_channels", "bogus"]),
                                  SCALARS, max_size=3), JSON),
              "seq": JSON,
              "handle": JSON})

LINES = st.one_of(
    st.binary(max_size=60).map(lambda b: b.replace(b"\n", b"")),
    TEXT.map(str.encode),
    JSON.map(lambda value: json.dumps(value).encode()),
    REQUESTS.map(lambda request: json.dumps(request).encode()))


def is_reply(reply) -> bool:
    """One structured v1 reply: ``ok`` and ``v`` always, a known error
    code when not ok."""
    if not isinstance(reply, dict) or reply.get("v") != 1:
        return False
    if reply.get("ok") is True:
        return True
    error = reply.get("error")
    return (reply.get("ok") is False and isinstance(error, dict)
            and error.get("code") in CODES
            and isinstance(error.get("message"), str))


async def exchange(lines):
    server = SimulationServer(ServerConfig(
        port=0, workers=0, governor="none", admission_rate=1e6,
        admission_burst=1e6))
    await server.start()
    try:
        reader, writer = await asyncio.open_connection(server.host,
                                                       server.port)
        replies = []
        for line in lines:
            writer.write(line + b"\n")
            await writer.drain()
            replies.append(json.loads(await reader.readline()))
        writer.write(b'{"op": "hello", "v": 1}\n')
        await writer.drain()
        hello = json.loads(await reader.readline())
        writer.write_eof()
        trailing = await reader.read()
        writer.close()
        await writer.wait_closed()
    finally:
        await server.stop()
    return replies, hello, trailing


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lines=st.lists(LINES, min_size=1, max_size=6))
def test_every_line_gets_one_structured_reply(lines):
    replies, hello, trailing = asyncio.run(exchange(lines))
    assert len(replies) == len(lines)
    for line, reply in zip(lines, replies):
        assert is_reply(reply), (line, reply)
    assert hello["ok"] is True and hello["protocol"] == 1
    assert trailing == b""
