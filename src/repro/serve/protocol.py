"""The versioned serve wire protocol: envelopes, error codes, capability.

Every JSON-lines frame the serving layer emits -- success or error --
carries a protocol version ``"v": 1`` (:data:`PROTOCOL_VERSION`), so
clients and servers can evolve independently and detect mismatch
structurally instead of by guessing at payload shapes.  Errors are a
single structured object drawn from one enum::

    {"ok": false, "v": 1,
     "error": {"code": "unknown_session",
               "message": "no session 'n1-s000007'",
               "retryable": false}}

rather than the ad-hoc ``{"code": ..., "error": "<string>"}`` pairs of
the v0 wire.

Cluster routing speaks the same dialect: a node that does not hold a
session answers ``moved`` with the owning node in the error object, and
:class:`~repro.serve.cluster.ClusterClient` follows the redirect.  A
version the server does not speak gets ``unsupported_version`` --
surfaced client-side as :class:`CapabilityError`, the structured
version-mismatch path.

Everything here is pure data shaping: no IO, no asyncio.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Dict, Optional

#: The wire protocol version this tree speaks (requests and responses).
PROTOCOL_VERSION = 1


class ErrorCode(str, Enum):
    """The closed set of serve-layer error codes.

    ``retryable`` is a property of the *code*, not of the occurrence:
    shed and routing errors are worth retrying (later, or elsewhere);
    malformed requests and capability mismatches are not.
    """

    #: Malformed frame, unknown op, bad argument or unknown substrate.
    BAD_REQUEST = "bad_request"
    #: The session id is not (or no longer) held anywhere we know of.
    UNKNOWN_SESSION = "unknown_session"
    #: Token bucket empty: offered rate above the sustainable rate.
    SHED_RATE = "shed_rate"
    #: Queue bound hit: admitted-but-unserved backlog too deep.
    SHED_QUEUE = "shed_queue"
    #: The request's ``v`` is newer than this server speaks.
    UNSUPPORTED_VERSION = "unsupported_version"
    #: The session lives on another node; ``error.node`` names it.
    MOVED = "moved"
    #: A migration import landed on a node the cluster did not route
    #: it to (rehydrate-on-wrong-node rejection).
    WRONG_NODE = "wrong_node"
    #: A request line longer than the server's stream limit; the
    #: server answers once and closes the connection.
    TOO_LARGE = "too_large"
    #: Unexpected server-side failure.
    INTERNAL = "internal"


#: Codes a client may meaningfully retry (possibly at another node).
RETRYABLE = frozenset({ErrorCode.SHED_RATE, ErrorCode.SHED_QUEUE,
                       ErrorCode.MOVED, ErrorCode.INTERNAL})


class CapabilityError(RuntimeError):
    """Client-side signal that the peer cannot speak this protocol
    version (an ``unsupported_version`` response, or a reply whose
    ``v`` is newer than the client itself understands)."""

    def __init__(self, message: str, *,
                 server_version: Optional[int] = None) -> None:
        super().__init__(message)
        self.server_version = server_version


def error_response(code: ErrorCode, message: str,
                   **extra: Any) -> Dict[str, Any]:
    """Build the structured v1 error envelope.

    ``extra`` fields ride inside the error object (``node`` for
    ``moved``, ``supported`` for ``unsupported_version``...).
    """
    code = ErrorCode(code)
    error: Dict[str, Any] = {"code": code.value, "message": message,
                             "retryable": code in RETRYABLE}
    error.update(extra)
    return {"ok": False, "v": PROTOCOL_VERSION, "error": error}


def ok_response(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Stamp a success payload with the protocol envelope."""
    payload["ok"] = True
    payload["v"] = PROTOCOL_VERSION
    return payload


def check_version(request: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """Validate a request's declared version.

    A missing ``v`` means 1 (the pre-versioning wire); anything else
    must be an integer in ``[1, PROTOCOL_VERSION]``.  Returns ``None``
    when acceptable, else the ``unsupported_version`` error response.
    """
    v = request.get("v", 1)
    if isinstance(v, bool) or not isinstance(v, int):
        return error_response(ErrorCode.UNSUPPORTED_VERSION,
                              f"protocol version must be an integer, got "
                              f"{v!r}", supported=PROTOCOL_VERSION)
    if not 1 <= v <= PROTOCOL_VERSION:
        return error_response(ErrorCode.UNSUPPORTED_VERSION,
                              f"protocol version {v} not supported "
                              f"(this server speaks <= {PROTOCOL_VERSION})",
                              supported=PROTOCOL_VERSION)
    return None


def error_code(response: Dict[str, Any]) -> Optional[str]:
    """The error code of a response, if it is an error (else ``None``)."""
    if response.get("ok"):
        return None
    error = response.get("error")
    if isinstance(error, dict) and "code" in error:
        return str(error["code"])
    return None
