"""The versioned wire protocol: envelopes, codes, capability negotiation."""

import asyncio

import pytest

from repro.serve import (CapabilityError, ErrorCode, InProcessClient,
                         ServerConfig, SimulationServer)
from repro.serve.protocol import (PROTOCOL_VERSION, RETRYABLE, check_version,
                                  error_code, error_response, ok_response)


def run(coro):
    return asyncio.run(coro)


class TestEnvelopes:
    def test_error_response_shape(self):
        response = error_response(ErrorCode.MOVED, "it moved", node="n3")
        assert response["ok"] is False
        assert response["v"] == PROTOCOL_VERSION
        assert response["error"] == {"code": "moved", "message": "it moved",
                                     "retryable": True, "node": "n3"}
        assert "code" not in response

    def test_retryability_is_a_property_of_the_code(self):
        assert ErrorCode.SHED_RATE in RETRYABLE
        assert ErrorCode.MOVED in RETRYABLE
        assert ErrorCode.BAD_REQUEST not in RETRYABLE
        assert ErrorCode.WRONG_NODE not in RETRYABLE
        assert ErrorCode.UNSUPPORTED_VERSION not in RETRYABLE
        assert ErrorCode.TOO_LARGE not in RETRYABLE
        assert ErrorCode.INTERNAL in RETRYABLE

    def test_ok_response_stamps_envelope(self):
        assert ok_response({"x": 1}) == {"x": 1, "ok": True,
                                         "v": PROTOCOL_VERSION}

    def test_error_code_reads_v1_then_v0(self):
        assert error_code(error_response(ErrorCode.MOVED, "m")) == "moved"
        assert error_code({"ok": True, "x": 1}) is None


class TestCheckVersion:
    def test_missing_v_means_one(self):
        assert check_version({"op": "stats"}) is None

    def test_current_version_accepted(self):
        assert check_version({"v": PROTOCOL_VERSION}) is None

    @pytest.mark.parametrize("v", [0, -1, 99, "1", 1.0, True, None])
    def test_bad_versions_rejected_with_supported(self, v):
        response = check_version({"v": v})
        assert response["error"]["code"] == "unsupported_version"
        assert response["error"]["supported"] == PROTOCOL_VERSION


class TestClientCapability:
    def test_future_version_request_raises_capability_error(self):
        async def body():
            server = SimulationServer(ServerConfig(governor="none"))
            await server.start(listen=False)
            try:
                client = InProcessClient(server)
                with pytest.raises(CapabilityError) as excinfo:
                    await client.request({"op": "stats", "v": 99})
                assert excinfo.value.server_version == PROTOCOL_VERSION
            finally:
                await server.stop()

        run(body())

    def test_newer_server_reply_raises_capability_error(self):
        class FutureServer:
            async def dispatch(self, request):
                return {"ok": True, "v": PROTOCOL_VERSION + 1}

        async def body():
            client = InProcessClient(FutureServer())
            with pytest.raises(CapabilityError) as excinfo:
                await client.request({"op": "stats"})
            assert excinfo.value.server_version == PROTOCOL_VERSION + 1

        run(body())

    def test_requests_are_version_stamped(self):
        seen = {}

        class Recorder:
            async def dispatch(self, request):
                seen.update(request)
                return {"ok": True, "v": 1}

        run(InProcessClient(Recorder()).request({"op": "stats"}))
        assert seen["v"] == PROTOCOL_VERSION
