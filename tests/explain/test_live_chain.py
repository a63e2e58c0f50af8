"""Acceptance: live decisions resolve to full causal chains.

``why(seq)`` on a live session must return the complete chain behind a
governor resize decision -- the ``serve.scale`` event, causally linked
to the prediction and telemetry-window events it consumed, and (while
degraded) to the open degradation episode.
"""

import asyncio

from repro.explain import ExplanationStore
from repro.obs import TelemetrySession
from repro.serve import (InProcessClient, ServeGovernor, ServerConfig,
                         SimulationServer)

SLO = 8.0


def _stats(*, queue=0.0, arrival=0.0, p95=1.0, util=0.2, shed=0.0,
           pool=1.0, completions=0.0):
    return {"queue_depth": queue, "arrival_rate": arrival,
            "p95_latency": p95, "utilisation": util,
            "shed_fraction": shed, "pool_size": pool,
            "completion_rate": completions}


def _pressured_tick(governor, t):
    """Telemetry that makes growing the pool the right call."""
    pool = governor.pool_target
    saturated = pool < 6
    return governor.tick(float(t), _stats(
        queue=40.0 if saturated else 4.0, arrival=24.0,
        p95=SLO * 1.5 if saturated else 2.0,
        util=1.0 if saturated else 0.8, pool=float(pool),
        completions=min(24.0, pool * 4.0)))


class TestGovernorChain:
    def test_resize_decision_chains_to_prediction_and_telemetry(self):
        with TelemetrySession() as session:
            store = ExplanationStore().attach(session.bus)
            governor = ServeGovernor(slo_p95=SLO, min_workers=1,
                                     max_workers=8, service_rate_guess=4.0,
                                     epsilon=0.0, seed=0)
            resized_at = None
            for t in range(12):
                before = governor.pool_target
                _pressured_tick(governor, t)
                if governor.pool_target != before:
                    resized_at = governor.last_decision_seq
            assert resized_at is not None, "governor never resized"

            chain = store.why(resized_at)
            assert chain["event"] == "serve.scale"
            assert chain["store_truncated"] is False
            by_name = {c["event"]: c for c in chain["causes"]}
            # The decision cites the model's prediction, which in turn
            # cites the telemetry window the cycle deliberated over.
            assert "serve.predict" in by_name
            predict = by_name["serve.predict"]
            assert predict["fields"]["pool"] == governor.pool_target
            assert [c["event"] for c in predict["causes"]] == \
                ["serve.telemetry"]
            # The telemetry window is also cited directly (ambient scope).
            assert "serve.telemetry" in by_name

            # And the aggregate view knows the causal pattern by class.
            answer = store.why_aggregate(kind="serve.scale")
            assert answer["decisions"] == store.counts["serve.scale"]
            assert any("serve.predict" in cause_class
                       for cause_class in answer["causes"]["serve.scale"])

    def test_degraded_decision_cites_the_degradation_episode(self):
        with TelemetrySession() as session:
            store = ExplanationStore().attach(session.bus)
            governor = ServeGovernor(slo_p95=SLO, min_workers=1,
                                     max_workers=8, service_rate_guess=4.0,
                                     epsilon=0.0, seed=0)
            for t in range(10):  # learn what healthy looks like
                _pressured_tick(governor, t)
            for t in range(10, 60):  # then feed contradictory outcomes
                pool = governor.pool_target
                p95 = SLO * 40.0 if t % 2 else 0.0
                governor.tick(float(t), _stats(
                    queue=8.0, arrival=8.0, p95=p95, util=1.0,
                    pool=float(pool), completions=pool * 4.0))
                if governor.degraded:
                    break
            assert governor.degraded, "monitor never tripped"
            assert governor.monitor.cause_seq is not None

            chain = store.why(governor.last_decision_seq)
            assert chain["fields"]["degraded"] is True
            cause_names = {c["event"] for c in chain["causes"]}
            assert "degrade.enter" in cause_names

    def test_disabled_telemetry_leaves_no_handle(self):
        governor = ServeGovernor(slo_p95=SLO, epsilon=0.0, seed=0)
        for t in range(5):
            _pressured_tick(governor, t)
        assert governor.last_decision_seq is None


class TestServerExplainOp:
    def test_explain_op_returns_structured_chain(self):
        async def body():
            server = SimulationServer(ServerConfig(
                workers=0, governor="self_aware", govern_interval=0.02))
            await server.start(listen=False)
            try:
                client = InProcessClient(server)
                # Let the governor loop run a few cycles on the live bus.
                for _ in range(50):
                    await asyncio.sleep(0.02)
                    if getattr(server.governor, "last_decision_seq",
                               None) is not None:
                        break
                assert server.governor.last_decision_seq is not None
                return await client.request({"op": "explain"})
            finally:
                await server.stop()

        with TelemetrySession():
            response = asyncio.run(body())
        assert response["ok"]
        assert "Governor state" in response["explanation"]
        assert response["why"]["event"] == "serve.scale"
        assert {c["event"] for c in response["why"]["causes"]} >= {
            "serve.predict", "serve.telemetry"}
        assert response["decisions"].get("serve.scale", 0) >= 1
        assert response["truncated"] is False

    def test_explain_op_still_works_without_telemetry(self):
        async def body():
            server = SimulationServer(ServerConfig(workers=0,
                                                   governor="none"))
            await server.start(listen=False)
            try:
                return await InProcessClient(server).request({"op": "explain"})
            finally:
                await server.stop()

        response = asyncio.run(body())
        assert response["ok"]
        assert "No governor" in response["explanation"]
        assert "why" not in response  # nothing on the bus, nothing claimed
