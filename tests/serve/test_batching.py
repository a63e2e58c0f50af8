"""Batching: byte-identical to sequential stepping at any worker count."""

import json
import threading

import pytest

from repro.api import SensornetConfig, SwarmConfig
from repro.serve import BatchDispatcher, StepRequest, run_step_batch
from repro.serve import batching


def _requests(n=4, base=0, steps=3):
    return [StepRequest(session_id=f"sess{i}", substrate="sensornet",
                        config=SensornetConfig(steps=200, n_channels=4,
                                               seed=i),
                        base_steps=base, n_steps=steps)
            for i in range(n)]


def _fresh_cache():
    """Start each comparison from a cold worker cache so the from-scratch
    and incremental paths are exercised deliberately, not by accident."""
    batching._WORKER_CACHE.clear()


def _canon(results):
    return json.dumps(results, sort_keys=True)


class TestByteIdentity:
    def test_batched_equals_one_at_a_time(self):
        _fresh_cache()
        batched = run_step_batch(_requests(4))
        _fresh_cache()
        sequential = [run_step_batch([r])[0] for r in _requests(4)]
        assert _canon(batched) == _canon(sequential)

    def test_pool_equals_in_process_fresh_and_incremental(self):
        """The acceptance claim: worker count is invisible in the output,
        both from step zero and when resuming mid-run."""
        reference = BatchDispatcher(workers=0, max_batch=2)
        _fresh_cache()
        ref_fresh = reference.submit(_requests(4, base=0, steps=5))
        ref_more = reference.submit(_requests(4, base=5, steps=5))

        with BatchDispatcher(workers=2, max_batch=2) as pooled:
            got_fresh = pooled.submit(_requests(4, base=0, steps=5))
            got_more = pooled.submit(_requests(4, base=5, steps=5))

        assert _canon(got_fresh) == _canon(ref_fresh)
        assert _canon(got_more) == _canon(ref_more)

    def test_cache_hit_equals_replay_from_scratch(self):
        _fresh_cache()
        warm = run_step_batch(_requests(1, base=0, steps=6))
        warm_more = run_step_batch(_requests(1, base=6, steps=4))  # cached
        _fresh_cache()
        cold = run_step_batch(_requests(1, base=6, steps=4))       # replayed
        assert _canon(warm_more) == _canon(cold)
        assert warm[0]["steps_taken"] == 6
        assert cold[0]["steps_taken"] == 10

    def test_worker_cache_keeps_the_most_recent_sessions(self):
        _fresh_cache()
        limit = batching._WORKER_CACHE_LIMIT
        requests = _requests(limit + 2, steps=1)
        run_step_batch(requests[:2])
        run_step_batch(requests[2:])
        run_step_batch(requests[:1])      # sess0 is rebuilt, sess2 goes
        assert len(batching._WORKER_CACHE) == limit
        assert list(batching._WORKER_CACHE)[-1] == "sess0"
        assert "sess1" not in batching._WORKER_CACHE
        assert "sess2" not in batching._WORKER_CACHE

    def test_dispatcher_steps_through_its_own_simulator_map(self):
        """A server hands its session table's map to the dispatcher:
        in-process batches then take from and store to that map alone,
        so its simulators live until the owner drops them."""
        _fresh_cache()
        simulators = {}
        dispatcher = BatchDispatcher(workers=0, simulators=simulators)
        first = dispatcher.submit(_requests(2, base=0, steps=3))
        assert set(simulators) == {"sess0", "sess1"}
        assert len(batching._WORKER_CACHE) == 0
        live = simulators["sess0"][1]
        more = dispatcher.submit(_requests(2, base=3, steps=2))
        assert simulators["sess0"][1] is live          # stepped in place
        assert simulators["sess0"][2] == 5
        assert [r["steps_taken"] for r in first + more] == [3, 3, 5, 5]
        assert _canon(more) == _canon(run_step_batch(
            _requests(2, base=3, steps=2), {}))        # replay agrees

    def test_results_are_json_safe(self):
        _fresh_cache()
        for result in run_step_batch(_requests(2)):
            assert set(result) == {"session", "steps_taken", "metrics",
                                   "snapshot"}
            json.dumps(result)


class TestPlanning:
    def test_batches_group_by_substrate_and_cap_at_max_batch(self):
        mixed = _requests(5) + [
            StepRequest("sw0", "swarm", SwarmConfig(steps=30, n_robots=4),
                        0, 1)]
        dispatcher = BatchDispatcher(workers=0, max_batch=2)
        plan = dispatcher._plan(mixed)
        assert [len(batch) for batch in plan] == [2, 2, 1, 1]
        for batch in plan:
            assert len({r.substrate for _, r in batch}) == 1

    def test_results_align_with_input_order_across_substrates(self):
        _fresh_cache()
        mixed = [
            StepRequest("sw0", "swarm", SwarmConfig(steps=30, n_robots=4,
                                                    seed=1), 0, 1),
            _requests(1)[0],
        ]
        dispatcher = BatchDispatcher(workers=0, max_batch=8)
        results = dispatcher.submit(mixed)
        assert [r["session"] for r in results] == ["sw0", "sess0"]
        assert dispatcher.batches_run == 2  # one per substrate
        assert dispatcher.requests_run == 2

    def test_empty_submit_is_a_noop(self):
        dispatcher = BatchDispatcher(workers=0)
        assert dispatcher.submit([]) == []
        assert dispatcher.batches_run == 0

    def test_resize_changes_worker_count(self):
        dispatcher = BatchDispatcher(workers=0)
        dispatcher.resize(3)
        assert dispatcher.workers == 3
        dispatcher.resize(0)
        assert dispatcher.workers == 0

    def test_resize_during_submit_never_breaks_a_batch(self):
        """The server calls submit() (batch loop) and resize() (governor
        loop) from different executor threads; a resize shutting the
        pool down under an in-flight submit must block, not raise
        'cannot schedule new futures after shutdown'."""
        dispatcher = BatchDispatcher(workers=1, max_batch=2)
        failures = []

        def stepper():
            try:
                for base in range(0, 8, 2):
                    results = dispatcher.submit(
                        _requests(2, base=base, steps=2))
                    assert [r["steps_taken"] for r in results] == \
                        [base + 2, base + 2]
            except Exception as exc:  # noqa: BLE001 - recorded for the assert
                failures.append(exc)

        thread = threading.Thread(target=stepper)
        thread.start()
        for workers in (2, 1, 2):
            dispatcher.resize(workers)
        thread.join()
        dispatcher.close()
        assert not failures, f"submit raced resize: {failures[0]!r}"

    @pytest.mark.parametrize("kwargs", [dict(workers=-1), dict(max_batch=0)])
    def test_rejects_degenerate_parameters(self, kwargs):
        with pytest.raises(ValueError):
            BatchDispatcher(**kwargs)
