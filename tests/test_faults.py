"""Fault tolerance: injection, isolation, degradation, deadlines, shed.

Three layers of guarantees are pinned down here:

* the :class:`FaultInjector` itself is deterministic (same seed, same
  schedule), transparent when disabled, and honours its matching rules;
* each recovery path of the serving stack -- compile degradation,
  poison-request bisection, demux recovery,
  deadline drops, backpressure shed -- produces structured results while
  every *other* request's output stays bit-identical to a fault-free run;
* the exactly-once property: under arbitrary single-fault schedules,
  every submitted request resolves to exactly one terminal answer (its
  output rows or one ``FailedResult``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (
    CompileError,
    CoraError,
    DeadlineExceeded,
    ExecutionError,
    QueueFull,
)
from repro.core.session import Session
from repro.models.config import TransformerConfig
from repro.models.transformer import EncoderWeights
from repro.serving import (
    BatchScheduler,
    FailedResult,
    Fault,
    FaultInjector,
    Request,
    RequestQueue,
    RequestState,
)
from repro.serving.faults import _corrupt

SMALL = TransformerConfig(hidden_size=16, num_heads=2, head_size=8, ff_size=32,
                          num_layers=2, loop_pad=4, bulk_pad=8,
                          attention_tile=8)

WEIGHTS = EncoderWeights.random(SMALL, seed=0)

LENGTHS = (3, 7, 5, 2, 9, 6, 4, 8)


def _requests(lengths=LENGTHS, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((int(n), SMALL.hidden_size))
            .astype(np.float32) for n in lengths]


def _scheduler(injector=None, **kwargs):
    session = Session(backend="vector", fault_injector=injector)
    return BatchScheduler(WEIGHTS, SMALL, session=session, masked=True,
                          max_batch_size=4, bucket_tolerance=2, **kwargs)


@pytest.fixture(scope="module")
def baseline():
    """Fault-free reference drain over the shared stream."""
    scheduler = _scheduler()
    ids = scheduler.submit_many(_requests())
    return ids, scheduler.drain()


def _assert_bit_identical_except(baseline, ids, results, excluded=()):
    ref_ids, ref = baseline
    for a, b in zip(ref_ids, ids):
        if b in excluded:
            continue
        assert isinstance(results[b], np.ndarray)
        assert np.array_equal(ref[a], results[b])


# ---------------------------------------------------------------------------
# The injector itself
# ---------------------------------------------------------------------------


class TestFaultInjector:
    def test_validates_points_and_actions(self):
        injector = FaultInjector()
        for point in ("nonsense", "pipelined_worker", "process_worker"):
            with pytest.raises(ValueError, match="'demux'"):
                injector.add(point)
        with pytest.raises(ValueError):
            injector.add("run", action="explode")
        with pytest.raises(ValueError):
            Fault(point="run", probability=1.5)
        with pytest.raises(ValueError):
            Fault(point="run", delay_s=-1.0)
        with pytest.raises(ValueError):
            injector.fire("nonsense")

    def test_disabled_injector_is_transparent(self):
        injector = FaultInjector(enabled=False)
        injector.add("run", error=ExecutionError, max_fires=None)
        payload = {"x": np.zeros((3, 2))}
        assert injector.fire("run", payload) is payload
        assert injector.stats()["total_fires"] == 0
        assert injector.stats()["calls"]["run"] == 0

    def test_call_index_matching(self):
        injector = FaultInjector()
        injector.add("run", calls={1}, max_fires=None)
        injector.fire("run")  # call 0: no fire
        with pytest.raises(ExecutionError):
            injector.fire("run")  # call 1: fires
        injector.fire("run")  # call 2: no fire
        assert injector.fires["run"] == 1

    def test_max_fires_and_request_matching(self):
        injector = FaultInjector()
        fault = injector.add("run", request_id=7, max_fires=2)
        injector.fire("run", request_ids=frozenset({1, 2}))  # no match
        for _ in range(2):
            with pytest.raises(ExecutionError):
                injector.fire("run", request_ids=frozenset({7}))
        injector.fire("run", request_ids=frozenset({7}))  # budget spent
        assert fault.fired == 2

    def test_ambient_context_merging(self):
        injector = FaultInjector()
        injector.add("run", request_id=3, max_fires=None)
        injector.set_ambient(request_ids=frozenset({3}))
        with pytest.raises(ExecutionError):
            injector.fire("run")
        # Explicit context overrides the ambient one.
        injector.fire("run", request_ids=frozenset({4}))

    def test_probability_schedule_is_seed_deterministic(self):
        def schedule(seed):
            injector = FaultInjector(seed=seed)
            injector.add("run", probability=0.5, max_fires=None)
            fired = []
            for _ in range(32):
                try:
                    injector.fire("run")
                    fired.append(False)
                except ExecutionError:
                    fired.append(True)
            return fired

        assert schedule(11) == schedule(11)
        assert any(schedule(11)) and not all(schedule(11))

    def test_reset_reproduces_schedule(self):
        injector = FaultInjector(seed=5)
        fault = injector.add("compile", error=CompileError, max_fires=1)
        with pytest.raises(CompileError):
            injector.fire("compile")
        injector.fire("compile")  # exhausted
        injector.reset()
        assert fault.fired == 0
        assert injector.stats()["total_fires"] == 0
        with pytest.raises(CompileError):
            injector.fire("compile")

    def test_delay_and_corrupt_actions(self):
        injector = FaultInjector()
        injector.add("demux", action="delay", delay_s=0.0)
        injector.add("demux", action="corrupt")
        out = injector.fire("demux", np.zeros((4, 2)))
        assert out.shape == (3, 2)

    def test_corrupt_helper_shapes(self):
        assert _corrupt(np.zeros((5, 3))).shape == (4, 3)
        corrupted = _corrupt({"a": np.zeros((2, 2)), "b": "str"})
        assert corrupted["a"].shape == (1, 2)
        assert corrupted["b"] == "str"
        assert _corrupt(None) is None


# ---------------------------------------------------------------------------
# Request lifecycle + bounded queue
# ---------------------------------------------------------------------------


class TestRequestLifecycle:
    def test_terminal_exactly_once(self):
        request = Request(request_id=0, hidden=np.zeros((2, 4), np.float32))
        assert request.state is RequestState.PENDING
        with pytest.raises(ValueError):
            request.mark(RequestState.PENDING)
        request.mark(RequestState.COMPLETED)
        with pytest.raises(CoraError):
            request.mark(RequestState.FAILED)
        with pytest.raises(CoraError):
            request.mark(RequestState.COMPLETED)

    def test_expiry(self):
        request = Request(request_id=0, hidden=np.zeros((2, 4), np.float32),
                          deadline=10.0)
        assert not request.expired(9.9)
        assert request.expired(10.0)
        no_deadline = Request(request_id=1,
                              hidden=np.zeros((2, 4), np.float32))
        assert not no_deadline.expired(1e9)

    def test_bounded_queue_reject_newest(self):
        queue = RequestQueue(capacity=2)
        first = [queue.submit(h) for h in _requests((2, 3))]
        rejected = queue.submit(_requests((4,))[0])
        assert len(queue) == 2
        assert rejected not in [r.request_id for r in queue.pop(5)]
        (shed,) = queue.drain_shed()
        assert shed.request_id == rejected
        assert shed.state is RequestState.REJECTED
        assert queue.rejected == 1
        assert queue.drain_shed() == []
        assert first == sorted(first)

    def test_bounded_queue_drop_expired_first(self):
        clock = {"t": 0.0}
        queue = RequestQueue(capacity=2, shed_policy="drop_expired_first",
                             clock=lambda: clock["t"])
        stale = queue.submit(_requests((2,))[0], deadline_s=1.0)
        queue.submit(_requests((3,))[0])
        clock["t"] = 5.0  # the first request is now expired
        fresh = queue.submit(_requests((4,))[0])
        pending = [r.request_id for r in queue.pop(5)]
        assert stale not in pending and fresh in pending
        (shed,) = queue.drain_shed()
        assert shed.request_id == stale
        assert shed.state is RequestState.TIMED_OUT
        assert queue.expired_dropped == 1

    def test_queue_validation(self):
        with pytest.raises(ValueError):
            RequestQueue(capacity=0)
        with pytest.raises(ValueError):
            RequestQueue(shed_policy="whatever")
        queue = RequestQueue()
        with pytest.raises(ValueError):
            queue.submit(np.zeros((2, 4), np.float32), deadline_s=-1.0)
        with pytest.raises(ValueError):
            queue.submit(np.zeros((2, 4), np.float32), max_retries=-1)


# ---------------------------------------------------------------------------
# Admission control at the scheduler
# ---------------------------------------------------------------------------


class TestAdmission:
    def test_hidden_size_mismatch_rejected_at_submit(self):
        scheduler = _scheduler()
        with pytest.raises(ValueError, match="request must be"):
            scheduler.submit(
                np.zeros((4, SMALL.hidden_size + 1), np.float32))
        with pytest.raises(ValueError):
            scheduler.submit(np.zeros((4,), np.float32))
        assert scheduler.pending == 0

    def test_validate_finite_flag(self):
        bad = np.zeros((4, SMALL.hidden_size), np.float32)
        bad[1, 2] = np.nan
        lax = _scheduler()
        lax.submit(bad)  # accepted without the flag (seed behaviour)
        strict = _scheduler(validate_finite=True)
        with pytest.raises(ValueError, match="non-finite"):
            strict.submit(bad)
        bad[1, 2] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            strict.submit(bad)

    def test_scheduler_validates_new_parameters(self):
        with pytest.raises(ValueError):
            _scheduler(max_retries=-1)
        with pytest.raises(ValueError):
            _scheduler(retry_backoff_s=-0.1)

    def test_rejected_requests_resolve_as_failed_results(self):
        scheduler = _scheduler(queue_capacity=3)
        ids = scheduler.submit_many(_requests((2, 3, 4, 5, 6)))
        results = scheduler.drain()
        assert sorted(results) == sorted(ids)
        for rid in ids[3:]:
            failure = results[rid]
            assert isinstance(failure, FailedResult)
            assert failure.state is RequestState.REJECTED
            assert failure.error_type == QueueFull.__name__
        stats = scheduler.stats()
        assert stats["rejected_requests"] == 2
        assert stats["shed_rejected"] == 2
        assert stats["num_completed"] == 3


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------


class TestDeadlines:
    def test_expired_requests_dropped_at_batch_formation(self, baseline):
        clock = {"t": 0.0}
        scheduler = _scheduler(clock=lambda: clock["t"])
        stream = _requests()
        ids = scheduler.submit_many(stream[:4], deadline_s=1.0)
        late = scheduler.submit_many(stream[4:])  # no deadline
        clock["t"] = 2.0
        results = scheduler.drain()
        assert sorted(results) == sorted(ids + late)
        for rid in ids:
            assert isinstance(results[rid], FailedResult)
            assert results[rid].state is RequestState.TIMED_OUT
            assert results[rid].error_type == DeadlineExceeded.__name__
        for rid in late:
            assert isinstance(results[rid], np.ndarray)
        stats = scheduler.stats()
        assert stats["timed_out_requests"] == 4
        # No compute was wasted on the expired requests.
        assert stats["num_completed"] == len(late)

    def test_default_deadline_applies(self):
        clock = {"t": 0.0}
        scheduler = _scheduler(clock=lambda: clock["t"],
                               default_deadline_s=1.0)
        (rid,) = scheduler.submit_many(_requests((4,)))
        clock["t"] = 5.0
        results = scheduler.drain()
        assert results[rid].state is RequestState.TIMED_OUT


# ---------------------------------------------------------------------------
# The fault matrix: one recovery path per injection point
# ---------------------------------------------------------------------------


class TestFaultMatrix:
    def test_with_injector_attached_but_no_faults_bit_identical(self,
                                                                baseline):
        scheduler = _scheduler(FaultInjector(seed=0))
        ids = scheduler.submit_many(_requests())
        results = scheduler.drain()
        _assert_bit_identical_except(baseline, ids, results)
        stats = scheduler.stats()
        assert stats["failed_requests"] == 0
        assert stats["degraded_batches"] == 0
        assert stats["isolation_runs"] == 0

    def test_disabled_injector_bit_identical(self, baseline):
        injector = FaultInjector(seed=0, enabled=False)
        injector.add("compile", error=CompileError, max_fires=None)
        injector.add("run", max_fires=None)
        scheduler = _scheduler(injector)
        ids = scheduler.submit_many(_requests())
        results = scheduler.drain()
        _assert_bit_identical_except(baseline, ids, results)
        assert injector.stats()["total_fires"] == 0

    def test_compile_fault_degrades_to_opbyop(self, baseline):
        injector = FaultInjector(seed=1)
        injector.add("compile", error=CompileError, max_fires=1)
        scheduler = _scheduler(injector)
        ids = scheduler.submit_many(_requests())
        results = scheduler.drain()
        # Degradation recovered the whole batch: nothing failed, and the
        # op-by-op path (same codegen backend) is bit-identical.
        _assert_bit_identical_except(baseline, ids, results)
        stats = scheduler.stats()
        assert stats["degraded_batches"] == 1
        assert stats["failed_requests"] == 0
        assert injector.fires["compile"] == 1

    def test_poison_request_isolated_by_bisection(self, baseline):
        injector = FaultInjector(seed=2)
        injector.add("run", request_id=2, error=ExecutionError,
                     max_fires=None)
        scheduler = _scheduler(injector)
        ids = scheduler.submit_many(_requests())
        results = scheduler.drain()
        poison = ids[2]
        failure = results[poison]
        assert isinstance(failure, FailedResult)
        assert failure.state is RequestState.FAILED
        assert failure.error_type == "ExecutionError"
        assert "injected" in failure.message
        assert failure.attempts >= 1
        _assert_bit_identical_except(baseline, ids, results,
                                     excluded={poison})
        stats = scheduler.stats()
        assert stats["failed_requests"] == 1
        assert stats["isolation_runs"] > 0
        assert stats["num_completed"] == len(ids) - 1

    def test_corrupted_output_detected_and_isolated(self, baseline):
        injector = FaultInjector(seed=3)
        injector.add("run", request_id=5, action="corrupt", max_fires=None)
        scheduler = _scheduler(injector)
        ids = scheduler.submit_many(_requests())
        results = scheduler.drain()
        poison = ids[5]
        assert isinstance(results[poison], FailedResult)
        assert results[poison].error_type == "ExecutionError"
        assert "shape" in results[poison].message
        _assert_bit_identical_except(baseline, ids, results,
                                     excluded={poison})

    def test_retry_budget_recovers_transient_fault(self, baseline):
        # The fault fires three times -- full batch, bisected half, and
        # the first singleton attempt; a budget of three isolated retries
        # outlasts it, so the request completes instead of failing.
        injector = FaultInjector(seed=4)
        injector.add("run", request_id=1, error=ExecutionError, max_fires=3)
        scheduler = _scheduler(injector, max_retries=3)
        ids = scheduler.submit_many(_requests())
        results = scheduler.drain()
        _assert_bit_identical_except(baseline, ids, results)
        stats = scheduler.stats()
        assert stats["failed_requests"] == 0
        assert stats["retries"] >= 1

    def test_demux_fault_recovers_in_overlapped_drain(self, baseline):
        for action in ("raise", "corrupt"):
            injector = FaultInjector(seed=6)
            injector.add("demux", action=action, max_fires=1)
            scheduler = _scheduler(injector, overlap_demux=True)
            ids = scheduler.submit_many(_requests())
            results = scheduler.drain()
            _assert_bit_identical_except(baseline, ids, results)
            stats = scheduler.stats()
            assert stats["demux_recoveries"] == 1
            assert stats["failed_requests"] == 0
            scheduler.close()

    def test_demux_fault_recovers_in_synchronous_step(self, baseline):
        injector = FaultInjector(seed=7)
        injector.add("demux", max_fires=1)
        scheduler = _scheduler(injector)
        ids = scheduler.submit_many(_requests())
        results = scheduler.drain()
        _assert_bit_identical_except(baseline, ids, results)
        assert scheduler.stats()["demux_recoveries"] == 1

    def test_persistent_demux_fault_fails_batch_and_pool_survives(self):
        injector = FaultInjector(seed=8)
        injector.add("demux", error=ExecutionError, max_fires=None)
        scheduler = _scheduler(injector, overlap_demux=True)
        ids = scheduler.submit_many(_requests())
        results = scheduler.drain()
        assert sorted(results) == sorted(ids)
        for rid in ids:
            assert isinstance(results[rid], FailedResult)
            assert results[rid].state is RequestState.FAILED
        # The pool is not wedged: close is idempotent and the scheduler
        # still drains cleanly afterwards.
        scheduler.close()
        scheduler.close()
        injector.enabled = False
        ids2 = scheduler.submit_many(_requests(seed=1))
        results2 = scheduler.drain()
        assert all(isinstance(results2[r], np.ndarray) for r in ids2)
        scheduler.close()

    def test_delay_fault_changes_nothing_but_time(self, baseline):
        injector = FaultInjector(seed=9)
        injector.add("run", action="delay", delay_s=0.001, max_fires=2)
        scheduler = _scheduler(injector)
        ids = scheduler.submit_many(_requests())
        results = scheduler.drain()
        _assert_bit_identical_except(baseline, ids, results)
        assert injector.fires["run"] == 2

    def test_stats_report_all_fault_counters(self):
        scheduler = _scheduler()
        stats = scheduler.stats()
        for key in ("failed_requests", "timed_out_requests",
                    "rejected_requests", "retries", "isolation_runs",
                    "degraded_batches",
                    "demux_recoveries", "shed_rejected", "shed_expired"):
            assert stats[key] == 0


# ---------------------------------------------------------------------------
# Exactly-once delivery under random single-fault schedules
# ---------------------------------------------------------------------------


class TestExactlyOnce:
    @settings(max_examples=12, deadline=None)
    @given(lengths=st.lists(st.integers(min_value=1, max_value=10),
                            min_size=1, max_size=8),
           point=st.sampled_from(["compile", "run", "demux"]),
           action=st.sampled_from(["raise", "corrupt"]),
           call=st.integers(min_value=0, max_value=2),
           target=st.integers(min_value=0, max_value=7),
           seed=st.integers(min_value=0, max_value=3))
    def test_every_request_reaches_exactly_one_terminal_state(
            self, lengths, point, action, call, target, seed):
        injector = FaultInjector(seed=seed)
        if point == "run":
            # Anchor run faults to a request so the poison is stable
            # under bisection; compile/demux faults are call-indexed.
            injector.add(point, action=action,
                         request_id=target % len(lengths), max_fires=None)
        else:
            injector.add(point, action=action,
                         error=CompileError if point == "compile"
                         else ExecutionError,
                         calls={call}, max_fires=1)
        scheduler = _scheduler(injector, max_retries=seed % 2)
        ids = scheduler.submit_many(_requests(lengths, seed=seed))
        results = scheduler.drain()

        # Exactly once: every id resolves exactly once, to rows or to a
        # structured failure in a terminal state; nothing is pending.
        assert sorted(results) == sorted(ids)
        assert scheduler.pending == 0
        assert scheduler.step() == {}
        for rid in ids:
            value = results[rid]
            assert isinstance(value, (np.ndarray, FailedResult))
            if isinstance(value, FailedResult):
                assert value.state.terminal
                assert value.error_type
        # Accounting is consistent: completed + failed covers every id.
        stats = scheduler.stats()
        n_failed = sum(isinstance(results[r], FailedResult) for r in ids)
        assert stats["num_completed"] == len(ids) - n_failed
