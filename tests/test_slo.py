"""SLO-aware serving: admission control, adaptive tolerance, and the
deadline/accounting regression fixes.

Four families of guarantees are pinned down here:

* the three PR-9 bugfix regressions, each on a deterministic injected
  clock: a deadline expiring *mid-backoff* resolves ``TIMED_OUT``
  without burning another execution attempt (and the backoff sleep is
  capped by ``max_backoff_s`` and by the time to deadline); a demux
  double-fault rolls back *all* of the batch accounting so
  padding/throughput stats match delivered results; ``stats()`` and
  ``fusion_stats()`` perform zero program builds;
* the admission layer: FIFO stays bit-identical to the seed scheduler,
  priority + EDF reorder batch membership (never slot canonicalisation),
  the starvation bound holds, and a faulty policy falls back to FIFO via
  the ``admission`` injection point;
* the adaptive ``bucket_tolerance`` controller: bounded power-of-two
  moves driven by window hit-rate/overhead, masked-only above 1;
* a hypothesis property: goodput accounting matches the terminal-state
  census exactly-once under random fault schedules on simulated time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ExecutionError
from repro.core.session import Session
from repro.models.config import TransformerConfig
from repro.models.transformer import EncoderWeights
from repro.serving import (
    AdaptiveTolerance,
    BatchScheduler,
    FailedResult,
    FaultInjector,
    FifoAdmission,
    LatencyHistogram,
    PriorityDeadlineAdmission,
    Request,
    RequestQueue,
    RequestState,
    SimulatedClock,
    get_admission_policy,
)

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
    kwargs.setdefault("max_batch_size", 4)
    kwargs.setdefault("bucket_tolerance", 2)
    return BatchScheduler(WEIGHTS, SMALL, session=session, masked=True,
                          **kwargs)


def _pending_request(request_id, *, priority=1, deadline=None, skips=0,
                     length=4):
    return Request(request_id=request_id,
                   hidden=np.zeros((length, SMALL.hidden_size),
                                   dtype=np.float32),
                   priority=priority, deadline=deadline, skips=skips)


# ---------------------------------------------------------------------------
# Regression: deadline vs. backoff sleep (_resolve_singleton)
# ---------------------------------------------------------------------------


class TestBackoffDeadlineRegression:
    def test_deadline_expiring_mid_backoff_times_out_without_extra_attempt(
            self):
        clock = SimulatedClock()
        injector = FaultInjector(seed=0)
        injector.add("run", request_id=0, error=ExecutionError,
                     max_fires=None)
        scheduler = _scheduler(injector, clock=clock, sleeper=clock.advance,
                               retry_backoff_s=1.0)
        rid = scheduler.submit(_requests((5,))[0], deadline_s=1.5,
                               max_retries=2)
        results = scheduler.drain()
        result = results[rid]
        assert isinstance(result, FailedResult)
        assert result.state is RequestState.TIMED_OUT
        # attempt 1 at t=0 fails; backoff sleeps 1.0s; attempt 2 at t=1.0
        # fails; the next backoff (nominally 2.0s) is capped at the 0.5s
        # to deadline, and the post-sleep re-check resolves TIMED_OUT --
        # the buggy version slept the full 2.0s and burned attempt 3.
        assert result.attempts == 2
        assert clock.now() == pytest.approx(1.5)
        assert scheduler.stats()["timed_out_requests"] == 1

    def test_backoff_is_capped_by_max_backoff_s(self):
        clock = SimulatedClock()
        injector = FaultInjector(seed=0)
        injector.add("run", request_id=0, error=ExecutionError,
                     max_fires=None)
        scheduler = _scheduler(injector, clock=clock, sleeper=clock.advance,
                               retry_backoff_s=1.0, max_backoff_s=2.0)
        rid = scheduler.submit(_requests((5,))[0], max_retries=3)
        results = scheduler.drain()
        result = results[rid]
        assert isinstance(result, FailedResult)
        assert result.state is RequestState.FAILED
        assert result.attempts == 4
        # sleeps 1 + 2 + 2 (capped), not the uncapped 1 + 2 + 4.
        assert clock.now() == pytest.approx(5.0)

    def test_backoff_sleeps_through_the_injectable_sleeper(self):
        slept = []
        clock = SimulatedClock()

        def sleeper(dt):
            slept.append(dt)
            clock.advance(dt)

        injector = FaultInjector(seed=0)
        injector.add("run", request_id=0, error=ExecutionError,
                     max_fires=None)
        scheduler = _scheduler(injector, clock=clock, sleeper=sleeper,
                               retry_backoff_s=0.5, max_backoff_s=8.0)
        scheduler.submit(_requests((5,))[0], max_retries=2)
        scheduler.drain()
        assert slept == [0.5, 1.0]

    def test_invalid_max_backoff_rejected(self):
        with pytest.raises(ValueError):
            _scheduler(max_backoff_s=0.0)


# ---------------------------------------------------------------------------
# Regression: demux double-fault rollback
# ---------------------------------------------------------------------------


class TestDemuxRollbackRegression:
    def test_double_fault_rolls_back_all_batch_accounting(self):
        injector = FaultInjector(seed=8)
        injector.add("demux", error=ExecutionError, max_fires=None)
        scheduler = _scheduler(injector, overlap_demux=True)
        ids = scheduler.submit_many(_requests())
        results = scheduler.drain()
        assert all(isinstance(results[r], FailedResult) for r in ids)
        stats = scheduler.stats()
        # Nothing was delivered, so none of the batch accounting sticks:
        # the buggy rollback only decremented num_completed, leaving
        # num_batches/valid_tokens/padded_tokens (and padding_overhead)
        # describing batches whose outputs were never delivered.
        assert stats["num_completed"] == 0
        assert stats["num_batches"] == 0
        assert stats["valid_tokens"] == 0
        assert stats["padded_tokens"] == 0
        assert stats["padding_overhead"] == 0.0
        assert stats["failed_requests"] == len(ids)
        scheduler.close()

    def test_double_fault_counts_each_request_once(self):
        # One demux-poisoned batch among healthy ones: only that batch's
        # requests fail, and failed_requests matches the failed set
        # exactly (no double counting of already-terminal requests).
        injector = FaultInjector(seed=8)
        injector.add("demux", error=ExecutionError, calls={0, 1},
                     max_fires=None)
        scheduler = _scheduler(injector)
        ids = scheduler.submit_many(_requests())
        results = scheduler.drain()
        failed = [r for r in ids if isinstance(results[r], FailedResult)]
        stats = scheduler.stats()
        assert stats["failed_requests"] == len(failed)
        assert stats["num_completed"] == len(ids) - len(failed)
        # Delivered tokens only: valid_tokens counts the completed
        # requests' rows, nothing from the rolled-back batch.
        delivered_tokens = sum(results[r].shape[0] for r in ids
                               if not isinstance(results[r], FailedResult))
        assert stats["valid_tokens"] == delivered_tokens


# ---------------------------------------------------------------------------
# Regression: stats() performs zero program builds
# ---------------------------------------------------------------------------


class TestStatsZeroBuildsRegression:
    def test_stats_and_fusion_stats_build_no_programs(self, monkeypatch):
        scheduler = _scheduler()
        scheduler.submit_many(_requests())
        scheduler.drain()
        compiles_before = scheduler.session.stats()["program_compiles"]

        import repro.serving.scheduler as sched_mod

        def _boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("stats() built an encoder program")

        monkeypatch.setattr(sched_mod, "encoder_stack_program", _boom)
        stats = scheduler.stats()
        assert "fusion_by_signature" not in stats
        fusion = scheduler.stats(include_fusion=True)["fusion_by_signature"]
        assert fusion  # the drained signatures are all reported ...
        assert set(fusion) <= set(scheduler._program_uids)
        direct = scheduler.fusion_stats()
        assert set(direct) == set(fusion)
        # ... and nothing compiled or built along the way.
        assert scheduler.session.stats()["program_compiles"] \
            == compiles_before

    def test_fusion_stats_reports_dispatch_counts(self):
        scheduler = _scheduler()
        scheduler.submit_many(_requests())
        scheduler.drain()
        for info in scheduler.fusion_stats().values():
            assert info["kernel_dispatches"] >= 1
            assert info["host_dispatches"] >= 0


# ---------------------------------------------------------------------------
# Admission policies
# ---------------------------------------------------------------------------


class TestAdmissionPolicies:
    def test_get_admission_policy_resolution(self):
        assert isinstance(get_admission_policy("fifo"), FifoAdmission)
        assert isinstance(get_admission_policy(None), FifoAdmission)
        assert isinstance(get_admission_policy("priority_edf"),
                          PriorityDeadlineAdmission)
        policy = PriorityDeadlineAdmission(arrival_window=4)
        assert get_admission_policy(policy) is policy
        with pytest.raises(ValueError):
            get_admission_policy("nonsense")
        with pytest.raises(ValueError):
            PriorityDeadlineAdmission(arrival_window=0)
        with pytest.raises(ValueError):
            PriorityDeadlineAdmission(starvation_limit=0)

    def test_fifo_admission_matches_seed_scheduler_bit_for_bit(self):
        plain = _scheduler()
        ids_a = plain.submit_many(_requests())
        ref = plain.drain()
        fifo = _scheduler(admission="fifo")
        ids_b = fifo.submit_many(_requests())
        out = fifo.drain()
        for a, b in zip(ids_a, ids_b):
            assert np.array_equal(ref[a], out[b])
        assert fifo.stats()["admission"] == "fifo"

    def test_priority_classes_jump_the_queue(self):
        queue = RequestQueue()
        for i in range(6):
            queue.submit(np.zeros((4, SMALL.hidden_size), dtype=np.float32),
                         priority=2)
        interactive = queue.submit(
            np.zeros((4, SMALL.hidden_size), dtype=np.float32), priority=0)
        policy = PriorityDeadlineAdmission(arrival_window=32)
        chosen = policy.select(queue, 4, now=0.0)
        assert interactive in [r.request_id for r in chosen]

    def test_earliest_deadline_first_within_a_class(self):
        queue = RequestQueue(clock=lambda: 0.0)
        ids = [queue.submit(np.zeros((4, SMALL.hidden_size),
                                     dtype=np.float32),
                            deadline_s=d)
               for d in (9.0, 1.0, 5.0, 3.0)]
        policy = PriorityDeadlineAdmission()
        chosen = policy.select(queue, 2, now=0.0)
        assert [r.request_id for r in chosen] == [ids[1], ids[3]]

    def test_starvation_bound_promotes_passed_over_requests(self):
        queue = RequestQueue()
        batch_rid = queue.submit(
            np.zeros((4, SMALL.hidden_size), dtype=np.float32), priority=2)
        policy = PriorityDeadlineAdmission(starvation_limit=2)
        rounds_passed_over = 0
        for _ in range(8):
            queue.submit(np.zeros((4, SMALL.hidden_size), dtype=np.float32),
                         priority=0)
            chosen = policy.select(queue, 1, now=0.0)
            if chosen[0].request_id == batch_rid:
                break
            rounds_passed_over += 1
        else:
            pytest.fail("low-priority request starved past the bound")
        # Passed over exactly starvation_limit rounds, then served ahead
        # of the fresh interactive request.
        assert rounds_passed_over == 2

    def test_selection_window_bounds_reordering(self):
        queue = RequestQueue()
        first = queue.submit(np.zeros((4, SMALL.hidden_size),
                                      dtype=np.float32), priority=2)
        queue.submit(np.zeros((4, SMALL.hidden_size), dtype=np.float32),
                     priority=2)
        # The urgent request sits outside a window of 2: it cannot jump.
        queue.submit(np.zeros((4, SMALL.hidden_size), dtype=np.float32),
                     priority=0)
        policy = PriorityDeadlineAdmission(arrival_window=2)
        chosen = policy.select(queue, 1, now=0.0)
        assert chosen[0].request_id == first

    def test_edf_scheduler_results_match_fifo_per_request(self):
        fifo = _scheduler()
        ids_a = fifo.submit_many(_requests())
        ref = fifo.drain()
        edf = _scheduler(admission="priority_edf")
        ids_b = [edf.submit(h, priority=i % 3)
                 for i, h in enumerate(_requests())]
        out = edf.drain()
        # Reordering changes batch membership, never per-request math.
        for a, b in zip(ids_a, ids_b):
            assert np.array_equal(ref[a], out[b])

    def test_faulty_admission_policy_falls_back_to_fifo(self):
        injector = FaultInjector(seed=3)
        injector.add("admission", error=ExecutionError, max_fires=1)
        scheduler = _scheduler(injector, admission="priority_edf")
        ids = scheduler.submit_many(_requests())
        results = scheduler.drain()
        assert all(isinstance(results[r], np.ndarray) for r in ids)
        assert scheduler.stats()["admission_fallbacks"] >= 1

    def test_shed_low_priority_evicts_least_valuable(self):
        clock = SimulatedClock()
        scheduler = _scheduler(queue_capacity=2,
                               shed_policy="shed_low_priority", clock=clock)
        stream = _requests((4, 4, 4))
        keep = scheduler.submit(stream[0], priority=0, deadline_s=10.0)
        victim = scheduler.submit(stream[1], priority=2)
        urgent = scheduler.submit(stream[2], priority=0, deadline_s=1.0)
        results = scheduler.drain()
        assert isinstance(results[victim], FailedResult)
        assert results[victim].state is RequestState.REJECTED
        assert isinstance(results[keep], np.ndarray)
        assert isinstance(results[urgent], np.ndarray)

    def test_shed_low_priority_rejects_newcomer_when_least_valuable(self):
        queue = RequestQueue(capacity=1, shed_policy="shed_low_priority")
        queue.submit(np.zeros((4, SMALL.hidden_size), dtype=np.float32),
                     priority=0)
        rid = queue.submit(np.zeros((4, SMALL.hidden_size),
                                    dtype=np.float32), priority=2)
        shed = queue.drain_shed()
        assert [r.request_id for r in shed] == [rid]
        assert shed[0].state is RequestState.REJECTED


# ---------------------------------------------------------------------------
# Request-queue primitives backing admission
# ---------------------------------------------------------------------------


class TestQueuePrimitives:
    def test_peek_does_not_remove(self):
        queue = RequestQueue()
        ids = [queue.submit(np.zeros((4, SMALL.hidden_size),
                                     dtype=np.float32)) for _ in range(3)]
        window = queue.peek(2)
        assert [r.request_id for r in window] == ids[:2]
        assert len(queue) == 3

    def test_take_removes_by_identity_preserving_order(self):
        queue = RequestQueue()
        ids = [queue.submit(np.zeros((4, SMALL.hidden_size),
                                     dtype=np.float32)) for _ in range(4)]
        window = queue.peek(4)
        queue.take([window[1], window[3]])
        assert [r.request_id for r in queue.peek(4)] == [ids[0], ids[2]]
        assert queue.popped == 2

    def test_take_rejects_unknown_requests(self):
        queue = RequestQueue()
        queue.submit(np.zeros((4, SMALL.hidden_size), dtype=np.float32))
        with pytest.raises(ValueError):
            queue.take([_pending_request(99)])


# ---------------------------------------------------------------------------
# Adaptive bucket tolerance
# ---------------------------------------------------------------------------


class TestAdaptiveTolerance:
    def test_propose_widens_on_poor_hit_rate(self):
        ctl = AdaptiveTolerance(max_tolerance=16, target_hit_rate=0.5,
                                max_padding_overhead=0.25)
        assert ctl.propose(2, hit_rate=0.1, padding_overhead=0.1) == 4
        assert ctl.propose(16, hit_rate=0.1, padding_overhead=0.1) == 16

    def test_propose_narrows_on_padding_overrun(self):
        ctl = AdaptiveTolerance(max_tolerance=16, max_padding_overhead=0.25)
        assert ctl.propose(8, hit_rate=0.9, padding_overhead=0.4) == 4
        assert ctl.propose(1, hit_rate=0.9, padding_overhead=0.4) == 1

    def test_propose_holds_in_band(self):
        ctl = AdaptiveTolerance()
        assert ctl.propose(4, hit_rate=0.9, padding_overhead=0.1) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveTolerance(min_tolerance=0)
        with pytest.raises(ValueError):
            AdaptiveTolerance(min_tolerance=4, max_tolerance=2)
        with pytest.raises(ValueError):
            AdaptiveTolerance(interval=0)
        with pytest.raises(ValueError):
            AdaptiveTolerance(target_hit_rate=1.5)
        with pytest.raises(ValueError):
            AdaptiveTolerance(max_padding_overhead=-0.1)

    def test_unmasked_scheduler_rejects_widening_controller(self):
        session = Session(backend="vector")
        with pytest.raises(ValueError):
            BatchScheduler(WEIGHTS, SMALL, session=session, masked=False,
                           adaptive_tolerance=AdaptiveTolerance(
                               max_tolerance=8))

    def test_unmasked_true_shorthand_is_capped_at_one(self):
        session = Session(backend="vector")
        scheduler = BatchScheduler(WEIGHTS, SMALL, session=session,
                                   masked=False, adaptive_tolerance=True)
        assert scheduler.adaptive_tolerance.max_tolerance == 1

    def test_scheduler_widens_under_length_diverse_traffic(self):
        ctl = AdaptiveTolerance(interval=2, target_hit_rate=0.9,
                                max_padding_overhead=10.0)
        scheduler = _scheduler(bucket_tolerance=1, max_batch_size=2,
                               adaptive_tolerance=ctl)
        rng = np.random.default_rng(2)
        # Every batch a fresh signature: hit rate stays low, so the
        # controller widens the tolerance step by step.
        for n in (3, 5, 7, 9, 11, 13, 6, 10, 14, 4, 8, 12):
            scheduler.submit(rng.standard_normal(
                (n, SMALL.hidden_size)).astype(np.float32))
        scheduler.drain()
        assert scheduler.bucket_tolerance > 1
        assert scheduler.stats()["tolerance_adjustments"] >= 1
        assert ctl.trajectory
        for a, b in zip(ctl.trajectory, ctl.trajectory[1:]):
            wide, narrow = max(a["tolerance"], b["tolerance"]), \
                min(a["tolerance"], b["tolerance"])
            assert wide % narrow == 0  # divisibility chain

    def test_adaptation_preserves_results(self):
        plain = _scheduler(bucket_tolerance=1)
        ids_a = plain.submit_many(_requests())
        ref = plain.drain()
        adaptive = _scheduler(bucket_tolerance=1, log_batches=True,
                              adaptive_tolerance=AdaptiveTolerance(
                                  interval=1, target_hit_rate=0.99))
        ids_b = adaptive.submit_many(_requests())
        out = adaptive.drain()
        assert adaptive.replay_bit_identical(out)
        for a, b in zip(ids_a, ids_b):
            assert np.array_equal(ref[a], out[b])


# ---------------------------------------------------------------------------
# Observability: timestamps, histograms, simulated clock
# ---------------------------------------------------------------------------


class TestObservability:
    def test_lifecycle_timestamps_are_ordered(self):
        clock = SimulatedClock()
        scheduler = _scheduler(clock=clock, log_batches=True,
                               service_model=lambda b: 0.25)
        scheduler.submit_many(_requests())
        scheduler.drain()
        seen = 0
        for batch in scheduler.batch_log:
            for request in batch.requests:
                assert request.t_submitted is not None
                assert request.t_formed is not None
                assert request.t_executed is not None
                assert request.t_delivered is not None
                assert (request.t_submitted <= request.t_formed
                        <= request.t_executed <= request.t_delivered)
                seen += 1
        assert seen == len(LENGTHS)

    def test_latency_histograms_by_priority_class(self):
        clock = SimulatedClock()
        scheduler = _scheduler(clock=clock, service_model=lambda b: 0.1)
        for i, h in enumerate(_requests()):
            scheduler.submit(h, priority=i % 2)
        scheduler.drain()
        latency = scheduler.stats()["latency_by_priority"]
        assert set(latency) == {0, 1}
        for hists in latency.values():
            assert set(hists) == {"queue", "execute", "total"}
            assert hists["total"]["count"] >= 1
            assert hists["total"]["p99_s"] >= hists["total"]["p50_s"] >= 0.0

    def test_goodput_counts_deadline_met_completions(self):
        clock = SimulatedClock()
        scheduler = _scheduler(clock=clock, service_model=lambda b: 1.0,
                               max_batch_size=2)
        stream = _requests((4, 4, 4, 4))
        on_time = [scheduler.submit(h, deadline_s=100.0) for h in stream[:2]]
        late = [scheduler.submit(h, deadline_s=1.5) for h in stream[2:]]
        results = scheduler.drain()
        stats = scheduler.stats()
        # The second batch executes after ~1s of service time for the
        # first; its 1.5s deadline passes mid-service, so it completes
        # late (deadlines only *drop* requests at formation time).
        completed = [r for r in on_time + late
                     if isinstance(results[r], np.ndarray)]
        assert stats["goodput_requests"] + stats["late_completions"] \
            == len(completed)
        assert stats["late_completions"] >= 1

    def test_drop_doomed_sheds_infeasible_requests_without_executing(self):
        clock = SimulatedClock()
        scheduler = _scheduler(clock=clock, service_model=lambda b: 1.0,
                               max_batch_size=2, drop_doomed=True)
        stream = _requests((4, 4, 4))
        warm = [scheduler.submit(h, deadline_s=100.0) for h in stream[:2]]
        scheduler.drain()  # seeds the service-time EWMA at 1.0s
        # 0.5s of slack against a ~1s estimated service: predicted to
        # miss, shed at formation, zero execution attempts spent.
        doomed = scheduler.submit(stream[2], deadline_s=0.5)
        results = scheduler.drain()
        assert isinstance(results[doomed], FailedResult)
        assert results[doomed].state is RequestState.TIMED_OUT
        assert results[doomed].attempts == 0
        stats = scheduler.stats()
        assert stats["doomed_dropped"] == 1
        assert all(isinstance(r, int) for r in warm)

    def test_drop_doomed_off_by_default_executes_late(self):
        clock = SimulatedClock()
        scheduler = _scheduler(clock=clock, service_model=lambda b: 1.0,
                               max_batch_size=2)
        stream = _requests((4, 4, 4))
        for h in stream[:2]:
            scheduler.submit(h, deadline_s=100.0)
        scheduler.drain()
        late = scheduler.submit(stream[2], deadline_s=0.5)
        results = scheduler.drain()
        # Without drop_doomed the request executes and completes late.
        assert isinstance(results[late], np.ndarray)
        assert scheduler.stats()["late_completions"] == 1
        assert scheduler.stats()["doomed_dropped"] == 0

    def test_histogram_percentiles_bound_the_data(self):
        hist = LatencyHistogram()
        values = [0.001 * (i + 1) for i in range(100)]
        for v in values:
            hist.record(v)
        summary = hist.summary()
        assert summary["count"] == 100
        assert summary["max_s"] == pytest.approx(0.1)
        assert summary["p50_s"] >= 0.05 * 0.74  # within one log bucket
        assert summary["p50_s"] <= 0.05 * 1.35
        assert summary["p99_s"] <= summary["max_s"]
        assert hist.percentile(0.0) >= 0.0
        with pytest.raises(ValueError):
            hist.percentile(1.5)

    def test_histogram_percentiles_interpolate_inside_the_bucket(self):
        # Latencies of one priority class routinely share a log bucket
        # (8 per decade: edges 33 % apart); reporting the bucket's upper
        # edge made p50 == p99 there.  Interpolation must keep the
        # quantiles apart and within one bucket width of the exact value.
        rng = np.random.default_rng(0)
        values = np.concatenate([rng.uniform(0.0102, 0.0130, 900),
                                 rng.uniform(0.02, 0.2, 100)])
        hist = LatencyHistogram()
        for v in values:
            hist.record(float(v))
        # 90 % of the mass sits inside one bucket.
        lo = max(e for e in hist.edges if e <= values.min())
        assert sum(lo < v <= lo * 10 ** 0.125 for v in values) >= 900
        got = [hist.percentile(q) for q in (0.50, 0.90, 0.99)]
        assert got[0] < got[1] < got[2]
        for estimate, q in zip(got, (50, 90, 99)):
            exact = float(np.percentile(values, q))
            idx = next(i for i, e in enumerate(hist.edges) if exact <= e)
            width = hist.edges[idx] - hist.edges[idx - 1]
            assert abs(estimate - exact) <= width, (q, estimate, exact)
        assert hist.percentile(1.0) == pytest.approx(values.max())
        assert hist.percentile(0.0) <= values.min()

    def test_histogram_record_matches_the_bucket_definition(self):
        hist = LatencyHistogram(min_s=1e-3, max_s=1.0, buckets_per_decade=2)
        for v in (-1.0, 0.0, 1e-3, 1.0000001e-3, hist.edges[3], 1.0, 50.0):
            hist.record(v)
        # (edges[i-1], edges[i]] per bucket; underflow in the first,
        # overflow in the last.
        assert hist.counts[0] == 3 and hist.counts[1] == 1
        assert hist.counts[3] == 1 and hist.counts[-1] == 2
        assert sum(hist.counts) == hist.count == 7
        assert hist.percentile(1.0) == 50.0

    def test_histogram_edges_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram(min_s=0.0)
        with pytest.raises(ValueError):
            LatencyHistogram(min_s=1.0, max_s=0.5)
        with pytest.raises(ValueError):
            LatencyHistogram(buckets_per_decade=0)

    def test_simulated_clock(self):
        clock = SimulatedClock(start=5.0)
        assert clock() == 5.0
        clock.advance(2.5)
        assert clock.now() == 7.5
        clock.advance_to(7.0)  # no going backwards
        assert clock.now() == 7.5
        clock.advance_to(10.0)
        assert clock.now() == 10.0
        with pytest.raises(ValueError):
            clock.advance(-1.0)


# ---------------------------------------------------------------------------
# Property: goodput accounting matches the terminal-state census
# ---------------------------------------------------------------------------


class TestGoodputCensus:
    @settings(max_examples=10, deadline=None)
    @given(lengths=st.lists(st.integers(min_value=1, max_value=10),
                            min_size=1, max_size=8),
           point=st.sampled_from(["compile", "run", "demux", "admission"]),
           target=st.integers(min_value=0, max_value=7),
           deadline=st.sampled_from([None, 0.05, 1.0, 100.0]),
           seed=st.integers(min_value=0, max_value=3))
    def test_goodput_matches_census_exactly_once(self, lengths, point,
                                                 target, deadline, seed):
        clock = SimulatedClock()
        injector = FaultInjector(seed=seed)
        if point == "run":
            injector.add(point, error=ExecutionError,
                         request_id=target % len(lengths), max_fires=None)
        else:
            injector.add(point, error=ExecutionError, calls={0},
                         max_fires=1)
        scheduler = _scheduler(
            injector, clock=clock, sleeper=clock.advance,
            admission="priority_edf", max_retries=seed % 2,
            retry_backoff_s=0.01,
            service_model=lambda b: 0.01 * sum(b.padded_lengths))
        ids = [scheduler.submit(h, priority=i % 3, deadline_s=deadline)
               for i, h in enumerate(_requests(lengths, seed=seed))]
        results = scheduler.drain()

        # Exactly once: every id resolves to rows or a terminal failure.
        assert sorted(results) == sorted(ids)
        assert scheduler.pending == 0
        completed = [r for r in ids if isinstance(results[r], np.ndarray)]
        by_state = {state: 0 for state in RequestState}
        for rid in ids:
            value = results[rid]
            if isinstance(value, FailedResult):
                assert value.state.terminal
                by_state[value.state] += 1
            else:
                by_state[RequestState.COMPLETED] += 1

        stats = scheduler.stats()
        # Goodput accounting is a partition of the completions ...
        assert stats["goodput_requests"] + stats["late_completions"] \
            == len(completed)
        assert stats["num_completed"] == len(completed)
        # ... and the failure counters are a census of the terminal
        # failure states, each counted exactly once.
        assert stats["failed_requests"] == by_state[RequestState.FAILED]
        assert stats["timed_out_requests"] \
            == by_state[RequestState.TIMED_OUT]
        assert stats["rejected_requests"] \
            == by_state[RequestState.REJECTED]
        assert by_state[RequestState.COMPLETED] \
            + by_state[RequestState.FAILED] \
            + by_state[RequestState.TIMED_OUT] \
            + by_state[RequestState.REJECTED] == len(ids)
