"""Property tests for the continuous-batching scheduler.

For arbitrary arrival orders, sequence lengths, batch sizes and bucket
tolerances the scheduler must (a) return every request exactly once,
(b) produce outputs identical to a direct ``Session.run`` over the same
batch rows, and (c) reuse compiled programs more as the bucket tolerance
coarsens along a divisibility chain (hit counts monotone).  Padded
execution (tolerance > 1) is only exact under causal masking, so the
unmasked scheduler must reject it; padded masked results must stay
numerically close to the unpadded execution of the same request.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session import Session
from repro.models.config import TransformerConfig
from repro.models.transformer import EncoderWeights
from repro.serving import BatchScheduler, RequestQueue, bucketed_length

SMALL = TransformerConfig(hidden_size=16, num_heads=2, head_size=8, ff_size=32,
                          num_layers=2, loop_pad=4, bulk_pad=8,
                          attention_tile=8)

WEIGHTS = EncoderWeights.random(SMALL, seed=0)


def _requests(lengths, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((int(n), SMALL.hidden_size))
            .astype(np.float32) for n in lengths]


# ---------------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------------


class TestSchedulerProperties:
    @settings(max_examples=15, deadline=None)
    @given(lengths=st.lists(st.integers(min_value=1, max_value=12),
                            min_size=1, max_size=8),
           tolerance=st.sampled_from([1, 2, 4]),
           max_batch=st.integers(min_value=1, max_value=4),
           seed=st.integers(min_value=0, max_value=3))
    def test_every_request_exactly_once_and_rows_match_direct_run(
            self, lengths, tolerance, max_batch, seed):
        session = Session(backend="vector")
        scheduler = BatchScheduler(WEIGHTS, SMALL, session=session,
                                   masked=True, max_batch_size=max_batch,
                                   bucket_tolerance=tolerance,
                                   log_batches=True)
        ids = scheduler.submit_many(_requests(lengths, seed=seed))
        results = scheduler.drain()

        # Exactly once: every id answered, nothing pending, nothing extra.
        assert sorted(results) == sorted(ids)
        assert len(set(ids)) == len(ids)
        assert scheduler.pending == 0
        assert scheduler.step() == {}

        # Each result has its request's shape and matches a direct
        # Session.run over the same (padded) batch rows bit for bit.
        for rid, n in zip(ids, lengths):
            assert results[rid].shape == (n, SMALL.hidden_size)
        assert scheduler.replay_bit_identical(results)

        stats = scheduler.stats()
        assert stats["num_completed"] == len(ids)
        assert stats["valid_tokens"] == sum(lengths)
        assert stats["padded_tokens"] == sum(
            bucketed_length(n, tolerance) for n in lengths)
        assert (stats["signature_hits"] + stats["signature_misses"]
                == stats["num_batches"])

    @settings(max_examples=10, deadline=None)
    @given(lengths=st.lists(st.integers(min_value=1, max_value=10),
                            min_size=1, max_size=6),
           max_batch=st.integers(min_value=1, max_value=3))
    def test_unmasked_exact_signatures_match_direct_run(self, lengths,
                                                        max_batch):
        session = Session(backend="vector")
        scheduler = BatchScheduler(WEIGHTS, SMALL, session=session,
                                   masked=False, max_batch_size=max_batch,
                                   bucket_tolerance=1, log_batches=True)
        ids = scheduler.submit_many(_requests(lengths, seed=1))
        results = scheduler.drain()
        assert sorted(results) == sorted(ids)
        assert scheduler.replay_bit_identical(results)
        assert scheduler.stats()["padding_overhead"] == 0.0

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100))
    def test_cache_hits_monotone_in_bucket_tolerance(self, seed):
        rng = np.random.default_rng(seed)
        stream = _requests(rng.integers(1, 17, size=24), seed=seed)
        hits = []
        for tolerance in (1, 2, 4, 8):
            session = Session(backend="vector")
            scheduler = BatchScheduler(WEIGHTS, SMALL, session=session,
                                       masked=True, max_batch_size=4,
                                       bucket_tolerance=tolerance)
            scheduler.submit_many(stream)
            scheduler.drain()
            stats = scheduler.stats()
            hits.append(stats["signature_hits"])
            assert stats["num_batches"] == 6
        # Coarser buckets along a divisibility chain merge signatures, so
        # compiled-program reuse can only grow.
        assert hits == sorted(hits)


# ---------------------------------------------------------------------------
# Padding semantics and validation
# ---------------------------------------------------------------------------


class TestSchedulerPaddingAndValidation:
    def test_padding_requires_causal_masking(self):
        with pytest.raises(ValueError):
            BatchScheduler(WEIGHTS, SMALL, masked=False, bucket_tolerance=4)
        BatchScheduler(WEIGHTS, SMALL, masked=False, bucket_tolerance=1)

    def test_padded_outputs_close_to_unpadded_execution(self):
        session = Session(backend="vector")
        stream = _requests([3, 7, 5, 2, 9, 6], seed=3)
        padded = BatchScheduler(WEIGHTS, SMALL, session=session, masked=True,
                                max_batch_size=3, bucket_tolerance=8)
        exact = BatchScheduler(WEIGHTS, SMALL, session=session, masked=True,
                               max_batch_size=3, bucket_tolerance=1)
        padded.submit_many(stream)
        exact.submit_many(stream)
        got = padded.drain()
        ref = exact.drain()
        assert padded.stats()["padded_tokens"] > exact.stats()["padded_tokens"]
        for (gid, g), (rid, r) in zip(sorted(got.items()),
                                      sorted(ref.items())):
            assert g.shape == r.shape
            assert np.allclose(g, r, atol=1e-5)

    def test_rejects_wrong_hidden_size_and_bad_config(self):
        scheduler = BatchScheduler(WEIGHTS, SMALL)
        with pytest.raises(ValueError):
            scheduler.submit(np.zeros((4, SMALL.hidden_size + 1), np.float32))
        with pytest.raises(ValueError):
            scheduler.submit(np.zeros((0, SMALL.hidden_size), np.float32))
        with pytest.raises(ValueError):
            BatchScheduler(WEIGHTS, SMALL, max_batch_size=0)
        with pytest.raises(ValueError):
            BatchScheduler(WEIGHTS, SMALL, bucket_tolerance=-1)
        with pytest.raises(ValueError):
            # Replay needs the (opt-in) batch log.
            scheduler.replay_bit_identical({})

    def test_canonical_slot_order_is_deterministic(self):
        session = Session(backend="vector")
        scheduler = BatchScheduler(WEIGHTS, SMALL, session=session,
                                   masked=True, max_batch_size=4,
                                   bucket_tolerance=2, log_batches=True)
        scheduler.submit_many(_requests([3, 9, 5, 9], seed=4))
        scheduler.drain()
        (batch,) = scheduler.batch_log
        assert batch.signature == tuple(sorted(batch.signature, reverse=True))
        # Ties (the two length-9 requests) stay in arrival order.
        tied = [r.request_id for r in batch.requests if r.length == 9]
        assert tied == sorted(tied)

    def test_stats_scoped_to_this_scheduler_on_shared_session(self):
        # Earlier activity on a shared session (another scheduler's
        # drains, direct compiles) must not leak into stats(): the
        # counters are deltas since construction.
        session = Session(backend="vector")
        first = BatchScheduler(WEIGHTS, SMALL, session=session, masked=True,
                               max_batch_size=2, bucket_tolerance=2)
        first.submit_many(_requests([3, 5, 3, 5], seed=7))
        first.drain()
        assert first.stats()["signature_misses"] >= 1

        second = BatchScheduler(WEIGHTS, SMALL, session=session, masked=True,
                                max_batch_size=2, bucket_tolerance=2)
        fresh = second.stats()
        assert fresh["signature_hits"] == 0
        assert fresh["signature_misses"] == 0
        assert fresh["program_compiles"] == 0
        assert fresh["distinct_signatures"] == 0
        second.submit_many(_requests([3, 5], seed=8))
        second.drain()
        # The second scheduler's lone batch repeats a signature the first
        # already compiled: it counts as ITS one hit, nothing more.
        assert second.stats()["signature_hits"] == 1
        assert second.stats()["program_compiles"] == 0
        assert second.stats()["distinct_signatures"] == 1

    def test_signature_stats_are_bounded(self):
        session = Session(backend="vector", signature_capacity=4)
        for i in range(8):
            session._note_signature(("sig", i), hit=False)
        assert len(session.signature_stats) == 4
        assert ("sig", 7) in session.signature_stats
        assert ("sig", 0) not in session.signature_stats

    def test_results_are_copies_not_arena_views(self):
        session = Session(backend="vector")
        scheduler = BatchScheduler(WEIGHTS, SMALL, session=session)
        stream = _requests([4, 4], seed=5)
        first_id = scheduler.submit(stream[0])
        first = scheduler.drain()[first_id]
        saved = first.copy()
        second_id = scheduler.submit(stream[1])
        scheduler.drain()
        assert np.array_equal(first, saved)

    def test_overlapped_drain_bit_identical_to_synchronous(self):
        # Pipelining demux of batch k with execution of batch k+1 must not
        # change a single bit of any response, with or without in-place
        # planning.
        stream = _requests([3, 7, 5, 2, 9, 4, 6], seed=9)
        baseline = BatchScheduler(WEIGHTS, SMALL,
                                  session=Session(backend="vector"),
                                  masked=True, max_batch_size=2,
                                  bucket_tolerance=2)
        ids = baseline.submit_many(stream)
        expected = baseline.drain()
        for inplace in (False, True):
            session = Session(backend="vector", inplace=inplace)
            overlapped = BatchScheduler(WEIGHTS, SMALL, session=session,
                                        masked=True, max_batch_size=2,
                                        bucket_tolerance=2,
                                        overlap_demux=True)
            ids2 = overlapped.submit_many(stream)
            results = overlapped.drain()
            assert sorted(results) == sorted(ids2)
            for a, b in zip(ids, ids2):
                assert np.array_equal(expected[a], results[b])
            stats = overlapped.stats()
            assert stats["overlapped_batches"] == stats["num_batches"] > 0

    @pytest.mark.parametrize("max_batch", [1, 2, 4])
    def test_step_runs_exactly_one_batch(self, max_batch):
        scheduler = BatchScheduler(WEIGHTS, SMALL,
                                   session=Session(backend="vector"),
                                   masked=True, max_batch_size=max_batch,
                                   bucket_tolerance=2)
        ids = scheduler.submit_many(_requests([3, 7, 5, 2, 9, 4, 6], seed=3))
        answered = {}
        while scheduler.pending:
            before = scheduler.num_batches
            results = scheduler.step()
            assert scheduler.num_batches == before + 1
            assert 1 <= len(results) <= max_batch
            answered.update(results)
        assert scheduler.step() == {}
        assert sorted(answered) == sorted(ids)
        assert scheduler.num_batches >= -(-len(ids) // max_batch)

    @pytest.mark.parametrize("mode", [{}, {"inplace": True},
                                      {"fuse": True}],
                             ids=["double", "inplace", "fuse"])
    def test_replay_bit_identical_under_each_plan_mode(self, mode):
        scheduler = BatchScheduler(WEIGHTS, SMALL,
                                   session=Session(backend="vector", **mode),
                                   masked=True, max_batch_size=3,
                                   bucket_tolerance=2, log_batches=True)
        ids = scheduler.submit_many(_requests([3, 7, 5, 2, 9, 4, 6], seed=8))
        results = scheduler.drain()
        assert sorted(results) == sorted(ids)
        assert scheduler.replay_bit_identical(results)
        assert scheduler.stats()["fuse"] == bool(mode.get("fuse"))


# ---------------------------------------------------------------------------
# Request queue
# ---------------------------------------------------------------------------


class TestRequestQueue:
    def test_fifo_order_and_monotone_ids(self):
        queue = RequestQueue()
        ids = queue.submit_many(_requests([2, 3, 4], seed=6))
        assert ids == sorted(ids)
        popped = queue.pop(2)
        assert [r.request_id for r in popped] == ids[:2]
        assert len(queue) == 1
        assert queue.pop(5)[0].request_id == ids[2]
        assert queue.pop(5) == []
        assert queue.submitted == 3
        assert queue.popped == 3

    def test_submit_validates_shape(self):
        queue = RequestQueue()
        with pytest.raises(ValueError):
            queue.submit(np.zeros(4, np.float32))
        with pytest.raises(ValueError):
            queue.submit(np.zeros((0, 4), np.float32))
        with pytest.raises(ValueError):
            queue.pop(0)

    def test_bucketed_length(self):
        assert bucketed_length(7, 0) == 7
        assert bucketed_length(7, 1) == 7
        assert bucketed_length(7, 4) == 8
        assert bucketed_length(8, 4) == 8
        assert bucketed_length(1, 8) == 8
        for t1, t2 in ((2, 4), (4, 8), (2, 8)):
            for n in range(1, 33):
                assert (bucketed_length(bucketed_length(n, t1), t2)
                        == bucketed_length(n, t2))
