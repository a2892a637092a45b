"""Continuous batching over the ragged program runtime, fault-tolerantly
and SLO-aware.

The :class:`BatchScheduler` sits between individual ragged requests and
:meth:`repro.Session.run`.  Each scheduling step it selects up to
``max_batch_size`` pending requests -- in arrival order by default, or
by priority class + earliest-deadline-first within a starvation-bounded
arrival window under ``admission="priority_edf"`` (see
:mod:`repro.serving.admission`) -- buckets their lengths
(``bucket_tolerance``), sorts them into a canonical slot order, and the
resulting *raggedness signature* -- the tuple of bucketed lengths --
selects the compiled N-layer encoder program that serves the batch.
Recurring signatures hit the session's compiled-program cache, so no
kernel is re-lowered, no arena re-planned, no prelude rebuilt; the
session's per-signature hit/miss statistics quantify the reuse, and an
optional :class:`~repro.serving.admission.AdaptiveTolerance` controller
feeds those live hit-rate / padding-overhead statistics back into
``bucket_tolerance`` (power-of-two steps, masked-only above 1, so the
padding stays exact and bucket merging stays monotone).

Batches execute through the session's compiled programs, and with
``overlap_demux=True`` the scheduler pipelines *across* batches: the
demultiplexing of batch ``k``'s outputs into per-request rows runs on a
background worker while the main thread already executes batch
``k + 1``.

Bucketing trades compute for reuse exactly like the paper's partial
padding: a tolerance ``t`` pads each sequence with at most ``t - 1``
zero tokens, collapsing nearby lengths onto one signature.  Padding is
only *exact* under causal masking -- a padded key column receives an
additive ``-inf`` mask, its softmax weight is exactly zero, and the valid
rows are unchanged -- so tolerances above 1 require ``masked=True``; the
unmasked encoder attends over every key and must keep exact signatures.

Failure semantics
-----------------
A production drain must survive faults, and every submitted request must
resolve to exactly one terminal answer: its output rows, or a structured
:class:`~repro.serving.faults.FailedResult`.  The recovery ladder, in
order:

1. **Admission control.**  Malformed requests (wrong ``hidden_size``,
   empty, optionally non-finite under ``validate_finite``) are rejected
   at ``submit`` with a ``ValueError`` -- they never reach a batch.  A
   bounded queue sheds under backpressure per its policy
   (``REJECTED`` / ``TIMED_OUT`` results, never an exception mid-drain).
2. **Deadlines.**  Requests whose deadline passed are dropped at
   batch-formation time with ``TIMED_OUT`` results instead of wasting
   batch compute.
3. **Graceful degradation.**  A compile failure
   (:class:`~repro.core.errors.CompileError` / lowering errors) for a
   batch's signature falls back to the retained op-by-op execution path
   (bit-identical when it uses the same codegen backend).
4. **Failure isolation.**  A batch that still raises is *bisected*:
   split-and-retry halves isolate the poison request, healthy rows
   re-run (and complete), and the poison request -- after its retry
   budget, with exponential backoff -- resolves to a ``FAILED`` result
   carrying the error type, message, and attempt count.
5. **Demux recovery.**  A demultiplexing failure (including on the
   overlap worker) is retried once synchronously; outstanding demux
   futures are always flushed, so a failed drain cannot wedge the pool.

Every path above is exercised deterministically by the
:class:`~repro.serving.faults.FaultInjector` (see
``benchmarks/bench_faults.py`` and ``tests/test_faults.py``); with no
injector attached the happy path is the pre-fault-tolerance code, bit
for bit.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, \
    Tuple, Union

import numpy as np

from repro.core.errors import (
    CompileError,
    DeadlineExceeded,
    ExecutionError,
    LoweringError,
)
from repro.core.scheduledb import ScheduleDB
from repro.core.session import Session, default_session
from repro.core.tunespace import raggedness_bucket
from repro.models.config import PAPER_BASE_CONFIG, TransformerConfig
from repro.models.transformer import (
    _weights_per_layer,
    encoder_stack_program,
    run_encoder_layer_opbyop,
)
from repro.ops.projection import unpack_tokens
from repro.serving.admission import (
    AdaptiveTolerance,
    AdmissionPolicy,
    FifoAdmission,
    LatencyHistogram,
    get_admission_policy,
)
from repro.serving.faults import FailedResult, FaultInjector
from repro.serving.queue import (
    Request,
    RequestQueue,
    RequestState,
    bucketed_length,
)

#: Result type a drain resolves each request to.
RequestResult = Union[np.ndarray, FailedResult]

#: Compile-path errors the scheduler degrades on (op-by-op fallback)
#: instead of failing the batch.  ``VectorizeError`` subclasses
#: ``LoweringError``, so per-kernel vectorization failures are covered.
DEGRADABLE_ERRORS = (CompileError, LoweringError)


@dataclass(frozen=True)
class ScheduledBatch:
    """The record of one executed batch (kept when ``log_batches``)."""

    signature: Tuple[int, ...]
    requests: Tuple[Request, ...]
    #: valid lengths per slot (same order as ``signature``)
    lengths: Tuple[int, ...]

    @property
    def padded_lengths(self) -> Tuple[int, ...]:
        """Bucketed (padded) length per slot -- the signature IS the
        per-slot padded length tuple."""
        return self.signature

    @property
    def request_ids(self) -> Tuple[int, ...]:
        return tuple(r.request_id for r in self.requests)

    @property
    def padding_tokens(self) -> int:
        return sum(self.padded_lengths) - sum(self.lengths)

    def padded_inputs(self, hidden_size: int) -> List[np.ndarray]:
        """Rebuild the zero-padded per-slot input matrices of the batch."""
        rows = []
        for request, padded in zip(self.requests, self.padded_lengths):
            mat = np.zeros((padded, hidden_size), dtype=np.float32)
            mat[:request.length] = request.hidden
            rows.append(mat)
        return rows


class BatchScheduler:
    """Groups ragged requests into signature-canonical encoder batches.

    Parameters
    ----------
    weights:
        One :class:`~repro.models.transformer.EncoderWeights` (shared by
        all layers) or a sequence with one weight set per layer.
    config:
        Transformer dimensions; ``hidden_size`` must match the requests.
    session:
        The :class:`~repro.core.session.Session` to compile/run through;
        defaults to the process-wide vector-backend session.
    masked:
        Run the causal-masked encoder.  Required for bucket tolerances
        above 1 (see the module docstring for why padding needs masking).
    n_layers:
        Stack depth when ``weights`` is a single weight set.
    max_batch_size:
        Upper bound on requests per scheduled batch.
    bucket_tolerance:
        Length-bucketing granularity; ``<= 1`` keeps signatures exact.
    sort_by_length:
        Order a batch's slots by descending bucketed length (ties by
        arrival), so any multiset of bucketed lengths maps to *one*
        canonical signature instead of ``k!`` permutations of it.
    log_batches:
        Keep a :class:`ScheduledBatch` record (pinning the request
        arrays) per executed batch, enabling
        :meth:`replay_bit_identical`.  Off by default: the log grows
        with every request served, which a long-running server cannot
        afford -- differential tests and benchmarks opt in.
    overlap_demux:
        Pipeline :meth:`drain` across batches: demultiplex batch ``k``'s
        (copied) outputs on a background worker while batch ``k + 1``
        executes.  ``step`` stays synchronous either way.  Off by
        default; bit-identical when on (the demux math is unchanged,
        only *when* it runs moves).
    queue_capacity:
        Bound on pending requests; ``None`` (default) is unbounded.
    shed_policy:
        Backpressure policy of a bounded queue: ``"reject_newest"``,
        ``"drop_expired_first"``, or ``"shed_low_priority"`` (see
        :class:`RequestQueue`).
    default_deadline_s:
        Deadline (relative seconds) applied to requests submitted
        without an explicit one; ``None`` = no deadline.
    max_retries:
        Default per-request retry budget: extra isolated execution
        attempts a poison-suspected request gets before it is failed.
    retry_backoff_s:
        Base of the exponential backoff slept before isolated retry
        ``k`` (``retry_backoff_s * 2**k`` seconds, capped at
        ``max_backoff_s`` and at the request's remaining deadline);
        ``0`` disables sleeping (the default -- tests and benchmarks
        stay fast).
    max_backoff_s:
        Hard cap on a single backoff sleep, so an uncapped exponential
        cannot park the scheduler for minutes on a deep retry.
    sleeper:
        How backoff sleeps happen (injectable, consistent with the
        injectable ``clock``: tests and trace replays pass a sleeper
        that advances a :class:`~repro.serving.admission.SimulatedClock`
        instead of blocking).  Defaults to ``time.sleep``.
    validate_finite:
        Reject requests containing NaN/Inf values at admission.
    clock:
        Monotonic time source for deadlines (injectable for tests).
    admission:
        Batch-formation policy: ``"fifo"`` (arrival order -- the seed
        behaviour, bit for bit), ``"priority_edf"``, or an
        :class:`~repro.serving.admission.AdmissionPolicy` instance.
    default_priority:
        Priority class applied to requests submitted without one
        (smaller = more urgent).
    adaptive_tolerance:
        Optional :class:`~repro.serving.admission.AdaptiveTolerance`
        controller (or ``True`` for defaults) that widens/narrows
        ``bucket_tolerance`` from the live hit-rate / padding-overhead
        window statistics.  Widening beyond 1 requires ``masked=True``
        (the exactness rule).
    service_model:
        Optional simulated per-batch service time,
        ``f(batch) -> seconds``: after each successful batch execution
        the scheduler advances an *advanceable* clock (one exposing
        ``advance``, e.g. :class:`SimulatedClock`) by the model's cost,
        so trace replays measure queueing and execution latency in
        deterministic virtual time.  Ignored when the clock cannot
        advance.
    drop_doomed:
        Shed requests at batch formation when the live per-batch
        service-time EWMA predicts they cannot complete before their
        deadline (resolved ``TIMED_OUT`` with zero execution attempts
        spent).  Off by default -- the seed behaviour only drops
        *already-expired* requests -- because it trades late completions
        for earlier timeouts, which is the right call for goodput but
        not for best-effort serving.
    schedule_db:
        Optional :class:`~repro.core.scheduledb.ScheduleDB` (or a path /
        ``True`` for the default directory).  Every delivered batch's
        raggedness bucket and valid/padded token counts are recorded
        into the DB's traffic table, so an offline
        :class:`~repro.core.autotune.AutoTuner` run knows which
        signatures dominate live traffic and tunes those first; the
        live dominant-bucket share also feeds the adaptive-tolerance
        controller (hold the tolerance while one tuned bucket owns the
        window).  Independent from the *session's* ``tune=`` mode --
        wire both to close the full loop.
    """

    def __init__(self, weights, config: TransformerConfig = PAPER_BASE_CONFIG,
                 *, session: Optional[Session] = None, masked: bool = False,
                 n_layers: Optional[int] = None, max_batch_size: int = 8,
                 bucket_tolerance: int = 1, sort_by_length: bool = True,
                 log_batches: bool = False, overlap_demux: bool = False,
                 queue_capacity: Optional[int] = None,
                 shed_policy: str = "reject_newest",
                 default_deadline_s: Optional[float] = None,
                 max_retries: int = 0,
                 retry_backoff_s: float = 0.0,
                 max_backoff_s: float = 30.0,
                 sleeper: Callable[[float], None] = time.sleep,
                 validate_finite: bool = False,
                 clock: Callable[[], float] = time.monotonic,
                 admission: Union[str, AdmissionPolicy] = "fifo",
                 default_priority: int = 1,
                 adaptive_tolerance: Union[AdaptiveTolerance, bool,
                                           None] = None,
                 service_model: Optional[
                     Callable[["ScheduledBatch"], float]] = None,
                 drop_doomed: bool = False,
                 schedule_db: Union[ScheduleDB, str, bool, None] = None):
        if max_batch_size <= 0:
            raise ValueError(
                f"max_batch_size must be positive, got {max_batch_size}")
        if bucket_tolerance < 0:
            raise ValueError(
                f"bucket_tolerance must be >= 0, got {bucket_tolerance}")
        if bucket_tolerance > 1 and not masked:
            raise ValueError(
                "bucket_tolerance > 1 pads sequences, which is only exact "
                "under causal masking (padded keys get zero attention "
                "weight); pass masked=True or keep bucket_tolerance <= 1")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff_s < 0:
            raise ValueError(
                f"retry_backoff_s must be >= 0, got {retry_backoff_s}")
        if max_backoff_s <= 0:
            raise ValueError(
                f"max_backoff_s must be positive, got {max_backoff_s}")
        if adaptive_tolerance is True:
            adaptive_tolerance = AdaptiveTolerance(
                max_tolerance=16 if masked else 1)
        elif adaptive_tolerance is False:
            adaptive_tolerance = None
        if adaptive_tolerance is not None \
                and adaptive_tolerance.max_tolerance > 1 and not masked:
            raise ValueError(
                "adaptive tolerance may only widen buckets beyond 1 under "
                "causal masking (padding is exact only then); pass "
                "masked=True or cap the controller at max_tolerance=1")
        self.weights = weights
        self.config = config
        self.session = session or default_session()
        self.masked = bool(masked)
        self.n_layers = n_layers
        self.max_batch_size = int(max_batch_size)
        self.bucket_tolerance = int(bucket_tolerance)
        self.sort_by_length = bool(sort_by_length)
        self.log_batches = bool(log_batches)
        self.overlap_demux = bool(overlap_demux)
        self.default_deadline_s = default_deadline_s
        self.max_retries = int(max_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self.max_backoff_s = float(max_backoff_s)
        self._sleep = sleeper
        self.validate_finite = bool(validate_finite)
        self.admission = get_admission_policy(admission)
        self.default_priority = int(default_priority)
        self.adaptive_tolerance = adaptive_tolerance
        self.service_model = service_model
        self.drop_doomed = bool(drop_doomed)
        #: persistent tuned-schedule store receiving live traffic stats.
        if schedule_db is None or schedule_db is False:
            self.schedule_db: Optional[ScheduleDB] = None
        elif isinstance(schedule_db, ScheduleDB):
            self.schedule_db = schedule_db
        elif schedule_db is True:
            self.schedule_db = ScheduleDB()
        else:
            self.schedule_db = ScheduleDB(schedule_db)
        #: per-adaptation-window batch counts by raggedness bucket,
        #: feeding the controller's dominant-share hold.
        self._window_buckets: Counter = Counter()
        #: EWMA of recent per-batch service time, feeding the
        #: ``drop_doomed`` slack check; ``None`` until a batch completes.
        self._service_ewma: Optional[float] = None
        #: lazily created single-worker pool for overlapped demultiplexing
        self._demux_pool = None

        self.queue = RequestQueue(capacity=queue_capacity,
                                  shed_policy=shed_policy, clock=clock)
        self.batch_log: List[ScheduledBatch] = []
        self.num_batches = 0
        self.num_completed = 0
        self.overlapped_batches = 0
        self.valid_tokens = 0
        self.padded_tokens = 0
        #: structured failures awaiting delivery (request id -> result);
        #: merged into the next ``step``/``drain`` return value.
        self._failures: Dict[int, FailedResult] = {}
        #: fault-tolerance counters (see ``stats``)
        self.failed_requests = 0
        self.timed_out_requests = 0
        self.rejected_requests = 0
        self.retries = 0
        self.isolation_runs = 0
        self.degraded_batches = 0
        self.demux_recoveries = 0
        #: SLO counters: completions delivered within / past the deadline
        #: (no-deadline completions count as goodput), admission-policy
        #: failures that fell back to FIFO selection, and adaptive
        #: tolerance adjustments actually applied.
        self.goodput_requests = 0
        self.late_completions = 0
        self.admission_fallbacks = 0
        self.tolerance_adjustments = 0
        #: requests dropped at formation because the drop_doomed slack
        #: check predicted they could not complete before their deadline
        self.doomed_dropped = 0
        #: per-priority-class latency histograms (queue = submit->formed,
        #: execute = formed->executed, total = submit->delivered),
        #: recorded for completed requests; bounded log-bucketed
        #: histograms, guarded by a lock (the overlap-demux worker
        #: records concurrently with the main thread).
        self.latency_by_priority: Dict[int, Dict[str, LatencyHistogram]] = {}
        self._metrics_lock = threading.Lock()
        #: window baselines for the adaptive-tolerance controller
        self._adapt_batch = 0
        self._adapt_tokens = (0, 0)
        self._adapt_signatures = (0, 0)
        #: session counters at construction time -- ``stats`` reports
        #: deltas against these, so other users of a shared session
        #: (another scheduler, direct ``Session.run`` calls made before
        #: this scheduler existed) do not pollute this scheduler's
        #: numbers.  Concurrent interleaved use of the same session still
        #: shows up; give each scheduler its own session to fully isolate.
        self._baseline = self._session_counters()
        self._signatures_seen: set = set()
        #: signature -> program uid, recorded when a batch's
        #: program is (re)built, so ``fusion_stats`` can look compiled
        #: programs up by uid without triggering a single program build.
        #: Bounded like ``_signatures_seen``.
        self._program_uids: Dict[Tuple[int, ...], int] = {}

    def _session_counters(self) -> Dict[str, int]:
        stats = self.session.stats()
        return {key: stats[key]
                for key in ("signature_hits", "signature_misses",
                            "program_compiles", "program_cache_hits")}

    def _injector(self) -> Optional[FaultInjector]:
        return getattr(self.session, "fault_injector", None)

    # -- request intake ---------------------------------------------------------

    def submit(self, hidden: np.ndarray, *,
               deadline_s: Optional[float] = None,
               max_retries: Optional[int] = None,
               priority: Optional[int] = None) -> int:
        """Enqueue one ``(length, hidden_size)`` request; returns its id.

        Admission control happens here: a malformed request (wrong
        ``hidden_size``, empty, or -- under ``validate_finite`` --
        containing NaN/Inf) raises ``ValueError`` immediately instead of
        poisoning a batch later.  A full bounded queue sheds per its
        policy; the shed request's id is still returned and it resolves
        to a ``REJECTED``/``TIMED_OUT`` :class:`FailedResult`.
        ``priority`` is the request's class (smaller = more urgent),
        consumed by priority-aware admission and shed policies.
        """
        hidden = np.asarray(hidden)
        if hidden.ndim != 2 or hidden.shape[1] != self.config.hidden_size:
            raise ValueError(
                f"request must be (length, {self.config.hidden_size}), "
                f"got shape {hidden.shape}")
        if self.validate_finite and not np.isfinite(hidden).all():
            raise ValueError(
                "request contains non-finite values (NaN/Inf); rejected at "
                "admission (validate_finite=True)")
        if deadline_s is None:
            deadline_s = self.default_deadline_s
        if max_retries is None:
            max_retries = self.max_retries
        if priority is None:
            priority = self.default_priority
        request_id = self.queue.submit(hidden, deadline_s=deadline_s,
                                       max_retries=max_retries,
                                       priority=priority)
        self._absorb_shed()
        return request_id

    def submit_many(self, hiddens: Iterable[np.ndarray],
                    **kwargs) -> List[int]:
        return [self.submit(h, **kwargs) for h in hiddens]

    @property
    def pending(self) -> int:
        return len(self.queue)

    def _record_failure(self, request: Request,
                        exc: BaseException) -> FailedResult:
        if request.t_delivered is None:
            request.t_delivered = self.queue.clock()
        result = FailedResult.from_exception(
            request.request_id, request.state, exc,
            attempts=request.attempts)
        self._failures[request.request_id] = result
        return result

    def _absorb_shed(self) -> None:
        """Convert queue-shed requests into deliverable failure results."""
        for request in self.queue.drain_shed():
            if request.state is RequestState.REJECTED:
                self.rejected_requests += 1
                exc: BaseException = _queue_full_error(self.queue)
            else:
                self.timed_out_requests += 1
                exc = DeadlineExceeded(
                    f"request {request.request_id} expired while queued "
                    "(shed under backpressure)")
            self._record_failure(request, exc)

    # -- batch formation and execution ------------------------------------------

    def _form_batch(self, requests: Sequence[Request]) -> ScheduledBatch:
        if self.sort_by_length:
            requests = sorted(
                requests,
                key=lambda r: (-bucketed_length(r.length,
                                                self.bucket_tolerance),
                               r.request_id))
        padded = tuple(bucketed_length(r.length, self.bucket_tolerance)
                       for r in requests)
        now = self.queue.clock()
        for request in requests:
            if request.t_formed is None:
                request.t_formed = now
        return ScheduledBatch(
            signature=padded, requests=tuple(requests),
            lengths=tuple(r.length for r in requests))

    def _select(self, k: int, now: float) -> List[Request]:
        """One admission-policy selection round, with fault isolation: a
        policy that raises (or is made to raise via the ``admission``
        injection point) falls back to FIFO for that round instead of
        wedging the scheduler."""
        injector = self._injector()
        try:
            if injector is not None:
                injector.fire("admission", None)
            return self.admission.select(self.queue, k, now)
        except Exception:
            self.admission_fallbacks += 1
            return FifoAdmission().select(self.queue, k, now)

    def _next_batch(self) -> Optional[ScheduledBatch]:
        """Select (via the admission policy) and canonicalise the next
        batch; ``None`` when idle.

        Deadline-expired requests are dropped here -- at batch-formation
        time, before any compute is spent on them -- with ``TIMED_OUT``
        failure results; the batch keeps backfilling from the policy
        until it is full or the queue has nothing more to offer.
        """
        self._absorb_shed()
        requests: List[Request] = []
        now = self.queue.clock()
        # Slack floor for doomed-drop: a request whose deadline falls
        # inside the (EWMA-estimated) service time of the batch it would
        # join cannot complete on time -- executing it anyway turns a
        # drop into a late completion and steals capacity from feasible
        # work.  Opt-in: the seed FIFO behaviour drops only at expiry.
        slack = self._service_ewma \
            if self.drop_doomed and self._service_ewma is not None else 0.0
        while len(requests) < self.max_batch_size:
            selected = self._select(self.max_batch_size - len(requests), now)
            if not selected:
                break
            for request in selected:
                if request.expired(now):
                    request.mark(RequestState.TIMED_OUT)
                    self.timed_out_requests += 1
                    self._record_failure(request, DeadlineExceeded(
                        f"request {request.request_id} missed its deadline "
                        "before batch formation"))
                    continue
                if slack and request.deadline is not None \
                        and now + slack >= request.deadline:
                    request.mark(RequestState.TIMED_OUT)
                    self.timed_out_requests += 1
                    self.doomed_dropped += 1
                    self._record_failure(request, DeadlineExceeded(
                        f"request {request.request_id} predicted to miss "
                        f"its deadline (slack {request.deadline - now:.4f}s "
                        f"< estimated service {slack:.4f}s)"))
                    continue
                requests.append(request)
        if not requests:
            return None
        return self._form_batch(requests)

    def _run_program(self, batch: ScheduledBatch,
                     copy_outputs: bool) -> np.ndarray:
        """Execute one batch's program through the session; returns the
        packed output token matrix."""
        program = encoder_stack_program(
            batch.padded_lengths, self.weights, self.config,
            masked=self.masked, n_layers=self.n_layers, session=self.session)
        # Remember which program served this signature so fusion_stats()
        # can report on it without rebuilding anything (bounded like
        # _signatures_seen).
        if (batch.signature in self._program_uids
                or len(self._program_uids) < self.session.signature_capacity):
            self._program_uids[batch.signature] = program.uid
        packed = np.concatenate(
            batch.padded_inputs(self.config.hidden_size), axis=0)
        return self.session.run(program, {"tokens": packed},
                                copy_outputs=copy_outputs,
                                signature=batch.signature)["out_tokens"]

    def _run_opbyop(self, batch: ScheduledBatch) -> np.ndarray:
        """The degraded execution path: op-by-op, one dispatch per
        operator, no whole-program compilation.

        Uses the session's codegen backend and executor so the per-kernel
        caches are shared and the math stays bit-identical to the program
        path (the executor's own scalar fallback covers per-kernel
        vectorization failures, completing the degradation order:
        program -> op-by-op compiled -> scalar fallback).
        """
        per_layer = _weights_per_layer(
            self.weights, self.n_layers,
            default_layers=self.config.num_layers)
        hidden = batch.padded_inputs(self.config.hidden_size)
        for layer_weights in per_layer:
            hidden = run_encoder_layer_opbyop(
                hidden, layer_weights, self.config, masked=self.masked,
                backend=self.session.backend,
                executor=self.session.executor).hidden
        return np.concatenate(hidden, axis=0)

    def _check_output(self, batch: ScheduledBatch, out: np.ndarray) -> None:
        expected = (sum(batch.padded_lengths), self.config.hidden_size)
        if tuple(out.shape) != expected:
            raise ExecutionError(
                f"batch output has shape {tuple(out.shape)}, expected "
                f"{expected}; treating the batch as failed (corrupted "
                "output)")

    def _execute(self, batch: ScheduledBatch,
                 copy_outputs: bool) -> np.ndarray:
        """One batch execution attempt, with graceful degradation.

        Compile-path errors degrade to the op-by-op path
        (``degraded_batches``).  Anything else (a poison request, a
        corrupted output) propagates to the caller, which isolates it via
        bisection.
        """
        injector = self._injector()
        if injector is not None:
            injector.set_ambient(request_ids=frozenset(batch.request_ids),
                                 signature=batch.signature)
        t_start = self.queue.clock()
        for request in batch.requests:
            request.attempts += 1
        try:
            out = self._run_program(batch, copy_outputs)
        except DEGRADABLE_ERRORS:
            self.degraded_batches += 1
            out = self._run_opbyop(batch)
        self._check_output(batch, out)
        self._after_execute(batch, t_start)
        return out

    def _after_execute(self, batch: ScheduledBatch, t_start: float) -> None:
        """Post-execution bookkeeping: advance an advanceable (simulated)
        clock by the service-time model, stamp ``t_executed``, and fold
        the observed service time into the EWMA the ``drop_doomed``
        slack check consults."""
        if self.service_model is not None:
            advance = getattr(self.queue.clock, "advance", None)
            if advance is not None:
                advance(max(float(self.service_model(batch)), 0.0))
        now = self.queue.clock()
        for request in batch.requests:
            request.t_executed = now
        elapsed = now - t_start
        if elapsed > 0:
            self._service_ewma = elapsed if self._service_ewma is None \
                else 0.2 * elapsed + 0.8 * self._service_ewma

    def _note_batch(self, batch: ScheduledBatch) -> None:
        self.num_batches += 1
        self.num_completed += len(batch.requests)
        self.valid_tokens += sum(batch.lengths)
        self.padded_tokens += sum(batch.padded_lengths)
        bucket = raggedness_bucket(batch.lengths)
        self._window_buckets[bucket] += 1
        if self.schedule_db is not None:
            self.schedule_db.record_traffic(
                bucket, sum(batch.lengths), sum(batch.padded_lengths))
        # Bounded like the session's signature_stats: beyond the capacity
        # the distinct-signature count saturates instead of growing
        # scheduler memory with every new traffic shape.
        if len(self._signatures_seen) < self.session.signature_capacity:
            self._signatures_seen.add(batch.signature)
        if self.log_batches:
            self.batch_log.append(batch)
        self._maybe_adapt()

    def _rollback_batch(self, batch: ScheduledBatch) -> None:
        """Reverse everything :meth:`_note_batch` recorded for a batch
        whose outputs turned out to be undeliverable, so padding-overhead
        and throughput stats reflect only delivered batches."""
        self.num_batches -= 1
        self.num_completed -= len(batch.requests)
        self.valid_tokens -= sum(batch.lengths)
        self.padded_tokens -= sum(batch.padded_lengths)
        bucket = raggedness_bucket(batch.lengths)
        if self._window_buckets.get(bucket, 0) > 0:
            self._window_buckets[bucket] -= 1
        if self.log_batches and self.batch_log \
                and self.batch_log[-1] is batch:
            self.batch_log.pop()

    def _maybe_adapt(self) -> None:
        """Close the adaptive-tolerance feedback loop.

        Every ``interval`` delivered batches, compute the *window* (since
        the previous decision) signature hit rate and padding overhead
        and apply the controller's proposal.  Changing the tolerance only
        affects how *future* batches bucket; already-formed batches are
        untouched, so exactness and bit-identical replay are preserved.
        """
        controller = self.adaptive_tolerance
        if controller is None:
            return
        self._adapt_batch += 1
        if self._adapt_batch % controller.interval != 0:
            return
        counters = self._session_counters()
        hits = counters["signature_hits"] - self._baseline["signature_hits"]
        misses = (counters["signature_misses"]
                  - self._baseline["signature_misses"])
        prev_hits, prev_misses = self._adapt_signatures
        window_hits = hits - prev_hits
        window_misses = misses - prev_misses
        window_lookups = window_hits + window_misses
        hit_rate = window_hits / window_lookups if window_lookups else 1.0
        prev_valid, prev_padded = self._adapt_tokens
        window_valid = self.valid_tokens - prev_valid
        window_padded = self.padded_tokens - prev_padded
        overhead = (window_padded / window_valid - 1.0
                    if window_valid else 0.0)
        window_batches = sum(self._window_buckets.values())
        dominant_share = (max(self._window_buckets.values())
                          / window_batches if window_batches else None)
        try:
            proposed = controller.propose(self.bucket_tolerance, hit_rate,
                                          overhead,
                                          dominant_share=dominant_share)
        except TypeError:
            # Custom controllers predating the dominant-share signal.
            proposed = controller.propose(self.bucket_tolerance, hit_rate,
                                          overhead)
        controller.record(self.num_batches, self.bucket_tolerance, proposed,
                          hit_rate, overhead)
        if proposed != self.bucket_tolerance:
            self.bucket_tolerance = proposed
            self.tolerance_adjustments += 1
        self._adapt_signatures = (hits, misses)
        self._adapt_tokens = (self.valid_tokens, self.padded_tokens)
        self._window_buckets.clear()

    def _complete_requests(self, batch: ScheduledBatch) -> None:
        """Mark a delivered batch's requests ``COMPLETED`` and record the
        SLO observability: delivery timestamps, goodput / late-completion
        counts, and per-priority-class latency histograms.  Runs on the
        overlap worker under ``overlap_demux``, hence the lock."""
        now = self.queue.clock()
        with self._metrics_lock:
            for request in batch.requests:
                request.mark(RequestState.COMPLETED)
                request.t_delivered = now
                if request.deadline is not None and now > request.deadline:
                    self.late_completions += 1
                else:
                    self.goodput_requests += 1
                hists = self.latency_by_priority.get(request.priority)
                if hists is None:  # a class's first completion
                    hists = self.latency_by_priority[request.priority] = {
                        "queue": LatencyHistogram(),
                        "execute": LatencyHistogram(),
                        "total": LatencyHistogram()}
                if request.t_submitted is not None:
                    if request.t_formed is not None:
                        hists["queue"].record(
                            request.t_formed - request.t_submitted)
                    if request.t_executed is not None:
                        hists["execute"].record(
                            request.t_executed
                            - (request.t_formed
                               if request.t_formed is not None
                               else request.t_submitted))
                    hists["total"].record(now - request.t_submitted)

    @staticmethod
    def _demux(batch: ScheduledBatch, out: np.ndarray) -> Dict[int, np.ndarray]:
        """Split packed outputs back into per-request rows (padding
        stripped).  Pure function of its arguments, so it can run on the
        overlap worker while the next batch executes."""
        rows = unpack_tokens(out, batch.padded_lengths)
        return {
            request.request_id: rows[slot][:request.length].copy()
            for slot, request in enumerate(batch.requests)
        }

    def _finish(self, batch: ScheduledBatch,
                out: np.ndarray) -> Dict[int, np.ndarray]:
        """Demultiplex a batch's outputs and complete its requests.

        Runs on the overlap worker when ``overlap_demux``; the demux
        injection point fires here, before the output is trusted.
        """
        injector = self._injector()
        if injector is not None:
            out = injector.fire("demux", out,
                                request_ids=frozenset(batch.request_ids))
        self._check_output(batch, out)
        results = self._demux(batch, out)
        self._complete_requests(batch)
        return results

    def _recover_demux(self, batch: ScheduledBatch,
                       out: np.ndarray) -> Dict[int, RequestResult]:
        """Retry a failed demux once; a second failure fails the batch's
        requests with structured results instead of raising."""
        self.demux_recoveries += 1
        try:
            return self._finish(batch, out)
        except Exception as exc:
            # The batch executed but its outputs cannot be delivered: all
            # of the batch-level accounting (_note_batch) is rolled back
            # -- not just num_completed -- so padding-overhead and
            # throughput stats stay consistent with delivered results,
            # and only requests that are not already terminal are marked
            # (and counted as) failed here.
            self._rollback_batch(batch)
            now = self.queue.clock()
            results: Dict[int, RequestResult] = {}
            for request in batch.requests:
                if not request.state.terminal:
                    request.mark(RequestState.FAILED)
                    self.failed_requests += 1
                    request.t_delivered = now
                results[request.request_id] = FailedResult.from_exception(
                    request.request_id, request.state, exc,
                    attempts=request.attempts)
            return results

    def _finish_with_recovery(self, batch: ScheduledBatch,
                              out: np.ndarray) -> Dict[int, RequestResult]:
        try:
            return self._finish(batch, out)
        except Exception:
            return self._recover_demux(batch, out)

    def _deliver(self, batch: ScheduledBatch,
                 out: np.ndarray) -> Dict[int, np.ndarray]:
        """Account, demux and complete a successfully executed batch
        (the synchronous path used during isolation re-runs)."""
        self._note_batch(batch)
        results = self._demux(batch, out)
        self._complete_requests(batch)
        return results

    # -- failure isolation ------------------------------------------------------

    def _isolate(self, batch: ScheduledBatch,
                 exc: BaseException) -> Dict[int, RequestResult]:
        """Bisect a failed batch to quarantine the poison request(s).

        The batch's requests are split in half and each half re-runs as
        its own (re-canonicalised) batch; halves that succeed deliver
        normally, halves that fail recurse.  A failing singleton spends
        its retry budget (exponential backoff, deadline-checked) and then
        resolves to a ``FAILED`` result carrying the original error --
        one bad request can no longer sink its batchmates.
        """
        requests = list(batch.requests)
        if len(requests) == 1:
            return self._resolve_singleton(requests[0], batch, exc)
        mid = len(requests) // 2
        results: Dict[int, RequestResult] = {}
        for half in (requests[:mid], requests[mid:]):
            sub = self._form_batch(half)
            self.isolation_runs += 1
            try:
                out = self._execute(sub, copy_outputs=False)
            except Exception as sub_exc:
                results.update(self._isolate(sub, sub_exc))
            else:
                results.update(self._deliver(sub, out))
        return results

    def _resolve_singleton(self, request: Request, batch: ScheduledBatch,
                           exc: BaseException) -> Dict[int, RequestResult]:
        """Retry an isolated failing request within its budget, then fail
        it terminally.

        The backoff sleep is capped (``max_backoff_s``) and never sleeps
        past the request's deadline, and the deadline is re-checked
        *after* sleeping -- so a retry cannot wake up expired and still
        burn an execution attempt.  The sleep goes through the injectable
        ``sleeper``, consistent with the injectable ``clock``, so tests
        (and the simulated-time benchmark) drive this path
        deterministically.
        """
        def _timed_out() -> Dict[int, RequestResult]:
            request.mark(RequestState.TIMED_OUT)
            self.timed_out_requests += 1
            request.t_delivered = self.queue.clock()
            return {request.request_id: FailedResult.from_exception(
                request.request_id, request.state,
                DeadlineExceeded(
                    f"request {request.request_id} missed its deadline "
                    f"during retries (last error: {exc})"),
                attempts=request.attempts)}

        retries_done = 0
        while retries_done < request.max_retries:
            now = self.queue.clock()
            if request.expired(now):
                return _timed_out()
            if self.retry_backoff_s > 0:
                backoff = min(self.retry_backoff_s * (2 ** retries_done),
                              self.max_backoff_s)
                if request.deadline is not None:
                    backoff = min(backoff,
                                  max(request.deadline - now, 0.0))
                if backoff > 0:
                    self._sleep(backoff)
                # Re-check after sleeping: if the deadline passed while
                # we were backing off, resolve TIMED_OUT without another
                # execution attempt.
                if request.expired(self.queue.clock()):
                    return _timed_out()
            retries_done += 1
            self.retries += 1
            self.isolation_runs += 1
            try:
                out = self._execute(batch, copy_outputs=False)
            except Exception as retry_exc:
                exc = retry_exc
                continue
            return self._deliver(batch, out)
        request.mark(RequestState.FAILED)
        self.failed_requests += 1
        request.t_delivered = self.queue.clock()
        return {request.request_id: FailedResult.from_exception(
            request.request_id, request.state, exc,
            attempts=request.attempts)}

    # -- worker-pool management -------------------------------------------------

    def _ensure_demux_pool(self):
        if self._demux_pool is None:
            from concurrent.futures import ThreadPoolExecutor

            self._demux_pool = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-demux")
        return self._demux_pool

    def close(self) -> None:
        """Shut down the overlap worker (idempotent -- safe to call
        repeatedly, including after a failed drain; recreated lazily if
        the scheduler is used again).  Does NOT close the session -- it
        may be shared; call ``session.close()`` separately."""
        pool, self._demux_pool = self._demux_pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "BatchScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- scheduling -------------------------------------------------------------

    def _collect_failures(self) -> Dict[int, RequestResult]:
        failures, self._failures = dict(self._failures), {}
        return failures

    def step(self) -> Dict[int, RequestResult]:
        """Schedule and run one batch; ``{}`` when nothing is pending.

        Returns the per-request results: a fresh ``(length,
        hidden_size)`` array per completed request (padding rows are
        stripped during demultiplexing), a :class:`FailedResult` per
        request that reached a non-``COMPLETED`` terminal state, plus
        any failures shed at admission since the last step.
        """
        results: Dict[int, RequestResult] = {}
        batch = self._next_batch()
        results.update(self._collect_failures())
        if batch is None:
            return results
        try:
            # Zero-copy demux: the packed output stays an arena view,
            # valid until the session's next run -- which only happens
            # after the per-request rows have been copied out by _demux.
            out = self._execute(batch, copy_outputs=False)
        except Exception as exc:
            results.update(self._isolate(batch, exc))
            return results
        self._note_batch(batch)
        results.update(self._finish_with_recovery(batch, out))
        return results

    def drain(self) -> Dict[int, RequestResult]:
        """Run scheduling steps until the queue is empty; merged results.

        With ``overlap_demux=True`` the drain is pipelined: batch ``k``'s
        outputs are copied out of the arena and handed to a background
        worker for demultiplexing while the main thread executes batch
        ``k + 1``.  Results are identical to the synchronous drain.
        Every submitted request appears exactly once in the returned
        mapping, as output rows or as a :class:`FailedResult`.
        """
        results: Dict[int, RequestResult] = {}
        if not self.overlap_demux:
            while len(self.queue):
                results.update(self.step())
            results.update(self._collect_failures())
            return results

        pool = self._ensure_demux_pool()
        inflight: List[Tuple[Any, ScheduledBatch, np.ndarray]] = []
        try:
            while True:
                batch = self._next_batch()
                if batch is None:
                    break
                try:
                    # The demux worker must not read arena views the next
                    # batch's execution is about to overwrite: copy.
                    out = self._execute(batch, copy_outputs=True)
                except Exception as exc:
                    results.update(self._isolate(batch, exc))
                    continue
                self._note_batch(batch)
                inflight.append(
                    (pool.submit(self._finish, batch, out), batch, out))
                self.overlapped_batches += 1
        finally:
            # Flush every outstanding future even if batch execution (or
            # isolation) raised: a pending demux future must never leak,
            # or the pool wedges and close() would block on it.
            for future, batch, out in inflight:
                try:
                    results.update(future.result())
                except Exception:
                    results.update(self._recover_demux(batch, out))
        results.update(self._collect_failures())
        return results

    # -- differential checking --------------------------------------------------

    def replay_bit_identical(self, results: Dict[int, RequestResult]) -> bool:
        """Re-run every logged batch directly through ``Session.run`` and
        compare against the demultiplexed ``results`` bit for bit.

        The differential check the serving tests and the benchmark smoke
        mode share: the scheduler's per-request outputs must be exactly
        the rows a direct program execution of the same (padded) batch
        produces.  Requires ``log_batches=True``.  Requests that resolved
        to a :class:`FailedResult` are skipped (they have no rows to
        compare).
        """
        if not self.log_batches:
            raise ValueError(
                "replay_bit_identical needs the batch log; construct the "
                "scheduler with log_batches=True")
        h = self.config.hidden_size
        for batch in self.batch_log:
            program = encoder_stack_program(
                batch.padded_lengths, self.weights, self.config,
                masked=self.masked, n_layers=self.n_layers,
                session=self.session)
            out = self.session.run(
                program,
                {"tokens": np.concatenate(batch.padded_inputs(h))},
            )["out_tokens"]
            rows = unpack_tokens(out, batch.padded_lengths)
            for slot, request in enumerate(batch.requests):
                result = results.get(request.request_id)
                if isinstance(result, FailedResult) or result is None:
                    continue
                if not np.array_equal(rows[slot][:request.length], result):
                    return False
        return True

    # -- statistics -------------------------------------------------------------

    def fusion_stats(self) -> Dict[Tuple[int, ...], Dict[str, Any]]:
        """Per-signature dispatch/fusion info for the compiled
        programs this scheduler has served.

        Each signature it has seen maps to the compiled program's kernel
        and host dispatch counts plus (under a fusing session) the
        planner's fusion summary -- how many regions were formed and how
        many per-batch dispatches they eliminated.  Signatures whose
        program was never compiled (e.g. degraded to op-by-op, or since
        evicted from the session's program cache) are omitted.

        Pure lookup: the program uids recorded at dispatch time are
        resolved against the session's cache, so calling this triggers
        zero program builds and zero compiles.
        """
        per_signature: Dict[Tuple[int, ...], Dict[str, Any]] = {}
        for signature, uid in self._program_uids.items():
            compiled = self.session.compiled_by_uid(uid)
            if compiled is None:
                continue
            info: Dict[str, Any] = {
                "kernel_dispatches": compiled.kernel_dispatches,
                "host_dispatches": compiled.host_dispatches,
            }
            summary = compiled.fusion_summary()
            if summary is not None:
                info["fusion"] = summary
            per_signature[signature] = info
        return per_signature

    def stats(self, include_fusion: bool = False) -> Dict[str, Any]:
        """Scheduler throughput counters plus the session's signature reuse.

        The session-derived counters are deltas since this scheduler was
        constructed, so earlier activity on a shared session is excluded.
        ``include_fusion=True`` adds the per-signature
        ``fusion_by_signature`` breakdown (still zero program builds --
        see :meth:`fusion_stats` -- but potentially large); the default
        keeps ``stats()`` cheap enough to poll per batch.
        """
        current = self._session_counters()
        with self._metrics_lock:
            latency_by_priority = {
                priority: {kind: hist.summary()
                           for kind, hist in hists.items()}
                for priority, hists in sorted(
                    self.latency_by_priority.items())}
            goodput_requests = self.goodput_requests
            late_completions = self.late_completions
        out = {
            "fuse": self.session.fuse,
            "pending": self.pending,
            "num_batches": self.num_batches,
            "num_completed": self.num_completed,
            "overlapped_batches": self.overlapped_batches,
            "valid_tokens": self.valid_tokens,
            "padded_tokens": self.padded_tokens,
            "padding_overhead": (
                self.padded_tokens / self.valid_tokens - 1.0
                if self.valid_tokens else 0.0),
            "distinct_signatures": len(self._signatures_seen),
            # fault-tolerance counters
            "failed_requests": self.failed_requests,
            "timed_out_requests": self.timed_out_requests,
            "rejected_requests": self.rejected_requests,
            "retries": self.retries,
            "isolation_runs": self.isolation_runs,
            "degraded_batches": self.degraded_batches,
            "demux_recoveries": self.demux_recoveries,
            "shed_rejected": self.queue.rejected,
            "shed_expired": self.queue.expired_dropped,
            # SLO-aware serving counters
            "admission": self.admission.name,
            "bucket_tolerance": self.bucket_tolerance,
            "goodput_requests": goodput_requests,
            "late_completions": late_completions,
            "admission_fallbacks": self.admission_fallbacks,
            "tolerance_adjustments": self.tolerance_adjustments,
            "doomed_dropped": self.doomed_dropped,
            # schedule-DB traffic feedback (None when not wired)
            "traffic_dominant_share": (
                self.schedule_db.dominant_share()
                if self.schedule_db is not None else None),
            "latency_by_priority": latency_by_priority,
            **{key: current[key] - self._baseline[key]
               for key in current},
        }
        if include_fusion:
            out["fusion_by_signature"] = self.fusion_stats()
        return out


def _queue_full_error(queue: RequestQueue):
    from repro.core.errors import QueueFull

    return QueueFull(
        f"request queue at capacity ({queue.capacity}); shed policy "
        f"{queue.shed_policy!r} rejected the newest request")
