"""The four workloads and the measurements taken around them.

Every layer is measured from outside: by timing calls into its public
functions, by reading its own counters as deltas over the timed section,
and -- in a traced run -- by plugging the wrappers of ``tracing.py`` into
``Session(engine=)`` and ``BatchScheduler(session=, admission=)``.
Sessions and schedulers are built with library defaults except for the
arguments named in :data:`WORKLOADS`, so a later change of a default moves
the numbers.

The workload parameters below (shapes, rates, latency limits) are part of
the benchmark's definition.  They are never adjusted per commit.
"""

from __future__ import annotations

import gc
import itertools
import resource
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.executor import Executor
from repro.core.fusion import fuse_program
from repro.core.planner import plan_program
from repro.core.session import Session
from repro.data.datasets import sample_lengths
from repro.models.config import PAPER_BASE_CONFIG, TransformerConfig
from repro.models.transformer import (
    EncoderWeights,
    encoder_stack_program,
    run_encoder_stack_numeric,
)
from repro.serving.queue import bucketed_length
from repro.serving.scheduler import BatchScheduler

import measure
from measure import END, NAME, OP_ID, START, Tracer
from padded_baseline import PaddedEncoder
from tracing import TimedAdmission, TimedSession, op_group

#: The small model every existing serving benchmark uses.
SERVE_CONFIG = TransformerConfig(hidden_size=64, num_heads=4, head_size=16,
                                 ff_size=128, num_layers=2, loop_pad=4,
                                 bulk_pad=16, attention_tile=8)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                      # "encoder" (closed loop) | "serving"
    config: TransformerConfig
    n_layers: int
    masked: bool
    dataset: str = ""              # encoder: Table-3 length distribution
    batch_size: int = 0            # sequences per batch (serving: typical)
    rate_per_s: float = 0.0        # serving, open loop: Poisson arrival rate
    clients: int = 0               # serving, closed loop: concurrent callers
    slo_ms: float = 0.0            # serving: latency limit and deadline


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("enc_short", "encoder", PAPER_BASE_CONFIG, 1, False,
             dataset="MNLI", batch_size=32),
    Workload("enc_long", "encoder", PAPER_BASE_CONFIG, 1, False,
             dataset="RACE", batch_size=3),
    Workload("serve_low", "serving", SERVE_CONFIG, 2, True,
             batch_size=1, rate_per_s=200.0, slo_ms=50.0),
    Workload("serve_high", "serving", SERVE_CONFIG, 2, True,
             batch_size=8, clients=64, slo_ms=250.0),
)}

#: Encoder: distinct batches per run, and the candidates they are the most
#: typical of (see :func:`typical_batches`).
ENC_BATCHES = 8
ENC_CANDIDATES = 256
#: Encoder: at least this many timed operations, so that ``p90_ms`` has ten
#: samples beyond it however slow the host is.
ENC_MIN_OPS = 104
#: Serving: separately seeded arrivals served before the timed window opens.
SERVE_WARMUP_S = 1.5
#: Serving: request lengths, how many distinct request tensors there are of
#: each (every tensor is oracle-checked once), and the scheduler arguments
#: of the workload table.
SERVE_LENGTHS = range(4, 33)
SERVE_POOL_COPIES = 8
SERVE_SCHEDULER = dict(max_batch_size=8, bucket_tolerance=8, drop_doomed=True)
#: Serving: batch signatures used for the compile, planner, fusion and
#: padded measurements (see :func:`typical_signatures`).
SERVE_SIGNATURES = 16
#: Fresh-session compiles and padded-baseline runs per signature.
COMPILE_REPS = {"encoder": 5, "serving": 3}
PADDED_REPS = {"encoder": 2, "serving": 25}
#: ``--smoke``: batches, operations, repetitions and warm-up cut down so
#: that all four workloads pass every check in about half a minute.
SMOKE_ENC_BATCHES = 2
SMOKE_WARMUP_S = 0.15

ORACLE_TOL = 1e-4


def make_weights(config: TransformerConfig,
                 rng: np.random.Generator) -> EncoderWeights:
    """Seeded weights with non-zero biases and non-trivial layer-norm
    parameters, so that no term of the layer is invisible to the oracle
    (``EncoderWeights.random`` leaves every bias at zero)."""
    h, f = config.hidden_size, config.ff_size

    def normal(*shape, scale):
        return (rng.standard_normal(shape) * scale).astype(np.float32)

    return EncoderWeights(
        wqkv=normal(h, 3 * h, scale=h ** -0.5), bqkv=normal(3 * h, scale=0.1),
        wo=normal(h, h, scale=h ** -0.5), bo=normal(h, scale=0.1),
        w1=normal(h, f, scale=h ** -0.5), b1=normal(f, scale=0.1),
        w2=normal(f, h, scale=f ** -0.5), b2=normal(h, scale=0.1),
        ln1_gamma=1 + normal(h, scale=0.1), ln1_beta=normal(h, scale=0.1),
        ln2_gamma=1 + normal(h, scale=0.1), ln2_beta=normal(h, scale=0.1))


def typical_batches(dataset: str, batch_size: int, seed: int,
                    n: int = ENC_BATCHES) -> List[np.ndarray]:
    """``n`` length vectors drawn for ``seed``: of
    ``ENC_CANDIDATES`` seeded samples of the dataset's distribution, the
    ones nearest the candidates' median token count, sum of squared
    lengths and maximum length.  Those three set the linear work, the
    attention work and the padded baseline's work, so every seed gives
    different lengths but nearly the same amount of work -- a run measures
    the code, not the luck of the draw."""
    drawn = [sample_lengths(dataset, batch_size, seed=seed * ENC_CANDIDATES + k)
             for k in range(ENC_CANDIDATES)]
    features = np.array([[l.sum(), (l.astype(np.float64) ** 2).sum(), l.max()]
                         for l in drawn], dtype=np.float64)
    distance = np.abs(features / np.median(features, axis=0) - 1.0).sum(axis=1)
    nearest = np.argsort(distance, kind="stable")[:n]
    return [drawn[k] for k in sorted(nearest)]


def typical_signatures(w: Workload) -> List[Tuple[int, ...]]:
    """``SERVE_SIGNATURES`` batch signatures of ``w.batch_size`` requests
    as the scheduler forms them -- lengths bucketed to the tolerance,
    longest first -- drawn from a fixed generator: the same for every
    seed, so that what is compiled and padded does not vary with it."""
    rng = np.random.default_rng(0)
    lengths = rng.choice(SERVE_LENGTHS, size=(SERVE_SIGNATURES, w.batch_size))
    tolerance = SERVE_SCHEDULER["bucket_tolerance"]
    return [tuple(sorted((bucketed_length(n, tolerance) for n in row),
                         reverse=True)) for row in lengths.tolist()]


def random_hidden(lengths: Sequence[int], hidden: int,
                  rng: np.random.Generator) -> List[np.ndarray]:
    return [rng.standard_normal((int(n), hidden)).astype(np.float32)
            for n in lengths]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_session(tracer: Optional[Tracer]) -> Session:
    return TimedSession(tracer, backend="vector") if tracer \
        else Session(backend="vector")


def library_counters(session: Session,
                     sched: Optional[BatchScheduler] = None) -> Dict[str, float]:
    """The library's own counters, read from public attributes."""
    out = {
        "lowerings": session.executor.lower_count,
        "cache_hits": session.executor.cache_hits,
        "fallbacks": session.executor.fallback_count,
        "compiles": session.program_compiles,
        "program_hits": session.program_cache_hits,
        "engine_runs": session.engine.runs,
        "engine_steps": session.engine.steps_dispatched,
    }
    if sched is not None:
        stats = sched.stats()
        out.update({key: stats[key] for key in (
            "num_batches", "num_completed", "valid_tokens", "padded_tokens",
            "distinct_signatures", "signature_hits", "signature_misses",
            "timed_out_requests", "rejected_requests", "failed_requests",
            "retries")})
    return out


def delta(after: Dict[str, float], before: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in after}


# -- the two timed sections ----------------------------------------------------


def encoder_section(w: Workload, weights: EncoderWeights,
                    batches: List[List[np.ndarray]], seconds: float,
                    min_ops: int, tracer: Optional[Tracer]) -> dict:
    """Closed loop, one caller: warm ``run_encoder_stack_numeric`` calls,
    round-robin over the batches, in whole rounds until ``seconds`` have
    passed and ``min_ops`` operations are done."""
    session = make_session(tracer)

    def run(hidden):
        return run_encoder_stack_numeric(hidden, weights, w.config,
                                         masked=w.masked,
                                         n_layers=w.n_layers, session=session)

    for hidden in batches:      # compile, and touch every arena page once
        run(hidden)
    before = library_counters(session)
    clock = time.perf_counter
    ready, window_start = time.time(), clock()

    tokens = [sum(h.shape[0] for h in hidden) for hidden in batches]
    first: List[Optional[np.ndarray]] = [None] * len(batches)
    matching = [0] * len(batches)   # operations equal to the batch's first
    latencies, done_tokens, errors = [], 0, []
    attempted = unstable = 0
    deadline = clock() + seconds
    while clock() < deadline or attempted < min_ops:
        for b, hidden in enumerate(batches):
            attempted += 1
            span = tracer.begin("operation", "harness", op_id=attempted) \
                if tracer else None
            start = clock()
            try:
                out = run(hidden).hidden
            except Exception:   # a failed operation is counted, not fatal
                errors.append(traceback.format_exc(limit=3))
                out = None
            end = clock()
            if tracer:
                tracer.end(span)
            if out is None:
                continue
            latencies.append(end - start)
            done_tokens += tokens[b]
            packed = np.concatenate(out, axis=0)
            if first[b] is None:
                first[b] = packed
            if np.array_equal(first[b], packed):
                matching[b] += 1
            else:
                unstable += 1   # same inputs, another result: a failure
    return {
        "ready": ready, "window_start": window_start, "session": session,
        "latencies": latencies,
        "busy_s": float(sum(latencies)), "tokens": done_tokens,
        "attempted": attempted, "raised": len(errors), "errors": errors[:3],
        "unstable": unstable, "outputs": first, "matching": matching,
        "counters": delta(library_counters(session), before),
        "rss_mib": peak_rss_mib(),
    }


class _Ledger:
    """What the serving driver notes per request, by submission order."""

    def __init__(self, sched: BatchScheduler, pool, next_pick, slo_s: float,
                 tracer: Optional[Tracer]) -> None:
        self.sched, self.pool, self.next_pick = sched, pool, next_pick
        self.slo_s, self.tracer = slo_s, tracer
        self.picks: List[int] = []
        self.due: List[float] = []
        self.late: List[float] = []
        self.submit_s: List[float] = []
        self.request_ids: List[int] = []
        self.done: List[float] = []
        self.step_start: List[float] = []
        self.results: List[object] = []
        self.steps: List[Tuple[float, float]] = []
        self._index_of: Dict[int, int] = {}

    def submit(self, due: float) -> None:
        i = len(self.due)
        pick = next(self.next_pick)
        clock = time.perf_counter
        t_submit = clock()
        rid = self.sched.submit(self.pool[pick], deadline_s=self.slo_s,
                                priority=i % 3)
        t_accepted = clock()
        self._index_of[rid] = i
        self.picks.append(pick)
        self.due.append(due)
        self.late.append(t_submit - due)
        self.submit_s.append(t_accepted - t_submit)
        self.request_ids.append(rid)
        self.done.append(np.nan)
        self.step_start.append(np.nan)
        self.results.append(None)
        if self.tracer:
            self.tracer.leaf("queue.submit", "queue", t_submit, t_accepted,
                             op_id=rid)

    def step(self) -> int:
        """One ``step()``; returns how many requests it resolved."""
        tracer, clock = self.tracer, time.perf_counter
        span = tracer.begin("scheduler.step", "scheduler") if tracer else None
        t_step = clock()
        delivered = self.sched.step()
        t_return = clock()
        if tracer:
            tracer.end(span)
            tracer.spans[span][OP_ID] = tuple(delivered)
        self.steps.append((t_step, t_return))
        for rid, result in delivered.items():
            i = self._index_of.pop(rid)
            self.done[i], self.step_start[i] = t_return, t_step
            self.results[i] = result
        return len(delivered)


def serving_section(w: Workload, weights: EncoderWeights,
                    pool: List[np.ndarray], seconds: float, seed: int,
                    tracer: Optional[Tracer],
                    warmup_s: float = SERVE_WARMUP_S) -> dict:
    """Requests through ``BatchScheduler`` on the wall clock, driven by one
    thread.  A request is timed from its due time to the return of the
    ``step()`` that delivered it.

    Open loop (``w.rate_per_s``): seeded Poisson arrivals; the driver
    submits every request now due, steps while anything is pending, and
    otherwise spins until the next due time.  Closed loop (``w.clients``):
    every client submits its next request the moment the previous one is
    delivered, which is that request's due time.

    The first ``warmup_s`` seconds are served but not measured; the
    library's counters are read as deltas from the moment the timed
    window opens.
    """
    session = make_session(tracer)
    sched = BatchScheduler(
        weights, w.config, session=session, masked=w.masked,
        n_layers=w.n_layers,
        admission=TimedAdmission(tracer) if tracer else "priority_edf",
        **SERVE_SCHEDULER)
    clock = time.perf_counter
    # Request i carries pool[picks[i]]: seeded shuffles of the whole pool
    # back to back, so every len(pool) requests hold every length equally
    # often and the mix of work does not depend on the seed's luck.
    rng = np.random.default_rng([seed, 3])
    next_pick = (int(k) for _ in itertools.count()
                 for k in rng.permutation(len(pool)))
    ledger = _Ledger(sched, pool, next_pick, w.slo_ms / 1e3, tracer)
    opened = {}

    def open_window() -> None:
        opened.update(before=library_counters(session, sched),
                      ready=time.time(), clock=clock(),
                      first=len(ledger.due), first_step=len(ledger.steps))

    start = clock()
    if w.rate_per_s:
        warm = measure.poisson_arrivals(w.rate_per_s, warmup_s, [seed, 1])
        main = measure.poisson_arrivals(w.rate_per_s, seconds, [seed, 2])
        due = (start + np.concatenate([warm, warmup_s + main])).tolist()
        n_warm, n, i = len(warm), len(warm) + len(main), 0
        while i < n or sched.pending:
            now = clock()
            while i < n and due[i] <= now:
                if i == n_warm:
                    open_window()
                ledger.submit(due[i])
                i += 1
                if i == n:
                    backlog_end = sched.pending
            if sched.pending:
                ledger.step()
            # else spin until the next due time: a sleeping driver would
            # put the core's wake-up latency and cold caches into every
            # request of a lightly loaded server.
    else:
        outstanding, close_at = 0, None
        while True:
            now = clock()
            if not opened and now - start >= warmup_s:
                open_window()
                close_at = now + seconds
            submitting = close_at is None or now < close_at
            while submitting and outstanding < w.clients:
                ledger.submit(clock())
                outstanding += 1
            if not submitting:
                opened.setdefault("backlog", sched.pending)
            if not sched.pending:
                break
            outstanding -= ledger.step()
        backlog_end = opened["backlog"]
    counters = delta(library_counters(session, sched), opened["before"])
    rss = peak_rss_mib()
    sched.close()

    timed = slice(opened["first"], None)
    due_arr, done = np.asarray(ledger.due), np.asarray(ledger.done)
    step_start = np.asarray(ledger.step_start)
    if tracer:
        for i in range(opened["first"], len(done)):
            if not np.isnan(done[i]):
                rid = ledger.request_ids[i]
                root = tracer.leaf("request", "request", due_arr[i], done[i],
                                   op_id=rid, parent=-1)
                tracer.leaf("queue.wait", "request", due_arr[i],
                            max(step_start[i], due_arr[i]), op_id=rid,
                            parent=root)
    return {
        "ready": opened["ready"], "window_start": opened["clock"],
        "session": session,
        "latency": (done - due_arr)[timed],
        "wait": (step_start - due_arr)[timed],
        "late": np.asarray(ledger.late)[timed],
        "submit_s": np.asarray(ledger.submit_s)[timed],
        "results": ledger.results[timed],
        "picks": ledger.picks[timed],
        "steps": ledger.steps[opened["first_step"]:],
        "backlog_end": backlog_end, "counters": counters, "rss_mib": rss,
    }


# -- measurements around the sections ------------------------------------------


def cold_compiles(w: Workload, weights: EncoderWeights,
                  signatures: Sequence[Tuple[int, ...]], reps: int) -> dict:
    """Build and compile each signature on fresh sessions with fresh
    executors: what a never-seen signature costs.  One untimed round
    first, and the garbage collector emptied before every sample, so that
    no sample pays for the garbage of another (the median of the raw
    samples flips between a collecting and a non-collecting mode).  Plans
    and fuses the last build of each signature directly, for the planner
    and fusion layers."""
    clock = time.perf_counter

    def build_and_compile(signature):
        session = Session(executor=Executor())
        gc.collect()
        t0 = clock()
        program = encoder_stack_program(
            signature, weights, w.config, masked=w.masked,
            n_layers=w.n_layers, session=session)
        t1 = clock()
        compiled = session.compile(program)
        t2 = clock()
        # The compiled program (and its arena) dies with the session here:
        # kept alive into the next sample, it decides whether that sample's
        # arena is fresh or recycled memory, a 2 ms difference.
        return (program, compiled.flops, t1 - t0, t2 - t1,
                session.executor.fallback_count)

    for signature in signatures:
        build_and_compile(signature)
    build, compile_, plan, fuse = [], [], [], []
    plans, reports, flops, fallbacks = [], [], [], 0
    for signature in signatures:
        for _ in range(reps):
            program, n_flops, build_s, compile_s, fell_back = \
                build_and_compile(signature)
            build.append(build_s)
            compile_.append(compile_s)
            fallbacks += fell_back
        flops.append(n_flops)
        t0 = clock()
        plans.append(plan_program(program))
        t1 = clock()
        reports.append(fuse_program(program)[1])
        t2 = clock()
        plan.append(t1 - t0)
        fuse.append(t2 - t1)
    return {"build_s": build, "compile_s": compile_, "plan_s": plan,
            "fuse_s": fuse, "plans": plans, "fusion": reports,
            "flops": flops, "fallbacks": fallbacks}


def time_calls(fn, batches: Sequence[List[np.ndarray]],
               reps: int) -> Tuple[List[float], List[np.ndarray]]:
    """Wall times of ``fn(batch)`` -- one untimed call per batch, then
    ``reps`` timed rounds over all batches -- and each batch's last
    result, packed."""
    clock = time.perf_counter
    for batch in batches:
        fn(batch)
    times, outputs = [], [None] * len(batches)
    for _ in range(reps):
        for b, batch in enumerate(batches):
            start = clock()
            result = fn(batch)
            times.append(clock() - start)
            outputs[b] = np.concatenate(result, axis=0)
    return times, outputs


def linear_flops_per_token(w: Workload) -> int:
    """Multiply-adds x 2 of the four linear operators of every layer,
    computed from the weight shapes (not measured)."""
    h, f = w.config.hidden_size, w.config.ff_size
    return 2 * (h * 3 * h + h * h + 2 * h * f) * w.n_layers


def span_layers(tracer: Tracer, since: float, executed_tokens: float,
                delivered: int, w: Workload) -> Dict[str, float]:
    """Per-layer times of a traced section, from spans starting at or
    after ``since`` (the timed window).  Times are means per
    ``Session.run`` so that they add up: run = io_self + execute, execute
    = dispatch_self + ops.  ``session.compile_ms`` alone looks at the
    whole section, warm-up included: the window of a workload that fits
    the program cache has no compile to time."""
    spans = [s for s in tracer.spans if s[START] >= since]
    runs = measure.durations(spans, "session.run")
    compiles = measure.durations(spans, "session.compile")
    all_compiles = measure.durations(tracer.spans, "session.compile")
    executes = measure.durations(spans, "engine.execute")
    n_runs = max(len(runs), 1)
    groups = {g: 0.0 for g in
              ("linear", "sdpa", "layernorm", "elementwise", "marshal", "other")}
    n_steps = 0
    for s in spans:
        if s[measure.LAYER] == "ops":
            groups[op_group(s[NAME])] += s[END] - s[START]
            n_steps += 1
    step_total = sum(groups.values())
    run_ms = (sum(runs) - sum(compiles)) / n_runs * 1e3
    execute_ms = sum(executes) / n_runs * 1e3
    steps = measure.durations(spans, "scheduler.step")
    selects = measure.durations(spans, "admission.select")
    out = {
        "session.compile_ms": float(np.mean(all_compiles)) * 1e3,
        "session.run_ms": run_ms,
        "session.io_self_ms": run_ms - execute_ms,
        "engine.execute_ms": execute_ms,
        "engine.dispatch_self_us_per_step":
            (sum(executes) - step_total) / max(n_steps, 1) * 1e6,
        "ops.linear_gflops_per_s":
            executed_tokens * linear_flops_per_token(w)
            / max(groups["linear"], 1e-12) / 1e9,
        "admission.select_us":
            float(np.median(selects)) * 1e6 if selects else 0.0,
        "scheduler.step_ms_p50":
            float(np.median(steps)) * 1e3 if steps else 0.0,
        "scheduler.overhead_us_per_req":
            (sum(steps) - sum(runs)) / max(delivered, 1) * 1e6
            if steps else 0.0,
    }
    for group, total in groups.items():
        out[f"ops.{group}_ms"] = total / n_runs * 1e3
    return out


def trace_consistency(tracer: Tracer, root_name: str) -> float:
    """Largest relative gap, over every ``root_name`` span, between the
    span's wall and the sum of self times at and below it."""
    totals = measure.subtree_self_sums(tracer.spans,
                                       measure.self_times(tracer.spans))
    return max((abs(totals[i] - (s[END] - s[START])) / (s[END] - s[START])
                for i, s in enumerate(tracer.spans) if s[NAME] == root_name),
               default=0.0)
