"""One workload in one pinned process.

``run.py`` starts this file once per workload (and, for ``setup_s``, twice
more with ``--setup-only``) with ``OPENBLAS/OMP/MKL_NUM_THREADS=1`` already
in the environment, so that NumPy's BLAS never sees another value.  It
prints one JSON object as the last line of its standard output and exits
non-zero when an output failed the oracle or a kernel fell back from the
vector backend.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

from run import THREAD_VARS

if __name__ == "__main__":
    unpinned = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned:
        raise SystemExit(f"worker.py needs {', '.join(unpinned)}=1 set before "
                         "NumPy is imported; start it through run.py")

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

import numpy as np  # noqa: E402

from repro.core.session import Session  # noqa: E402
from repro.models.transformer import run_encoder_stack_numeric  # noqa: E402

import measure  # noqa: E402
import reference  # noqa: E402
import workloads as wl  # noqa: E402
from measure import Tracer  # noqa: E402
from padded_baseline import PaddedEncoder  # noqa: E402


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": " ".join(str(blas.get(key, "")) for key in
                         ("name", "version", "openblas configuration")),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def median_ms(seconds) -> float:
    return float(np.median(seconds)) * 1e3


def static_layers(cold: dict) -> dict:
    """Per-layer numbers of the compile path, from direct calls."""
    plans, fusion = cold["plans"], cold["fusion"]
    plan_ms = median_ms(cold["plan_s"])
    return {
        "models.build_ms": median_ms(cold["build_s"]),
        "fusion.fuse_ms": median_ms(cold["fuse_s"]),
        "fusion.regions": float(np.mean([r.regions for r in fusion])),
        "fusion.dispatches_eliminated":
            float(np.mean([r.dispatches_eliminated for r in fusion])),
        "planner.plan_ms": plan_ms,
        "planner.steps": float(np.mean([len(p.order) for p in plans])),
        "planner.arena_bytes": float(np.mean([p.arena_bytes for p in plans])),
        "planner.peak_live_bytes":
            float(np.mean([p.peak_live_bytes for p in plans])),
        "planner.naive_bytes": float(np.mean([p.naive_bytes for p in plans])),
        "executor.kernel_compile_ms": median_ms(cold["compile_s"]) - plan_ms,
        "ops.flops_per_run": float(np.mean(cold["flops"])),
    }


def counter_layers(counters: dict) -> dict:
    """Per-layer counts: the library's counters over the timed section
    (the scheduler's read 0 where there is no scheduler)."""
    def count(key):
        return counters.get(key, 0)

    def share(part, whole):
        return part / whole if whole else 0.0

    return {
        "executor.lowerings": count("lowerings"),
        "executor.cache_hits": count("cache_hits"),
        "session.compiles": count("compiles"),
        "session.program_cache_hit_rate":
            share(count("program_hits"), count("compiles") + count("program_hits")),
        "engine.steps_per_run": share(count("engine_steps"), count("engine_runs")),
        "scheduler.batch_size_mean":
            share(count("num_completed"), count("num_batches")),
        "scheduler.padding_overhead":
            share(count("padded_tokens") - count("valid_tokens"),
                  count("valid_tokens")),
        "scheduler.distinct_signatures": count("distinct_signatures"),
        "scheduler.signature_hit_rate":
            share(count("signature_hits"),
                  count("signature_hits") + count("signature_misses")),
        "scheduler.timed_out": count("timed_out_requests"),
        "scheduler.rejected": count("rejected_requests"),
        "scheduler.failed": count("failed_requests"),
        "scheduler.retries": count("retries"),
    }


def judge_operations(outputs, matching, wants):
    """Closed loop: ``(wrong, max_abs_err)`` -- the operations whose output
    fails the oracle.  ``outputs[b]`` is batch ``b``'s first output and
    ``matching[b]`` the operations that returned exactly it."""
    wrong, max_err = 0, 0.0
    for got, count, want in zip(outputs, matching, wants):
        if got is None:
            continue
        max_err = max(max_err, reference.max_abs_err(got, want))
        if not reference.matches(got, want, wl.ORACLE_TOL):
            wrong += count
    return wrong, max_err


def judge_requests(results, picks, wants):
    """Open loop: ``(completed, wrong, max_abs_err)``.  A request is
    completed when the scheduler returned rows (not a ``FailedResult``,
    not nothing) and they match ``wants[pick]``; ``wrong`` counts returned
    rows that do not."""
    completed = np.zeros(len(results), dtype=bool)
    wrong, max_err = 0, 0.0
    for r, (got, pick) in enumerate(zip(results, picks)):
        if isinstance(got, np.ndarray):
            max_err = max(max_err, reference.max_abs_err(got, wants[pick]))
            completed[r] = reference.matches(got, wants[pick], wl.ORACLE_TOL)
            wrong += not completed[r]
    return completed, wrong, max_err


def run_encoder(w: wl.Workload, seed: int, seconds: float, trace: bool,
                spawned_at: float, setup_only: bool, smoke: bool) -> dict:
    rng = np.random.default_rng([seed, 0])
    weights = wl.make_weights(w.config, rng)
    n_batches = wl.SMOKE_ENC_BATCHES if smoke else wl.ENC_BATCHES
    min_ops = 0 if smoke else wl.ENC_MIN_OPS
    compile_reps = 1 if smoke else wl.COMPILE_REPS[w.kind]
    padded_reps = 1 if smoke else wl.PADDED_REPS[w.kind]
    lengths = wl.typical_batches(w.dataset, w.batch_size, seed, n_batches)
    batches = [wl.random_hidden(l, w.config.hidden_size, rng) for l in lengths]

    section_s = 0.0 if setup_only else seconds / 3 if trace else seconds
    plain = wl.encoder_section(
        w, weights, batches, section_s,
        0 if trace or setup_only else min_ops, None)
    setup_s = plain["ready"] - spawned_at
    if setup_only:
        return {"setup_s": setup_s}
    tracer = Tracer() if trace else None
    if trace:   # the traced section lowers its kernels itself, as a run
        plain["session"].executor.reset()   # of its own would
    traced = wl.encoder_section(w, weights, batches, section_s, 0, tracer) \
        if trace else None

    cold = wl.cold_compiles(w, weights, [tuple(int(n) for n in l) for l in lengths],
                            compile_reps)
    padded = PaddedEncoder([weights] * w.n_layers, w.config.num_heads, w.masked)
    padded_s, padded_out = wl.time_calls(padded.run, batches, padded_reps)

    # Oracle: the first output of every batch (every later one was compared
    # with it bit for bit) and the padded baseline's output.
    layers = [reference.oracle_weights(weights)] * w.n_layers
    wants = [np.concatenate(reference.encoder_stack(
        hidden, layers, w.config.num_heads, w.masked)) for hidden in batches]
    baseline_ok = all(reference.matches(got, want, wl.ORACLE_TOL)
                      for got, want in zip(padded_out, wants))
    sections = [s for s in (plain, traced) if s is not None]
    judged = [judge_operations(s["outputs"], s["matching"], wants)
              for s in sections]
    wrong = [j[0] for j in judged]
    max_err = max(j[1] for j in judged)

    main = sections[-1]
    if not plain["latencies"] or not main["latencies"]:
        raise SystemExit(f"{w.name}: no operation completed: {main['errors']}")
    failed = main["raised"] + main["unstable"] + wrong[-1]
    attempted = main["attempted"]
    fallbacks = cold["fallbacks"] + main["session"].executor.fallback_count
    p50_s = float(np.median(plain["latencies"]))
    result = {
        "attempted": attempted, "failed": failed,
        "correct": baseline_ok and fallbacks == 0 and not any(wrong)
        and not any(s["unstable"] for s in sections),
        "errors": main["errors"],
    }
    if not trace:
        n = len(plain["latencies"])
        result["metrics"] = {
            "setup_s": setup_s,
            "tokens_per_s": plain["tokens"] / plain["busy_s"],
            "p50_ms": p50_s * 1e3,
            "p90_ms": measure.percentile(plain["latencies"], 90) * 1e3,
            "compile_ms": median_ms(np.add(cold["build_s"], cold["compile_s"])),
            "ragged_over_padded": float(np.median(padded_s)) / p50_s,
            "peak_rss_mb": plain["rss_mib"],
            "goodput_share": (attempted - failed) / attempted,
        }
        result["extra"] = {
            "samples": n, "failed_share": failed / attempted,
            "highest_percentile": measure.highest_supported_percentile(n),
            "highest_percentile_ms": measure.percentile(
                plain["latencies"], measure.highest_supported_percentile(n)) * 1e3,
        }
        return result

    traced_tokens = traced["tokens"]
    metrics = static_layers(cold)
    metrics.update(counter_layers(traced["counters"]))
    metrics.update(wl.span_layers(tracer, traced["window_start"],
                                  traced_tokens, 0, w))
    metrics.update({
        "executor.vector_fallbacks": fallbacks,
        "ops.sdpa_buckets": float(np.mean([len(set(l.tolist())) for l in lengths])),
        "queue.submit_us": 0.0, "queue.wait_ms_p50": 0.0,
        "queue.wait_ms_p90": 0.0,
        "baseline.padded_ms": median_ms(padded_s),
        "baseline.padding_ratio":
            float(np.mean([padded.padding_ratio(h) for h in batches])),
        "baseline.oracle_max_abs_err": max_err,
        "harness.gen_late_ms_p99": 0.0, "harness.backlog_end": 0.0,
        "harness.trace_overhead_share":
            float(np.median(traced["latencies"])) / p50_s - 1.0,
    })
    result["metrics"] = metrics
    result["extra"] = {"trace_self_gap": wl.trace_consistency(tracer, "operation"),
                       "spans": len(tracer.spans)}
    result["spans"] = tracer.spans
    return result


def step_mean(section: dict) -> float:
    return float(np.mean([end - start for start, end in section["steps"]]))


def run_serving(w: wl.Workload, seed: int, seconds: float, trace: bool,
                spawned_at: float, setup_only: bool, smoke: bool) -> dict:
    warmup_s = wl.SMOKE_WARMUP_S if smoke else wl.SERVE_WARMUP_S
    compile_reps = 1 if smoke else wl.COMPILE_REPS[w.kind]
    padded_reps = 1 if smoke else wl.PADDED_REPS[w.kind]
    rng = np.random.default_rng([seed, 0])
    weights = wl.make_weights(w.config, rng)
    pool = wl.random_hidden(np.tile(wl.SERVE_LENGTHS, wl.SERVE_POOL_COPIES),
                            w.config.hidden_size, rng)

    section_s = seconds / 3 if trace else seconds
    if setup_only:      # the warm-up window, then just enough arrivals
        section_s = 0.1  # for the timed window to open
    plain = wl.serving_section(w, weights, pool, section_s, seed, None,
                               warmup_s)
    setup_s = plain["ready"] - spawned_at
    if setup_only:
        return {"setup_s": setup_s}
    tracer = Tracer() if trace else None
    if trace:   # the traced section lowers its kernels itself, as a run
        plain["session"].executor.reset()   # of its own would
    traced = wl.serving_section(w, weights, pool, section_s, seed, tracer,
                                warmup_s) if trace else None
    main = traced or plain

    signatures = wl.typical_signatures(w)
    cold = wl.cold_compiles(w, weights, signatures, compile_reps)
    sample = [wl.random_hidden(sig, w.config.hidden_size, rng)
              for sig in signatures]
    padded = PaddedEncoder([weights] * w.n_layers, w.config.num_heads, w.masked)
    padded_s, _ = wl.time_calls(padded.run, sample, padded_reps)
    direct = Session(backend="vector")
    ragged_s, _ = wl.time_calls(
        lambda hidden: run_encoder_stack_numeric(
            hidden, weights, w.config, masked=w.masked, n_layers=w.n_layers,
            session=direct).hidden,
        sample, padded_reps)

    # Oracle: every completed request against the float64 encoder run on
    # that single sequence (exact under causal masking, whatever batch and
    # bucket padding the scheduler chose).
    layers = [reference.oracle_weights(weights)] * w.n_layers
    want = reference.encoder_stack(pool, layers, w.config.num_heads, w.masked)
    baseline_ok = all(
        reference.matches(got, want[k], wl.ORACLE_TOL)
        for k, got in enumerate(padded.run(pool[:8])))
    completed, wrong, max_err = judge_requests(main["results"], main["picks"],
                                               want)
    wrong_plain = judge_requests(plain["results"], plain["picks"], want)[1] \
        if trace else wrong
    attempted = len(completed)
    failed = int((~completed).sum())
    in_time = int((completed & (main["latency"] <= w.slo_ms / 1e3)).sum())
    fallbacks = cold["fallbacks"] + main["session"].executor.fallback_count
    result = {
        "attempted": attempted, "failed": failed,
        "correct": baseline_ok and fallbacks == 0 and wrong + wrong_plain == 0,
        "errors": [repr(r) for r in main["results"]
                   if r is not None and not isinstance(r, np.ndarray)][:3],
    }
    if not completed.any():
        raise SystemExit(f"{w.name}: no request completed: {result}")
    latency = main["latency"][completed]
    lengths = np.array([pool[p].shape[0] for p in main["picks"]])
    if not trace:
        n = len(latency)
        top = measure.highest_supported_percentile(n)
        result["metrics"] = {
            "setup_s": setup_s,
            "tokens_per_s": float(lengths[completed].sum())
            / sum(end - start for start, end in plain["steps"]),
            "p50_ms": measure.percentile(latency, 50) * 1e3,
            "p90_ms": measure.percentile(latency, 90) * 1e3,
            "compile_ms": median_ms(np.add(cold["build_s"], cold["compile_s"])),
            "ragged_over_padded":
                float(np.median(padded_s)) / float(np.median(ragged_s)),
            "peak_rss_mb": plain["rss_mib"],
            "goodput_share": in_time / attempted,
        }
        result["extra"] = {
            "samples": n, "failed_share": failed / attempted,
            "slo_miss_share": 1.0 - in_time / attempted,
            "highest_percentile": top,
            "highest_percentile_ms": measure.percentile(latency, top) * 1e3,
            "backlog_end": plain["backlog_end"],
            "gen_late_ms_p99": measure.percentile(plain["late"], 99) * 1e3,
        }
        return result

    counters = traced["counters"]
    metrics = static_layers(cold)
    metrics.update(counter_layers(counters))
    metrics.update(wl.span_layers(tracer, traced["window_start"],
                                  counters["padded_tokens"],
                                  int(completed.sum()), w))
    wait = traced["wait"][completed]
    metrics.update({
        "executor.vector_fallbacks": fallbacks,
        "ops.sdpa_buckets": float(np.mean([len(set(s)) for s in signatures])),
        "queue.submit_us": float(np.median(traced["submit_s"])) * 1e6,
        "queue.wait_ms_p50": measure.percentile(wait, 50) * 1e3,
        "queue.wait_ms_p90": measure.percentile(wait, 90) * 1e3,
        "baseline.padded_ms": median_ms(padded_s),
        "baseline.padding_ratio":
            float(np.mean([padded.padding_ratio(h) for h in sample])),
        "baseline.oracle_max_abs_err": max_err,
        "harness.gen_late_ms_p99": measure.percentile(traced["late"], 99) * 1e3,
        "harness.backlog_end": traced["backlog_end"],
        # Mean step wall: queueing amplifies request latency, and the
        # median step flips between the compiling and the cached mode.
        "harness.trace_overhead_share":
            step_mean(traced) / step_mean(plain) - 1.0,
    })
    result["metrics"] = metrics
    result["extra"] = {"trace_self_gap": max(
        wl.trace_consistency(tracer, "scheduler.step"),
        wl.trace_consistency(tracer, "request")), "spans": len(tracer.spans)}
    result["spans"] = tracer.spans
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() when run.py started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="fewer batches, repetitions and warm-up")
    parser.add_argument("--trace-file", default=None)
    args = parser.parse_args(argv)

    w = wl.WORKLOADS[args.workload]
    started = time.time()
    run = run_encoder if w.kind == "encoder" else run_serving
    result = run(w, args.seed, args.seconds, bool(args.trace),
                 args.spawned_at, args.setup_only, args.smoke)
    spans = result.pop("spans", None)
    if spans is not None and args.trace_file:
        measure.write_chrome_trace(args.trace_file, spans, {
            "workload": w.name, "seed": args.seed, "seconds": args.seconds})
    if not args.setup_only:
        result["metrics"] = {k: float(v) for k, v in result["metrics"].items()}
        result["env"] = environment()
        result["wall_s"] = time.time() - started
    print(json.dumps(result))
    ok = args.setup_only or (
        result["correct"]
        and result["extra"].get("trace_self_gap", 0.0) <= 0.02)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
