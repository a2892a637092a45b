"""Continuous-batching serving benchmark: signature reuse and stacked arenas.

Three serving-scale claims of the program runtime are measured here:

* **Throughput vs bucket tolerance.**  A stream of individual ragged
  requests is drained through the :class:`repro.serving.BatchScheduler`
  at several bucket tolerances.  Coarser buckets pad more tokens (the
  paper's partial-padding tradeoff) but collapse more batches onto the
  same raggedness signature, so the session's compiled-program cache --
  kernels, arena plan, prelude -- is reused instead of rebuilt; the
  steady-state (warm) drain shows the benefit.

* **Structure reuse.**  A kernel is generated once per *structure*; a
  never-seen raggedness signature only pays the prelude.  Draining 60
  exact-length batches (50+ distinct signatures, several batch sizes)
  from a cold process table generates the 7 kernels of the masked SDPA
  chain once -- shared by both layers -- and nothing else.

* **Arena savings vs stack depth.**  An N-layer encoder declared as one
  program lets the planner's liveness span every layer: layer k+1 reuses
  layer k's dead slabs, so peak intermediate bytes stay near one layer's
  working set instead of N independent per-layer arenas.

Writes ``benchmarks/results/bench_serving.{txt,json}``.  With ``--smoke``
a reduced problem runs and the headline claims are asserted: scheduler
outputs bit-identical to direct ``Session.run`` over the same batch rows,
at least one signature-cache hit, no more kernels generated than there
are structures, stacked arena strictly below the sum of per-layer plans,
zero vector-backend fallbacks.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.analysis.memory import intermediate_memory_report
from repro.core.codegen import clear_structures
from repro.core.executor import Executor
from repro.core.session import Session
from repro.models.config import TransformerConfig
from repro.models.transformer import EncoderWeights
from repro.serving import BatchScheduler

from harness import format_row, write_json_result, write_result

TOLERANCES = (1, 2, 4, 8)
STACK_DEPTHS = (1, 2, 4)
#: QK^T, mask add, row max, exp, row sum, normalise, AttnV: the kernel
#: structures of a masked encoder layer (every layer has the same ones).
MASKED_LAYER_STRUCTURES = 7


def _request_stream(num_requests: int, config: TransformerConfig,
                    seed: int = 0):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(4, 33, size=num_requests)
    return [rng.standard_normal((int(n), config.hidden_size))
            .astype(np.float32) for n in lengths]


def structure_reuse(config: TransformerConfig, n_layers: int) -> dict:
    """Drain 60 exact-length batches on a cold process table and report
    what was generated against what was merely instantiated."""
    clear_structures()
    session = Session(executor=Executor(backend="vector"))
    scheduler = BatchScheduler(
        EncoderWeights.random(config, seed=1), config, session=session,
        masked=True, n_layers=n_layers, max_batch_size=4, bucket_tolerance=1)
    scheduler.submit_many(_request_stream(238, config, seed=3))
    scheduler.drain()
    codegen = session.stats()["codegen"]
    return {"distinct_signatures": scheduler.stats()["distinct_signatures"],
            **{key: codegen[key] for key in (
                "structures_generated", "structure_hits", "prelude_builds",
                "lower_count", "fallbacks")}}


def run_benchmark(smoke: bool = False) -> dict:
    config = TransformerConfig(hidden_size=64, num_heads=4, head_size=16,
                               ff_size=128, num_layers=2, loop_pad=4,
                               bulk_pad=16, attention_tile=8)
    num_requests = 24 if smoke else 96
    n_layers = 2
    max_batch = 4 if smoke else 8
    stream = _request_stream(num_requests, config, seed=0)
    valid_tokens = sum(h.shape[0] for h in stream)

    payload = {
        "config": {"num_requests": num_requests, "n_layers": n_layers,
                   "max_batch_size": max_batch,
                   "hidden_size": config.hidden_size},
        "tolerances": {},
        "stack_arena": {},
    }

    widths = [10, 9, 10, 9, 10, 10, 10, 10, 12]
    rows = [format_row(["tolerance", "batches", "cold hits", "compiles",
                        "pad ovh", "cold ms", "warm hits", "warm ms",
                        "warm tok/s"],
                       widths)]

    for tolerance in TOLERANCES:
        # A private executor per tolerance: the cold drain and the
        # per-tolerance codegen stats must not inherit kernels or
        # counters from earlier tolerances via the shared executor.
        session = Session(backend="vector",
                          executor=Executor(backend="vector"))
        cold = BatchScheduler(EncoderWeights.random(config, seed=1), config,
                              session=session, masked=True,
                              n_layers=n_layers, max_batch_size=max_batch,
                              bucket_tolerance=tolerance, log_batches=True)
        weights = cold.weights

        t0 = time.perf_counter()
        cold.submit_many(stream)
        results = cold.drain()
        cold_s = time.perf_counter() - t0
        # Snapshot before the replay check / warm pass touch the session.
        cold_stats = cold.stats()
        bit_identical = cold.replay_bit_identical(results)

        # Steady state: same traffic once more through the SAME session --
        # every signature is now warm in the compiled-program cache.
        warm = BatchScheduler(weights, config, session=session, masked=True,
                              n_layers=n_layers, max_batch_size=max_batch,
                              bucket_tolerance=tolerance, log_batches=False)
        t0 = time.perf_counter()
        warm.submit_many(stream)
        warm.drain()
        warm_s = time.perf_counter() - t0

        warm_stats = warm.stats()
        entry = {
            "bit_identical": bool(bit_identical),
            "num_batches": cold.num_batches,
            "cold_signature_hits": cold_stats["signature_hits"],
            "cold_signature_misses": cold_stats["signature_misses"],
            "program_compiles": cold_stats["program_compiles"],
            "distinct_signatures": cold_stats["distinct_signatures"],
            "warm_signature_hits": warm_stats["signature_hits"],
            "padding_overhead": cold_stats["padding_overhead"],
            "cold_drain_s": cold_s,
            "warm_drain_s": warm_s,
            "warm_requests_per_s": num_requests / max(warm_s, 1e-9),
            "warm_tokens_per_s": valid_tokens / max(warm_s, 1e-9),
            "codegen": session.stats()["codegen"],
        }
        payload["tolerances"][str(tolerance)] = entry
        rows.append(format_row(
            [tolerance, cold.num_batches, cold_stats["signature_hits"],
             cold_stats["program_compiles"],
             f"{cold_stats['padding_overhead']:.1%}", cold_s * 1e3,
             warm_stats["signature_hits"], warm_s * 1e3,
             f"{entry['warm_tokens_per_s']:.0f}"],
            widths))

    reuse = payload["structure_reuse"] = structure_reuse(config, n_layers)
    rows.append("")
    rows.append(f"structure reuse: {reuse['distinct_signatures']} distinct "
                f"signatures -> {reuse['prelude_builds']} kernel instances, "
                f"{reuse['structures_generated']} kernels generated "
                f"({reuse['structure_hits']} structure hits)")

    rows.append("")
    stack_widths = [8, 12, 16, 14, 12]
    rows.append(format_row(["layers", "arena KiB", "per-layer sum KiB",
                            "x-layer saves", "slabs"], stack_widths))
    lengths = [h.shape[0] for h in stream[:max_batch]]
    for depth in STACK_DEPTHS:
        report = intermediate_memory_report(lengths, config, masked=True,
                                            n_layers=depth)
        payload["stack_arena"][str(depth)] = report
        rows.append(format_row(
            [depth, report["arena_bytes"] / 1024.0,
             report["per_layer_sum_bytes"] / 1024.0,
             f"{report['cross_layer_savings']:.0%}",
             int(report["num_slabs"])],
            stack_widths))

    write_result("bench_serving", rows)
    write_json_result("bench_serving", payload)
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced problem + assert the headline claims")
    args = parser.parse_args(argv)
    payload = run_benchmark(smoke=args.smoke)
    if args.smoke:
        for tolerance, entry in payload["tolerances"].items():
            assert entry["bit_identical"], (
                f"tolerance {tolerance}: scheduler output != direct "
                "Session.run on the same batch rows")
            assert entry["codegen"]["fallbacks"] == 0, (
                f"tolerance {tolerance}: vector-backend fallbacks "
                f"{entry['codegen']['fallback_reasons']}")
        assert any(e["warm_signature_hits"] >= 1
                   for e in payload["tolerances"].values()), (
            "no bucket tolerance produced a signature-cache hit")
        cold_hits = [payload["tolerances"][str(t)]["cold_signature_hits"]
                     for t in TOLERANCES]
        assert cold_hits == sorted(cold_hits), (
            f"cold signature hits not monotone in bucket tolerance: "
            f"{cold_hits}")
        reuse = payload["structure_reuse"]
        assert reuse["distinct_signatures"] >= 50, reuse
        assert reuse["structures_generated"] <= MASKED_LAYER_STRUCTURES, (
            f"{reuse['structures_generated']} kernels generated for "
            f"{MASKED_LAYER_STRUCTURES} structures: something is keyed by "
            "the lengths")
        assert reuse["fallbacks"] == 0, reuse
        for depth in STACK_DEPTHS[1:]:
            report = payload["stack_arena"][str(depth)]
            assert report["arena_bytes"] < report["per_layer_sum_bytes"], (
                f"stacked {depth}-layer arena not below the sum of "
                "per-layer plans")
        print("smoke checks passed: bit-identical demux, monotone "
              "signature reuse, >=1 cache hit, kernels generated <= "
              "structures, stacked arena < sum of per-layer plans, zero "
              "fallbacks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
