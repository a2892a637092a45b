"""Planner-level fusion + persistent AOT cache: the dispatch-count story.

Every plan step pays its own dispatch overhead, so the most direct fix
is *fewer, fatter steps*.  This benchmark measures both halves of that
fix:

* **Fusion** (``plan_program(fuse=True)``): producer-consumer kernel
  chains collapse into single emitted kernels whose intermediates live in
  loop-local temporaries instead of arena slabs.  The table records
  kernel dispatches, plan steps and arena bytes before vs after, plus the
  p50 per-run latency of each plan -- asserted bit-identical, with zero
  vector fallbacks on the fused chains.
* **AOT cache** (``Session(disk_cache=...)``): compiled kernels persist
  to disk keyed by a stable fingerprint, so a fresh session (standing in
  for a fresh process; the executor and its in-memory caches are brand
  new) rebuilds every kernel with ``lower_count == 0``.  The table
  records cold vs warm compile time and the resulting speedup.

``--smoke`` asserts the issue's claims: fused outputs bit-identical to
unfused, >= 30% dispatch reduction on the masked encoder, zero fused
fallbacks, warm compiles perform zero lowerings, and the warmed cache
yields a cold-start speedup.

Writes ``benchmarks/results/bench_fusion.{txt,json}`` and (full runs
only) the trajectory artifact ``BENCH_fusion.json`` at the repo root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

import numpy as np

from repro.core.codegen import clear_structures
from repro.core.executor import Executor
from repro.core.session import Session
from repro.models.config import TransformerConfig
from repro.models.transformer import (
    EncoderWeights,
    build_encoder_program,
    build_encoder_stack_program,
)

from harness import format_row, write_json_result, write_result

_WIDTHS = [22, 12, 10, 14, 10, 10, 8]
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _p50_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(times))


def _variants(config, weights, lengths, n_layers):
    for masked in (False, True):
        label = "masked" if masked else "unmasked"
        yield (f"{label} layer",
               build_encoder_program(lengths, weights, config, masked=masked))
        yield (f"{label} stack x{n_layers}",
               build_encoder_stack_program(lengths, weights, config,
                                           masked=masked, n_layers=n_layers))


def _measure_fusion(config, weights, lengths, n_layers, repeats):
    rng = np.random.default_rng(11)
    tokens = rng.standard_normal(
        (sum(lengths), config.hidden_size)).astype(np.float32)
    rows = [format_row(["variant", "dispatches", "steps", "arena B",
                        "p50 base", "p50 fused", "bit-id"], _WIDTHS)]
    entries = {}
    for name, program in _variants(config, weights, lengths, n_layers):
        base = Session(backend="vector", executor=Executor(backend="vector"))
        fused = Session(backend="vector", executor=Executor(backend="vector"),
                        fuse=True)
        out_base = base.run(program, {"tokens": tokens})
        out_fused = fused.run(program, {"tokens": tokens})
        bit_identical = all(
            np.array_equal(np.asarray(out_base[k]), np.asarray(out_fused[k]))
            for k in out_base)
        p50_base = _p50_ms(
            lambda: base.run(program, {"tokens": tokens},
                             copy_outputs=False), repeats)
        p50_fused = _p50_ms(
            lambda: fused.run(program, {"tokens": tokens},
                              copy_outputs=False), repeats)
        cp_base = base.compiled_program(program)
        cp_fused = fused.compiled_program(program)
        codegen = fused.executor.codegen_stats()
        entry = {
            "kernel_dispatches_base": cp_base.kernel_dispatches,
            "kernel_dispatches_fused": cp_fused.kernel_dispatches,
            "dispatch_reduction": 1.0 - (cp_fused.kernel_dispatches
                                         / cp_base.kernel_dispatches),
            "steps_base": len(cp_base.plan.order),
            "steps_fused": len(cp_fused.plan.order),
            "arena_bytes_base": cp_base.arena_bytes,
            "arena_bytes_fused": cp_fused.arena_bytes,
            "p50_ms_base": p50_base,
            "p50_ms_fused": p50_fused,
            "bit_identical": bool(bit_identical),
            "fused_fallbacks": codegen["fused_fallbacks"],
            "fused_fallback_reasons": codegen["fused_fallback_reasons"],
            "fusion_summary": cp_fused.fusion_summary(),
        }
        entries[name] = entry
        rows.append(format_row(
            [name,
             f"{cp_base.kernel_dispatches}->{cp_fused.kernel_dispatches}",
             f"{entry['steps_base']}->{entry['steps_fused']}",
             f"{entry['arena_bytes_base']}->{entry['arena_bytes_fused']}",
             p50_base, p50_fused,
             "yes" if bit_identical else "NO"], _WIDTHS))
        base.close()
        fused.close()
    return rows, entries


def _measure_cold_start(config, weights, lengths, n_layers, trials):
    """Cold vs warm compile wall time through the persistent AOT cache.

    Every session below uses a brand-new private executor (empty kernel
    and program caches) and starts from an emptied process-wide kernel
    table, so the warm numbers measure exactly what a fresh process
    pays: unpickling generated kernels instead of generating them.  The
    cross-*process* claim itself is proven by ``tests/test_fusion.py``
    with a real subprocess.
    """
    program = build_encoder_stack_program(lengths, weights, config,
                                          masked=True, n_layers=n_layers)
    cold_ms, warm_ms, warm_lowers = [], [], []
    for _ in range(trials):
        cache_dir = tempfile.mkdtemp(prefix="repro-aot-bench-")
        try:
            clear_structures()
            s_cold = Session(backend="vector", disk_cache=cache_dir,
                             fuse=True)
            t0 = time.perf_counter()
            s_cold.compile(program)
            cold_ms.append((time.perf_counter() - t0) * 1e3)
            s_cold.close()

            clear_structures()
            s_warm = Session(backend="vector", disk_cache=cache_dir,
                             fuse=True)
            t0 = time.perf_counter()
            s_warm.compile(program)
            warm_ms.append((time.perf_counter() - t0) * 1e3)
            warm_lowers.append(s_warm.executor.lower_count)
            s_warm.close()
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
    cold = float(np.median(cold_ms))
    warm = float(np.median(warm_ms))
    entry = {
        "cold_compile_ms": cold,
        "warm_compile_ms": warm,
        "cold_start_speedup": cold / warm if warm > 0 else float("inf"),
        "warm_lower_count": max(warm_lowers),
        "trials": trials,
    }
    rows = [
        "",
        format_row(["cold-start", "cold ms", "warm ms", "speedup",
                    "lowers", "", ""], _WIDTHS),
        format_row(["aot disk cache", f"{cold:.2f}", f"{warm:.2f}",
                    f"{entry['cold_start_speedup']:.2f}x",
                    str(entry["warm_lower_count"]), "", ""], _WIDTHS),
    ]
    return rows, entry


def run_benchmark(smoke: bool = False) -> dict:
    if smoke:
        config = TransformerConfig(hidden_size=16, num_heads=2, head_size=8,
                                   ff_size=32, num_layers=2, loop_pad=4,
                                   bulk_pad=8, attention_tile=8)
        lengths, n_layers, repeats, trials = (5, 3, 7, 2), 2, 5, 2
    else:
        config = TransformerConfig(hidden_size=64, num_heads=4, head_size=16,
                                   ff_size=128, num_layers=2, loop_pad=4,
                                   bulk_pad=16, attention_tile=8)
        lengths, n_layers, repeats, trials = (24, 9, 17, 30, 12, 21), 2, 10, 3
    weights = EncoderWeights.random(config, seed=2)

    fusion_rows, fusion = _measure_fusion(config, weights, lengths, n_layers,
                                          repeats)
    cold_rows, aot = _measure_cold_start(config, weights, lengths, n_layers,
                                         trials)
    payload = {
        "config": {"hidden_size": config.hidden_size, "n_layers": n_layers,
                   "lengths": list(lengths), "repeats": repeats,
                   "smoke": bool(smoke)},
        "fusion": fusion,
        "aot": aot,
    }

    write_result("bench_fusion", fusion_rows + cold_rows)
    write_json_result("bench_fusion", payload)
    if not smoke:
        # the committed trajectory artifact tracks the full sweep only;
        # CI smoke runs must not clobber it with reduced-problem numbers
        with open(os.path.join(_REPO_ROOT, "BENCH_fusion.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced problem + assert the fusion and "
                             "AOT-cache claims")
    args = parser.parse_args(argv)
    payload = run_benchmark(smoke=args.smoke)
    if args.smoke:
        for name, entry in payload["fusion"].items():
            assert entry["bit_identical"], (
                f"{name}: fused outputs diverge from the unfused plan")
            assert entry["fused_fallbacks"] == 0, (
                f"{name}: fused emission fell back: "
                f"{entry['fused_fallback_reasons']}")
            if "masked" in name and "unmasked" not in name:
                assert entry["dispatch_reduction"] >= 0.30, (
                    f"{name}: dispatch reduction "
                    f"{entry['dispatch_reduction']:.0%} < 30%")
        aot = payload["aot"]
        assert aot["warm_lower_count"] == 0, (
            f"warm compile lowered {aot['warm_lower_count']} kernels; "
            "expected every kernel from the disk cache")
        assert aot["cold_start_speedup"] > 1.0, (
            f"warmed AOT cache gave no cold-start speedup "
            f"({aot['cold_start_speedup']:.2f}x)")
        print("smoke checks passed: fused plans bit-identical with zero "
              "fallbacks, masked-encoder dispatches reduced >= 30%, warm "
              "AOT compiles lower zero kernels and beat cold compiles")
    return 0


if __name__ == "__main__":
    sys.exit(main())
