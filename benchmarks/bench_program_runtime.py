"""Program runtime vs op-by-op dispatch on the transformer encoder layer.

The ragged program graph runtime compiles the whole encoder layer ahead of
time for one raggedness signature -- every SDPA kernel lowered/vectorized
once, intermediates liveness-planned into reusable arena slabs -- and then
replays mini-batches with a single flat dispatch loop.  This benchmark
measures what that buys over op-by-op ``build_and_run`` execution (both
paths warm, both on the vector backend, bit-identical outputs):

* warm-cache per-batch wall time (median over repeats);
* per-batch intermediate allocation counts (op-by-op allocates one fresh
  buffer per operator output; the session reuses preallocated slabs);
* peak intermediate bytes: planner arena vs summed per-op allocation;
* the host side's prelude: microseconds a run spends in the marshalling
  nodes (QKV split, attention merge) when every slice view has to be
  resolved through the layout (what each run paid before the views were
  kept on the program's ragged wrappers) against a warm run, which makes
  no ``RaggedLayout.slice_bounds`` / ``slice_shape`` /
  ``RaggedTensor.valid_slice_shape`` call at all;
* the second core (``--smoke`` only): a hidden-512 layer compiled as the
  host's usable cores allow against the same program compiled for one
  core -- serial ms, split ms, the hand-off cost of a split step, and the
  per-step table of what was split into how many chunks.

Writes ``benchmarks/results/bench_program_runtime.{txt,json}``.  With
``--smoke`` it runs a reduced problem and asserts the headline claims
(arena >= 30% smaller than per-op allocation, zero vector-backend
fallbacks, bit-identical outputs, program path not slower, zero layout
calls on a warm run; with two usable cores or more, at least one split
step at hidden 512 and the same bits as the serial program -- no speed
assertion, CI runners differ).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import ExitStack
from unittest import mock

import numpy as np

from repro.core import parallel
from repro.core.engine import dispatch_step
from repro.core.ragged_tensor import RaggedTensor
from repro.core.session import Session
from repro.core.storage import RaggedLayout
from repro.models.config import PAPER_BASE_CONFIG, TransformerConfig
from repro.models.transformer import (
    EncoderWeights,
    build_encoder_stack_program,
    encoder_program,
    run_encoder_layer_numeric,
    run_encoder_layer_opbyop,
)

from harness import format_row, write_json_result, write_result


def _make_inputs(batch: int, config: TransformerConfig, seed: int = 0):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(8, 48, size=batch)
    hidden = [rng.standard_normal((int(n), config.hidden_size))
              .astype(np.float32) for n in lengths]
    return hidden


def _median_ms(fn, repeats: int, setup=None) -> float:
    times = []
    for _ in range(repeats):
        if setup is not None:
            setup()             # untimed
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(times))


def _layout_calls(fn) -> int:
    """Calls ``fn`` makes into the layout arithmetic behind a slice view."""
    with ExitStack() as stack:
        mocks = [stack.enter_context(mock.patch.object(
            owner, name, autospec=True, side_effect=getattr(owner, name)))
            for owner, name in ((RaggedLayout, "slice_bounds"),
                                (RaggedLayout, "slice_shape"),
                                (RaggedTensor, "valid_slice_shape"))]
        fn()
        return sum(m.call_count for m in mocks)


def _marshal_us(compiled, cold: bool, repeats: int) -> float:
    """Median microseconds one run spends in the host marshalling nodes.

    ``cold`` rebinds every ragged wrapper's buffer first, which drops its
    slice views: the run then resolves each slice through the layout."""
    steps = [step for step, idx in zip(compiled._steps, compiled.plan.order)
             if compiled._work.nodes[idx].name.endswith((".split", ".merge"))]
    wrappers = [w for w in compiled._wrapped.values()
                if isinstance(w, RaggedTensor)]

    def drop_views():
        for wrapper in wrappers:
            wrapper.data = wrapper.data

    def marshal():
        for _kind, fn, args, _prezero, _fill in steps:
            fn(*args)

    return 1e3 * _median_ms(marshal, repeats, drop_views if cold else None)


def run_second_core(repeats: int) -> dict:
    """A hidden-512 encoder layer compiled for the host's usable cores
    against the same program compiled for one (``usable_cores`` patched:
    there is no knob).  Prints the per-step table; returns the numbers."""
    config = PAPER_BASE_CONFIG
    rng = np.random.default_rng(5)
    lengths = [int(n) for n in rng.integers(16, 100, size=16)]
    tokens = rng.standard_normal((sum(lengths), config.hidden_size)) \
        .astype(np.float32)
    program = build_encoder_stack_program(
        lengths, [EncoderWeights.random(config, seed=2)], config,
        masked=False, n_layers=1)
    with mock.patch.object(parallel, "usable_cores", return_value=1):
        serial = Session(backend="vector")
        serial_steps = serial.compile(program)._steps
    split = Session(backend="vector")
    compiled = split.compile(program)
    want = serial.run(program, {"tokens": tokens})["out_tokens"]
    got = split.run(program, {"tokens": tokens})["out_tokens"]

    noop = parallel.SplitStep(lambda: None, lambda: [(), ()])
    rows = [format_row(["step", "serial ms", "split ms", "chunks"],
                       [26, 10, 10, 6])]
    n_split = 0
    for idx, one, many in zip(compiled.plan.order, serial_steps,
                              compiled._steps):
        chunks = len(many[1].chunks) \
            if isinstance(many[1], parallel.SplitStep) else 1
        n_split += chunks > 1
        rows.append(format_row(
            [compiled._work.nodes[idx].name,
             _median_ms(lambda: dispatch_step(one), repeats),
             _median_ms(lambda: dispatch_step(many), repeats), chunks],
            [26, 10, 10, 6]))
    result = {
        "usable_cores": parallel.usable_cores(),
        "tokens": sum(lengths),
        "split_steps": n_split,
        "bit_identical": bool(np.array_equal(want, got)),
        "serial_ms": _median_ms(
            lambda: serial.run(program, {"tokens": tokens}), repeats),
        "split_ms": _median_ms(
            lambda: split.run(program, {"tokens": tokens}), repeats),
        "handoff_us": 1e3 * _median_ms(noop, 200) if n_split else 0.0,
    }
    rows.append(f"hidden 512, {result['tokens']} tokens, "
                f"{result['usable_cores']} usable cores, OPENBLAS_NUM_THREADS="
                f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}: serial "
                f"{result['serial_ms']:.1f} ms, split {result['split_ms']:.1f} "
                f"ms ({n_split} split steps), hand-off "
                f"{result['handoff_us']:.0f} us")
    write_result("bench_program_runtime_second_core", rows)
    return result


def run_benchmark(smoke: bool = False) -> dict:
    config = TransformerConfig(hidden_size=64, num_heads=4, head_size=16,
                               ff_size=128, num_layers=2, loop_pad=4,
                               bulk_pad=16, attention_tile=8)
    batch = 8 if smoke else 24
    repeats = 10 if smoke else 30

    session = Session(backend="vector", executor=None)
    rows = [format_row(["variant", "op-by-op ms", "program ms", "speedup",
                        "per-op KiB", "arena KiB", "arena saves",
                        "allocs/batch", "slabs"],
                       [10, 12, 12, 8, 10, 10, 11, 12, 6])]
    payload = {"config": {"batch": batch, "repeats": repeats,
                          "hidden_size": config.hidden_size},
               "variants": {}}
    marshal = []

    for masked in (False, True):
        variant = "masked" if masked else "unmasked"
        hidden = _make_inputs(batch, config, seed=1 if masked else 0)
        weights = EncoderWeights.random(config, seed=2)

        # Warm both paths (compile kernels, build program, plan arena).
        ref = run_encoder_layer_opbyop(hidden, weights, config, masked=masked,
                                       backend="vector")
        got = run_encoder_layer_numeric(hidden, weights, config,
                                        masked=masked, session=session)
        bit_identical = all(np.array_equal(a, b)
                            for a, b in zip(ref.hidden, got.hidden))

        opbyop_ms = _median_ms(
            lambda: run_encoder_layer_opbyop(hidden, weights, config,
                                             masked=masked, backend="vector"),
            repeats)
        program_ms = _median_ms(
            lambda: run_encoder_layer_numeric(hidden, weights, config,
                                              masked=masked, session=session),
            repeats)

        program = encoder_program([h.shape[0] for h in hidden], weights,
                                  config, masked=masked, session=session)
        compiled = session.compile(program)
        plan = compiled.plan
        stats = session.stats()
        warm_layout_calls = _layout_calls(
            lambda: run_encoder_layer_numeric(hidden, weights, config,
                                              masked=masked, session=session))
        marshal_cold_us = _marshal_us(compiled, cold=True, repeats=repeats)
        marshal_warm_us = _marshal_us(compiled, cold=False, repeats=repeats)
        marshal.append(f"{variant}: host marshal {marshal_cold_us:.1f} us/run "
                       f"resolving views -> {marshal_warm_us:.1f} us/run "
                       f"warm ({warm_layout_calls} layout calls)")

        payload["variants"][variant] = {
            "opbyop_ms_per_batch": opbyop_ms,
            "program_ms_per_batch": program_ms,
            "dispatch_speedup": opbyop_ms / max(program_ms, 1e-9),
            "bit_identical": bool(bit_identical),
            "per_op_alloc_bytes": plan.naive_bytes,
            "arena_peak_bytes": plan.arena_bytes,
            "arena_savings": plan.reuse_savings,
            "per_op_allocs_per_batch": plan.num_values,
            "arena_allocs_per_batch": 0,
            "arena_slabs": plan.num_slabs,
            "codegen": stats["codegen"],
            "warm_layout_calls": warm_layout_calls,
            "host_marshal_cold_us_per_run": marshal_cold_us,
            "host_marshal_warm_us_per_run": marshal_warm_us,
        }
        rows.append(format_row(
            [variant, opbyop_ms, program_ms, opbyop_ms / max(program_ms, 1e-9),
             plan.naive_bytes / 1024.0, plan.arena_bytes / 1024.0,
             f"{plan.reuse_savings:.0%}", plan.num_values, plan.num_slabs],
            [10, 12, 12, 8, 10, 10, 11, 12, 6]))

    if smoke:
        payload["second_core"] = run_second_core(repeats)
    write_result("bench_program_runtime", rows + marshal)
    write_json_result("bench_program_runtime", payload)
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced problem + assert the headline claims")
    args = parser.parse_args(argv)
    payload = run_benchmark(smoke=args.smoke)
    if args.smoke:
        for variant, result in payload["variants"].items():
            assert result["bit_identical"], (
                f"{variant}: program output != op-by-op output")
            assert result["codegen"]["fallbacks"] == 0, (
                f"{variant}: vector-backend fallbacks "
                f"{result['codegen']['fallback_reasons']}")
            assert result["arena_savings"] >= 0.30, (
                f"{variant}: arena saves only {result['arena_savings']:.0%} "
                "over per-op allocation (expected >= 30%)")
            assert result["dispatch_speedup"] >= 0.9, (
                f"{variant}: program dispatch slower than op-by-op "
                f"({result['dispatch_speedup']:.2f}x)")
            assert result["warm_layout_calls"] == 0, (
                f"{variant}: a warm run made {result['warm_layout_calls']} "
                "slice_bounds / slice_shape / valid_slice_shape calls")
        second = payload["second_core"]
        assert second["bit_identical"], (
            "hidden 512: split output != forced-serial output")
        assert second["split_steps"] >= 1 or second["usable_cores"] < 2, (
            f"hidden 512 on {second['usable_cores']} usable cores: no step "
            "was split")
        print("smoke checks passed: bit-identical, zero fallbacks, "
              ">=30% arena savings, dispatch not slower, zero layout calls "
              f"on a warm run, {second['split_steps']} split steps at "
              "hidden 512 bit-identical to the serial program")
    return 0


if __name__ == "__main__":
    sys.exit(main())
