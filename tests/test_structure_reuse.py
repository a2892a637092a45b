"""Compile a kernel once per structure, pay only the prelude per batch.

A generated kernel is shared by every raggedness signature of its
*structure*; what an instance builds itself is the prelude (lowered
tables, bucket partition, workspace layout) plus a re-check of the
emitter's recorded length-dependent decisions.  These tests pin what that
sharing must guarantee:

* **differential**: a kernel generated for lengths A and instantiated for
  lengths B computes bit for bit what a from-scratch compile of B on a
  cleared process table computes -- masked and unmasked, plain and fused,
  vector and scalar backend, across instance counts, duplicate /
  singleton / odd lengths and loop- / storage-padding combinations -- and
  agrees with an independent float64 reference, from a poisoned arena;
* **decision flips**: where the emitter's verdict depends on the lengths
  (padding strips, whole-buffer fills, a loop bound exceeding its
  storage) an instance that does not repeat A's decisions gets a kernel
  of its own, never A's;
* **racing executors**: threads compiling on executors of their own
  generate each structure of a cold table exactly once;
* **anti-gaming**: after one signature of a model is compiled, never-seen
  length sets generate and byte-compile nothing and cost what an
  already-seen length set costs -- nothing is keyed by length values;
* **program structures**: one graph per (weights, configuration,
  masking, depth, sequence count, plan mode); a program bound from it to
  never-seen lengths computes bit for bit what a from-scratch compile on
  cleared process tables computes, builds no structure and generates no
  kernel, and a bind that fails midway leaves the table and the session
  coherent.
"""

import builtins
import hashlib
import statistics
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import codegen, codegen_vector
from repro.core.codegen import clear_structures
from repro.core.dims import Dim
from repro.core.errors import CompileError
from repro.core.executor import Executor
from repro.core.extents import ConstExtent, VarExtent
from repro.core.ir import LoopVar
from repro.core.operator import compute, input_tensor, reduce_axis, sum_reduce
from repro.core.ragged_tensor import RaggedTensor
from repro.core.schedule import Schedule
from repro.core.session import Session
from repro.core.storage import RaggedLayout
from repro.models.config import TransformerConfig
from repro.models.transformer import (
    build_encoder_program,
    build_encoder_stack_program,
    encoder_stack_program,
)
from repro.ops import attention
from repro.serving import BatchScheduler, FaultInjector

from test_store_through import (
    ORACLE_TOL,
    SMALL,
    dense_reference_f64,
    kernel_output_padding,
    make_weights,
    packed_tokens,
    padded_chain_program,
)

WEIGHTS = make_weights(SMALL, 0)


def run_encoder(lengths, masked, fuse, backend):
    """One encoder layer on a fresh session and executor, from an arena
    another occupant left full of NaNs."""
    session = Session(executor=Executor(backend=backend), fuse=fuse)
    program = build_encoder_program(lengths, WEIGHTS, SMALL, masked=masked)
    compiled = session.compile(program)
    for slab in compiled._slabs:
        slab.fill(np.nan)
    tokens = packed_tokens(lengths, SMALL.hidden_size, 7)
    out = session.run(program, {"tokens": tokens})["out_tokens"]
    for name, tensor, _ in kernel_output_padding(compiled):
        assert not np.isnan(tensor.data).any(), name
    return out, tokens, session.executor


# ---------------------------------------------------------------------------
# (i) reuse == from-scratch, on the encoder
# ---------------------------------------------------------------------------


class TestEncoderReuse:
    @settings(max_examples=20, deadline=None)
    @given(first=st.lists(st.integers(1, 11), min_size=1, max_size=6),
           second=st.lists(st.integers(1, 11), min_size=1, max_size=6),
           masked=st.booleans(), fuse=st.booleans())
    @example(first=[8, 8, 8], second=[5, 3, 5, 1, 3, 5], masked=True,
             fuse=False)                              # gapped duplicates
    @example(first=[9, 6, 2], second=[1], masked=True, fuse=True)  # 1x1
    @example(first=[4], second=[7, 7, 7, 2], masked=False, fuse=True)
    @example(first=[3, 3], second=[11, 1, 9], masked=False, fuse=False)
    def test_vector_kernels_serve_other_lengths_bit_for_bit(
            self, first, second, masked, fuse):
        clear_structures()
        run_encoder(first, masked, fuse, "vector")
        reused, tokens, executor = run_encoder(second, masked, fuse, "vector")
        # Same structures (the batch size and the lengths are not part of
        # them): nothing was generated, every instance found its kernel.
        assert executor.structures_generated == 0
        assert executor.structure_hits == executor.prelude_builds \
            + executor.fused_regions > 0
        assert executor.fallback_count == 0
        clear_structures()
        scratch, _, cold = run_encoder(second, masked, fuse, "vector")
        assert cold.structures_generated > 0 and cold.structure_hits == 0
        assert np.array_equal(reused, scratch)
        want = dense_reference_f64(tokens, second, WEIGHTS, SMALL, masked)
        np.testing.assert_allclose(reused, want, rtol=ORACLE_TOL,
                                   atol=ORACLE_TOL)

    @pytest.mark.parametrize("fuse", [False, True])
    @pytest.mark.parametrize("masked", [False, True])
    def test_scalar_kernels_serve_other_lengths_bit_for_bit(self, masked,
                                                            fuse):
        first, second = [3, 1], [2, 4, 2]
        clear_structures()
        run_encoder(first, masked, fuse, "scalar")
        reused, tokens, executor = run_encoder(second, masked, fuse, "scalar")
        assert executor.structures_generated == 0
        clear_structures()
        scratch, _, _ = run_encoder(second, masked, fuse, "scalar")
        assert np.array_equal(reused, scratch)
        want = dense_reference_f64(tokens, second, WEIGHTS, SMALL, masked)
        np.testing.assert_allclose(reused, want, rtol=ORACLE_TOL,
                                   atol=ORACLE_TOL)

    def test_instances_share_the_kernel_and_differ_in_the_prelude(self):
        clear_structures()
        kernels = []
        for lengths in ([5, 3, 7], [6, 6, 2, 1]):
            session = Session(executor=Executor())
            compiled = session.compile(build_encoder_program(
                lengths, WEIGHTS, SMALL, masked=True))
            kernels.append({k.lowered.name: k
                            for k in compiled.kernels.values()})
        for name, a in kernels[0].items():
            b = kernels[1][name]
            assert a.generated is b.generated, name
            assert a.lowered is not b.lowered
            # ... and the loop nest of the first lowering, not a new one.
            assert a.lowered.body is b.lowered.body
            assert a.lowered.loops[0].bound.value == 3
            assert b.lowered.loops[0].bound.value == 4
            assert len(a.lowered.aux_arrays["buckets"]) == 3
            assert [x.tolist() for x in b.lowered.aux_arrays["buckets"]] \
                == [[0, 1], [2], [3]]
            assert b.flops != a.flops and b.flops > 0


# ---------------------------------------------------------------------------
# (ii) loop- and storage-padding combinations, schedule variants
# ---------------------------------------------------------------------------


def ragged_matmul(lengths, loop_pad=1, inner=6, out=5):
    """``C[b, i, j] = sum_k A[b, i, k] W[k, j]`` over ragged rows; ``A``
    is stored padded to the loop padding (a padded loop reads it)."""
    lens = np.asarray(lengths, dtype=np.int64)
    batch, seq, j = Dim("batch"), Dim("seq"), Dim("j")
    ext = [ConstExtent(len(lens)), VarExtent(batch, lens)]
    a_in = input_tensor("A", [batch, Dim("as"), Dim("h")],
                        ext + [ConstExtent(inner)])
    w_in = input_tensor("W", [Dim("ki"), Dim("wj")],
                        [ConstExtent(inner), ConstExtent(out)])
    k = reduce_axis(inner, "k")
    op = compute("C", [batch, seq, j], ext + [ConstExtent(out)],
                 lambda b, i, jj: sum_reduce(
                     a_in[b, i, LoopVar(k.dim)] * w_in[LoopVar(k.dim), jj],
                     k))
    schedule = Schedule(op)
    padding = None
    if loop_pad > 1:
        schedule.pad_loop(seq, loop_pad)
        schedule.pad_input_dimension("A", a_in.dims[1], loop_pad)
        padding = {a_in.dims[1]: loop_pad}
    a = RaggedTensor.random(
        RaggedLayout(a_in.dims, a_in.extents, storage_padding=padding),
        seed=4)
    w = np.random.default_rng(5).standard_normal((inner, out)) \
        .astype(np.float32)
    return schedule, {"A": a, "W": w}


def pad_storage(multiple):
    def apply(schedule):
        schedule.pad_dimension(schedule.operator.dims[1], multiple)
    return apply


def split_rows(factor):
    def apply(schedule):
        schedule.split(schedule.operator.dims[1], factor)
    return apply


def remapped(schedule):
    schedule.parallel(schedule.operator.dims[0])
    schedule.thread_remap(schedule.operator.dims[0], "sort_desc")


def flat_gather(schedule):
    schedule.fuse_loops(*schedule.operator.dims[:2])


def flat_storage(schedule):
    batch, seq = schedule.operator.dims[:2]
    schedule.fuse_loops(batch, seq)
    schedule.fuse_dimensions(batch, seq)


#: name -> (loop padding, further scheduling)
VARIANTS = {
    "plain": (1, []),
    "storage-pad-4": (1, [pad_storage(4)]),
    "loop-4-storage-4": (4, [pad_storage(4)]),
    "loop-2-storage-4": (2, [pad_storage(4)]),
    "split-guarded": (1, [split_rows(2)]),
    "split-padded": (4, [pad_storage(4), split_rows(4)]),
    "remapped": (1, [remapped]),
    "flat-gather": (1, [flat_gather]),
    "flat-storage": (1, [flat_storage]),
}


def compile_and_run(lengths, variant, backend):
    loop_pad, steps = VARIANTS[variant]
    schedule, inputs = ragged_matmul(lengths, loop_pad)
    for step in steps:
        step(schedule)
    executor = Executor(backend=backend)
    compiled = executor.compile(schedule)
    dirty = RaggedTensor.zeros(compiled.output_layout)
    if compiled.generated.fills_output:     # (scalar kernels are pre-zeroed)
        dirty.data.fill(np.nan)
    out, _ = executor.run(compiled, inputs, output=dirty)
    return out, compiled, executor, inputs


class TestScheduleVariants:
    @pytest.mark.parametrize("backend", ["vector", "scalar"])
    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_reuse_matches_scratch(self, variant, backend):
        first, second = [4, 8, 4], [5, 2, 7, 2, 1]
        clear_structures()
        _, generated_for, _, _ = compile_and_run(first, variant, backend)
        reused, compiled, executor, inputs = compile_and_run(
            second, variant, backend)
        clear_structures()
        scratch, fresh, _, _ = compile_and_run(second, variant, backend)
        # Whether the second instance shared the first one's kernel or
        # (a decision flipped) got one of its own, it runs the text a
        # from-scratch compile emits, and computes the same.
        assert compiled.source == fresh.source
        assert compiled.backend_name == fresh.backend_name == backend
        assert (executor.structures_generated == 0) == \
            (compiled.generated is generated_for.generated)
        assert np.array_equal(reused.data, scratch.data)
        a, w = inputs["A"], inputs["W"]
        want = [a.valid_slice(b) @ w for b in range(len(second))]
        if variant == "flat-storage":
            np.testing.assert_allclose(reused.data.reshape(-1, w.shape[1]),
                                       np.concatenate(want),
                                       rtol=1e-5, atol=1e-5)
            return
        for b, n in enumerate(second):
            np.testing.assert_allclose(reused.valid_slice(b), want[b],
                                       rtol=1e-5, atol=1e-5)
            if backend == "vector":     # storage past the loop bound is 0
                loop_pad = VARIANTS[variant][0]
                assert not reused.slice_view(b)[-(-n // loop_pad)
                                                * loop_pad:].any()

    def test_loop_padding_and_the_split_tile_are_structure(self):
        """Flipping a schedule knob regenerates; other lengths under the
        same knob do not."""
        clear_structures()
        generated = []
        for lengths, variant in (([5, 3], "plain"), ([4, 6, 1], "plain"),
                                 ([4, 6, 1], "loop-4-storage-4"),
                                 ([2, 9], "loop-4-storage-4"),
                                 ([2, 9], "loop-2-storage-4")):
            generated.append(compile_and_run(lengths, variant, "vector")[2]
                             .structures_generated)
        assert generated == [1, 0, 1, 0, 1]
        clear_structures()
        generated = []
        for lengths, tile in (([5, 3], 2), ([4, 6, 1], 2), ([4, 6, 1], 4),
                              ([7], 0)):
            executor = Executor()
            executor.compile(attention._attnv_schedule(lengths, 2, 4,
                                                       tile=tile))
            generated.append(executor.structures_generated)
        assert generated == [1, 0, 1, 1]


# ---------------------------------------------------------------------------
# (iii) decisions that flip with the lengths
# ---------------------------------------------------------------------------


def run_padded_chain(lengths):
    program, x_layout = padded_chain_program(lengths)
    session = Session(executor=Executor())
    compiled = session.compile(program)
    for slab in compiled._slabs:
        slab.fill(np.nan)
    out = session.run(program, {"x": RaggedTensor.random(x_layout, seed=3)})
    for name, tensor, padding in kernel_output_padding(compiled):
        assert np.isfinite(tensor.data).all(), name
        assert not tensor.data[padding].any(), name
    sources = {k.lowered.name: k.source for k in compiled.kernels.values()}
    return out, sources, session.executor


class TestDecisionFlips:
    def test_padding_strips_follow_the_lengths_not_the_first_instance(self):
        """Storage padded to 4, loops unpadded: for lengths on the padding
        multiple the bounds fill the storage and no strip is cleared; any
        other lengths need the strips -- whichever came first."""
        aligned, ragged = [4, 8, 4], [5, 2, 7]
        for order in ((aligned, ragged), (ragged, aligned)):
            clear_structures()
            sources, generated, outs = [], [], []
            for lengths in order + ([8, 4], [3, 6, 2, 5]):
                out, src, executor = run_padded_chain(lengths)
                outs.append(out)
                sources.append(src)
                generated.append(executor.structures_generated)
            # Two kernels per variant, then nothing: the later aligned /
            # ragged batches (other instance counts) reuse them.
            assert generated == [2, 2, 0, 0]
            strips = ["] = 0.0" in src["Y"] for src in sources]
            assert strips == [lengths is ragged for lengths in order] \
                + [False, True]
            clear_structures()
            for lengths, out in zip(order, outs):
                scratch, _, _ = run_padded_chain(lengths)
                for name in ("y", "z"):
                    assert np.array_equal(out[name].data, scratch[name].data)

    def test_bound_exceeding_storage_falls_back_after_a_vectorized_twin(self):
        """pad_loop without pad_dimension: lengths on the loop multiple
        vectorize; others must reach the scalar fallback -- also when the
        vector kernel of the structure already exists.  (Lengths chosen
        so the scalar backend's out-of-slice offsets stay in the buffer.)
        """
        def compile_run(lengths):
            lens = np.asarray(lengths)
            batch, seq = Dim("batch"), Dim("seq")
            ext = [ConstExtent(len(lens)), VarExtent(batch, lens)]
            a_in = input_tensor("A", [batch, Dim("s")], ext)
            op = compute("B", [batch, seq], ext, lambda o, i: 2.0 * a_in[o, i])
            schedule = Schedule(op)
            schedule.pad_loop(seq, 2)
            executor = Executor(backend="vector")
            compiled = executor.compile(schedule)
            a = RaggedTensor.random(RaggedLayout(a_in.dims, ext), seed=1)
            out, _ = executor.run(compiled, {"A": a})
            assert np.allclose(out.data, 2.0 * a.data)
            return out, compiled, executor

        clear_structures()
        _, even, _ = compile_run([2, 4, 2])
        assert even.backend_name == "vector"
        odd_out, odd, executor = compile_run([3, 1, 4])
        assert odd.backend_name == "scalar"
        assert "exceeds the storage extent" in odd.fallback_reason
        assert executor.fallback_count == 1
        assert executor.codegen_stats()["fallback_reasons"] == {
            odd.fallback_reason: 1}
        # Both verdicts are now known: neither regenerates, each instance
        # is still counted as what it is.
        _, again, executor = compile_run([4, 2, 6, 2])
        assert again.generated is even.generated
        assert (executor.structures_generated, executor.fallback_count) \
            == (0, 0)
        _, again, executor = compile_run([3, 1, 4])
        assert again.generated is odd.generated
        assert (executor.structures_generated, executor.fallback_count) \
            == (0, 1)
        clear_structures()
        scratch, fresh, _ = compile_run([3, 1, 4])
        assert fresh.backend_name == "scalar"
        assert np.array_equal(odd_out.data, scratch.data)

    def test_storage_rows_beyond_the_loop_are_cleared_for_the_twin_too(self):
        """Dense storage as large as the iteration space, then larger on
        the governing axis: the same structure, but the second needs the
        whole-buffer clear the first did not."""
        def compile_run(rows, stored):
            b, s = Dim("b"), Dim("s")
            a_in = input_tensor("A", [b, s], [ConstExtent(rows), ConstExtent(4)])
            op = compute("O", [b, s], [ConstExtent(rows), ConstExtent(4)],
                         lambda o, i: 2.0 * a_in[o, i],
                         storage_extents=[ConstExtent(stored), ConstExtent(4)])
            executor = Executor(backend="vector")
            compiled = executor.compile(Schedule(op))
            assert compiled.backend_name == "vector"
            a = np.arange(rows * 4, dtype=np.float32).reshape(rows, 4)
            dirty = RaggedTensor.zeros(compiled.output_layout)
            dirty.data.fill(np.nan)
            out, _ = executor.run(compiled, {"A": a}, output=dirty)
            want = np.zeros((stored, 4), dtype=np.float32)
            want[:rows] = 2.0 * a
            assert np.array_equal(out.data.reshape(stored, 4), want)
            return compiled, executor

        clear_structures()
        exact, _ = compile_run(3, 3)
        assert ".fill(0.0)" not in exact.source
        larger, executor = compile_run(3, 5)
        assert ".fill(0.0)" in larger.source
        assert executor.structures_generated == 1
        for rows, stored, twin in ((6, 6, exact), (2, 7, larger)):
            compiled, executor = compile_run(rows, stored)
            assert compiled.generated is twin.generated
            assert executor.structures_generated == 0


# ---------------------------------------------------------------------------
# (iv) executors racing on the process-wide table
# ---------------------------------------------------------------------------


class TestRacingExecutors:
    def test_each_structure_is_generated_exactly_once(self):
        """More threads than cores, an executor each, other lengths of one
        model, a cold table: a lost update of the shared table would
        generate a structure twice (or lose a kernel)."""
        batches = [[3 + i, 1 + (2 * i) % 5, 7] for i in range(8)]
        results = [None] * len(batches)
        barrier = threading.Barrier(len(batches))

        def work(i):
            barrier.wait(timeout=30)
            results[i] = run_encoder(batches[i], True, False, "vector")

        clear_structures()
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(batches))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(result is not None for result in results)
        executors = [executor for _, _, executor in results]
        assert sum(e.structures_generated for e in executors) == 7
        assert sum(e.structure_hits for e in executors) \
            == 7 * (len(batches) - 1)
        clear_structures()
        for lengths, (out, _, _) in zip(batches, results):
            scratch, _, _ = run_encoder(lengths, True, False, "vector")
            assert np.array_equal(out, scratch)


# ---------------------------------------------------------------------------
# (v) nothing is keyed by length values
# ---------------------------------------------------------------------------

SERVE = TransformerConfig(hidden_size=32, num_heads=2, head_size=16,
                          ff_size=64, num_layers=2, loop_pad=4, bulk_pad=16,
                          attention_tile=8)


class TestNothingIsKeyedByLengths:
    @staticmethod
    def compile_fresh(lengths, masked=False, config=SERVE, weights=None):
        """Build and compile on a fresh session and executor; returns the
        wall time and the executor."""
        session = Session(executor=Executor())
        t0 = time.perf_counter()
        program = encoder_stack_program(
            tuple(lengths), weights or make_weights(config, 0), config,
            masked=masked, n_layers=2, session=session)
        session.compile(program)
        return time.perf_counter() - t0, session

    def test_never_seen_lengths_generate_and_compile_nothing(self,
                                                             monkeypatch):
        weights = make_weights(SERVE, 0)
        clear_structures()
        _, session = self.compile_fresh([9, 4, 7], weights=weights)
        assert session.executor.structures_generated == 6
        assert session.stats()["prelude_only_compiles"] == 0

        calls = {"generate_source": 0, "compile": 0}
        real_source = codegen_vector.VectorCodeGenerator.generate_source
        real_compile = builtins.compile

        def counting_source(self):
            calls["generate_source"] += 1
            return real_source(self)

        def counting_compile(*args, **kwargs):
            calls["compile"] += 1
            return real_compile(*args, **kwargs)

        monkeypatch.setattr(codegen_vector.VectorCodeGenerator,
                            "generate_source", counting_source)
        monkeypatch.setattr(builtins, "compile", counting_compile)
        rng = np.random.default_rng(11)
        fresh_times, seen_times = [], []
        seen = [int(n) for n in rng.integers(1, 33, size=8)]
        self.compile_fresh(seen, weights=weights)
        for _ in range(20):
            lengths = [int(n) for n in
                       rng.integers(1, 33, size=int(rng.integers(1, 9)))]
            elapsed, session = self.compile_fresh(lengths, weights=weights)
            if len(lengths) == len(seen):
                fresh_times.append(elapsed)
            stats = session.stats()
            assert stats["codegen"]["structures_generated"] == 0
            assert stats["codegen"]["structure_hits"] == 6
            assert stats["codegen"]["prelude_builds"] == 6
            assert stats["codegen"]["lower_count"] == 6
            assert stats["cold_compiles"] == 1
            assert stats["prelude_only_compiles"] == 1
            assert stats["codegen"]["fallbacks"] == 0
        assert calls == {"generate_source": 0, "compile": 0}

        # ... while anything that is structure does regenerate: the mask
        # kernel of the masked model, every kernel under another head
        # count (loop padding and the split tile: see
        # TestScheduleVariants).
        other_heads = TransformerConfig(
            hidden_size=32, num_heads=4, head_size=8, ff_size=64,
            num_layers=2, loop_pad=4, bulk_pad=16, attention_tile=8)
        for change, expected in ((dict(masked=True), 1),
                                 (dict(config=other_heads), 6)):
            before = dict(calls)
            _, session = self.compile_fresh([9, 4, 7], **change)
            assert session.executor.structures_generated == expected
            assert calls["generate_source"] - before["generate_source"] \
                == calls["compile"] - before["compile"] == expected

    def test_a_never_seen_length_set_costs_what_a_seen_one_costs(self):
        """The benchmark's untimed round shows the process every length
        set before timing it; if anything were keyed by those lengths the
        timed samples would be cheaper than a never-seen batch is."""
        weights = make_weights(SERVE, 0)
        rng = np.random.default_rng(5)
        draw = lambda: [int(n) for n in rng.integers(4, 33, size=8)]
        seen = [draw() for _ in range(4)]
        for lengths in seen:        # the structures, and "the untimed round"
            self.compile_fresh(lengths, weights=weights)
        # Interleaved, several rounds, medians: robust to a noisy host.
        seen_times, fresh_times = [], []
        for round_ in range(5):
            for lengths in seen:
                seen_times.append(
                    self.compile_fresh(lengths, weights=weights)[0])
                fresh_times.append(
                    self.compile_fresh(draw(), weights=weights)[0])
        ratio = statistics.median(fresh_times) / statistics.median(seen_times)
        assert 0.85 <= ratio <= 1.15, (ratio, statistics.median(seen_times))

    @pytest.mark.parametrize("masked", [False, True])
    def test_op_by_op_calls_pay_preludes_and_leave_nothing_behind(self,
                                                                 masked):
        """The op-by-op wrappers build their schedules per call: a repeated
        call with the very same lengths pays one prelude per kernel, never
        a generation, and pins nothing in the executor's kernel cache."""
        rng = np.random.default_rng(3)
        q, k, v = ([rng.standard_normal((2, n, 8)).astype(np.float32)
                    for n in (5, 9, 3, 9)] for _ in range(3))
        kernels = 7 if masked else 6
        executor = Executor()
        first = attention.sdpa_compiled(q, k, v, 8, executor=executor,
                                        masked=masked)
        generated = executor.structures_generated
        assert generated <= kernels
        for _ in range(20):
            again = attention.sdpa_compiled(q, k, v, 8, executor=executor,
                                            masked=masked)
            assert all(np.array_equal(a, b) for a, b in zip(first, again))
        stats = executor.codegen_stats()
        assert stats["structures_generated"] == generated
        assert stats["lower_count"] == stats["prelude_builds"] == 21 * kernels
        assert stats["structure_hits"] == 21 * kernels - generated
        assert stats["fallbacks"] == 0
        assert len(executor._kernel_cache) == 0


# ---------------------------------------------------------------------------
# (vi) program structures: one graph per structure, bound per batch
# ---------------------------------------------------------------------------


MODES = {"plain": {}, "inplace": {"inplace": True}, "fuse": {"fuse": True}}


def sha1(array):
    return hashlib.sha1(np.ascontiguousarray(array).tobytes()).hexdigest()


def run_poisoned(session, program, tokens):
    """Compile, fill the arena with NaNs, run."""
    compiled = session.compile(program)
    for slab in compiled._slabs:
        slab.fill(np.nan)
    return session.run(program, {"tokens": tokens})["out_tokens"]


@st.composite
def two_signatures(draw):
    """Two length sets of one sequence count (one structure)."""
    n = draw(st.integers(1, 6))
    lengths = st.lists(st.integers(1, 11), min_size=n, max_size=n)
    return draw(lengths), draw(lengths)


class TestProgramStructures:
    @settings(max_examples=24, deadline=None)
    @given(signatures=two_signatures(), masked=st.booleans(),
           mode=st.sampled_from(sorted(MODES)), depth=st.sampled_from([1, 2]))
    @example(signatures=([4, 4, 4], [1, 1, 9]), masked=True, mode="plain",
             depth=2)                                   # ones, duplicates
    @example(signatures=([7], [1]), masked=False, mode="fuse", depth=1)
    @example(signatures=([2, 9], [5, 5]), masked=True, mode="inplace",
             depth=1)
    @example(signatures=([3, 11, 1], [11, 1, 3]), masked=False,
             mode="inplace", depth=2)
    def test_a_bound_program_is_bit_identical_to_a_scratch_compile(
            self, signatures, masked, mode, depth):
        first, second = signatures
        tokens = packed_tokens(second, SMALL.hidden_size, 5)
        clear_structures()
        warm = Session(executor=Executor(), **MODES[mode])
        template = encoder_stack_program(first, WEIGHTS, SMALL, masked=masked,
                                         n_layers=depth, session=warm)
        warm.compile(template)

        session = Session(executor=Executor(), **MODES[mode])
        program = encoder_stack_program(second, WEIGHTS, SMALL, masked=masked,
                                        n_layers=depth, session=session)
        assert program.structure is template.structure
        assert program is not template
        bound = run_poisoned(session, program, tokens)
        stats = session.stats()
        assert (stats["structure_builds"], stats["binds"]) == (0, 1)
        assert stats["codegen"]["structures_generated"] == 0
        assert stats["codegen"]["fallbacks"] == 0

        clear_structures()
        scratch = run_poisoned(
            Session(executor=Executor(), **MODES[mode]),
            build_encoder_stack_program(second, WEIGHTS, SMALL, masked=masked,
                                        n_layers=depth), tokens)
        assert sha1(bound) == sha1(scratch)
        assert not np.isnan(bound).any()

    def test_never_seen_signatures_build_no_structure_and_bind_in_seen_time(
            self, monkeypatch):
        weights = make_weights(SERVE, 0)
        rng = np.random.default_rng(17)
        draw = lambda: [int(n) for n in rng.integers(4, 33, size=8)]
        clear_structures()
        _, first = TestNothingIsKeyedByLengths.compile_fresh(
            draw(), masked=True, weights=weights)
        assert first.stats()["structure_builds"] == 1

        generated = {"source": 0}
        real_source = codegen_vector.VectorCodeGenerator.generate_source

        def counting_source(self):
            generated["source"] += 1
            return real_source(self)

        monkeypatch.setattr(codegen_vector.VectorCodeGenerator,
                            "generate_source", counting_source)
        seen = [draw() for _ in range(4)]
        for lengths in seen:
            TestNothingIsKeyedByLengths.compile_fresh(lengths, masked=True,
                                                      weights=weights)
        seen_times, fresh_times = [], []
        for k in range(20):
            elapsed, session = TestNothingIsKeyedByLengths.compile_fresh(
                draw(), masked=True, weights=weights)
            fresh_times.append(elapsed)
            stats = session.stats()
            assert (stats["structure_builds"], stats["binds"]) == (0, 1)
            assert stats["codegen"]["structures_generated"] == 0
            seen_times.append(TestNothingIsKeyedByLengths.compile_fresh(
                seen[k % len(seen)], masked=True, weights=weights)[0])
        assert generated["source"] == 0
        ratio = statistics.median(fresh_times) / statistics.median(seen_times)
        assert 0.85 <= ratio <= 1.15, (ratio, statistics.median(seen_times))

    def test_clear_structures_empties_the_program_table(self):
        weights = make_weights(SERVE, 2)
        TestNothingIsKeyedByLengths.compile_fresh([5, 6], weights=weights)
        _, warm = TestNothingIsKeyedByLengths.compile_fresh([7, 2],
                                                            weights=weights)
        assert warm.stats()["structure_builds"] == 0
        assert len(codegen._PROGRAMS) > 0
        clear_structures()
        assert len(codegen._PROGRAMS) == 0
        _, cold = TestNothingIsKeyedByLengths.compile_fresh([7, 2],
                                                            weights=weights)
        assert cold.stats()["structure_builds"] == 1

    def test_a_bind_failing_midway_leaves_table_and_session_coherent(
            self, monkeypatch):
        weights = make_weights(SERVE, 3)
        clear_structures()
        TestNothingIsKeyedByLengths.compile_fresh([9, 4, 7], weights=weights)
        session = Session(executor=Executor())
        program = encoder_stack_program([5, 8, 2], weights, SERVE,
                                        n_layers=2, session=session)
        structure = program.structure
        real = Executor.compile
        calls = []

        def failing(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise CompileError("injected midway through a bind")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Executor, "compile", failing)
        with pytest.raises(CompileError):
            session.compile(program)
        monkeypatch.undo()
        assert session.compiled_program(program) is None
        assert session.stats()["binds"] == 0

        again = encoder_stack_program([5, 8, 2], weights, SERVE, n_layers=2,
                                      session=session)
        assert again is program and again.structure is structure
        tokens = packed_tokens([5, 8, 2], SERVE.hidden_size, 9)
        bound = run_poisoned(session, again, tokens)
        assert session.stats()["binds"] == 1
        assert session.stats()["structure_builds"] == 0
        clear_structures()
        scratch = run_poisoned(
            Session(executor=Executor()),
            build_encoder_stack_program([5, 8, 2], weights, SERVE,
                                        n_layers=2), tokens)
        assert sha1(bound) == sha1(scratch)

    def test_a_compile_fault_on_a_bind_degrades_like_a_compile(self):
        lengths = (5, 3, 8, 2, 6, 4, 7, 1)
        rng = np.random.default_rng(4)
        stream = [rng.standard_normal((n, SMALL.hidden_size))
                  .astype(np.float32) for n in lengths]

        def drain(injector=None):
            scheduler = BatchScheduler(
                WEIGHTS, SMALL, masked=True, max_batch_size=4,
                session=Session(backend="vector", fault_injector=injector))
            ids = scheduler.submit_many(stream)
            results = scheduler.drain()
            return [results[i] for i in ids], scheduler

        clear_structures()
        want, _ = drain()                       # warms every structure
        injector = FaultInjector(seed=0)
        injector.add("compile", error=CompileError, max_fires=1)
        got, scheduler = drain(injector)
        assert injector.fires["compile"] == 1
        stats = scheduler.stats()
        assert stats["degraded_batches"] == 1
        assert stats["failed_requests"] == 0
        assert all(np.array_equal(a, b) for a, b in zip(want, got))
        session = scheduler.session.stats()
        assert session["structure_builds"] == 0
        assert session["binds"] == session["program_compiles"] > 0


def test_flops_count_the_host_nodes():
    """Host nodes declare their GEMM flops a row: a compiled program's
    count is the kernels' plus exactly the four linears'."""
    lengths = [5, 3, 8]
    h, f, layers = SMALL.hidden_size, SMALL.ff_size, 2
    for mode in MODES.values():
        session = Session(executor=Executor(), **mode)
        compiled = session.compile(build_encoder_stack_program(
            lengths, WEIGHTS, SMALL, masked=True, n_layers=layers))
        kernels = sum(k.flops for k in (*compiled.kernels.values(),
                                        *compiled.fused_kernels.values()))
        assert kernels > 0
        assert compiled.flops - kernels == \
            2 * sum(lengths) * (h * 3 * h + h * h + 2 * h * f) * layers
        assert compiled.stats()["flops_per_run"] == compiled.flops
