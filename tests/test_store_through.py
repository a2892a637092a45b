"""Store-through emission of the vector backend.

The vector backend computes every value directly into its destination
(``np.matmul(..., out=)`` / ``ufunc(..., out=)`` chains into views of the
output slab), owns the zeroing of its output buffers, and shares one
arena per session.  These tests pin what that design must guarantee:

* the default-session encoder agrees with an **independent** float64
  dense reference (not with another in-repo path) over random ragged
  batches -- duplicated lengths (multi-instance buckets), singletons,
  lengths off every padding multiple -- masked and unmasked;
* every element of a kernel's output buffer is written on every run:
  stale arena contents never leak into values or their storage padding;
* a warm paper-scale run allocates nothing of score-matrix size;
* the emitted source has no ``einsum`` path search, no broadcast
  temporaries, and a fused softmax chain runs in one score workspace;
* the in-place layer norm is bit-identical to its oracle form, and a
  stale AOT-cache entry is a logged miss, never a stale kernel;
* the programs a session caches run in one shared arena without seeing
  each other, also from concurrent threads.
"""

import logging
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import aotcache
from repro.core.aotcache import AOTCache, kernel_cache_key
from repro.core.codegen import clear_structures
from repro.core.dims import Dim
from repro.core.executor import Executor
from repro.core.extents import ConstExtent, VarExtent
from repro.core.ir import LoopVar, exp
from repro.core.operator import compute, input_tensor, reduce_axis, sum_reduce
from repro.core.program import KernelNode, Program
from repro.core.ragged_tensor import RaggedTensor
from repro.core.schedule import Schedule
from repro.core.session import Session
from repro.core.storage import RaggedLayout
from repro.models.config import PAPER_BASE_CONFIG, TransformerConfig
from repro.models.transformer import EncoderWeights, build_encoder_program
from repro.ops.layernorm import layernorm_flat, layernorm_node

SMALL = TransformerConfig(hidden_size=16, num_heads=2, head_size=8, ff_size=32,
                          num_layers=1, loop_pad=4, bulk_pad=8,
                          attention_tile=8)

#: float32 program vs float64 reference, on layer-normalised (O(1)) outputs.
ORACLE_TOL = 1e-4


def make_weights(config, seed):
    """Weights with non-zero biases and non-trivial layer-norm parameters,
    so no term of the layer is invisible to the reference."""
    rng = np.random.default_rng(seed)
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


def packed_tokens(lengths, hidden, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((sum(lengths), hidden)).astype(np.float32)


def dense_reference_f64(tokens, lengths, w, config, masked):
    """One encoder layer the padded way, in float64: every sequence padded
    to the batch maximum, padded keys masked out of the softmax."""
    f64 = lambda a: np.asarray(a, dtype=np.float64)
    batch, longest = len(lengths), max(lengths)
    heads, d, h = config.num_heads, config.head_size, config.hidden_size
    x = np.zeros((batch, longest, h))
    start = 0
    for b, n in enumerate(lengths):
        x[b, :n] = tokens[start:start + n]
        start += n

    def layernorm(v, gamma, beta):
        mean = v.mean(axis=-1, keepdims=True)
        var = ((v - mean) ** 2).mean(axis=-1, keepdims=True)
        return (v - mean) / np.sqrt(var + 1e-5) * f64(gamma) + f64(beta)

    qkv = (x @ f64(w.wqkv) + f64(w.bqkv)).reshape(batch, longest, 3, heads, d)
    q, k, v = (qkv[:, :, i].transpose(0, 2, 1, 3) for i in range(3))
    scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(d)
    keep = np.arange(longest)[None, :] < np.asarray(lengths)[:, None]
    keep = np.broadcast_to(keep[:, None, None, :], scores.shape)
    if masked:
        keep = keep & np.tril(np.ones((longest, longest), dtype=bool))
    scores = np.where(keep, scores, -np.inf)
    scores = scores - scores.max(axis=-1, keepdims=True)
    probs = np.exp(scores)
    probs = probs / probs.sum(axis=-1, keepdims=True)
    attn = (probs @ v).transpose(0, 2, 1, 3).reshape(batch, longest, h)
    y = layernorm(attn @ f64(w.wo) + f64(w.bo) + x, w.ln1_gamma, w.ln1_beta)
    ff = np.maximum(y @ f64(w.w1) + f64(w.b1), 0.0) @ f64(w.w2) + f64(w.b2)
    out = layernorm(ff + y, w.ln2_gamma, w.ln2_beta)
    return np.concatenate([out[b, :n] for b, n in enumerate(lengths)], axis=0)


# ---------------------------------------------------------------------------
# (i) the default session against an independent oracle
# ---------------------------------------------------------------------------


class TestIndependentOracle:
    @settings(max_examples=25, deadline=None)
    @given(lengths=st.lists(st.integers(1, 11), min_size=1, max_size=7),
           masked=st.booleans(), seed=st.integers(0, 3))
    @example(lengths=[5, 3, 5, 1, 3, 5], masked=False, seed=0)  # gapped dups
    @example(lengths=[7, 7, 7], masked=True, seed=1)    # one 3-instance bucket
    @example(lengths=[1], masked=True, seed=2)          # 1x1 attention
    @example(lengths=[9, 6, 2], masked=False, seed=3)   # all singletons
    def test_encoder_matches_float64_dense_reference(self, lengths, masked,
                                                     seed):
        weights = make_weights(SMALL, seed)
        tokens = packed_tokens(lengths, SMALL.hidden_size, seed + 10)
        session = Session(backend="vector")
        program = build_encoder_program(lengths, weights, SMALL,
                                        masked=masked)
        got = session.run(program, {"tokens": tokens})["out_tokens"]
        want = dense_reference_f64(tokens, lengths, weights, SMALL, masked)
        assert session.executor.fallback_count == 0
        np.testing.assert_allclose(got, want, rtol=ORACLE_TOL,
                                   atol=ORACLE_TOL)


# ---------------------------------------------------------------------------
# (ii) kernels own their output buffers: no stale data, zero padding
# ---------------------------------------------------------------------------


def kernel_output_padding(compiled):
    """(value name, wrapped RaggedTensor, padding mask) per kernel node."""
    for node in compiled.program.nodes:
        if not isinstance(node, KernelNode):
            continue
        name = node.outputs[0]
        tensor = compiled._wrapped.get(name)
        if tensor is None:      # internalised by fusion: no slab to check
            continue
        valid = RaggedTensor.zeros(tensor.layout)
        for b in range(tensor.layout.governing_extent()):
            valid.valid_slice(b)[...] = 1.0
        yield name, tensor, valid.data == 0.0


def padded_chain_program(lengths):
    """``Y = exp(X)`` stored with its sequence axis padded to 4, then
    ``Z[b, i, j] = sum_k Y[b, i, k] * W[k, j]`` reading that padded
    storage: two kernels whose loop bounds fall short of the extents."""
    lens = np.asarray(lengths, dtype=np.int64)
    bsz = len(lengths)
    batch, seq, hid, col = Dim("batch"), Dim("seq"), Dim("hid"), Dim("col")
    ragged = [ConstExtent(bsz), VarExtent(batch, lens)]
    x_in = input_tensor("X", [batch, seq, hid], ragged + [ConstExtent(3)])
    y_op = compute("Y", [batch, seq, hid], ragged + [ConstExtent(3)],
                   lambda b, i, c: exp(x_in[b, i, c]))
    y_sched = Schedule(y_op)
    y_sched.pad_dimension(seq, 4)
    y_layout = RaggedLayout([batch, seq, hid], ragged + [ConstExtent(3)],
                            storage_padding={seq: 4})

    y_in = input_tensor("Yin", [batch, Dim("ys"), Dim("yh")],
                        ragged + [ConstExtent(3)])
    w_in = input_tensor("W", [Dim("wk"), Dim("wj")],
                        [ConstExtent(3), ConstExtent(5)])
    k = reduce_axis(3, "k")
    z_op = compute("Z", [batch, seq, col], ragged + [ConstExtent(5)],
                   lambda b, i, j: sum_reduce(
                       y_in[b, i, LoopVar(k.dim)] * w_in[LoopVar(k.dim), j],
                       k))
    z_sched = Schedule(z_op)
    z_sched.pad_dimension(seq, 4)
    z_sched.pad_input_dimension("Yin", y_in.dims[1], 4)
    z_layout = RaggedLayout([batch, seq, col], ragged + [ConstExtent(5)],
                            storage_padding={seq: 4})

    program = Program("padded-chain")
    x = program.add_input("x", layout=RaggedLayout(
        [batch, seq, hid], ragged + [ConstExtent(3)]))
    w = program.add_constant(
        "w", np.random.default_rng(0).standard_normal((3, 5))
        .astype(np.float32))
    y = program.add_kernel("y", y_sched, {"X": x}, y_layout)
    z = program.add_kernel("z", z_sched, {"Yin": y, "W": w}, z_layout)
    program.mark_output(y, z)
    return program, program.values[x].layout


class TestKernelsFillTheirOutputs:
    @pytest.mark.parametrize("fuse", [False, True])
    @pytest.mark.parametrize("masked", [False, True])
    def test_encoder_slabs_fully_rewritten_between_runs(self, fuse, masked):
        lengths = [5, 3, 5, 1, 6]       # gapped duplicates + singletons
        weights = make_weights(SMALL, 0)
        program = build_encoder_program(lengths, weights, SMALL,
                                        masked=masked)
        session = Session(backend="vector", fuse=fuse)
        compiled = session.compile(program)
        first = packed_tokens(lengths, SMALL.hidden_size, 1)
        second = packed_tokens(lengths, SMALL.hidden_size, 2)
        session.run(program, {"tokens": first})
        for slab in compiled._slabs:    # what another occupant leaves behind
            slab.fill(np.nan)
        got = session.run(program, {"tokens": second})["out_tokens"]
        fresh = Session(backend="vector", fuse=fuse).run(
            program, {"tokens": second})["out_tokens"]
        assert np.array_equal(got, fresh)
        for name, tensor, _ in kernel_output_padding(compiled):
            assert not np.isnan(tensor.data).any(), name

    @pytest.mark.parametrize("lengths", [[5, 2, 7], [5, 2, 5, 2, 6],
                                         [4, 8, 4]])
    def test_padding_region_is_zero_after_consecutive_runs(self, lengths):
        program, x_layout = padded_chain_program(lengths)
        session = Session(backend="vector")
        compiled = session.compile(program)
        assert session.executor.fallback_count == 0
        for seed in (1, 2):
            for slab in compiled._slabs:
                slab.fill(np.nan)
            x = RaggedTensor.random(x_layout, seed=seed)
            session.run(program, {"x": x})
            for name, tensor, padding in kernel_output_padding(compiled):
                assert np.isfinite(tensor.data).all(), name
                assert not tensor.data[padding].any(), name
        # ... and the valid region is what a fresh scalar run computes.
        reference = Session(backend="scalar").run(program, {"x": x})
        for name in ("y", "z"):
            got = compiled._wrapped[name]
            assert got.allclose(reference[name], rtol=1e-5, atol=1e-6)
            assert np.array_equal(got.data == 0.0, reference[name].data == 0.0)

    def test_caller_supplied_output_buffer_is_fully_written(self):
        """Scores-like output padded on *both* ragged axes: the padding
        strips must tile the whole complement of the stored box."""
        lens = np.array([3, 5, 3, 2])
        batch, qi, kj = Dim("batch"), Dim("qi"), Dim("kj")
        ext = [ConstExtent(4), VarExtent(batch, lens), VarExtent(batch, lens)]
        a_in = input_tensor("A", [batch, Dim("ai"), Dim("aj")], ext)
        op = compute("S", [batch, qi, kj], ext,
                     lambda b, i, j: 2.0 * a_in[b, i, j] + 1.0)
        schedule = Schedule(op)
        schedule.pad_dimension(qi, 4)
        schedule.pad_dimension(kj, 4)
        executor = Executor(backend="vector")
        compiled = executor.compile(schedule)
        assert compiled.backend_name == "vector"
        assert compiled.generated.fills_output
        a = RaggedTensor.random(RaggedLayout(a_in.dims, ext), seed=3)
        dirty = RaggedTensor.zeros(compiled.output_layout)
        dirty.data.fill(np.nan)
        out, _ = executor.run(compiled, {"A": a}, output=dirty)
        clean, _ = executor.run(compiled, {"A": a})
        assert np.array_equal(out.data, clean.data)
        for b, n in enumerate(lens):
            assert np.array_equal(out.valid_slice(b), 2.0 * a.valid_slice(b) + 1.0)
            assert not out.slice_view(b)[n:, :].any()
            assert not out.slice_view(b)[:, n:].any()


    def test_storage_rows_beyond_the_loop_are_cleared(self):
        """Dense storage larger than the iteration space on every axis,
        the governing one included."""
        b, s = Dim("b"), Dim("s")
        a_in = input_tensor("A", [b, s], [ConstExtent(3), ConstExtent(4)])
        op = compute("O", [b, s], [ConstExtent(3), ConstExtent(4)],
                     lambda o, i: 2.0 * a_in[o, i],
                     storage_extents=[ConstExtent(5), ConstExtent(6)])
        executor = Executor(backend="vector")
        compiled = executor.compile(Schedule(op))
        assert compiled.backend_name == "vector"
        a = np.arange(12, dtype=np.float32).reshape(3, 4)
        dirty = RaggedTensor.zeros(compiled.output_layout)
        dirty.data.fill(np.nan)
        out, _ = executor.run(compiled, {"A": a}, output=dirty)
        want = np.zeros((5, 6), dtype=np.float32)
        want[:3, :4] = 2.0 * a
        assert np.array_equal(out.data.reshape(5, 6), want)


# ---------------------------------------------------------------------------
# (iii) no score-sized allocation on the warm path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fuse", [False, True])
def test_warm_paper_scale_run_allocates_no_score_matrix(fuse):
    lengths = [411, 388, 402]
    config = PAPER_BASE_CONFIG
    weights = make_weights(config, 0)
    tokens = packed_tokens(lengths, config.hidden_size, 1)
    session = Session(backend="vector", fuse=fuse)
    program = build_encoder_program(lengths, weights, config)
    session.run(program, {"tokens": tokens})        # compile + first touch
    smallest_score = config.num_heads * min(lengths) ** 2 * 4
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        session.run(program, {"tokens": tokens})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The output copy (tokens x hidden) and the per-sequence merge copies
    # are allowed; anything holding heads x s x s floats is not.
    assert peak - before < smallest_score, (peak - before, smallest_score)


# ---------------------------------------------------------------------------
# (iv) what the emitted source looks like
# ---------------------------------------------------------------------------


class TestEmittedSource:
    @pytest.mark.parametrize("masked", [False, True])
    def test_sdpa_kernels_store_through(self, masked):
        session = Session(backend="vector")
        program = build_encoder_program([5, 3, 7], make_weights(SMALL, 0),
                                        SMALL, masked=masked)
        compiled = session.compile(program)
        sources = {k.lowered.name: k.source for k in compiled.kernels.values()}
        assert set(sources) >= {"QKT", "M", "E", "Z", "P", "AttnV"}
        for name, source in sources.items():
            assert "optimize=True" not in source, name
            assert "einsum" not in source, name
            assert "broadcast_to" not in source, name
            assert "np.zeros" not in source, name
            assert "out=_o" in source, name
        assert "np.matmul(" in sources["QKT"] and ".transpose(" in sources["QKT"]
        assert "np.matmul(" in sources["AttnV"]
        assert ".max(axis=3, out=_o" in sources["M"]
        assert ".sum(axis=3, out=_o)" in sources["Z"]
        # Covering stores: no dispatch-side prefill for any kernel step.
        assert all(step[4] is None for step in compiled._steps
                   if step[0] == 0)

    def test_new_raggedness_reuses_the_generated_kernel(self):
        # Emitted text names no instance lengths, so a never-seen batch
        # shares the kernels already generated for its structures: the
        # instances differ only in their prelude (buckets and aux tables).
        # Keeps a serving session's in-window compiles cheap.
        weights = make_weights(SMALL, 0)
        session = Session(executor=Executor(backend="vector"))
        first, second = (
            {k.lowered.name: k for k in session.compile(
                build_encoder_program(lengths, weights, SMALL, masked=True)
            ).kernels.values()}
            for lengths in ([5, 3, 7], [6, 6, 2, 1]))
        assert session.executor.lower_count == 2 * len(first)
        for name in ("QKT", "M", "E", "Z", "P", "AttnV"):
            a, b = first[name], second[name]
            assert a.generated is b.generated, name
            assert "_BUCKETS" not in a.generated.fn.__globals__, name
            assert [x.tolist() for x in a.lowered.aux_arrays["buckets"]] \
                != [x.tolist() for x in b.lowered.aux_arrays["buckets"]], name
        tokens = packed_tokens([6, 6, 2, 1], SMALL.hidden_size, 3)
        program = build_encoder_program([6, 6, 2, 1], weights, SMALL,
                                        masked=True)
        want = dense_reference_f64(tokens, [6, 6, 2, 1], weights, SMALL, True)
        got = session.run(program, {"tokens": tokens})["out_tokens"]
        assert np.allclose(got, want, atol=ORACLE_TOL, rtol=ORACLE_TOL)

    def test_fused_softmax_chain_runs_in_one_score_workspace(self):
        session = Session(backend="vector", fuse=True)
        lengths = [5, 3, 7]
        program = build_encoder_program(lengths, make_weights(SMALL, 0),
                                        SMALL, masked=True)
        compiled = session.compile(program)
        (fused,) = compiled.fused_kernels.values()
        assert fused.fused, fused.fallback_reason
        source = fused.generated.source
        assert "optimize=True" not in source and "einsum" not in source
        assert "np.zeros" not in source and ".fill(" not in source
        # scores, row max, row sum: three workspace regions; the mask add,
        # the exp and the normalisation overwrite the scores in place.
        assert source.count("_workspace(") == 3
        for reuse in ("_t1 = _t0", "_t3 = _t1", "_t5 = _t3"):
            assert reuse in source
        heads = SMALL.num_heads
        biggest = max(lengths)
        assert fused.generated.workspace_elements == \
            heads * biggest * biggest + 2 * heads * biggest

    def test_compound_operands_get_exactly_one_temporary(self):
        lens = np.array([4, 2, 5])
        batch, seq = Dim("batch"), Dim("seq")
        ext = [ConstExtent(3), VarExtent(batch, lens)]
        a_in = input_tensor("A", [batch, Dim("s")], ext)
        op = compute("B", [batch, seq], ext,
                     lambda b, i: (a_in[b, i] + 1.0) * (a_in[b, i] - 2.0))
        outs = {}
        for backend in ("scalar", "vector"):
            executor = Executor(backend=backend)
            compiled = executor.compile(Schedule(op))
            a = RaggedTensor.random(RaggedLayout(a_in.dims, ext), seed=5)
            outs[backend] = (executor.run(compiled, {"A": a})[0], compiled)
        source = outs["vector"][1].source
        assert source.count("np.empty(") == 1
        assert np.allclose(outs["scalar"][0].data, outs["vector"][0].data,
                           rtol=1e-5, atol=1e-6)


# ---------------------------------------------------------------------------
# layer norm without temporaries
# ---------------------------------------------------------------------------


def test_layernorm_node_is_bit_identical_to_its_oracle():
    rng = np.random.default_rng(0)
    tokens = (rng.standard_normal((37, 48)) * 3 + 1).astype(np.float32)
    gamma = rng.standard_normal(48).astype(np.float32)
    beta = rng.standard_normal(48).astype(np.float32)
    program = Program("ln")
    x = program.add_input("x", shape=tokens.shape)
    program.mark_output(layernorm_node(program, x, gamma, beta, name="ln"))
    got = Session(backend="vector").run(program, {"x": tokens})["ln"]
    assert np.array_equal(got, layernorm_flat(tokens, gamma, beta))


# ---------------------------------------------------------------------------
# AOT cache across the emission change
# ---------------------------------------------------------------------------


def _elementwise_schedule():
    lens = np.array([4, 2, 5])
    batch, seq = Dim("batch"), Dim("seq")
    ext = [ConstExtent(3), VarExtent(batch, lens)]
    a_in = input_tensor("A", [batch, Dim("s")], ext)
    return Schedule(compute("B", [batch, seq], ext,
                            lambda b, i: 2.0 * a_in[b, i]))


class TestAOTVersionSkew:
    def test_entries_of_an_older_version_are_a_clean_miss(self, tmp_path,
                                                          monkeypatch):
        old = Executor(backend="vector", disk_cache=str(tmp_path))
        monkeypatch.setattr(aotcache, "AOT_VERSION", aotcache.AOT_VERSION - 1)
        old.compile(_elementwise_schedule())
        assert old.disk_cache.stores == 1
        monkeypatch.undo()
        clear_structures()      # a fresh process: the disk tier is asked
        new = Executor(backend="vector", disk_cache=str(tmp_path))
        compiled = new.compile(_elementwise_schedule())
        assert new.disk_hits == 0 and new.lower_count == 1   # recompiled
        assert new.disk_cache.stores == 1                   # under a new key
        assert compiled.generated.fills_output

    def test_stale_payload_under_the_current_key_is_rejected_and_logged(
            self, tmp_path, caplog):
        """Even if an old-format entry sits exactly where the current key
        points (a key scheme that forgot the version), it must not run."""
        schedule = _elementwise_schedule()
        executor = Executor(backend="vector", disk_cache=str(tmp_path))
        executor.compile(schedule)
        (path,) = tmp_path.glob("kernels/*/*.pkl")
        payload = pickle.loads(path.read_bytes())
        payload["version"] = aotcache.AOT_VERSION - 1
        (variant,) = payload["variants"]
        variant["source"] = variant["source"].replace("2.0", "3.0")
        path.write_bytes(pickle.dumps(payload))

        clear_structures()      # a fresh process: the disk tier is asked
        fresh = Executor(backend="vector", disk_cache=str(tmp_path))
        with caplog.at_level(logging.WARNING, logger="repro.core.aotcache"):
            compiled = fresh.compile(_elementwise_schedule())
        assert fresh.disk_hits == 0 and fresh.lower_count == 1
        assert "3.0" not in compiled.source
        events = [r for r in caplog.records
                  if getattr(r, "event", "") == "aot_cache.entry_rejected"]
        assert len(events) == 1
        assert events[0].key == kernel_cache_key(schedule, None, "vector")
        # A plain miss (no file at all) is not worth an event.
        caplog.clear()
        assert AOTCache(tmp_path).load("0" * 64, lambda decisions: True) is None
        assert not caplog.records


# ---------------------------------------------------------------------------
# one arena per session
# ---------------------------------------------------------------------------


class TestSessionArena:
    def _programs(self):
        weights = make_weights(SMALL, 0)
        cases = []
        for seed, lengths in enumerate([[5, 3, 7], [2, 9], [4, 4, 4, 1]]):
            program = build_encoder_program(lengths, weights, SMALL,
                                            masked=bool(seed % 2))
            tokens = packed_tokens(lengths, SMALL.hidden_size, seed)
            want = Session(backend="vector").run(
                program, {"tokens": tokens})["out_tokens"]
            cases.append((program, tokens, want))
        return cases

    def test_cached_programs_share_slabs_and_stay_correct(self):
        cases = self._programs()
        session = Session(backend="vector")
        compiled = [session.compile(program) for program, _, _ in cases]
        for a, b in zip(compiled, compiled[1:]):
            assert any(np.shares_memory(x, y)
                       for x in a._slabs for y in b._slabs)
        assert len(session._arena) == max(len(c._slabs) for c in compiled)
        for _ in range(2):              # alternate: each run finds the
            for program, tokens, want in cases:     # others' leftovers
                got = session.run(program, {"tokens": tokens})["out_tokens"]
                assert np.array_equal(got, want)
        session.reset()
        assert session._arena == []

    def test_concurrent_runs_of_different_programs_do_not_interfere(self):
        import sys
        import threading

        cases = self._programs()
        session = Session(backend="vector")
        for program, _, _ in cases:
            session.compile(program)
        mismatches, errors = [], []

        def worker(k):
            program, tokens, want = cases[k % len(cases)]
            try:
                for _ in range(40):
                    got = session.run(program, {"tokens": tokens})
                    if not np.array_equal(got["out_tokens"], want):
                        mismatches.append(k)
            except BaseException as exc:   # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors and not mismatches
