"""Data-parallel steps: one compiled step, one chunk per usable core.

On more than one core a compiled program runs the steps with enough work
as chunks on a process-wide helper pool (:mod:`repro.core.parallel`).
These tests pin:

* **same bits**: split and forced-serial runs agree bit for bit on plain,
  in-place and fused sessions, and with the float64 reference;
* **a partition**: row chunks tile ``[0, n)`` with two rows or more each
  (a one-row GEMM is a gemv and differs in the last bits), bucket shares
  are disjoint, cover the kernel's bucket list and are LPT-balanced;
* **determinism**: repeated runs of one batch are identical;
* **the gate**: serving-sized programs split nothing and create no helper
  thread, one usable core leaves every step the object it was;
* **failure and lifetime**: a raising chunk waits for its siblings and its
  exception propagates unchanged; the pool outlives ``Session.close()``.

``usable_cores`` is monkeypatched throughout: there is no public knob.
"""

import os
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import parallel
from repro.core.dims import Dim
from repro.core.errors import ExecutionError
from repro.core.extents import ConstExtent, VarExtent
from repro.core.ir import exp
from repro.core.operator import compute, input_tensor
from repro.core.program import Program, ProgramError
from repro.core.ragged_tensor import RaggedTensor
from repro.core.schedule import Schedule
from repro.core.session import Session
from repro.core.storage import RaggedLayout
from repro.models.config import TransformerConfig
from repro.models.transformer import build_encoder_stack_program
from repro.ops.elementwise import add_node, relu_node
from repro.ops.projection import linear_node

from test_store_through import (
    ORACLE_TOL,
    dense_reference_f64,
    make_weights,
    packed_tokens,
)

#: Large enough that a few hundred tokens put every row-wise node, and
#: the QK^T / AttnV kernels of longer batches, above the gate.
MID = TransformerConfig(hidden_size=256, num_heads=4, head_size=64,
                        ff_size=512, num_layers=2, loop_pad=4, bulk_pad=16,
                        attention_tile=8)
#: The serving benchmark's model (``benchmarks/e2e``: ``SERVE_CONFIG``).
SERVE = TransformerConfig(hidden_size=64, num_heads=4, head_size=16,
                          ff_size=128, num_layers=2, loop_pad=4,
                          bulk_pad=16, attention_tile=8)
LAYERS = [make_weights(MID, 0), make_weights(MID, 1)]

SESSIONS = {
    "plain": dict(),
    "inplace": dict(inplace=True),
    "fuse": dict(fuse=True),
}


def compiled_with(monkeypatch, cores, program, **session_kw):
    """``program`` compiled on a fresh session that sees ``cores`` cores."""
    monkeypatch.setattr(parallel, "usable_cores", lambda: cores)
    session = Session(**session_kw)
    return session, session.compile(program)


def split_steps(compiled):
    return [(compiled._work.nodes[i].name, step[1])
            for i, step in zip(compiled.plan.order, compiled._steps)
            if isinstance(step[1], parallel.SplitStep)]


def encoder(lengths, masked=False, n_layers=1, config=MID, layers=LAYERS):
    return build_encoder_stack_program(lengths, layers[:n_layers], config,
                                       masked=masked, n_layers=n_layers)


def reference(tokens, lengths, masked, n_layers):
    for w in LAYERS[:n_layers]:
        tokens = dense_reference_f64(tokens, lengths, w, MID, masked)
    return tokens


# ---------------------------------------------------------------------------
# (1) same bits as the forced-serial program, on every kind of session
# ---------------------------------------------------------------------------


class TestBitIdentity:
    @settings(max_examples=12, deadline=None)
    @given(lengths=st.lists(st.integers(1, 96), min_size=1, max_size=8),
           masked=st.booleans(), n_layers=st.integers(1, 2),
           cores=st.sampled_from([2, 4]))
    @example(lengths=[70, 64, 70], masked=False, n_layers=2, cores=2)
    @example(lengths=[220, 200, 220, 180], masked=False, n_layers=1,
             cores=2)        # element-wise softmax kernels split too
    @example(lengths=[300], masked=True, n_layers=1, cores=4)
    def test_split_matches_serial_and_float64(self, lengths, masked,
                                              n_layers, cores):
        with pytest.MonkeyPatch.context() as mp:
            tokens = packed_tokens(lengths, MID.hidden_size, sum(lengths))
            program = encoder(lengths, masked, n_layers)
            serial, _ = compiled_with(mp, 1, program)
            want = serial.run(program, {"tokens": tokens})["out_tokens"]
            assert np.abs(want - reference(tokens, lengths, masked, n_layers)
                          ).max() < ORACLE_TOL
            for name, kwargs in SESSIONS.items():
                session, compiled = compiled_with(mp, cores, program,
                                                  **kwargs)
                # 240 rows put every projection above the gate; a fused
                # plan is all regions, which stay whole.
                assert bool(split_steps(compiled)) == (
                    name != "fuse" and cores > 1) or sum(lengths) < 240, name
                got = session.run(program, {"tokens": tokens})["out_tokens"]
                assert np.array_equal(got, want), name
                session.close()

    def test_twenty_runs_of_one_batch_are_identical(self, monkeypatch):
        lengths = [90, 41, 90, 17, 64, 64, 5]
        program = encoder(lengths, n_layers=2)
        session, compiled = compiled_with(monkeypatch, 2, program)
        assert len(split_steps(compiled)) >= 10
        tokens = packed_tokens(lengths, MID.hidden_size, 3)
        first = session.run(program, {"tokens": tokens})["out_tokens"]
        for _ in range(19):
            again = session.run(program, {"tokens": tokens})["out_tokens"]
            assert np.array_equal(first, again)


# ---------------------------------------------------------------------------
# (2) the chunks are a partition
# ---------------------------------------------------------------------------


class TestPartition:
    @given(n_rows=st.integers(0, 5000), parts=st.integers(1, 64))
    def test_row_chunks_tile_with_two_rows_or_more(self, n_rows, parts):
        chunks = parallel.row_chunks(n_rows, parts)
        assert chunks[0][0] == 0 and chunks[-1][1] == n_rows
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        assert len(chunks) <= parts
        if len(chunks) > 1:
            assert min(hi - lo for lo, hi in chunks) >= 2

    @given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=30),
           parts=st.integers(2, 8), data=st.data())
    def test_bucket_shares_partition_and_balance(self, sizes, parts, data):
        weights = [size * data.draw(st.integers(1, 10_000)) for size in sizes]
        shares = parallel.bucket_shares(sizes, weights, parts)
        assert len(shares) == parts
        covered = sorted((i, k) for share in shares
                         for i, lo, hi in share for k in range(lo, hi))
        assert covered == [(i, k) for i, n in enumerate(sizes)
                           for k in range(n)]
        loads = [sum(weights[i] * (hi - lo) / sizes[i] for i, lo, hi in share)
                 for share in shares]
        heaviest = max(w * -(-n // min(n, parts)) / n
                       for w, n in zip(weights, sizes))
        assert max(loads) <= sum(weights) / parts + heaviest * (1 + 1e-9)

    @pytest.mark.parametrize("lengths", [
        [200, 150, 120],        # three single-instance buckets
        [160, 160, 160, 160],   # one bucket of four
        [320],                  # a single sequence: nothing to share out
        [90, 41, 90, 17, 64, 64, 5, 90],
    ])
    @pytest.mark.parametrize("cores", [2, 3])
    def test_compiled_chunks_partition_the_step(self, monkeypatch, lengths,
                                                cores):
        program = encoder(lengths)
        _, compiled = compiled_with(monkeypatch, cores, program)
        steps = dict(split_steps(compiled))
        assert "L0.ff1" in steps
        assert ("L0.sdpa.qkt" in steps) == (len(lengths) > 1)
        for name, step in steps.items():
            assert 2 <= len(step.chunks) <= cores
            whole = next(s for i, s in zip(compiled.plan.order,
                                           compiled._steps)
                         if compiled._work.nodes[i].name == name)
            if "sdpa" not in name:
                n_rows = sum(lengths)
                rows = [chunk[0].shape[0] for chunk in step.chunks]
                assert sum(rows) == n_rows and min(rows) >= 2
                # Outputs and token inputs are cut, constants are not.
                for chunk in step.chunks:
                    for part, arg in zip(chunk, whole[2]):
                        assert part is arg or part.shape[0] < n_rows
                        assert np.shares_memory(part, arg)
                continue
            buckets = whole[3]["buckets"]
            dealt = sorted(int(b) for _, aux in step.chunks
                           for bucket in aux["buckets"] for b in bucket)
            assert dealt == sorted(int(b) for bucket in buckets
                                   for b in bucket)
            for buffers, aux in step.chunks:
                assert buffers is whole[2]
                assert all(bucket.size for bucket in aux["buckets"])
                assert aux.keys() == whole[3].keys()
                assert all(aux[k] is v for k, v in whole[3].items()
                           if k != "buckets")

    def test_no_single_row_gemm_chunk_just_above_the_gate(self, monkeypatch):
        weight = np.ones((512, 1536), dtype=np.float32)
        per_row = (2 * weight.size / parallel.GEMM_FLOPS_PER_S
                   + weight.shape[1] / parallel.ELEMENTS_PER_S)
        above = int(2 * parallel.CHUNK_S / per_row) + 1
        for n_rows, expect in ((above - 1, 0), (above, 1), (above + 1, 1)):
            program = Program(f"linear{n_rows}")
            x = program.add_input("x", shape=(n_rows, 512))
            program.mark_output(linear_node(program, x, weight, name="y"))
            _, compiled = compiled_with(monkeypatch, 64, program)
            steps = split_steps(compiled)
            assert len(steps) == expect
            for _, step in steps:
                rows = [chunk[0].shape[0] for chunk in step.chunks]
                assert sum(rows) == n_rows and min(rows) >= 2
                # ... nor a chunk under the work two hand-offs are worth.
                assert min(rows) * per_row >= parallel.CHUNK_S / 2


# ---------------------------------------------------------------------------
# (4) the gate
# ---------------------------------------------------------------------------


class TestGate:
    @pytest.mark.parametrize("lengths", [[32], [4], [32] * 8,
                                         [32, 24, 24, 16, 16, 8, 8, 8]])
    def test_serving_sized_programs_split_nothing(self, monkeypatch, lengths):
        layers = [make_weights(SERVE, 0), make_weights(SERVE, 1)]
        program = encoder(lengths, masked=True, n_layers=2, config=SERVE,
                          layers=layers)
        for cores in (2, 64):
            _, compiled = compiled_with(monkeypatch, cores, program)
            assert split_steps(compiled) == []

    @pytest.mark.parametrize("fuse", [False, True])
    def test_one_core_leaves_every_step_as_it_was(self, monkeypatch, fuse):
        program = encoder([90, 41, 90, 64])
        _, compiled = compiled_with(monkeypatch, 1, program, fuse=fuse)
        for idx, (_, fn, _, _, _) in zip(compiled.plan.order,
                                         compiled._steps):
            node = compiled._work.nodes[idx]
            if idx in compiled.kernels:
                assert fn is compiled.kernels[idx].generated
            elif idx in compiled.fused_kernels:
                assert fn is compiled.fused_kernels[idx].generated
            elif hasattr(node, "fn"):
                assert fn is node.fn

    def test_fused_regions_stay_whole(self, monkeypatch):
        # Their members share one step-private workspace.
        program = encoder([90, 41, 90, 64])
        _, compiled = compiled_with(monkeypatch, 2, program, fuse=True)
        assert compiled.fused_kernels and split_steps(compiled) == []

    def test_usable_cores_is_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5},
                            raising=False)
        assert parallel.usable_cores() == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert parallel.usable_cores() == 8


# ---------------------------------------------------------------------------
# failure and lifetime
# ---------------------------------------------------------------------------


class TestFailureAndLifetime:
    def test_raising_chunk_waits_for_its_siblings(self):
        finished = []

        def chunk(i):
            if i == 0:
                raise ExecutionError("chunk 0")
            time.sleep(0.05)
            finished.append(i)
            if i == 2:
                raise ValueError("chunk 2")

        step = parallel.SplitStep(chunk, lambda: [(0,), (1,), (2,)])
        with pytest.raises(ExecutionError, match="chunk 0"):
            step("ignored", "arguments")
        assert sorted(finished) == [1, 2]

    def test_raising_host_function_fails_the_run_only(self, monkeypatch):
        state = {"raise": True}

        def flaky(out, x):
            np.multiply(x, 2.0, out=out)
            if state["raise"]:
                raise ExecutionError("host node failed")

        program = Program("flaky")
        x = program.add_input("x", shape=(4000, 512))
        (y,) = program.add_host("double", flaky, [x],
                                output_shapes={"y": (4000, 512)},
                                row_wise=True)
        program.mark_output(y)
        session, compiled = compiled_with(monkeypatch, 2, program)
        assert [name for name, _ in split_steps(compiled)] == ["double"]
        data = np.ones((4000, 512), dtype=np.float32)
        with pytest.raises(ExecutionError, match="host node failed"):
            session.run(program, {"x": data})
        assert not session._arena_lock.locked()
        state["raise"] = False
        assert np.array_equal(session.run(program, {"x": data})["y"],
                              2 * data)

    def test_fault_on_a_split_step_propagates_unchanged(self, monkeypatch):
        # A helper chunk of an encoder GEMM raises: the run fails with that
        # exception, and the next run of the same program is unharmed.
        lengths = [90, 41, 90, 64]
        program = encoder(lengths)
        tokens = packed_tokens(lengths, MID.hidden_size, 1)
        session, compiled = compiled_with(monkeypatch, 2, program)
        order = [compiled._work.nodes[i].name for i in compiled.plan.order]
        split = compiled._steps[order.index("L0.ff1")][1]
        assert isinstance(split, parallel.SplitStep)
        want = session.run(program, {"tokens": tokens})["out_tokens"]
        real = split.fn

        def helper_fails(*chunk):
            real(*chunk)
            if threading.current_thread() is not threading.main_thread():
                raise ExecutionError("helper chunk failed")

        split.fn = helper_fails
        with pytest.raises(ExecutionError, match="helper chunk failed"):
            session.run(program, {"tokens": tokens})
        split.fn = real
        got = session.run(program, {"tokens": tokens})["out_tokens"]
        assert np.array_equal(got, want)

    def test_sessions_on_many_threads_share_the_helpers(self, monkeypatch):
        # More callers than cores, all handing chunks to the same pool,
        # with the interpreter switching threads as often as it can.
        lengths = [90, 41, 90, 64]
        program = encoder(lengths)
        tokens = packed_tokens(lengths, MID.hidden_size, 2)
        serial, _ = compiled_with(monkeypatch, 1, program)
        want = serial.run(program, {"tokens": tokens})["out_tokens"]
        monkeypatch.setattr(parallel, "usable_cores", lambda: 3)
        wrong = []

        def caller():
            session = Session()
            for _ in range(6):
                got = session.run(program, {"tokens": tokens})["out_tokens"]
                wrong.append(not np.array_equal(got, want))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=caller) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(wrong) == 36 and not any(wrong)

    def test_pool_is_shared_and_outlives_a_session(self, monkeypatch):
        lengths = [90, 41, 90, 64]
        program = encoder(lengths)
        tokens = packed_tokens(lengths, MID.hidden_size, 1)
        pools = set()
        for _ in range(2):
            session, _ = compiled_with(monkeypatch, 2, program)
            with session:
                session.run(program, {"tokens": tokens})
            pools.add(parallel._pool)
            helpers = [t for t in threading.enumerate()
                       if t.name.startswith("repro-par")]
            assert helpers and all(t.is_alive() for t in helpers)
        assert len(pools) == 1 and None not in pools

    def test_helpers_start_with_the_first_split_step_only(self):
        script = textwrap.dedent("""
            import threading
            import numpy as np
            from repro.core import parallel
            from repro.core.session import Session
            from repro.models.config import TransformerConfig
            from repro.models.transformer import (
                EncoderWeights, build_encoder_stack_program)

            parallel.usable_cores = lambda: 2

            def helpers():
                return [t.name for t in threading.enumerate()
                        if t.name.startswith("repro-par")]

            def run(config, lengths):
                weights = EncoderWeights.random(config, seed=0)
                program = build_encoder_stack_program(
                    lengths, [weights], config, masked=True, n_layers=1)
                tokens = np.ones((sum(lengths), config.hidden_size),
                                 dtype=np.float32)
                with Session() as session:
                    session.run(program, {"tokens": tokens})

            small = TransformerConfig(
                hidden_size=64, num_heads=4, head_size=16, ff_size=128,
                num_layers=1, loop_pad=4, bulk_pad=16, attention_tile=8)
            for lengths in ([32], [32] * 8, [9, 30, 17]):
                run(small, lengths)
            assert helpers() == [], helpers()
            big = TransformerConfig(
                hidden_size=256, num_heads=4, head_size=64, ff_size=512,
                num_layers=1, loop_pad=4, bulk_pad=16, attention_tile=8)
            run(big, [200, 150])
            assert helpers() == ["repro-par_0"], helpers()
            print("ok")
        """)
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0 and done.stdout.strip() == "ok", \
            done.stderr


# ---------------------------------------------------------------------------
# steps that must stay whole
# ---------------------------------------------------------------------------


class TestLeftWhole:
    def test_constant_with_a_row_per_token_keeps_the_node_whole(
            self, monkeypatch):
        # A positional table: constant, but not "the same for every row".
        rng = np.random.default_rng(0)
        table = rng.standard_normal((4000, 512)).astype(np.float32)
        data = rng.standard_normal((4000, 512)).astype(np.float32)
        program = Program("positional")
        x = program.add_input("x", shape=(4000, 512))
        y = add_node(program, x, program.add_constant("table", table))
        program.mark_output(relu_node(program, y))
        session, compiled = compiled_with(monkeypatch, 2, program)
        assert [name for name, _ in split_steps(compiled)] == ["relu"]
        assert np.array_equal(session.run(program, {"x": data})["relu"],
                              np.maximum(data + table, 0.0))

    def test_input_of_another_leading_extent_keeps_the_node_whole(
            self, monkeypatch):
        program = Program("transposed")
        x = program.add_input("x", shape=(4000, 512))
        y = program.add_input("y", shape=(512, 4000))
        program.mark_output(*program.add_host(
            "f", lambda out, a, b: np.add(a, b.T, out=out), [x, y],
            output_shapes={"z": (4000, 512)}, row_wise=True))
        session, compiled = compiled_with(monkeypatch, 2, program)
        assert split_steps(compiled) == []
        ones = np.ones((4000, 512), dtype=np.float32)
        assert np.array_equal(
            session.run(program, {"x": ones, "y": ones.T})["z"], 2 * ones)

    def test_row_wise_outputs_must_be_dense(self):
        batch, seq = Dim("batch"), Dim("seq")
        layout = RaggedLayout([batch, seq], [
            ConstExtent(2), VarExtent(batch, np.array([3, 5]))])
        program = Program("ragged")
        x = program.add_input("x", layout=layout)
        with pytest.raises(ProgramError, match="must be dense"):
            program.add_host("f", lambda out, a: None, [x],
                             output_layouts={"y": layout}, row_wise=True)

    def test_kernel_that_clears_its_output_before_the_loop_stays_whole(
            self, monkeypatch):
        # Storage rows beyond the loop make the kernel clear its whole
        # output before the bucket loop: run by every worker, the later
        # clear would wipe what the earlier worker had stored.
        lens = np.array([500, 470, 512, 440, 512, 480, 512, 400])
        batch, seq, hid = Dim("batch"), Dim("seq"), Dim("hid")
        ragged = [ConstExtent(len(lens)), VarExtent(batch, lens)]
        x_in = input_tensor("X", [batch, seq, hid],
                            ragged + [ConstExtent(512)])
        stored = [ConstExtent(len(lens) + 2),
                  VarExtent(batch, np.append(lens, [8, 8])), ConstExtent(512)]
        y_op = compute("Y", [batch, seq, hid], ragged + [ConstExtent(512)],
                       lambda b, i, c: exp(x_in[b, i, c]),
                       storage_extents=stored)
        x_layout = RaggedLayout([batch, seq, hid], ragged + [ConstExtent(512)])
        program = Program("cleared")
        x = program.add_input("x", layout=x_layout)
        program.mark_output(program.add_kernel(
            "y", Schedule(y_op), {"X": x},
            RaggedLayout([batch, seq, hid], stored)))
        data = RaggedTensor.random(x_layout, seed=1)
        serial, whole = compiled_with(monkeypatch, 1, program)
        assert ".fill(0.0)" in whole.kernels[0].source
        want = serial.run(program, {"x": data})["y"].data.copy()
        assert np.count_nonzero(want) == lens.sum() * 512
        session, compiled = compiled_with(monkeypatch, 2, program)
        assert split_steps(compiled) == []
        for _ in range(5):
            got = session.run(program, {"x": data})["y"].data
            assert np.array_equal(got, want)
