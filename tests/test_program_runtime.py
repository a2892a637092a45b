"""Tests for the ragged program graph runtime (program / planner / session).

Covers the program IR's validation, the liveness + arena planner, the
Session's AOT compile/run path -- including the differential guarantee
that ``Session.run`` is *bit-identical* to op-by-op execution for the
masked and unmasked encoder layers with zero vector-backend fallbacks --
and plan reuse across raggedness signatures (hypothesis property).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor import Executor
from repro.core.planner import plan_program, topological_order
from repro.core.program import Program, ProgramError
from repro.core.session import Session, default_session
from repro.models.config import TransformerConfig
from repro.models.transformer import (
    EncoderWeights,
    build_encoder_program,
    encoder_program,
    run_encoder_layer_numeric,
    run_encoder_layer_opbyop,
)

SMALL = TransformerConfig(hidden_size=16, num_heads=2, head_size=8, ff_size=32,
                          num_layers=2, loop_pad=4, bulk_pad=8,
                          attention_tile=8)


def _hidden(lengths, seed=0, config=SMALL):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((int(n), config.hidden_size))
            .astype(np.float32) for n in lengths]


def _bit_identical(a, b):
    return all(np.array_equal(x, y) for x, y in zip(a.hidden, b.hidden))


# ---------------------------------------------------------------------------
# Program IR
# ---------------------------------------------------------------------------


class TestProgramIR:
    def test_duplicate_value_rejected(self):
        p = Program("p")
        p.add_input("x", shape=(4,))
        with pytest.raises(ProgramError):
            p.add_input("x", shape=(4,))

    def test_undeclared_input_rejected(self):
        p = Program("p")
        with pytest.raises(ProgramError):
            p.add_host("n", lambda out, x: None, ["missing"],
                       output_shapes={"y": (4,)})

    def test_value_needs_exactly_one_of_layout_shape(self):
        p = Program("p")
        with pytest.raises(ProgramError):
            p.add_input("x")

    def test_output_must_be_produced(self):
        p = Program("p")
        p.add_input("x", shape=(4,))
        with pytest.raises(ProgramError):
            p.mark_output("x")
        with pytest.raises(ProgramError):
            p.mark_output("nope")

    def test_validate_requires_outputs(self):
        p = Program("p")
        p.add_input("x", shape=(4,))
        p.add_host("n", lambda out, x: None, ["x"],
                   output_shapes={"y": (4,)})
        with pytest.raises(ProgramError):
            p.validate()
        p.mark_output("y")
        p.validate()

    def test_kernel_binding_names_validated_at_compile(self):
        from repro.ops.trmm import make_trmm_schedule
        from repro.core.storage import RaggedLayout
        from repro.core.dims import Dim

        p = Program("p")
        p.add_input("L", shape=(4, 4))
        p.add_input("B", shape=(4, 4))
        layout = RaggedLayout([Dim("r"), Dim("c")], [4, 4])
        # Binds the wrong tensor name ("X" instead of "L").
        p.add_kernel("t", make_trmm_schedule(4), {"X": "L", "B": "B"}, layout)
        p.mark_output("t")
        with pytest.raises(ProgramError):
            Session(backend="vector").compile(p)


# ---------------------------------------------------------------------------
# Planner: topological order, liveness, arena assignment
# ---------------------------------------------------------------------------


def _chain_program(n_steps=5, size=64):
    """x -> n0 -> n1 -> ... (each step consumes only the previous value)."""
    p = Program("chain")
    prev = p.add_input("x", shape=(size,))
    for i in range(n_steps):
        (prev,) = p.add_host(f"n{i}", lambda out, a: None, [prev],
                             output_shapes={f"v{i}": (size,)})
    p.mark_output(f"v{n_steps - 1}")
    return p


class TestPlanner:
    def test_topological_order_is_insertion_order(self):
        p = _chain_program()
        assert topological_order(p) == list(range(len(p.nodes)))

    def test_chain_liveness_and_double_buffering(self):
        p = _chain_program(n_steps=5)
        plan = plan_program(p)
        # v0 is born at step 0 and last consumed at step 1.
        assert plan.liveness["v0"] == (0, 1)
        # A node's output never shares a slab with its direct input
        # (producer/consumer lifetimes overlap -> double buffering).
        for i in range(1, 5):
            assert plan.slab_of[f"v{i}"] != plan.slab_of[f"v{i - 1}"]

    def test_chain_reuses_two_slabs(self):
        # A pure chain needs exactly two ping-pong slabs, not five buffers.
        plan = plan_program(_chain_program(n_steps=5))
        assert plan.num_slabs == 2
        assert plan.arena_bytes == pytest.approx(plan.naive_bytes * 2 / 5)

    def test_output_survives_to_program_end(self):
        p = _chain_program(n_steps=3)
        plan = plan_program(p)
        assert plan.liveness["v2"] == (2, 2)
        assert plan.reuse_savings > 0

    def test_fanout_keeps_value_live(self):
        # y is consumed by the *last* node: it must stay live throughout
        # and never share a slab with the values born in between.
        p = Program("fanout")
        x = p.add_input("x", shape=(8,))
        (y,) = p.add_host("produce", lambda out, a: None, [x],
                          output_shapes={"y": (8,)})
        (z,) = p.add_host("middle", lambda out, a: None, [y],
                          output_shapes={"z": (8,)})
        (w,) = p.add_host("late", lambda out, a, b: None, [y, z],
                          output_shapes={"w": (8,)})
        p.mark_output(w)
        plan = plan_program(p)
        assert plan.liveness["y"] == (0, 2)
        assert plan.slab_of["y"] not in (plan.slab_of["z"], plan.slab_of["w"])

    def test_encoder_plan_meets_reuse_target(self):
        program = build_encoder_program([7, 3, 5], EncoderWeights.zeros(SMALL),
                                        SMALL, masked=False)
        plan = plan_program(program)
        assert plan.num_slabs < plan.num_values
        assert plan.reuse_savings >= 0.30
        # Growing slabs never shrinks below any assigned value.
        for name, slab in plan.slab_of.items():
            assert plan.slab_elements[slab] >= plan.value_elements[name]


# ---------------------------------------------------------------------------
# Session: differential correctness against op-by-op execution
# ---------------------------------------------------------------------------


class TestSessionEncoder:
    @pytest.mark.parametrize("masked", [False, True])
    def test_session_bit_identical_to_opbyop(self, masked):
        hidden = _hidden((7, 3, 5), seed=1)
        weights = EncoderWeights.random(SMALL, seed=0)
        session = Session(backend="vector")
        got = run_encoder_layer_numeric(hidden, weights, SMALL, masked=masked,
                                        session=session)
        ref = run_encoder_layer_opbyop(hidden, weights, SMALL, masked=masked,
                                       backend="vector")
        assert _bit_identical(got, ref)

    @pytest.mark.parametrize("masked", [False, True])
    def test_session_matches_numpy_reference(self, masked):
        hidden = _hidden((6, 2, 4), seed=2)
        weights = EncoderWeights.random(SMALL, seed=1)
        got = run_encoder_layer_numeric(hidden, weights, SMALL, masked=masked)
        ref = run_encoder_layer_opbyop(hidden, weights, SMALL, masked=masked)
        for a, b in zip(got.hidden, ref.hidden):
            assert np.allclose(a, b, atol=1e-5)

    def test_zero_vector_backend_fallbacks(self):
        hidden = _hidden((5, 3), seed=3)
        weights = EncoderWeights.random(SMALL, seed=2)
        executor = Executor(backend="vector")
        for masked in (False, True):
            run_encoder_layer_numeric(hidden, weights, SMALL, masked=masked,
                                      executor=executor)
        stats = executor.codegen_stats()
        assert stats["fallbacks"] == 0, stats["fallback_reasons"]
        # One kernel instance per node of each program (6 unmasked, 7 with
        # the additive-mask kernel) over at most 7 kernel structures.
        assert stats["vectorized"] == 13
        assert stats["structures_generated"] + stats["structure_hits"] == 13
        assert stats["structures_generated"] <= 7

    def test_repeated_runs_hit_program_cache(self):
        hidden = _hidden((4, 6), seed=4)
        weights = EncoderWeights.random(SMALL, seed=3)
        session = Session(backend="vector")
        first = run_encoder_layer_numeric(hidden, weights, SMALL,
                                          session=session)
        again = run_encoder_layer_numeric(hidden, weights, SMALL,
                                          session=session)
        assert session.program_compiles == 1
        assert session.program_cache_hits >= 1
        assert _bit_identical(first, again)

    def test_outputs_are_copies_not_arena_views(self):
        hidden = _hidden((4, 3), seed=5)
        weights = EncoderWeights.random(SMALL, seed=4)
        session = Session(backend="vector")
        first = run_encoder_layer_numeric(hidden, weights, SMALL,
                                          session=session)
        saved = [h.copy() for h in first.hidden]
        first.hidden[0][...] = -1e9  # mutate the returned buffers
        again = run_encoder_layer_numeric(hidden, weights, SMALL,
                                          session=session)
        assert all(np.array_equal(a, b) for a, b in zip(again.hidden, saved))

    def test_missing_and_misshaped_inputs_rejected(self):
        weights = EncoderWeights.random(SMALL, seed=5)
        session = Session(backend="vector")
        program = encoder_program([4, 3], weights, SMALL, session=session)
        with pytest.raises(ProgramError):
            session.run(program, {})
        with pytest.raises(ProgramError):
            session.run(program, {"tokens": np.zeros((3, SMALL.hidden_size),
                                                     np.float32)})

    def test_session_reset_clears_state(self):
        hidden = _hidden((5, 2), seed=6)
        weights = EncoderWeights.random(SMALL, seed=6)
        session = Session(backend="vector", executor=Executor(backend="vector"))
        before = run_encoder_layer_numeric(hidden, weights, SMALL,
                                           session=session)
        assert session.program_compiles == 1
        session.reset()
        assert session.program_compiles == 0
        assert session.stats()["cached_programs"] == 0
        after = run_encoder_layer_numeric(hidden, weights, SMALL,
                                          session=session)
        assert session.program_compiles == 1
        assert _bit_identical(before, after)

    def test_reset_replays_identical_lower_count_trajectory(self):
        # reset() must start a session-private executor COLD: kernel cache
        # dropped AND lowering/codegen counters zeroed, so a replayed
        # workload reproduces the original lower_count trajectory exactly
        # (repeated benchmark runs must not inherit warm state).
        hidden = _hidden((5, 3, 2), seed=10)
        weights = EncoderWeights.random(SMALL, seed=10)
        session = Session(backend="vector",
                          executor=Executor(backend="vector"))

        def trajectory():
            steps = []
            for masked in (False, True):
                run_encoder_layer_numeric(hidden, weights, SMALL,
                                          masked=masked, session=session)
                codegen = session.stats()["codegen"]
                steps.append((codegen["lower_count"], codegen["vectorized"],
                              codegen["cache_hits"]))
            return steps

        first = trajectory()
        assert first[-1][0] > 0
        session.reset()
        cold = session.stats()["codegen"]
        assert cold["lower_count"] == 0
        assert cold["cache_hits"] == 0 and cold["cache_misses"] == 0
        assert cold["vectorized"] == 0 and cold["fallbacks"] == 0
        assert cold["fallback_reasons"] == {}
        assert trajectory() == first

    def test_reset_clears_signature_stats(self):
        hidden = _hidden((4, 2), seed=11)
        weights = EncoderWeights.random(SMALL, seed=11)
        session = Session(backend="vector")
        program = encoder_program([4, 2], weights, SMALL, session=session)
        session.run(program, {"tokens": np.concatenate(hidden)},
                    signature=(4, 2))
        session.run(program, {"tokens": np.concatenate(hidden)},
                    signature=(4, 2))
        assert session.signature_stats[(4, 2)] == {"hits": 1, "misses": 1}
        assert session.stats()["signature_hits"] == 1
        session.reset()
        assert session.signature_stats == {}
        assert session.stats()["signature_misses"] == 0

    def test_explicit_executor_sessions_are_memoized(self):
        from repro.core.session import session_for_executor

        hidden = _hidden((4, 2), seed=8)
        weights = EncoderWeights.random(SMALL, seed=8)
        executor = Executor(backend="vector")
        run_encoder_layer_numeric(hidden, weights, SMALL, executor=executor)
        run_encoder_layer_numeric(hidden, weights, SMALL, executor=executor)
        session = session_for_executor(executor)
        assert session.program_compiles == 1
        assert session.program_cache_hits >= 1

    def test_stats_report_executor_backend(self):
        session = Session(executor=Executor(backend="scalar"))
        assert session.backend == "scalar"
        assert session.stats()["backend"] == "scalar"

    def test_reset_leaves_shared_executor_cache_alone(self):
        from repro.core.executor import shared_executor

        hidden = _hidden((3, 2), seed=9)
        weights = EncoderWeights.random(SMALL, seed=9)
        session = Session(backend="vector")  # wraps the shared executor
        program = build_encoder_program([3, 2], weights, SMALL)
        tokens = {"tokens": np.concatenate(hidden)}
        session.run(program, tokens)
        executor = shared_executor("vector")
        cached_before = len(executor._kernel_cache)
        assert cached_before > 0
        session.reset()
        # The shared executor's kernel cache must survive a session reset:
        # recompiling the program hits the kernel cache, no new lowers.
        assert len(executor._kernel_cache) == cached_before
        lowers_before = executor.lower_count
        session.run(program, tokens)
        assert session.program_compiles == 1
        assert executor.lower_count == lowers_before
        # A *rebuilt* program (new schedule objects over known kernel
        # structures) pays one prelude per kernel and generates nothing.
        generated_before = executor.structures_generated
        run_encoder_layer_numeric(hidden, weights, SMALL, session=session)
        assert executor.lower_count == lowers_before + 6
        assert executor.structures_generated == generated_before

    def test_dense_node_builders_reject_ragged_values(self):
        from repro.ops.elementwise import add_node, relu_node
        from repro.core.storage import RaggedLayout
        from repro.core.dims import Dim
        from repro.core.extents import ConstExtent, VarExtent

        batch = Dim("batch")
        layout = RaggedLayout(
            [batch, Dim("seq")],
            [ConstExtent(2), VarExtent(batch, np.array([3, 2]))])
        p = Program("p")
        r = p.add_input("r", layout=layout)
        d = p.add_input("d", shape=(5,))
        with pytest.raises(ProgramError):
            relu_node(p, r)
        with pytest.raises(ProgramError):
            add_node(p, r, d)

    def test_prelude_shims_route_to_default_session(self):
        from repro.models.transformer import (
            clear_prelude_memo,
            encoder_layer_workload,
            prelude_memo_stats,
        )

        clear_prelude_memo()
        lengths = np.array([48, 32, 16])
        encoder_layer_workload(lengths, "cora")
        encoder_layer_workload(lengths, "cora")
        stats = prelude_memo_stats()
        assert stats["misses"] == 1
        assert stats["hits"] == 1
        assert default_session().prelude_memo_stats == stats


# ---------------------------------------------------------------------------
# Plan reuse across raggedness signatures (hypothesis property)
# ---------------------------------------------------------------------------


class TestSignatureReuseProperty:
    @settings(max_examples=12, deadline=None)
    @given(lengths=st.lists(st.integers(min_value=1, max_value=10),
                            min_size=1, max_size=5))
    def test_program_runtime_differential_and_plan_reuse(self, lengths):
        hidden = _hidden(lengths, seed=7)
        weights = EncoderWeights.random(SMALL, seed=7)
        session = Session(backend="vector", executor=Executor(backend="vector"))

        got = run_encoder_layer_numeric(hidden, weights, SMALL,
                                        session=session)
        ref = run_encoder_layer_opbyop(hidden, weights, SMALL,
                                       backend="vector")
        assert _bit_identical(got, ref)

        # Same signature again: the compiled program (kernels, plan,
        # arena) is reused, and the replay stays bit-identical.
        compiles = session.program_compiles
        again = run_encoder_layer_numeric(hidden, weights, SMALL,
                                          session=session)
        assert session.program_compiles == compiles
        assert session.program_cache_hits >= 1
        assert _bit_identical(got, again)

        # A different signature compiles a new program without
        # disturbing the cached one.
        other = _hidden([n + 1 for n in lengths], seed=8)
        run_encoder_layer_numeric(other, weights, SMALL, session=session)
        assert session.program_compiles == compiles + 1
        third = run_encoder_layer_numeric(hidden, weights, SMALL,
                                          session=session)
        assert _bit_identical(third, got)
        assert session.stats()["codegen"]["fallbacks"] == 0


# ---------------------------------------------------------------------------
# Kernel-node builders beyond the encoder (vgemm / trmm)
# ---------------------------------------------------------------------------


class TestKernelNodeBuilders:
    def test_vgemm_node_matches_compiled(self):
        from repro.ops.vgemm import (
            random_instances,
            vgemm_compiled,
            vgemm_layouts,
            vgemm_node,
            VgemmProblem,
        )

        problem = VgemmProblem(ms=np.array([3, 5]), ns=np.array([4, 2]),
                               ks=np.array([2, 6]))
        a_list, b_list = random_instances(problem, seed=0)
        layout_a, layout_b, _ = vgemm_layouts(problem.ms, problem.ns,
                                              problem.ks)

        p = Program("vgemm")
        a = p.add_input("A", layout=layout_a)
        b = p.add_input("B", layout=layout_b)
        c = vgemm_node(p, a, b, problem.ms, problem.ns, problem.ks)
        p.mark_output(c)

        from repro.core.ragged_tensor import RaggedTensor

        session = Session(backend="vector")
        out = session.run(p, {
            "A": RaggedTensor.from_slices(layout_a, a_list),
            "B": RaggedTensor.from_slices(layout_b, b_list),
        })[c]
        ref, _ = vgemm_compiled(a_list, b_list)
        for i, r in enumerate(ref):
            assert np.array_equal(out.valid_slice(i), r)

    def test_trmm_node_matches_compiled(self):
        from repro.ops.trmm import make_lower_triangular, trmm_compiled, trmm_node

        n = 9
        lower = make_lower_triangular(n, seed=1)
        dense = np.random.default_rng(2).standard_normal((n, n)).astype(np.float32)
        p = Program("trmm")
        lo = p.add_input("L", shape=(n, n))
        de = p.add_input("B", shape=(n, n))
        t = trmm_node(p, lo, de, n)
        p.mark_output(t)
        out = Session(backend="vector").run(p, {"L": lower, "B": dense})[t]
        ref, _ = trmm_compiled(lower, dense)
        assert np.array_equal(out.to_dense(), ref)


# ---------------------------------------------------------------------------
# Planner-backed memory model
# ---------------------------------------------------------------------------


class TestArenaMemoryModel:
    def test_intermediate_memory_report(self):
        from repro.analysis.memory import intermediate_memory_report

        report = intermediate_memory_report([48, 32, 16, 64], SMALL)
        assert report["arena_bytes"] < report["per_op_bytes"]
        assert report["savings"] >= 0.30
        assert report["num_slabs"] < report["num_values"]

    def test_masked_report_accounts_extra_kernel(self):
        from repro.analysis.memory import intermediate_memory_report

        plain = intermediate_memory_report([12, 8], SMALL, masked=False)
        masked = intermediate_memory_report([12, 8], SMALL, masked=True)
        # The additive-mask kernel adds one intermediate score tensor.
        assert masked["num_values"] == plain["num_values"] + 1
        assert masked["per_op_bytes"] > plain["per_op_bytes"]
