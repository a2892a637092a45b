"""Tests for the executor's kernel cache, the memoized FLOP estimates and
the prelude memoization."""

import numpy as np
import pytest

from repro.core.dims import Dim
from repro.core.errors import ExecutionError
from repro.core.extents import ConstExtent, VarExtent
from repro.core.executor import (
    Executor,
    estimate_dense_flops,
    estimate_flops,
    register_schedule_memo,
    schedule_memo_stats,
    schedule_signature,
)
from repro.core.ir import LoopVar
from repro.core.operator import compute, input_tensor, reduce_axis, sum_reduce
from repro.core.prelude import PreludeCache
from repro.core.ragged_tensor import RaggedTensor
from repro.core.schedule import Schedule
from repro.core.storage import RaggedLayout
import repro.ops.vgemm  # noqa: F401  (registers the "vgemm.schedule" memo)

LENGTHS = np.array([5, 2, 3])


def elementwise_op():
    batch, seq = Dim("batch"), Dim("seq")
    A = input_tensor("A", [batch, seq],
                     [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS)])
    op = compute("B", [batch, seq],
                 [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS)],
                 lambda o, i: 2.0 * A[o, i])
    layout = RaggedLayout([batch, seq],
                          [ConstExtent(len(LENGTHS)), VarExtent(batch, LENGTHS)])
    return op, RaggedTensor.random(layout, seed=1)


def matmul_op(lens=np.array([4, 2, 3]), inner=6, out=5):
    batch, seq, j = Dim("batch"), Dim("seq"), Dim("j")
    A = input_tensor("A", [batch, seq, Dim("h")],
                     [ConstExtent(len(lens)), VarExtent(batch, lens),
                      ConstExtent(inner)])
    W = input_tensor("W", [Dim("ki"), j], [ConstExtent(inner), ConstExtent(out)])
    k = reduce_axis(inner, "k")
    op = compute("C", [batch, seq, j],
                 [ConstExtent(len(lens)), VarExtent(batch, lens),
                  ConstExtent(out)],
                 lambda b, i, jj: sum_reduce(
                     A[b, i, LoopVar(k.dim)] * W[LoopVar(k.dim), jj], k))
    layout = RaggedLayout([batch, seq, Dim("h")],
                          [ConstExtent(len(lens)), VarExtent(batch, lens),
                           ConstExtent(inner)])
    ta = RaggedTensor.random(layout, seed=2)
    w = np.random.default_rng(5).standard_normal((inner, out)).astype(np.float32)
    return op, {"A": ta, "W": w}


class TestKernelCache:
    def test_second_build_and_run_hits_cache(self):
        op, data = elementwise_op()
        executor = Executor()
        schedule = Schedule(op)
        executor.build_and_run(schedule, {"A": data})
        assert executor.lower_count == 1
        out, _ = executor.build_and_run(schedule, {"A": data})
        # Zero re-lowers: the second call is a pure cache hit.
        assert executor.lower_count == 1
        assert executor.cache_hits == 1
        assert executor.cache_misses == 1
        assert np.allclose(out.data, 2 * data.data, atol=1e-5)

    def test_equivalent_fresh_schedule_hits_cache(self):
        op, data = elementwise_op()
        executor = Executor()
        executor.build_and_run(Schedule(op), {"A": data})
        executor.build_and_run(Schedule(op), {"A": data})
        assert executor.lower_count == 1

    def test_mutated_schedule_recompiles(self):
        op, data = elementwise_op()
        executor = Executor()
        schedule = Schedule(op)
        executor.build_and_run(schedule, {"A": data})
        schedule.no_load_hoisting()
        out, _ = executor.build_and_run(schedule, {"A": data})
        assert executor.lower_count == 2
        assert np.allclose(out.data, 2 * data.data, atol=1e-5)

    def test_mutated_padding_recompiles(self):
        op, _ = elementwise_op()
        executor = Executor()
        schedule = Schedule(op)
        sig_before = schedule_signature(schedule)
        schedule.pad_loop(op.dims[1], 2)
        schedule.pad_dimension(op.dims[1], 2)
        assert schedule_signature(schedule) != sig_before

    def test_different_operators_do_not_collide(self):
        op1, data = elementwise_op()
        op2, inputs2 = matmul_op()
        executor = Executor()
        executor.build_and_run(Schedule(op1), {"A": data})
        executor.build_and_run(Schedule(op2), inputs2)
        assert executor.lower_count == 2

    def test_signature_depends_on_lengths(self):
        op1, _ = elementwise_op()
        sig1 = schedule_signature(Schedule(op1))
        sig1b = schedule_signature(Schedule(op1))
        assert sig1 == sig1b

    def test_cache_disabled(self):
        op, data = elementwise_op()
        executor = Executor(cache=False)
        executor.build_and_run(Schedule(op), {"A": data})
        executor.build_and_run(Schedule(op), {"A": data})
        assert executor.lower_count == 2

    def test_clear_cache(self):
        op, data = elementwise_op()
        executor = Executor()
        schedule = Schedule(op)
        executor.build_and_run(schedule, {"A": data})
        executor.clear_cache()
        executor.build_and_run(schedule, {"A": data})
        assert executor.lower_count == 2

    def test_lru_eviction_bounds_cache(self):
        from repro.ops.trmm import make_lower_triangular, trmm_compiled

        executor = Executor(cache_capacity=2)
        for n in (3, 4, 5, 6):
            trmm_compiled(make_lower_triangular(n),
                          np.eye(n, dtype=np.float32), executor=executor)
        assert len(executor._kernel_cache) == 2
        assert executor.lower_count == 4

    def test_ops_wrappers_hit_cache_across_calls(self):
        """The memoized schedule builders make repeated compiled-op calls
        with equal problems pure cache hits on a shared executor."""
        from repro.ops.vgemm import random_instances, vgemm_compiled, VgemmProblem

        problem = VgemmProblem(ms=np.array([5, 3]), ns=np.array([4, 6]),
                               ks=np.array([3, 5]))
        a, b = random_instances(problem, seed=1)
        executor = Executor()
        for _ in range(3):
            outs, _ = vgemm_compiled(a, b, executor=executor)
        assert executor.lower_count == 1
        assert executor.cache_hits == 2
        assert len(executor._kernel_cache) == 1


class TestFlopsMemoization:
    def test_estimates_computed_once_across_runs(self, monkeypatch):
        import repro.core.executor as executor_mod

        op, inputs = matmul_op()
        executor = Executor()
        schedule = Schedule(op)
        calls = {"n": 0}
        real = executor_mod.estimate_flops

        def counting(lowered):
            calls["n"] += 1
            return real(lowered)

        monkeypatch.setattr(executor_mod, "estimate_flops", counting)
        executor.build_and_run(schedule, inputs)
        executor.build_and_run(schedule, inputs)
        executor.build_and_run(schedule, inputs)
        assert calls["n"] == 1

    def test_reports_unchanged_by_memoization(self):
        op, inputs = matmul_op()
        executor = Executor()
        schedule = Schedule(op)
        _, first = executor.build_and_run(schedule, inputs)
        _, second = executor.build_and_run(schedule, inputs)
        assert first.flops == second.flops
        assert first.dense_flops == second.dense_flops


class TestEstimateRegression:
    def brute_force_flops(self, lens, j_extent, k_extent):
        """Count loop-nest iterations the way the generated kernel runs them:
        2 flops (multiply + accumulate) per innermost iteration."""
        total = 0
        for b in range(len(lens)):
            for _i in range(int(lens[b])):
                for _j in range(j_extent):
                    for _k in range(k_extent):
                        total += 2
        return total

    def test_ragged_matmul_matches_brute_force(self):
        lens = np.array([4, 2, 3])
        op, _ = matmul_op(lens)
        lowered = Schedule(op).lower()
        assert estimate_flops(lowered) == self.brute_force_flops(lens, 5, 6)

    def test_constant_bounds_match_brute_force(self):
        row, col = Dim("row"), Dim("col")
        n = 4
        L = input_tensor("L", [row, Dim("rk")], [ConstExtent(n), ConstExtent(n)])
        B = input_tensor("Bm", [Dim("rk2"), col], [ConstExtent(n), ConstExtent(n)])
        k = reduce_axis(ConstExtent(n), "k")
        op = compute("T", [row, col], [ConstExtent(n), ConstExtent(n)],
                     lambda r, c: sum_reduce(
                         L[r, LoopVar(k.dim)] * B[LoopVar(k.dim), c], k))
        lowered = Schedule(op).lower()
        assert estimate_flops(lowered) == 2 * n * n * n
        # Ragged == dense when nothing is ragged.
        assert estimate_flops(lowered) == estimate_dense_flops(lowered)

    def test_variable_reduction_matches_brute_force(self):
        row, col = Dim("row"), Dim("col")
        n = 5
        L = input_tensor("L", [row, Dim("rk")], [ConstExtent(n), ConstExtent(n)])
        B = input_tensor("Bm", [Dim("rk2"), col], [ConstExtent(n), ConstExtent(n)])
        k = reduce_axis(VarExtent(row, np.arange(1, n + 1)), "k")
        op = compute("T", [row, col], [ConstExtent(n), ConstExtent(n)],
                     lambda r, c: sum_reduce(
                         L[r, LoopVar(k.dim)] * B[LoopVar(k.dim), c], k))
        lowered = Schedule(op).lower()
        expected = sum(2 * n * (r + 1) for r in range(n))
        assert estimate_flops(lowered) == expected


class TestBoundTableMismatch:
    def test_short_bound_table_raises(self):
        op, _ = elementwise_op()
        lowered = Schedule(op).lower()
        name = next(n for n in lowered.aux_arrays if n.startswith("len_"))
        lowered.aux_arrays[name] = lowered.aux_arrays[name][:-1]
        with pytest.raises(ExecutionError, match="bound table"):
            estimate_flops(lowered)

    def test_long_bound_table_raises(self):
        op, _ = elementwise_op()
        lowered = Schedule(op).lower()
        name = next(n for n in lowered.aux_arrays if n.startswith("len_"))
        table = lowered.aux_arrays[name]
        lowered.aux_arrays[name] = np.concatenate([table, table[:1]])
        with pytest.raises(ExecutionError, match="bound table"):
            estimate_flops(lowered)

    def test_mismatched_reduction_table_raises(self):
        op, _ = matmul_op(lens=np.array([4, 2, 3]))
        lowered = Schedule(op).lower()
        # Make the (ragged) loop table inconsistent with the outer extent.
        name = next(n for n in lowered.aux_arrays if n.startswith("len_"))
        lowered.aux_arrays[name] = lowered.aux_arrays[name][:1]
        with pytest.raises(ExecutionError):
            estimate_flops(lowered)


class TestPreludeCache:
    def test_fusion_maps_memoized(self):
        cache = PreludeCache()
        lens = np.array([5, 2, 3])
        first = cache.fusion_maps(lens, pad=2)
        second = cache.fusion_maps(lens.copy(), pad=2)
        assert first is second
        assert cache.hits == 1 and cache.misses == 1
        third = cache.fusion_maps(lens, pad=4)
        assert third is not first
        assert cache.misses == 2

    def test_row_offsets_memoized(self):
        cache = PreludeCache()
        lens = [3, 1, 4]
        first = cache.row_offsets(lens, pad=2, inner_factor=8)
        second = cache.row_offsets(list(lens), pad=2, inner_factor=8)
        assert first is second
        assert np.array_equal(
            first, np.cumsum([0] + [((s + 1) // 2) * 2 * 8 for s in lens]))

    def test_transformer_prelude_memoized_per_minibatch(self):
        from repro.models.transformer import (
            clear_prelude_memo,
            encoder_layer_workload,
            prelude_memo_stats,
        )

        clear_prelude_memo()
        lengths = [5, 3, 7]
        encoder_layer_workload(lengths, "cora")
        encoder_layer_workload(lengths, "cora")
        encoder_layer_workload([2, 2], "cora")
        stats = prelude_memo_stats()
        assert stats["misses"] == 2
        assert stats["hits"] == 1


class TestScheduleMemos:
    def test_schedule_memos_bounded_and_exposed(self):
        stats = schedule_memo_stats()
        assert "vgemm.schedule" in stats
        # The SDPA builders share schedules per program graph, never per
        # length bytes process-wide (those memos thrashed under serving).
        assert not any(name.startswith(("attention.", "softmax."))
                       for name in stats)
        for info in stats.values():
            assert info["cap"] == 64
            assert info["size"] <= info["cap"]

    def test_only_bounded_memos_register(self):
        with pytest.raises(TypeError, match="lru_cache"):
            register_schedule_memo("unbounded", lambda lens: lens)

    def test_executor_codegen_stats_include_memos(self):
        stats = Executor(backend="vector").codegen_stats()
        assert "vgemm.schedule" in stats["schedule_memos"]
