"""Planner-level fusion and the persistent AOT cache.

Two claims are proven here, mirroring the fusion issue's acceptance
criteria:

* ``plan_program(fuse=True)`` executes the encoder with far fewer kernel
  dispatches and a smaller arena, **bit-identically** to the unfused
  plan -- over random ragged batches, masked and unmasked, stack depths
  {1, 2, 4}, on the vector backend (zero fused-emission fallbacks) and
  on the scalar backend (grouped fallback).
* With a warm ``Session(disk_cache=...)`` a *fresh process* rebuilds a
  previously-seen (program, signature) pair with ``lower_count == 0``,
  and the cache degrades safely: corrupt entries are misses, callables
  are :class:`Uncacheable` and skip the disk tier, fingerprints are
  stable across independently built schedules.
"""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aotcache import (
    AOTCache,
    Uncacheable,
    kernel_cache_key,
    stable_schedule_fingerprint,
)
from repro.core.codegen import clear_structures
from repro.core.dims import Dim
from repro.core.executor import Executor
from repro.core.extents import ConstExtent, VarExtent
from repro.core.fusion import FusedKernelNode
from repro.core.operator import compute, input_tensor
from repro.core.planner import plan_program
from repro.core.schedule import Schedule
from repro.core.session import Session
from repro.models.config import TransformerConfig
from repro.models.transformer import (
    EncoderWeights,
    build_encoder_program,
    build_encoder_stack_program,
)

SMALL = TransformerConfig(hidden_size=16, num_heads=2, head_size=8, ff_size=32,
                          num_layers=2, loop_pad=4, bulk_pad=8,
                          attention_tile=8)

LENGTHS = (5, 3, 7, 2)


def _tokens(lengths, seed=2, config=SMALL):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(
        (sum(lengths), config.hidden_size)).astype(np.float32)


def _program(lengths, weights, masked, depth):
    if depth == 1:
        return build_encoder_program(lengths, weights, SMALL, masked=masked)
    return build_encoder_stack_program(lengths, weights, SMALL,
                                       masked=masked, n_layers=depth)


def _run_pair(program, tokens, backend="vector"):
    base = Session(backend=backend, executor=Executor(backend=backend))
    fused = Session(backend=backend, executor=Executor(backend=backend),
                    fuse=True)
    out_base = base.run(program, {"tokens": tokens})
    out_fused = fused.run(program, {"tokens": tokens})
    return base, fused, out_base, out_fused


# ---------------------------------------------------------------------------
# The fusion pass and its plan-level effects
# ---------------------------------------------------------------------------


class TestFusionPlan:
    def test_masked_layer_dispatch_reduction_and_arena_shrink(self):
        weights = EncoderWeights.random(SMALL, seed=0)
        program = build_encoder_program(LENGTHS, weights, SMALL, masked=True)
        base, fused, out_base, out_fused = _run_pair(program,
                                                     _tokens(LENGTHS))
        cp_base = base.compiled_program(program)
        cp_fused = fused.compiled_program(program)
        # >= 30% fewer kernel dispatches is the acceptance floor; the
        # masked softmax chain + epilogues actually fuse 7 -> 1.
        assert cp_fused.kernel_dispatches <= 0.7 * cp_base.kernel_dispatches
        assert cp_fused.arena_bytes < cp_base.arena_bytes
        assert len(cp_fused.plan.order) < len(cp_base.plan.order)
        summary = cp_fused.fusion_summary()
        assert summary["regions"] >= 1
        assert summary["dispatches_eliminated"] >= 6
        assert cp_base.fusion_summary() is None
        for k in out_base:
            assert np.array_equal(np.asarray(out_base[k]),
                                  np.asarray(out_fused[k]))

    def test_zero_vector_fallbacks_on_fused_chains(self):
        weights = EncoderWeights.random(SMALL, seed=0)
        for masked in (False, True):
            program = build_encoder_program(LENGTHS, weights, SMALL,
                                            masked=masked)
            _, fused, _, _ = _run_pair(program, _tokens(LENGTHS))
            stats = fused.executor.codegen_stats()
            assert stats["fused_regions"] >= 1
            assert stats["fused_fallbacks"] == 0, \
                stats["fused_fallback_reasons"]

    def test_unfused_plan_is_default_and_unchanged(self):
        weights = EncoderWeights.random(SMALL, seed=0)
        program = build_encoder_program(LENGTHS, weights, SMALL, masked=True)
        plan = plan_program(program)
        assert plan.fused_program is None
        fused_plan = plan_program(program, fuse=True)
        assert fused_plan.fused_program is not None
        assert any(isinstance(n, FusedKernelNode)
                   for n in fused_plan.fused_program.nodes)
        assert fused_plan.fusion.regions >= 1

    def test_compiled_stats_report_fusion_counters(self):
        weights = EncoderWeights.random(SMALL, seed=0)
        program = build_encoder_program(LENGTHS, weights, SMALL, masked=True)
        _, fused, _, _ = _run_pair(program, _tokens(LENGTHS))
        stats = fused.compiled_program(program).stats()
        assert stats["fused_kernels"] >= 1
        assert stats["kernel_dispatches"] == \
            fused.compiled_program(program).kernel_dispatches
        session_stats = fused.stats()
        assert session_stats["fuse"] is True


# ---------------------------------------------------------------------------
# Differential: fused == unfused bit for bit
# ---------------------------------------------------------------------------


class TestFusedDifferential:
    @settings(max_examples=15, deadline=None)
    @given(lengths=st.lists(st.integers(min_value=1, max_value=10),
                            min_size=1, max_size=5),
           masked=st.booleans(),
           depth=st.sampled_from([1, 2, 4]))
    def test_fused_bit_identical_over_random_batches(self, lengths, masked,
                                                     depth):
        lengths = tuple(lengths)
        weights = EncoderWeights.random(SMALL, seed=7)
        program = _program(lengths, weights, masked, depth)
        _, fused, out_base, out_fused = _run_pair(
            program, _tokens(lengths, seed=9))
        assert set(out_base) == set(out_fused)
        for k in out_base:
            assert np.array_equal(np.asarray(out_base[k]),
                                  np.asarray(out_fused[k])), (
                lengths, masked, depth, k)
        assert fused.executor.codegen_stats()["fused_fallbacks"] == 0

    def test_inplace_fused_bit_identical(self):
        weights = EncoderWeights.random(SMALL, seed=0)
        program = build_encoder_program(LENGTHS, weights, SMALL, masked=True)
        tokens = _tokens(LENGTHS)
        ref = Session(backend="vector", executor=Executor(backend="vector"))
        ip = Session(backend="vector", executor=Executor(backend="vector"),
                     fuse=True, inplace=True)
        out_ref = ref.run(program, {"tokens": tokens})
        out_ip = ip.run(program, {"tokens": tokens})
        for k in out_ref:
            assert np.array_equal(np.asarray(out_ref[k]),
                                  np.asarray(out_ip[k]))

    def test_scalar_backend_uses_grouped_fallback_bit_identically(self):
        weights = EncoderWeights.random(SMALL, seed=0)
        program = build_encoder_program(LENGTHS, weights, SMALL, masked=True)
        tokens = _tokens(LENGTHS)
        _, fused, out_base, out_fused = _run_pair(program, tokens,
                                                  backend="scalar")
        stats = fused.executor.codegen_stats()
        assert stats["fused_fallbacks"] >= 1
        for k in out_base:
            assert np.array_equal(np.asarray(out_base[k]),
                                  np.asarray(out_fused[k]))


# ---------------------------------------------------------------------------
# Persistent AOT cache
# ---------------------------------------------------------------------------


class TestAOTCache:
    def test_second_session_compiles_with_zero_lowers(self, tmp_path):
        weights = EncoderWeights.random(SMALL, seed=0)
        tokens = _tokens(LENGTHS)
        s1 = Session(backend="vector", disk_cache=str(tmp_path), fuse=True)
        program = build_encoder_program(LENGTHS, weights, SMALL, masked=True)
        out1 = s1.run(program, {"tokens": tokens}, signature=LENGTHS)
        assert s1.executor.lower_count > 0
        st1 = s1.stats()
        assert st1["cold_compiles"] == 1 and st1["disk_hits"] == 0
        assert st1["signature_misses"] == 1

        # A brand-new session + private executor + *independently built*
        # program over an emptied process-wide kernel table: everything
        # in-memory is cold, only the disk is warm.
        clear_structures()
        s2 = Session(backend="vector", disk_cache=str(tmp_path), fuse=True)
        program2 = build_encoder_program(LENGTHS, weights, SMALL, masked=True)
        out2 = s2.run(program2, {"tokens": tokens}, signature=LENGTHS)
        assert s2.executor.lower_count == 0
        st2 = s2.stats()
        assert st2["cold_compiles"] == 0 and st2["disk_hits"] == 1
        # a disk-served compile counts as a signature HIT, not a miss
        assert st2["signature_hits"] == 1 and st2["signature_misses"] == 0
        for k in out1:
            assert np.array_equal(np.asarray(out1[k]), np.asarray(out2[k]))

    def test_corrupt_entries_degrade_to_misses(self, tmp_path):
        weights = EncoderWeights.random(SMALL, seed=0)
        tokens = _tokens(LENGTHS)
        s1 = Session(backend="vector", disk_cache=str(tmp_path))
        program = build_encoder_program(LENGTHS, weights, SMALL, masked=True)
        out1 = s1.run(program, {"tokens": tokens})
        entries = list(tmp_path.glob("kernels/*/*.pkl"))
        assert entries
        for i, path in enumerate(entries):
            # truncation and garbage, the two real-world corruption modes
            path.write_bytes(b"" if i % 2 == 0 else b"\x80garbage")
        clear_structures()      # a fresh process: the disk tier is asked
        s2 = Session(backend="vector", disk_cache=str(tmp_path))
        out2 = s2.run(build_encoder_program(LENGTHS, weights, SMALL,
                                            masked=True), {"tokens": tokens})
        assert s2.executor.lower_count > 0  # recompiled, no crash
        assert s2.executor.disk_cache.misses >= len(entries)
        for k in out1:
            assert np.array_equal(np.asarray(out1[k]), np.asarray(out2[k]))

    def test_callable_extents_are_uncacheable_but_still_compile(self, tmp_path):
        batch, seq = Dim("batch"), Dim("seq")
        table = np.array([5, 2, 3])
        A = input_tensor("A", [batch, seq],
                         [ConstExtent(3), VarExtent(batch, lambda i: table[i])])
        op = compute("B", [batch, seq],
                     [ConstExtent(3), VarExtent(batch, lambda i: table[i])],
                     lambda o, i: 2.0 * A[o, i])
        with pytest.raises(Uncacheable):
            stable_schedule_fingerprint(Schedule(op))
        executor = Executor(backend="vector", disk_cache=str(tmp_path))
        executor.compile(Schedule(op))  # skips the disk tier, no error
        assert executor.disk_cache.stores == 0
        assert executor.lower_count == 1

    def test_fingerprint_stable_across_independent_builds(self):
        def build():
            batch, seq = Dim("batch"), Dim("seq")
            A = input_tensor("A", [batch, seq],
                             [ConstExtent(3), VarExtent(batch, [5, 2, 3])])
            op = compute("B", [batch, seq],
                         [ConstExtent(3), VarExtent(batch, [5, 2, 3])],
                         lambda o, i: 2.0 * A[o, i])
            return Schedule(op)

        key_a = kernel_cache_key(build(), None, "vector")
        key_b = kernel_cache_key(build(), None, "vector")
        assert key_a == key_b  # Dim identities canonicalised away
        assert kernel_cache_key(build(), None, "scalar") != key_a
        padded = build()
        padded.pad_dimension(padded.operator.dims[1], 4)
        assert kernel_cache_key(padded, None, "vector") != key_a

    def test_store_failures_never_raise(self, tmp_path):
        cache = AOTCache(tmp_path / "not-writable" / "x")
        os.makedirs(tmp_path / "not-writable", mode=0o500, exist_ok=True)
        executor = Executor(backend="vector", disk_cache=cache)
        batch, seq = Dim("batch"), Dim("seq")
        A = input_tensor("A", [batch, seq],
                         [ConstExtent(3), VarExtent(batch, [5, 2, 3])])
        op = compute("B", [batch, seq],
                     [ConstExtent(3), VarExtent(batch, [5, 2, 3])],
                     lambda o, i: 2.0 * A[o, i])
        executor.compile(Schedule(op))  # store fails silently
        if os.getuid() != 0:  # root ignores mode bits; only assert non-root
            assert cache.store_failures >= 1


# ---------------------------------------------------------------------------
# Cross-process: a fresh interpreter with a warm cache lowers nothing
# ---------------------------------------------------------------------------


_CHILD = textwrap.dedent("""
    import sys
    import numpy as np
    from repro.core.session import Session
    from repro.models.config import TransformerConfig
    from repro.models.transformer import EncoderWeights, build_encoder_program

    cfg = TransformerConfig(hidden_size=16, num_heads=2, head_size=8,
                            ff_size=32, num_layers=2, loop_pad=4, bulk_pad=8,
                            attention_tile=8)
    lengths = tuple(int(n) for n in sys.argv[3].split(","))
    w = EncoderWeights.random(cfg, seed=0)
    program = build_encoder_program(lengths, w, cfg, masked=True)
    session = Session(backend="vector", disk_cache=sys.argv[1], fuse=True)
    rng = np.random.default_rng(2)
    tokens = rng.standard_normal((sum(lengths), cfg.hidden_size)) \\
        .astype(np.float32)
    out = session.run(program, {"tokens": tokens}, signature=lengths)
    print("LOWERS", session.executor.lower_count)
    # (fused regions are emitted per process: only kernels are persisted)
    print("GENERATED", session.executor.structures_generated
          - session.executor.fused_regions)
    np.save(sys.argv[2], np.asarray(out["out_tokens"]))
""")


class TestCrossProcessWarmCache:
    def test_fresh_process_lowers_zero_kernels(self, tmp_path):
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        def child(cache, lengths, tag):
            out_npy = tmp_path / f"out-{tag}.npy"
            result = subprocess.run(
                [sys.executable, "-c", _CHILD, str(tmp_path / cache),
                 str(out_npy), ",".join(map(str, lengths))],
                env=env, capture_output=True, text=True, timeout=120)
            assert result.returncode == 0, result.stderr
            counts = dict(ln.split() for ln in result.stdout.splitlines()
                          if ln.startswith(("LOWERS ", "GENERATED ")))
            return (int(counts["LOWERS"]), int(counts["GENERATED"]),
                    np.load(out_npy))

        seen, never_seen = (5, 3, 7, 2), (4, 9, 1, 6, 6)
        cold = child("cache", seen, "cold")
        warm = child("cache", seen, "warm")
        assert cold[0] > 0 and cold[1] > 0  # cold process really compiled
        assert warm[:2] == (0, 0)  # warm process served fully from disk
        assert np.array_equal(cold[2], warm[2])
        # The disk holds kernel *structures*: a length set no process ever
        # stored (another batch size, even) is served from it too, and
        # computes what a from-scratch compile of it computes.
        other = child("cache", never_seen, "other")
        scratch = child("empty-cache", never_seen, "scratch")
        assert other[:2] == (0, 0) and scratch[1] > 0
        assert np.array_equal(other[2], scratch[2])


# ---------------------------------------------------------------------------
# Serving + engine integration
# ---------------------------------------------------------------------------


class TestFusionIntegration:
    def test_scheduler_surfaces_fusion_stats_per_signature(self):
        from repro.serving.scheduler import BatchScheduler

        weights = EncoderWeights.random(SMALL, seed=3)
        session = Session(backend="vector",
                          executor=Executor(backend="vector"), fuse=True)
        scheduler = BatchScheduler(weights, SMALL, session=session,
                                   masked=True, n_layers=2, max_batch_size=4,
                                   bucket_tolerance=2)
        rng = np.random.default_rng(5)
        for n in (5, 3, 7, 2, 6, 4):
            scheduler.submit(rng.standard_normal(
                (n, SMALL.hidden_size)).astype(np.float32))
        scheduler.drain()
        stats = scheduler.stats(include_fusion=True)
        assert stats["fuse"] is True
        assert stats["fusion_by_signature"]
        for info in stats["fusion_by_signature"].values():
            assert info["fusion"]["regions"] >= 1
            assert info["kernel_dispatches"] < info["fusion"]["nodes_fused"]

    def test_process_pool_runs_fused_programs_bit_identically(self, tmp_path):
        from repro.core.engine import ProcessPoolEngine
        from repro.models.transformer import encoder_stack_program

        weights = EncoderWeights.random(SMALL, seed=3)
        tokens = _tokens(LENGTHS, seed=11)
        engine = ProcessPoolEngine(max_workers=2)
        try:
            ref = Session(backend="vector", engine="serial")
            p_ref = encoder_stack_program(LENGTHS, weights, SMALL,
                                          masked=True, n_layers=2,
                                          session=ref)
            out_ref = ref.run(p_ref, {"tokens": tokens})

            fused = Session(backend="vector", engine=engine, fuse=True,
                            disk_cache=str(tmp_path))
            p_fused = encoder_stack_program(LENGTHS, weights, SMALL,
                                            masked=True, n_layers=2,
                                            session=fused)
            for _ in range(2):  # install + warm re-run
                out_fused = fused.run(p_fused, {"tokens": tokens})
                for k in out_ref:
                    assert np.array_equal(np.asarray(out_ref[k]),
                                          np.asarray(out_fused[k]))
            ref.close()
            fused.close()
        finally:
            engine.close()
