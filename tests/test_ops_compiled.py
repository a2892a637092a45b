"""Differential tests for the executor-backed (compiled) operator library.

Every op that gains a vector backend is checked against (a) its numeric
reference implementation and (b) the scalar backend, on random ragged
batches, under both backends.
"""

import numpy as np
import pytest

from repro.core.executor import Executor
from repro.models.config import TransformerConfig
from repro.ops.attention import (
    attnv_compiled,
    attnv_slices,
    qkt_compiled,
    qkt_slices,
    sdpa_compiled,
    sdpa_slices,
    random_qkv,
)
from repro.ops.softmax import softmax_compiled, softmax_slices
from repro.ops.trmm import make_lower_triangular, trmm_compiled, trmm_reference
from repro.ops.vgemm import (
    VgemmProblem,
    random_instances,
    vgemm_compiled,
    vgemm_reference,
)

BACKENDS = ("scalar", "vector")

SMALL_CONFIG = TransformerConfig(hidden_size=8, num_heads=2, head_size=4,
                                 ff_size=16, num_layers=2)


def _allclose_lists(xs, ys, atol=1e-3):
    return all(np.allclose(x, y, atol=atol, rtol=1e-4) for x, y in zip(xs, ys))


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


class TestVgemmCompiled:
    def test_matches_reference(self, backend):
        problem = VgemmProblem(ms=np.array([5, 3, 7, 2]),
                               ns=np.array([4, 6, 2, 5]),
                               ks=np.array([3, 5, 4, 6]))
        a_list, b_list = random_instances(problem, seed=1)
        outs, report = vgemm_compiled(a_list, b_list, backend=backend)
        assert _allclose_lists(outs, vgemm_reference(a_list, b_list))
        assert report.flops == pytest.approx(problem.ragged_flops())

    def test_scalar_and_vector_agree(self):
        problem = VgemmProblem(ms=np.array([4, 2]), ns=np.array([3, 5]),
                               ks=np.array([2, 4]))
        a_list, b_list = random_instances(problem, seed=2)
        scalar, _ = vgemm_compiled(a_list, b_list, backend="scalar")
        vector, _ = vgemm_compiled(a_list, b_list, backend="vector")
        assert _allclose_lists(scalar, vector, atol=1e-5)


class TestTrmmCompiled:
    def test_matches_reference(self, backend):
        n = 9
        lower = make_lower_triangular(n, seed=1)
        dense = np.random.default_rng(2).standard_normal((n, n)).astype(np.float32)
        out, report = trmm_compiled(lower, dense, backend=backend)
        assert np.allclose(out, trmm_reference(lower, dense), atol=1e-3)
        # Triangular flops: row r reduces over r + 1 columns.
        assert report.flops == sum(2 * n * (r + 1) for r in range(n))

    def test_scalar_and_vector_agree(self):
        n = 7
        lower = make_lower_triangular(n, seed=3)
        dense = np.random.default_rng(4).standard_normal((n, n)).astype(np.float32)
        scalar, _ = trmm_compiled(lower, dense, backend="scalar")
        vector, _ = trmm_compiled(lower, dense, backend="vector")
        assert np.allclose(scalar, vector, atol=1e-5)


class TestSoftmaxCompiled:
    def test_matches_reference(self, backend):
        rng = np.random.default_rng(5)
        scores = [rng.standard_normal((2, s, s)).astype(np.float32)
                  for s in (5, 2, 4)]
        probs, reports = softmax_compiled(scores, backend=backend)
        assert _allclose_lists(probs, softmax_slices(scores), atol=1e-4)
        assert len(reports) == 4
        for p in probs:
            assert np.allclose(p.sum(axis=-1), 1.0, atol=1e-4)

    def test_scalar_and_vector_agree(self):
        rng = np.random.default_rng(6)
        scores = [rng.standard_normal((3, s, s)).astype(np.float32)
                  for s in (4, 3)]
        scalar, _ = softmax_compiled(scores, backend="scalar")
        vector, _ = softmax_compiled(scores, backend="vector")
        assert _allclose_lists(scalar, vector, atol=1e-5)

    def test_zero_length_sequence(self, backend):
        """A batch containing an empty sequence must not crash (the prelude
        records a (heads, 0, 0) slice shape the slice views must honour)."""
        rng = np.random.default_rng(8)
        scores = [rng.standard_normal((2, 3, 3)).astype(np.float32),
                  np.zeros((2, 0, 0), dtype=np.float32)]
        probs, _ = softmax_compiled(scores, backend=backend)
        assert probs[1].shape == (2, 0, 0)
        assert _allclose_lists(probs[:1], softmax_slices(scores[:1]), atol=1e-4)


class TestAttentionCompiled:
    def _qkv(self, lengths=(5, 3, 4)):
        return random_qkv(list(lengths), config=SMALL_CONFIG, seed=7)

    def test_qkt_matches_reference(self, backend):
        qkv = self._qkv()
        scores, _ = qkt_compiled(qkv["q"], qkv["k"], scale=0.5, backend=backend)
        refs = qkt_slices(qkv["q"], qkv["k"], scale=0.5)
        assert _allclose_lists(scores, refs)

    def test_attnv_matches_reference(self, backend):
        qkv = self._qkv()
        attn = qkt_slices(qkv["q"], qkv["k"], scale=0.5)
        out, _ = attnv_compiled(attn, qkv["v"], backend=backend)
        refs = attnv_slices(attn, qkv["v"])
        assert _allclose_lists(out, refs)

    def test_sdpa_chain_matches_reference(self, backend):
        qkv = self._qkv((4, 2, 3))
        out = sdpa_compiled(qkv["q"], qkv["k"], qkv["v"],
                            head_size=SMALL_CONFIG.head_size, backend=backend)
        refs = sdpa_slices(qkv["q"], qkv["k"], qkv["v"],
                           head_size=SMALL_CONFIG.head_size)
        assert _allclose_lists(out, refs)

    def test_sdpa_kernels_all_vectorize(self):
        qkv = self._qkv((4, 2))
        executor = Executor(backend="vector")
        sdpa_compiled(qkv["q"], qkv["k"], qkv["v"],
                      head_size=SMALL_CONFIG.head_size, executor=executor)
        assert executor.fallback_count == 0
        assert executor.vectorized_count == 6  # qkt + 4 softmax + attnv
        assert executor.codegen_stats()["fallback_reasons"] == {}

    def test_masked_sdpa_matches_reference(self, backend):
        qkv = self._qkv((5, 2, 4))
        out = sdpa_compiled(qkv["q"], qkv["k"], qkv["v"],
                            head_size=SMALL_CONFIG.head_size, backend=backend,
                            masked=True)
        refs = sdpa_slices(qkv["q"], qkv["k"], qkv["v"],
                           head_size=SMALL_CONFIG.head_size, masked=True)
        assert _allclose_lists(out, refs)

    def test_masked_sdpa_kernels_all_vectorize(self):
        """Acceptance: zero fallbacks on the masked encoder SDPA chain."""
        qkv = self._qkv((5, 3))
        executor = Executor(backend="vector")
        sdpa_compiled(qkv["q"], qkv["k"], qkv["v"],
                      head_size=SMALL_CONFIG.head_size, executor=executor,
                      masked=True)
        assert executor.fallback_count == 0
        # qkt + mask + 4 softmax + attnv
        assert executor.vectorized_count == 7

    @pytest.mark.parametrize("lengths", [(17, 3, 9, 1), (6, 6, 6), (11,)],
                             ids=["skewed", "uniform", "one"])
    @pytest.mark.parametrize("remap", [False, True])
    @pytest.mark.parametrize("tile", [2, 4, 8, 16])
    def test_split_attnv_matches_plain(self, tile, remap, lengths):
        """Splitting the query rows (and remapping the governing loop)
        reorders no arithmetic: every point is bit-identical to the
        unsplit kernel."""
        from repro.ops.attention import attnv_split_compiled

        qkv = self._qkv(lengths)
        attn = qkt_slices(qkv["q"], qkv["k"], scale=0.5)
        plain, _ = attnv_compiled(attn, qkv["v"],
                                  executor=Executor(backend="vector"))
        assert _allclose_lists(plain, attnv_slices(attn, qkv["v"]))
        executor = Executor(backend="vector")
        out, _ = attnv_split_compiled(attn, qkv["v"], tile=tile,
                                      executor=executor, remap=remap)
        assert all(np.array_equal(a, b) for a, b in zip(out, plain))
        assert executor.fallback_count == 0

    def test_split_attnv_scalar_and_vector_agree(self):
        from repro.ops.attention import attnv_split_compiled

        qkv = self._qkv((5, 2, 3))
        attn = qkt_slices(qkv["q"], qkv["k"], scale=0.5)
        scalar, _ = attnv_split_compiled(attn, qkv["v"], tile=4,
                                         backend="scalar")
        vector, _ = attnv_split_compiled(attn, qkv["v"], tile=4,
                                         backend="vector")
        assert _allclose_lists(scalar, vector, atol=1e-5)


class TestEncoderLayerBackend:
    def test_compiled_attention_matches_numeric(self):
        from repro.models.transformer import (
            EncoderWeights,
            run_encoder_layer_numeric,
            run_encoder_layer_opbyop,
        )

        weights = EncoderWeights.random(SMALL_CONFIG, seed=0)
        rng = np.random.default_rng(1)
        hidden = [rng.standard_normal((s, SMALL_CONFIG.hidden_size))
                  .astype(np.float32) for s in (5, 3, 4)]
        # The pure-NumPy op-by-op path stays the differential oracle; the
        # session-backed path is compared against it for both backends.
        ref = run_encoder_layer_opbyop(hidden, weights, SMALL_CONFIG)
        for backend in BACKENDS:
            got = run_encoder_layer_numeric(hidden, weights, SMALL_CONFIG,
                                            backend=backend)
            assert _allclose_lists(got.hidden, ref.hidden)

    def test_masked_encoder_layer_matches_numeric(self):
        """run_encoder_layer_numeric(masked=True, backend=...) end to end."""
        from repro.models.transformer import (
            EncoderWeights,
            run_encoder_layer_numeric,
            run_encoder_layer_opbyop,
        )

        weights = EncoderWeights.random(SMALL_CONFIG, seed=0)
        rng = np.random.default_rng(2)
        hidden = [rng.standard_normal((s, SMALL_CONFIG.hidden_size))
                  .astype(np.float32) for s in (5, 3, 4)]
        ref = run_encoder_layer_opbyop(hidden, weights, SMALL_CONFIG,
                                       masked=True)
        for backend in BACKENDS:
            got = run_encoder_layer_numeric(hidden, weights, SMALL_CONFIG,
                                            masked=True, backend=backend)
            assert _allclose_lists(got.hidden, ref.hidden)

    def test_masked_encoder_layer_zero_fallbacks(self):
        from repro.models.transformer import (
            EncoderWeights,
            run_encoder_layer_numeric,
        )

        weights = EncoderWeights.random(SMALL_CONFIG, seed=0)
        rng = np.random.default_rng(3)
        hidden = [rng.standard_normal((s, SMALL_CONFIG.hidden_size))
                  .astype(np.float32) for s in (4, 2)]
        executor = Executor(backend="vector")
        run_encoder_layer_numeric(hidden, weights, SMALL_CONFIG, masked=True,
                                  executor=executor)
        stats = executor.codegen_stats()
        assert stats["fallbacks"] == 0, stats["fallback_reasons"]
        assert stats["vectorized"] == 7
