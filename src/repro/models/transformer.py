"""The transformer encoder layer and MHA module, under every execution
strategy compared in the paper.

Strategies (Figure 3, Sections 7.2 and D.8):

* ``"cora"``   -- CoRa's fully compiler-generated implementation: 9 kernels,
  minimal padding everywhere (bulk padding for the fused linear operators,
  small per-sequence padding for the SDPA operators), every padding-change
  operator fused away.
* ``"ft-eff"`` -- FasterTransformer with the EffectiveTransformer
  optimisation: 12 kernels, minimal padding for the linear operators but
  *full* padding inside SDPA, explicit padding-change kernels, cuBLAS gemms.
* ``"ft"``     -- FasterTransformer without that optimisation: full padding
  everywhere.
* ``"pytorch"``-- a framework execution: full padding, one kernel per
  framework operator, per-operator dispatch overhead.
* ``"tf"`` / ``"tf-ub"`` / ``"pt"`` / ``"pt-ub"`` -- the TensorFlow /
  PyTorch CPU configurations of Tables 5 and 9 (``-ub`` = micro-batched
  execution, implemented in :mod:`repro.baselines.microbatch`).

Each builder returns a :class:`~repro.substrates.costmodel.Workload`; the
benchmark harness evaluates it on a simulated device.  A numeric
(small-scale) forward pass is also provided for correctness testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.extents import ceil_to
from repro.core.prelude import PreludeBuilder, bulk_pad_lengths
from repro.core.program import Program
from repro.core.session import Session, default_session
from repro.core.storage import RaggedLayout
from repro.models.config import PAPER_BASE_CONFIG, TransformerConfig
from repro.ops.attention import (
    attn_merge_node,
    attnv_launch,
    qkt_launch,
    qkv_split_node,
    sdpa_nodes,
    sdpa_slices,
)
from repro.ops.elementwise import (
    add_node,
    elementwise_launch,
    padding_change_launch,
    relu_node,
)
from repro.ops.layernorm import (
    layernorm_flat,
    layernorm_launch,
    layernorm_node,
    layernorm_slices,
)
from repro.ops.projection import (
    linear_node,
    linear_packed,
    pack_tokens,
    projection_launch,
    unpack_tokens,
)
from repro.ops.softmax import RaggedBatch, _mask_width, softmax_launch
from repro.substrates.costmodel import KernelLaunch, Workload


# ---------------------------------------------------------------------------
# Workload builders
# ---------------------------------------------------------------------------


#: The per-mini-batch prelude memo (paper insight I1: raggedness is known
#: up front and shared across all layers, so the aux arrays are built once
#: per mini-batch, not per kernel) now lives on the
#: :class:`~repro.core.session.Session` -- ``session.prelude_memo`` /
#: ``session.prelude_cache`` / ``session.prelude_memo_stats`` -- so tests
#: and long-running processes can clear it deterministically through
#: ``Session.reset()``.  The module-level helpers below are thin
#: deprecated shims over the process-wide default session.


def prelude_memo_stats() -> Dict[str, int]:
    """Hit/miss counters of the per-mini-batch prelude memo (for tests).

    .. deprecated:: use ``default_session().prelude_memo_stats``.
    """
    return dict(default_session().prelude_memo_stats)


def clear_prelude_memo() -> None:
    """Clear the default session's prelude memo and cache.

    .. deprecated:: use ``default_session().reset()`` (which also clears
       the compiled-program and kernel caches) for full determinism.
    """
    session = default_session()
    session.prelude_memo.clear()
    session.prelude_memo_stats["hits"] = 0
    session.prelude_memo_stats["misses"] = 0
    session.prelude_cache.clear()


def _shared_prelude_cache():
    """Deprecated shim: the default session's :class:`PreludeCache`."""
    return default_session().prelude_cache


def _prelude_overheads(lengths: np.ndarray, config: TransformerConfig,
                       on_gpu: bool,
                       session: Optional[Session] = None) -> Dict[str, float]:
    """Prelude time and auxiliary bytes for one mini-batch (shared across layers)."""
    session = session or default_session()
    key = (tuple(int(s) for s in lengths), config.hidden_size,
           config.num_heads, config.loop_pad, bool(on_gpu))
    cached = session.prelude_memo.get(key)
    if cached is not None:
        session.prelude_memo_stats["hits"] += 1
        return dict(cached)
    session.prelude_memo_stats["misses"] += 1
    result = _build_prelude_overheads(lengths, config, on_gpu, session=session)
    session.prelude_memo.put(key, result)
    return dict(result)


def _build_prelude_overheads(lengths: np.ndarray, config: TransformerConfig,
                             on_gpu: bool,
                             session: Optional[Session] = None) -> Dict[str, float]:
    from repro.core.dims import Dim
    from repro.core.extents import ConstExtent, VarExtent

    batch = Dim("batch")
    seq = Dim("seq")
    layouts = {
        "hidden": RaggedLayout(
            [batch, seq, Dim("h")],
            [ConstExtent(lengths.size), VarExtent(batch, lengths),
             ConstExtent(config.hidden_size)],
        ),
        "attn": RaggedLayout(
            [batch, seq, Dim("heads"), Dim("seq2")],
            [ConstExtent(lengths.size),
             VarExtent(batch, ceil_to(lengths, config.loop_pad)),
             ConstExtent(config.num_heads), ConstExtent(1)],
        ),
    }
    cache = (session or default_session()).prelude_cache
    builder = PreludeBuilder(cache=cache)
    result = builder.build(
        layouts,
        fused_loops={"tokens": (lengths, 1)},
        copy_to_device=on_gpu,
    )
    return {
        "time_s": result.storage_time_s + result.fusion_time_s,
        "bytes": float(result.total_memory_bytes),
    }


def _cora_encoder_kernels(lengths: np.ndarray, config: TransformerConfig,
                          impl_class: str = "compiler",
                          fuse_pad_change: bool = True) -> List[KernelLaunch]:
    """The 9 compiler-generated kernels of CoRa's encoder layer (Figure 3)."""
    h, f = config.hidden_size, config.ff_size
    sdpa_lengths = ceil_to(lengths, config.loop_pad)
    kernels = [
        projection_launch(lengths, h, 3 * h, name="Proj1",
                          impl_class=impl_class, bulk_pad=config.bulk_pad,
                          fused_epilogue_flops_per_token=3 * h),
        qkt_launch(sdpa_lengths, config, impl_class=impl_class),
        softmax_launch(sdpa_lengths, config.num_heads, impl_class=impl_class,
                       name="Softmax"),
        attnv_launch(sdpa_lengths, config, impl_class=impl_class),
        projection_launch(lengths, h, h, name="Proj2", impl_class=impl_class,
                          bulk_pad=config.bulk_pad,
                          fused_epilogue_flops_per_token=2 * h),
        layernorm_launch(float(lengths.sum()), h, impl_class=impl_class,
                         name="LayerNorm1"),
        projection_launch(lengths, h, f, name="FF1", impl_class=impl_class,
                          bulk_pad=config.bulk_pad,
                          fused_epilogue_flops_per_token=2 * f),
        projection_launch(lengths, f, h, name="FF2", impl_class=impl_class,
                          bulk_pad=config.bulk_pad,
                          fused_epilogue_flops_per_token=2 * h),
        layernorm_launch(float(lengths.sum()), h, impl_class=impl_class,
                         name="LayerNorm2"),
    ]
    if not fuse_pad_change:
        # Without fusing the padding-change operators, CoRa would need the
        # same explicit AddPad / ChangePad / RemovePad kernels as
        # FasterTransformer (Figure 12 quantifies the benefit of fusing them).
        tokens = float(lengths.sum())
        pad_tokens = float(ceil_to(lengths, config.loop_pad).sum())
        kernels.insert(1, padding_change_launch(
            "AddPad", pad_tokens * config.hidden_size, impl_class=impl_class))
        kernels.insert(3, padding_change_launch(
            "ChangePad", float((config.num_heads * ceil_to(lengths, config.loop_pad) ** 2).sum()),
            impl_class=impl_class))
        kernels.insert(6, padding_change_launch(
            "RemovePad", tokens * config.hidden_size, impl_class=impl_class))
    return kernels


def _ft_encoder_kernels(lengths: np.ndarray, config: TransformerConfig,
                        effective: bool) -> List[KernelLaunch]:
    """FasterTransformer's 12-kernel encoder layer (FT-Eff when ``effective``)."""
    h, f = config.hidden_size, config.ff_size
    s = lengths
    max_len = int(s.max())
    full = np.full_like(s, max_len)
    linear_lengths = s if effective else full
    tokens = float(linear_lengths.sum())
    padded_tokens = float(full.sum())
    kernels = [
        projection_launch(linear_lengths, h, 3 * h, name="QKV Proj.MM",
                          impl_class="vendor", bulk_pad=1,
                          fully_padded=not effective),
        elementwise_launch("QKV Bias + AddPad", padded_tokens * 3 * h,
                           ops_per_element=1.0, impl_class="handopt"),
        qkt_launch(s, config, impl_class="vendor", pad_to=max_len),
        softmax_launch(full, config.num_heads, impl_class="handopt",
                       name="Softmax"),
        attnv_launch(s, config, impl_class="vendor", pad_to=max_len),
        padding_change_launch("Transpose + RemovePad", padded_tokens * h,
                              impl_class="handopt"),
        projection_launch(linear_lengths, h, h, name="Lin.Proj. MM",
                          impl_class="vendor", bulk_pad=1,
                          fully_padded=not effective),
        elementwise_launch("Bias+ResidualAdd+LayerNorm", tokens * h,
                           ops_per_element=12.0, impl_class="handopt"),
        projection_launch(linear_lengths, h, f, name="FF1 MM",
                          impl_class="vendor", bulk_pad=1,
                          fully_padded=not effective),
        elementwise_launch("FF1 Bias+Act.", tokens * f, ops_per_element=6.0,
                           impl_class="handopt"),
        projection_launch(linear_lengths, f, h, name="FF2 MM",
                          impl_class="vendor", bulk_pad=1,
                          fully_padded=not effective),
        elementwise_launch("FF2 Bias+ResidualAdd+LayerNorm", tokens * h,
                           ops_per_element=12.0, impl_class="handopt"),
    ]
    return kernels


def _framework_encoder_kernels(lengths: np.ndarray, config: TransformerConfig,
                               ) -> List[KernelLaunch]:
    """A framework (PyTorch / TensorFlow) execution: fully padded, unfused."""
    h, f = config.hidden_size, config.ff_size
    s = lengths
    max_len = int(s.max())
    full = np.full_like(s, max_len)
    padded_tokens = float(full.sum())
    kernels = [
        projection_launch(full, h, 3 * h, name="QKV Proj", impl_class="vendor",
                          bulk_pad=1, fully_padded=True),
        elementwise_launch("QKV Bias", padded_tokens * 3 * h,
                           impl_class="framework"),
        qkt_launch(s, config, impl_class="vendor", pad_to=max_len),
        softmax_launch(full, config.num_heads, impl_class="framework",
                       name="Masked Softmax"),
        attnv_launch(s, config, impl_class="vendor", pad_to=max_len),
        elementwise_launch("Transpose", padded_tokens * h, impl_class="framework"),
        projection_launch(full, h, h, name="Output Proj", impl_class="vendor",
                          bulk_pad=1, fully_padded=True),
        elementwise_launch("Bias+Residual", padded_tokens * h,
                           ops_per_element=2.0, impl_class="framework"),
        layernorm_launch(padded_tokens, h, impl_class="framework",
                         name="LayerNorm1"),
        projection_launch(full, h, f, name="FF1", impl_class="vendor",
                          bulk_pad=1, fully_padded=True),
        elementwise_launch("FF1 Bias+Act", padded_tokens * f,
                           ops_per_element=6.0, impl_class="framework"),
        projection_launch(full, f, h, name="FF2", impl_class="vendor",
                          bulk_pad=1, fully_padded=True),
        elementwise_launch("FF2 Bias+Residual", padded_tokens * h,
                           ops_per_element=2.0, impl_class="framework"),
        layernorm_launch(padded_tokens, h, impl_class="framework",
                         name="LayerNorm2"),
    ]
    return kernels


def encoder_layer_workload(
    lengths: Sequence[int],
    strategy: str,
    config: TransformerConfig = PAPER_BASE_CONFIG,
    on_gpu: bool = True,
    num_layers: Optional[int] = None,
    fuse_pad_change: bool = True,
) -> Workload:
    """Build the workload of *one* encoder layer under a given strategy.

    CoRa's per-layer prelude overhead is amortised over ``num_layers``
    (defaults to the model's layer count), matching Table 4's accounting.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    num_layers = num_layers or config.num_layers
    strategy = strategy.lower()
    if strategy == "cora":
        kernels = _cora_encoder_kernels(lengths, config,
                                        fuse_pad_change=fuse_pad_change)
        prelude = _prelude_overheads(lengths, config, on_gpu)
        return Workload(
            name="CoRa", kernels=kernels,
            h2d_bytes=prelude["bytes"] / num_layers,
            prelude_time_s=prelude["time_s"] / num_layers,
        )
    if strategy in ("ft", "ft-eff", "fteff"):
        effective = strategy != "ft"
        kernels = _ft_encoder_kernels(lengths, config, effective=effective)
        return Workload(name="FT-Eff" if effective else "FT", kernels=kernels)
    if strategy in ("pytorch", "tf", "framework"):
        kernels = _framework_encoder_kernels(lengths, config)
        return Workload(name=strategy, kernels=kernels,
                        dispatch_overhead_us=6.0 if on_gpu else 12.0)
    raise ValueError(f"unknown encoder strategy {strategy!r}")


# -- MHA-only workloads (Tables 5 and 9, Figures 12 and 25) --------------------------


def mha_workload(
    lengths: Sequence[int],
    strategy: str,
    config: TransformerConfig = PAPER_BASE_CONFIG,
    on_gpu: bool = False,
    fuse_pad_change: Optional[bool] = None,
) -> Workload:
    """The multi-head attention module (Proj1, QKT, Softmax, AttnV, Proj2)."""
    lengths = np.asarray(lengths, dtype=np.int64)
    strategy = strategy.lower()
    h = config.hidden_size
    if strategy == "cora":
        # On the CPU backends CoRa offloads the dense inner gemm tiles to
        # OpenBLAS, which prevents fusing the padding-change operators
        # (Section D.8) -- they appear as separate, cheap kernels.
        if fuse_pad_change is None:
            fuse_pad_change = on_gpu
        # On the CPU backends CoRa offloads the dense inner tiles of the
        # Proj1 / Proj2 gemms to OpenBLAS micro-kernels (Section D.8), so
        # those kernels run at vendor-library efficiency there.
        proj_class = "compiler" if on_gpu else "vendor"
        sdpa_lengths = ceil_to(lengths, config.loop_pad)
        kernels = [
            projection_launch(lengths, h, 3 * h, name="Proj1",
                              impl_class=proj_class, bulk_pad=config.bulk_pad,
                              fused_epilogue_flops_per_token=3 * h),
            qkt_launch(sdpa_lengths, config, impl_class="compiler"),
            softmax_launch(sdpa_lengths, config.num_heads,
                           impl_class="compiler"),
            attnv_launch(sdpa_lengths, config, impl_class="compiler"),
            projection_launch(lengths, h, h, name="Proj2",
                              impl_class=proj_class, bulk_pad=config.bulk_pad,
                              fused_epilogue_flops_per_token=2 * h),
        ]
        if not fuse_pad_change:
            pad_elements = float((config.num_heads
                                  * ceil_to(lengths, config.loop_pad) ** 2).sum())
            kernels.append(padding_change_launch("PadChange",
                                                 pad_elements / 4.0,
                                                 impl_class="compiler"))
        prelude = _prelude_overheads(lengths, config, on_gpu)
        return Workload(name="CoRa", kernels=kernels,
                        h2d_bytes=prelude["bytes"] if on_gpu else 0.0,
                        prelude_time_s=prelude["time_s"])
    if strategy in ("tf", "pytorch", "pt"):
        max_len = int(lengths.max())
        full = np.full_like(lengths, max_len)
        padded_tokens = float(full.sum())
        kernels = [
            projection_launch(full, h, 3 * h, name="Proj1", impl_class="vendor",
                              bulk_pad=1, fully_padded=True),
            qkt_launch(lengths, config, impl_class="vendor", pad_to=max_len),
            softmax_launch(full, config.num_heads, impl_class="framework"),
            attnv_launch(lengths, config, impl_class="vendor", pad_to=max_len),
            projection_launch(full, h, h, name="Proj2", impl_class="vendor",
                              bulk_pad=1, fully_padded=True),
            padding_change_launch("PadChange", padded_tokens * h / 8.0,
                                  impl_class="framework"),
        ]
        # Framework dispatch overhead per operator.  It is what makes very
        # small micro-batches unattractive in the TF-UB / PT-UB
        # configurations (Table 9): each micro-batch re-dispatches every
        # operator, so the optimum micro-batch size stays fairly large on
        # the 64-core CPU.
        dispatch = 40.0 if strategy == "tf" else 25.0
        return Workload(name=strategy.upper(), kernels=kernels,
                        dispatch_overhead_us=dispatch)
    raise ValueError(f"unknown MHA strategy {strategy!r}")


# -- per-operator breakdowns (Figures 13, 24, 25; Table 10) ---------------------------


_BREAKDOWN_GROUPS = {
    "Proj1": ("Proj1", "QKV Proj.MM", "QKV Bias + AddPad", "QKV Proj",
              "QKV Bias", "AddPad"),
    "QKT": ("QKT",),
    "Softmax": ("Softmax", "Masked Softmax", "ChangePad"),
    "AttnV": ("AttnV",),
    "Proj2": ("Proj2", "Transpose + RemovePad", "Lin.Proj. MM",
              "Bias+ResidualAdd+LayerNorm", "LayerNorm1", "Output Proj",
              "Bias+Residual", "Transpose", "RemovePad", "PadChange"),
    "FF1": ("FF1", "FF1 MM", "FF1 Bias+Act.", "FF1 Bias+Act"),
    "FF2": ("FF2", "FF2 MM", "FF2 Bias+ResidualAdd+LayerNorm",
            "FF2 Bias+Residual", "LayerNorm2"),
}


def encoder_operator_breakdown(per_kernel_ms: Dict[str, float]) -> Dict[str, float]:
    """Group per-kernel latencies into the paper's sub-graph breakdown
    (Proj1 / QKT / Softmax / AttnV / Proj2 / FF1 / FF2)."""
    grouped: Dict[str, float] = {k: 0.0 for k in _BREAKDOWN_GROUPS}
    for name, value in per_kernel_ms.items():
        for group, members in _BREAKDOWN_GROUPS.items():
            if name in members:
                grouped[group] += value
                break
        else:
            grouped.setdefault("other", 0.0)
            grouped["other"] += value
    return grouped


# ---------------------------------------------------------------------------
# Numeric (small-scale) forward pass for correctness testing
# ---------------------------------------------------------------------------


@dataclass
class EncoderWeights:
    """Weights of one encoder layer (shared by ragged and dense paths)."""

    wqkv: np.ndarray
    bqkv: np.ndarray
    wo: np.ndarray
    bo: np.ndarray
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray

    @classmethod
    def zeros(cls, config: TransformerConfig) -> "EncoderWeights":
        """All-zero weights (identity-free): cheap to build at paper scale,
        used by the analytical memory model to declare the encoder program
        without paying for random initialisation."""
        h, f = config.hidden_size, config.ff_size
        return cls(
            wqkv=np.zeros((h, 3 * h), dtype=np.float32),
            bqkv=np.zeros(3 * h, dtype=np.float32),
            wo=np.zeros((h, h), dtype=np.float32),
            bo=np.zeros(h, dtype=np.float32),
            w1=np.zeros((h, f), dtype=np.float32),
            b1=np.zeros(f, dtype=np.float32),
            w2=np.zeros((f, h), dtype=np.float32),
            b2=np.zeros(h, dtype=np.float32),
            ln1_gamma=np.ones(h, dtype=np.float32),
            ln1_beta=np.zeros(h, dtype=np.float32),
            ln2_gamma=np.ones(h, dtype=np.float32),
            ln2_beta=np.zeros(h, dtype=np.float32),
        )

    @classmethod
    def random(cls, config: TransformerConfig, seed: int = 0) -> "EncoderWeights":
        rng = np.random.default_rng(seed)
        h, f = config.hidden_size, config.ff_size
        scale = 1.0 / np.sqrt(h)
        return cls(
            wqkv=(rng.standard_normal((h, 3 * h)) * scale).astype(np.float32),
            bqkv=np.zeros(3 * h, dtype=np.float32),
            wo=(rng.standard_normal((h, h)) * scale).astype(np.float32),
            bo=np.zeros(h, dtype=np.float32),
            w1=(rng.standard_normal((h, f)) * scale).astype(np.float32),
            b1=np.zeros(f, dtype=np.float32),
            w2=(rng.standard_normal((f, h)) * (1.0 / np.sqrt(f))).astype(np.float32),
            b2=np.zeros(h, dtype=np.float32),
            ln1_gamma=np.ones(h, dtype=np.float32),
            ln1_beta=np.zeros(h, dtype=np.float32),
            ln2_gamma=np.ones(h, dtype=np.float32),
            ln2_beta=np.zeros(h, dtype=np.float32),
        )


@dataclass
class EncoderLayerResult:
    """Output of the numeric encoder forward pass."""

    hidden: List[np.ndarray]

    def as_dense(self, max_len: int) -> np.ndarray:
        batch = len(self.hidden)
        h = self.hidden[0].shape[-1]
        out = np.zeros((batch, max_len, h), dtype=np.float32)
        for i, seq in enumerate(self.hidden):
            out[i, :seq.shape[0]] = seq
        return out


def _append_encoder_layer(
    program: Program,
    tokens: str,
    weights: EncoderWeights,
    lengths: "Sequence[int] | RaggedBatch",
    config: TransformerConfig,
    masked: bool,
    prefix: str = "",
    out: str = "out_tokens",
) -> str:
    """Append one CoRa encoder layer's nodes to an existing program graph.

    ``tokens`` names the packed ``(total_tokens, hidden)`` input value of
    the layer; ``prefix`` namespaces every node / value / constant of the
    layer (``"L3."`` for layer 3 of a stack), so N layers coexist in one
    graph.  Returns the name of the layer's packed output value.
    """
    heads, d = config.num_heads, config.head_size

    qkv = linear_node(program, tokens, weights.wqkv, weights.bqkv,
                      name=f"{prefix}proj1", out=f"{prefix}qkv")
    q, k, v = qkv_split_node(program, qkv, lengths, heads, d,
                             prefix=f"{prefix}qkv")
    attn = sdpa_nodes(program, q, k, v, lengths, heads, d, masked=masked,
                      prefix=f"{prefix}sdpa")
    attn_tokens = attn_merge_node(program, attn, lengths, heads, d,
                                  name=f"{prefix}attn.merge",
                                  out=f"{prefix}attn_tokens")
    proj = linear_node(program, attn_tokens, weights.wo, weights.bo,
                       name=f"{prefix}proj2", out=f"{prefix}proj")
    resid1 = add_node(program, proj, tokens, name=f"{prefix}resid1")
    norm1 = layernorm_node(program, resid1, weights.ln1_gamma,
                           weights.ln1_beta, name=f"{prefix}ln1")
    ff1_lin = linear_node(program, norm1, weights.w1, weights.b1,
                          name=f"{prefix}ff1", out=f"{prefix}ff1.lin")
    ff1 = relu_node(program, ff1_lin, name=f"{prefix}ff1.relu")
    ff2 = linear_node(program, ff1, weights.w2, weights.b2,
                      name=f"{prefix}ff2")
    resid2 = add_node(program, ff2, norm1, name=f"{prefix}resid2")
    return layernorm_node(program, resid2, weights.ln2_gamma,
                          weights.ln2_beta, name=f"{prefix}ln2", out=out)


def build_encoder_program(
    lengths: Sequence[int],
    weights: EncoderWeights,
    config: TransformerConfig = PAPER_BASE_CONFIG,
    masked: bool = False,
) -> Program:
    """Declare the CoRa encoder layer as a ragged program graph.

    The program's single input is the packed (vloop-fused) ``(tokens,
    hidden)`` matrix; its single marked output, ``"out_tokens"``, is the
    packed result of the second layer normalisation.  The graph carries
    the full 9-kernel CoRa structure of Figure 3: fused linear projections
    and layer norms as host nodes over the packed token matrix, and the
    SDPA operators (QK^T, the optionally causal-masked ragged softmax,
    AttnV) as compiled kernel nodes reusing the op-by-op schedules -- so a
    :class:`~repro.core.session.Session` compiles the whole layer ahead of
    time and executes it with a flat dispatch loop over arena buffers.

    The weight arrays are *referenced* as program constants, not copied;
    treat them as immutable for the program's lifetime.
    """
    lengths = [int(n) for n in lengths]
    batch = RaggedBatch(lengths)
    program = Program(_program_name("encoder", masked, 0, lengths),
                      seq=batch.seq)
    tokens = program.add_input("tokens",
                               shape=(sum(lengths), config.hidden_size))
    out_tokens = _append_encoder_layer(program, tokens, weights, batch,
                                       config, masked)
    program.mark_output(out_tokens)
    return program


def _program_name(kind: str, masked: bool, layers: int,
                  lengths: Sequence[int]) -> str:
    depth = f"x{layers}" if layers else ""
    return (f"{kind}[{'masked' if masked else 'unmasked'}]"
            f"{depth}b{len(lengths)}t{int(sum(lengths))}")


def _weights_per_layer(weights, n_layers: Optional[int],
                       default_layers: int = 1) -> List[EncoderWeights]:
    """Normalise ``weights`` to one :class:`EncoderWeights` per layer.

    ``weights`` is either a single weight set shared by every layer (then
    the depth is ``n_layers``, falling back to ``default_layers`` -- the
    stack builders pass ``config.num_layers`` so an unspecified depth
    means the *model's* layer count, not a silent single layer) or a
    sequence with one entry per layer (then ``n_layers``, if given, must
    agree).
    """
    if isinstance(weights, EncoderWeights):
        n = int(n_layers if n_layers is not None else default_layers)
        if n < 1:
            raise ValueError(f"encoder stack needs n_layers >= 1, got {n}")
        return [weights] * n
    weights = list(weights)
    if not weights:
        raise ValueError("encoder stack needs at least one layer of weights")
    if n_layers is not None and int(n_layers) != len(weights):
        raise ValueError(
            f"n_layers={n_layers} but {len(weights)} weight sets were given")
    return weights


def build_encoder_stack_program(
    lengths: Sequence[int],
    weights,
    config: TransformerConfig = PAPER_BASE_CONFIG,
    masked: bool = False,
    n_layers: Optional[int] = None,
) -> Program:
    """Declare N stacked CoRa encoder layers as *one* ragged program graph.

    Layer ``i``'s nodes and values are namespaced ``L{i}.``; layer ``i``'s
    packed output feeds layer ``i+1``'s projections and residual add.
    Because the whole stack is a single :class:`Program`, the planner's
    liveness pass spans every layer: layer ``k``'s intermediates die as
    layer ``k+1`` consumes them, so their arena slabs are reused across
    the whole model and peak intermediate bytes stay near one layer's
    arena instead of N of them.

    ``weights`` is a single :class:`EncoderWeights` shared by all
    ``n_layers`` layers (``n_layers`` defaults to ``config.num_layers``),
    or a sequence with one weight set per layer.  The program's input is
    the packed ``"tokens"`` matrix and its single marked output is
    ``"out_tokens"`` -- the same contract as the single-layer
    :func:`build_encoder_program`, so callers are agnostic to the
    stacking depth.
    """
    per_layer = _weights_per_layer(weights, n_layers,
                                   default_layers=config.num_layers)
    lengths = [int(n) for n in lengths]
    batch = RaggedBatch(lengths)    # one length function for every layer
    program = Program(
        _program_name("encoder-stack", masked, len(per_layer), lengths),
        seq=batch.seq)
    value = program.add_input("tokens",
                              shape=(sum(lengths), config.hidden_size))
    last = len(per_layer) - 1
    for i, layer_weights in enumerate(per_layer):
        value = _append_encoder_layer(
            program, value, layer_weights, batch, config, masked,
            prefix=f"L{i}.",
            out="out_tokens" if i == last else f"L{i}.out_tokens")
    program.mark_output(value)
    return program


def _structure_key(kind: str, lengths: Sequence[int], per_layer,
                   config: TransformerConfig, masked: bool) -> tuple:
    """What an encoder program's graph depends on besides the lengths:
    the weights by identity, the configuration, the masking (with the
    mask's size class) and the number of sequences."""
    width = _mask_width(max(lengths, default=0)) if masked else 0
    return (kind, tuple(id(w) for w in per_layer), width, len(lengths),
            config.hidden_size, config.num_heads, config.head_size,
            config.ff_size, config.loop_pad, config.bulk_pad,
            config.attention_tile)


def _bound_program(kind: str, lengths: Sequence[int], per_layer,
                   config: TransformerConfig, masked: bool, session: Session,
                   build) -> Program:
    """``session``'s program over ``lengths``, memoized per signature;
    from the process-wide structure table, which pins the weights."""
    lengths = tuple(int(n) for n in lengths)
    key = _structure_key(kind, lengths, per_layer, config, masked)
    layers = len(per_layer) if kind == "encoder-stack" else 0
    program, _pinned = session.memoize((key, lengths), lambda: (session.bind(
        key, lengths, lambda: build(lengths),
        _program_name(kind, masked, layers, lengths), pinned=per_layer),
        per_layer))
    return program


def encoder_program(
    lengths: Sequence[int],
    weights: EncoderWeights,
    config: TransformerConfig = PAPER_BASE_CONFIG,
    masked: bool = False,
    session: Optional[Session] = None,
) -> Program:
    """The encoder program for one raggedness signature, memoized on the
    session (keyed by lengths, weights identity, config and masking; the
    weights object is pinned for the lifetime of the memo entry) and bound
    from the process-wide structure of its sequence count."""
    return _bound_program(
        "encoder", lengths, [weights], config, masked,
        session or default_session(),
        lambda lens: build_encoder_program(lens, weights, config, masked))


def encoder_stack_program(
    lengths: Sequence[int],
    weights,
    config: TransformerConfig = PAPER_BASE_CONFIG,
    masked: bool = False,
    n_layers: Optional[int] = None,
    session: Optional[Session] = None,
) -> Program:
    """The N-layer encoder stack program for one raggedness signature,
    memoized on the session (keyed by lengths, the per-layer weight
    identities, config and masking; the weight objects are pinned for the
    lifetime of the memo entry).  With a single shared weight set,
    ``n_layers`` defaults to ``config.num_layers``.

    The graph is built once per *structure* -- weights, configuration,
    masking, depth and number of sequences -- in the process-wide table
    (:meth:`Session.bind`); a never-seen signature of a known structure
    gets it bound to its lengths, and its compile pays only the prelude.
    """
    per_layer = _weights_per_layer(weights, n_layers,
                                   default_layers=config.num_layers)
    return _bound_program(
        "encoder-stack", lengths, per_layer, config, masked,
        session or default_session(),
        lambda lens: build_encoder_stack_program(lens, per_layer, config,
                                                 masked))


def run_encoder_stack_numeric(
    hidden: Sequence[np.ndarray],
    weights,
    config: TransformerConfig = PAPER_BASE_CONFIG,
    masked: bool = False,
    n_layers: Optional[int] = None,
    session: Optional[Session] = None,
) -> EncoderLayerResult:
    """Run N stacked encoder layers numerically on ragged inputs.

    The whole stack is declared once per raggedness signature as a single
    ragged program (:func:`build_encoder_stack_program`), compiled ahead
    of time and executed as one flat dispatch loop whose arena plan spans
    every layer.  Bit-identical to running the layers one at a time
    through :func:`run_encoder_layer_numeric` (the differential suite in
    ``tests/test_multilayer_program.py`` pins this down).  With a single
    shared weight set, ``n_layers`` defaults to ``config.num_layers``.
    """
    session = session or default_session()
    lengths = [h.shape[0] for h in hidden]
    program = encoder_stack_program(lengths, weights, config, masked=masked,
                                    n_layers=n_layers, session=session)
    out = session.run(program, {"tokens": pack_tokens(hidden)})["out_tokens"]
    return EncoderLayerResult(hidden=unpack_tokens(out, lengths))


def run_encoder_layer_numeric(
    hidden: Sequence[np.ndarray],
    weights: EncoderWeights,
    config: TransformerConfig = PAPER_BASE_CONFIG,
    masked: bool = False,
    backend: Optional[str] = None,
    executor: Optional[object] = None,
    session: Optional[Session] = None,
) -> EncoderLayerResult:
    """Run one encoder layer numerically on ragged inputs.

    A thin wrapper over :meth:`Session.run`: the layer is declared once
    per raggedness signature as a ragged program
    (:func:`build_encoder_program`), compiled ahead of time -- one shared
    prelude build, every SDPA kernel lowered and vectorized through the
    executor's codegen backend, intermediates planned into reusable arena
    slabs -- and then executed as a flat dispatch loop.

    ``hidden`` is a list of per-sequence ``(length, hidden)`` matrices.
    ``backend`` (``"vector"`` default / ``"scalar"``) selects the codegen
    backend of the default session; pass an explicit ``executor`` or
    ``session`` to control caching and observe codegen statistics.  The
    op-by-op path is kept as :func:`run_encoder_layer_opbyop` and remains
    bit-identical to this program path for both masked variants.
    """
    if session is None:
        if executor is not None:
            from repro.core.session import session_for_executor

            session = session_for_executor(executor)
        else:
            session = default_session(backend or "vector")
    lengths = [h.shape[0] for h in hidden]
    program = encoder_program(lengths, weights, config, masked=masked,
                              session=session)
    out = session.run(program, {"tokens": pack_tokens(hidden)})["out_tokens"]
    return EncoderLayerResult(hidden=unpack_tokens(out, lengths))


def run_encoder_layer_opbyop(
    hidden: Sequence[np.ndarray],
    weights: EncoderWeights,
    config: TransformerConfig = PAPER_BASE_CONFIG,
    masked: bool = False,
    backend: Optional[str] = None,
    executor: Optional[object] = None,
) -> EncoderLayerResult:
    """The op-by-op numeric path: one dispatch and one fresh output
    allocation per operator.

    Linear operators run on the packed (vloop-fused) token matrix; the SDPA
    operators run per sequence -- mirroring CoRa's implementation structure.

    With ``backend`` (``"vector"`` / ``"scalar"``) or an explicit
    ``executor``, the SDPA operators run through the CoRa compiled pipeline
    (lowering + codegen with that backend) instead of the NumPy reference.
    ``masked=True`` routes through the compiled causal-mask kernel chain
    (:func:`repro.ops.softmax.masked_softmax_compiled`); the NumPy
    reference stays the differential oracle for both variants.  This path
    is the baseline the program runtime is benchmarked and differentially
    tested against (``Session.run`` output is bit-identical to it when
    both use compiled SDPA).
    """
    lengths = [h.shape[0] for h in hidden]
    h_size = config.hidden_size
    heads, d = config.num_heads, config.head_size

    tokens = pack_tokens(hidden)
    qkv = linear_packed(tokens, weights.wqkv, weights.bqkv)
    qkv_slices = unpack_tokens(qkv, lengths)
    q, k, v = [], [], []
    for sl in qkv_slices:
        s = sl.shape[0]
        reshaped = sl.reshape(s, 3, heads, d).transpose(1, 2, 0, 3)
        q.append(np.ascontiguousarray(reshaped[0]))
        k.append(np.ascontiguousarray(reshaped[1]))
        v.append(np.ascontiguousarray(reshaped[2]))

    if backend is not None or executor is not None:
        from repro.ops.attention import sdpa_compiled

        attn = sdpa_compiled(q, k, v, head_size=d,
                             backend=backend or "vector", executor=executor,
                             masked=masked)
    else:
        attn = sdpa_slices(q, k, v, head_size=d, masked=masked)
    attn_tokens = pack_tokens([
        a.transpose(1, 0, 2).reshape(a.shape[1], heads * d) for a in attn
    ])
    proj = linear_packed(attn_tokens, weights.wo, weights.bo)
    resid1 = proj + tokens
    norm1 = layernorm_flat(resid1, weights.ln1_gamma, weights.ln1_beta)

    ff1 = np.maximum(linear_packed(norm1, weights.w1, weights.b1), 0.0)
    ff2 = linear_packed(ff1, weights.w2, weights.b2)
    resid2 = ff2 + norm1
    norm2 = layernorm_flat(resid2, weights.ln2_gamma, weights.ln2_beta)
    return EncoderLayerResult(hidden=unpack_tokens(norm2, lengths))


def run_encoder_layer_dense_reference(
    hidden_dense: np.ndarray,
    lengths: Sequence[int],
    weights: EncoderWeights,
    config: TransformerConfig = PAPER_BASE_CONFIG,
    masked: bool = False,
) -> np.ndarray:
    """The fully padded reference: identical math on zero-padded dense inputs,
    with attention masking of the padded columns."""
    from repro.ops.attention import sdpa_dense_reference

    lengths = np.asarray(lengths)
    batch, max_len, h = hidden_dense.shape
    heads, d = config.num_heads, config.head_size
    mask = (np.arange(max_len)[None, :] < lengths[:, None]).astype(np.float32)

    qkv = hidden_dense @ weights.wqkv + weights.bqkv
    qkv = qkv.reshape(batch, max_len, 3, heads, d).transpose(2, 0, 3, 1, 4)
    q, k, v = qkv[0], qkv[1], qkv[2]
    attn = sdpa_dense_reference(q, k, v, lengths, head_size=d, masked=masked)
    attn = attn.transpose(0, 2, 1, 3).reshape(batch, max_len, h)
    proj = attn @ weights.wo + weights.bo
    resid1 = proj + hidden_dense
    mean = resid1.mean(axis=-1, keepdims=True)
    var = resid1.var(axis=-1, keepdims=True)
    norm1 = (resid1 - mean) / np.sqrt(var + 1e-5) * weights.ln1_gamma + weights.ln1_beta
    ff1 = np.maximum(norm1 @ weights.w1 + weights.b1, 0.0)
    ff2 = ff1 @ weights.w2 + weights.b2
    resid2 = ff2 + norm1
    mean = resid2.mean(axis=-1, keepdims=True)
    var = resid2.var(axis=-1, keepdims=True)
    norm2 = (resid2 - mean) / np.sqrt(var + 1e-5) * weights.ln2_gamma + weights.ln2_beta
    return (norm2 * mask[:, :, None]).astype(np.float32)
