"""Attention operators: QK^T, AttnV and (masked) scaled dot-product attention.

These are the only operators of the encoder layer whose cost is *quadratic*
in the sequence length, and the only ones for which even the optimized
FasterTransformer baseline falls back to full padding -- which is why they
are where CoRa's minimal padding wins the most (Figure 13).  The module
provides:

* numeric per-sequence implementations (used for correctness tests and the
  examples);
* workload builders for the padded / partially padded variants;
* the *operation splitting* + *horizontal fusion* variants evaluated on
  AttnV (Figure 14) and QK^T (Figures 20-21);
* the masked SDPA variants of Figure 18 (CoRa-NoPad / CoRa-Pad / PyTorch).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dims import Dim
from repro.core.extents import ConstExtent, ceil_to
from repro.core.ir import LoopVar
from repro.core.operator import compute, input_tensor, reduce_axis, sum_reduce
from repro.core.ragged_tensor import RaggedTensor
from repro.core.storage import RaggedLayout
from repro.core.schedule import Schedule
from repro.models.config import PAPER_BASE_CONFIG, TransformerConfig
from repro.ops.softmax import (
    RaggedBatch,
    attention_scores_layout,
    softmax_compiled,
    softmax_slices,
)
from repro.substrates.costmodel import KernelLaunch, Workload


# ---------------------------------------------------------------------------
# Numeric implementations (per-sequence; heads kept as a leading axis)
# ---------------------------------------------------------------------------


def qkt_slices(q: Sequence[np.ndarray], k: Sequence[np.ndarray],
               scale: Optional[float] = None) -> List[np.ndarray]:
    """Per-sequence attention scores ``Q K^T``.

    Each ``q[i]`` / ``k[i]`` has shape ``(heads, s_i, head_size)``; the
    result has shape ``(heads, s_i, s_i)``.
    """
    out = []
    for qi, ki in zip(q, k):
        scores = np.einsum("hid,hjd->hij", qi, ki)
        if scale is not None:
            scores = scores * scale
        out.append(scores.astype(np.float32))
    return out


def attnv_slices(attn: Sequence[np.ndarray], v: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Per-sequence ``softmax(QK^T) @ V`` products.

    ``attn[i]`` has shape ``(heads, s_i, s_i)``, ``v[i]`` has shape
    ``(heads, s_i, head_size)``; the result has shape
    ``(heads, s_i, head_size)``.
    """
    return [np.einsum("hij,hjd->hid", a, vi).astype(np.float32)
            for a, vi in zip(attn, v)]


def sdpa_slices(q: Sequence[np.ndarray], k: Sequence[np.ndarray],
                v: Sequence[np.ndarray], head_size: int,
                masked: bool = False) -> List[np.ndarray]:
    """Full scaled dot-product attention per sequence.

    With ``masked=True`` the upper-triangular half of each attention matrix
    is masked out (decoder-style causal masking, Section D.3).
    """
    scale = 1.0 / np.sqrt(head_size)
    scores = qkt_slices(q, k, scale=scale)
    if masked:
        masked_scores = []
        for s in scores:
            length = s.shape[-1]
            tri = np.tril(np.ones((length, length), dtype=bool))
            masked_scores.append(np.where(tri[None, :, :], s, -np.inf))
        scores = masked_scores
    probs = softmax_slices(scores)
    if masked:
        probs = [np.nan_to_num(p, nan=0.0) for p in probs]
    return attnv_slices(probs, v)


def sdpa_dense_reference(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                         lengths: Sequence[int], head_size: int,
                         masked: bool = False) -> np.ndarray:
    """The fully padded baseline: dense batched attention with masking.

    ``q, k, v`` have shape ``(batch, heads, max_len, head_size)``.  Padding
    columns are masked before the softmax so the valid region matches the
    ragged implementation.
    """
    lengths = np.asarray(lengths)
    batch, heads, max_len, _ = q.shape
    scale = 1.0 / np.sqrt(head_size)
    scores = np.einsum("bhid,bhjd->bhij", q, k) * scale
    col = np.arange(max_len)
    valid = col[None, :] < lengths[:, None]
    mask = valid[:, None, None, :]
    if masked:
        tri = np.tril(np.ones((max_len, max_len), dtype=bool))
        mask = mask & tri[None, None, :, :]
    scores = np.where(mask, scores, -np.inf)
    scores = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    probs = e / np.maximum(e.sum(axis=-1, keepdims=True), 1e-30)
    probs = np.nan_to_num(probs, nan=0.0)
    return np.einsum("bhij,bhjd->bhid", probs, v).astype(np.float32)


def random_qkv(lengths: Sequence[int], config: TransformerConfig = PAPER_BASE_CONFIG,
               seed: int = 0) -> Dict[str, List[np.ndarray]]:
    """Random per-sequence Q/K/V tensors for the given lengths."""
    rng = np.random.default_rng(seed)
    q, k, v = [], [], []
    for s in lengths:
        shape = (config.num_heads, int(s), config.head_size)
        q.append(rng.standard_normal(shape).astype(np.float32))
        k.append(rng.standard_normal(shape).astype(np.float32))
        v.append(rng.standard_normal(shape).astype(np.float32))
    return {"q": q, "k": k, "v": v}


# ---------------------------------------------------------------------------
# Compiled (executor-backed) implementations
# ---------------------------------------------------------------------------


def _qkv_layout(lengths: "Sequence[int] | RaggedBatch", heads: int,
                head_size: int) -> RaggedLayout:
    """Layout of a per-sequence ``[batch, heads, s(b), head_size]`` tensor."""
    b = RaggedBatch.of(lengths)
    return b.once(
        ("qkv-layout", int(heads), int(head_size)), lambda: RaggedLayout(
            [b.dim, Dim("head"), Dim("seq"), Dim("hd")],
            b.extents(heads, b.seq, ConstExtent(head_size))))


def _qkt_schedule(lengths: "Sequence[int] | RaggedBatch", heads: int,
                  head_size: int, scale: Optional[float]) -> Schedule:
    """The QK^T schedule (one object per batch -> kernel-cache hits in
    every layer)."""
    b = RaggedBatch.of(lengths)
    batch, seq = b.dim, b.seq

    def build() -> Schedule:
        head, qi, kj = Dim("head"), Dim("qi"), Dim("kj")
        qk_extents = b.extents(heads, seq, ConstExtent(head_size))
        q_in = input_tensor("Q", [batch, Dim("qh"), Dim("qs"), Dim("qd")],
                            qk_extents)
        k_in = input_tensor("K", [batch, Dim("kh"), Dim("ks"), Dim("kd")],
                            qk_extents)
        dax = reduce_axis(head_size, "d")

        def body(n, h, i, j):
            scores = sum_reduce(
                q_in[n, h, i, LoopVar(dax.dim)]
                * k_in[n, h, j, LoopVar(dax.dim)], dax)
            return scores * float(scale) if scale is not None else scores

        return Schedule(compute("QKT", [batch, head, qi, kj],
                                b.extents(heads, seq, seq), body))

    return b.once(("qkt", heads, head_size, scale), build)


def qkt_compiled(q: Sequence[np.ndarray], k: Sequence[np.ndarray],
                 scale: Optional[float] = None,
                 backend: str = "vector",
                 executor: Optional["Executor"] = None,
                 ) -> Tuple[List[np.ndarray], "ExecutionReport"]:
    """``Q K^T`` through the CoRa pipeline (per-sequence ragged scores).

    ``q[b]`` / ``k[b]`` have shape ``(heads, s_b, head_size)``; the result
    slices have shape ``(heads, s_b, s_b)``.
    """
    from repro.core.executor import shared_executor

    if executor is None:
        executor = shared_executor(backend)
    batch = RaggedBatch([x.shape[1] for x in q])
    heads, head_size = int(q[0].shape[0]), int(q[0].shape[2])
    schedule = _qkt_schedule(batch, heads, head_size,
                             None if scale is None else float(scale))
    layout = _qkv_layout(batch, heads, head_size)
    inputs = {"Q": RaggedTensor.from_slices(layout, list(q)),
              "K": RaggedTensor.from_slices(layout, list(k))}
    out, report = executor.run_once(schedule, inputs)
    return [out.valid_slice(b) for b in range(len(q))], report


def _attnv_schedule(lengths: "Sequence[int] | RaggedBatch", heads: int,
                    head_size: int, tile: int = 0, remap: bool = False,
                    ) -> Schedule:
    """The AttnV schedule (one object per batch); with ``tile`` the
    Figure 14 "Split" schedule: the query-row vloop is split by the tile
    size, producing a guarded inner loop for the partial tail tile (no
    loop padding), and with ``remap`` the governing loop additionally
    carries a sort-descending thread remap (heaviest sequences first)."""
    b = RaggedBatch.of(lengths)
    batch, seq = b.dim, b.seq

    def build() -> Schedule:
        head, qi, hd = Dim("head"), Dim("qi"), Dim("hd")
        v_extents = b.extents(heads, seq, ConstExtent(head_size))
        a_in = input_tensor("Attn", [batch, Dim("ah"), Dim("ai"), Dim("aj")],
                            b.extents(heads, seq, seq))
        v_in = input_tensor("V", [batch, Dim("vh"), Dim("vs"), Dim("vd")],
                            v_extents)
        jax = reduce_axis(seq, "j")
        op = compute("AttnV", [batch, head, qi, hd], v_extents,
                     lambda n, h, i, d: sum_reduce(
                         a_in[n, h, i, LoopVar(jax.dim)]
                         * v_in[n, h, LoopVar(jax.dim), d], jax))
        schedule = Schedule(op)
        if tile:
            schedule.split(qi, int(tile))
            if remap:
                schedule.parallel(batch)
                schedule.thread_remap(batch, "sort_desc")
        return schedule

    return b.once(("attnv", heads, head_size, int(tile), bool(remap)), build)


def _run_attnv(attn: Sequence[np.ndarray], v: Sequence[np.ndarray],
               schedule_of, executor: "Executor",
               ) -> Tuple[List[np.ndarray], "ExecutionReport"]:
    """Marshal AttnV inputs, run ``schedule_of(batch, heads, head_size)``."""
    batch = RaggedBatch([x.shape[1] for x in v])
    heads, head_size = int(v[0].shape[0]), int(v[0].shape[2])
    schedule = schedule_of(batch, heads, head_size)
    inputs = {
        "Attn": RaggedTensor.from_slices(attention_scores_layout(batch, heads),
                                         list(attn)),
        "V": RaggedTensor.from_slices(_qkv_layout(batch, heads, head_size),
                                      list(v)),
    }
    out, report = executor.run_once(schedule, inputs)
    return [out.valid_slice(b) for b in range(len(v))], report


def attnv_compiled(attn: Sequence[np.ndarray], v: Sequence[np.ndarray],
                   backend: str = "vector",
                   executor: Optional["Executor"] = None,
                   ) -> Tuple[List[np.ndarray], "ExecutionReport"]:
    """``softmax(QK^T) @ V`` through the CoRa pipeline.

    ``attn[b]`` has shape ``(heads, s_b, s_b)``, ``v[b]`` has shape
    ``(heads, s_b, head_size)``.
    """
    from repro.core.executor import shared_executor

    if executor is None:
        executor = shared_executor(backend)
    return _run_attnv(attn, v, _attnv_schedule, executor)


def sdpa_compiled(q: Sequence[np.ndarray], k: Sequence[np.ndarray],
                  v: Sequence[np.ndarray], head_size: int,
                  backend: str = "vector",
                  executor: Optional["Executor"] = None,
                  masked: bool = False) -> List[np.ndarray]:
    """Scaled dot-product attention through the CoRa pipeline: compiled
    QK^T -> compiled ragged (optionally causal-masked) softmax -> compiled
    AttnV.  With ``masked=True`` the additive triangular mask runs as a
    fifth compiled kernel (decoder-style masking, Figure 18); the whole
    chain stays on the vector backend's fast path."""
    from repro.core.executor import shared_executor
    from repro.ops.softmax import masked_softmax_compiled

    if executor is None:
        executor = shared_executor(backend)
    scale = 1.0 / float(np.sqrt(head_size))
    scores, _ = qkt_compiled(q, k, scale=scale, executor=executor)
    if masked:
        probs, _ = masked_softmax_compiled(scores, executor=executor)
    else:
        probs, _ = softmax_compiled(scores, executor=executor)
    out, _ = attnv_compiled(probs, v, executor=executor)
    return out


def attnv_split_compiled(attn: Sequence[np.ndarray], v: Sequence[np.ndarray],
                         tile: int = 4,
                         backend: str = "vector",
                         executor: Optional["Executor"] = None,
                         remap: bool = False,
                         ) -> Tuple[List[np.ndarray], "ExecutionReport"]:
    """AttnV under the operation-splitting schedule (split query-row vloop
    with a guard for the tail tile).  Numerically identical to
    :func:`attnv_compiled`; exercises the guarded/split fast path."""
    from repro.core.executor import shared_executor

    if executor is None:
        executor = shared_executor(backend)
    return _run_attnv(
        attn, v,
        lambda batch, heads, hd: _attnv_schedule(batch, heads, hd, int(tile),
                                                 bool(remap)),
        executor)


# ---------------------------------------------------------------------------
# Program-graph node builders
# ---------------------------------------------------------------------------


def qkt_node(program: "Program", q: str, k: str,
             lengths: "Sequence[int] | RaggedBatch", heads: int,
             head_size: int, scale: Optional[float] = None,
             name: str = "qkt", out: Optional[str] = None) -> str:
    """Append the ``Q K^T`` kernel to a program graph.

    ``q`` / ``k`` name ``[batch, heads, s(b), head_size]`` ragged values;
    the output value holds the ``[batch, heads, s(b), s(b)]`` scores.
    Uses the batch's schedule of :func:`_qkt_schedule`: given a
    :class:`RaggedBatch`, every layer compiles to the same kernel instance.
    """
    batch = RaggedBatch.of(lengths)
    schedule = _qkt_schedule(batch, int(heads), int(head_size),
                             None if scale is None else float(scale))
    return program.add_kernel(name, schedule, {"Q": q, "K": k},
                              attention_scores_layout(batch, heads), out=out)


def attnv_node(program: "Program", attn: str, v: str,
               lengths: "Sequence[int] | RaggedBatch", heads: int,
               head_size: int, name: str = "attnv",
               out: Optional[str] = None) -> str:
    """Append the AttnV kernel (``probabilities @ V``) to a program graph."""
    batch = RaggedBatch.of(lengths)
    schedule = _attnv_schedule(batch, int(heads), int(head_size))
    return program.add_kernel(
        name, schedule, {"Attn": attn, "V": v},
        _qkv_layout(batch, int(heads), int(head_size)), out=out)


def qkv_split_node(program: "Program", qkv: str,
                   lengths: "Sequence[int] | RaggedBatch", heads: int,
                   head_size: int, prefix: str = "qkv",
                   ) -> Tuple[str, str, str]:
    """Split a packed ``(tokens, 3 * hidden)`` QKV matrix into per-sequence
    ``[batch, heads, s(b), head_size]`` ragged Q / K / V values.

    A host marshalling node: the same reshape/transpose the op-by-op
    numeric path performs, writing straight into the planned arena
    buffers.
    """
    batch = RaggedBatch.of(lengths)
    lens = batch.lens.tolist()
    heads, head_size = int(heads), int(head_size)
    layout = _qkv_layout(batch, heads, head_size)

    def _split(q_t, k_t, v_t, qkv_mat):
        start = 0
        for b, s in enumerate(lens):
            sl = qkv_mat[start:start + s]
            reshaped = sl.reshape(s, 3, heads, head_size).transpose(1, 2, 0, 3)
            q_t.set_slice(b, reshaped[0])
            k_t.set_slice(b, reshaped[1])
            v_t.set_slice(b, reshaped[2])
            start += s

    return program.add_host(
        f"{prefix}.split", _split, [qkv],
        output_layouts={f"{prefix}.q": layout, f"{prefix}.k": layout,
                        f"{prefix}.v": layout},
        fills_output=True)


def attn_merge_node(program: "Program", attn: str,
                    lengths: "Sequence[int] | RaggedBatch", heads: int,
                    head_size: int, name: str = "attn.merge",
                    out: Optional[str] = None) -> str:
    """Merge per-sequence ``[heads, s(b), head_size]`` attention outputs
    back into the packed ``(tokens, hidden)`` matrix (host marshalling)."""
    lens = RaggedBatch.of(lengths).lens.tolist()
    heads, head_size = int(heads), int(head_size)
    total = sum(lens)

    def _merge(out_mat, attn_t):
        start = 0
        for b, s in enumerate(lens):
            a = attn_t.valid_slice(b)
            out_mat[start:start + s] = a.transpose(1, 0, 2).reshape(
                s, heads * head_size)
            start += s

    (value,) = program.add_host(
        name, _merge, [attn],
        output_shapes={out or name: (total, heads * head_size)},
        fills_output=True)
    return value


def sdpa_nodes(program: "Program", q: str, k: str, v: str,
               lengths: "Sequence[int] | RaggedBatch", heads: int,
               head_size: int, masked: bool = False,
               prefix: str = "sdpa") -> str:
    """Append the full SDPA kernel chain to a program graph: scaled QK^T,
    the (optionally causal-masked) four/five-kernel softmax, and AttnV --
    the same compiled chain :func:`sdpa_compiled` dispatches op by op."""
    from repro.ops.softmax import masked_softmax_nodes, softmax_nodes

    batch = RaggedBatch.of(lengths)
    scale = 1.0 / float(np.sqrt(head_size))
    scores = qkt_node(program, q, k, batch, heads, head_size, scale=scale,
                      name=f"{prefix}.qkt", out=f"{prefix}.scores")
    if masked:
        probs = masked_softmax_nodes(program, scores, batch, heads,
                                     prefix=f"{prefix}.softmax")
    else:
        probs = softmax_nodes(program, scores, batch, heads,
                              prefix=f"{prefix}.softmax")
    return attnv_node(program, probs, v, batch, heads, head_size,
                      name=f"{prefix}.attnv", out=f"{prefix}.attn")


# ---------------------------------------------------------------------------
# Workload builders
# ---------------------------------------------------------------------------


def _attention_gemm_launch(
    name: str,
    lengths: np.ndarray,
    config: TransformerConfig,
    impl_class: str,
    tile: int,
    masked: bool = False,
    indirect_overhead: float = 0.02,
) -> KernelLaunch:
    """A QK^T-like or AttnV-like batched gemm over ragged attention matrices."""
    s = lengths.astype(np.float64)
    factor = 0.5 if masked else 1.0
    flops = float((2.0 * np.square(s) * config.hidden_size * factor).sum())
    elements = float((config.num_heads * np.square(s) * factor
                      + 2 * s * config.hidden_size).sum())
    works = []
    for length in lengths:
        tiles = max(int(length) // tile, 1)
        works.extend([2.0 * tile * config.hidden_size * float(length) * factor]
                     * tiles * config.num_heads)
    work = np.asarray(works)
    return KernelLaunch(
        name=name,
        flops=flops,
        bytes_moved=elements * 4.0,
        impl_class=impl_class,
        parallel_tasks=work.size,
        task_work=work,
        balanced=True,
        indirect_access_overhead=indirect_overhead,
    )


def qkt_launch(lengths: Sequence[int], config: TransformerConfig = PAPER_BASE_CONFIG,
               impl_class: str = "compiler", pad_to: Optional[int] = None,
               loop_pad: Optional[int] = None, masked: bool = False) -> KernelLaunch:
    """The QK^T kernel; fuses two vloops, hence a slightly higher
    indirect-access overhead (Section 7.4, Figure 23)."""
    s = np.asarray(lengths, dtype=np.int64)
    if pad_to is not None:
        s = np.full_like(s, pad_to)
    elif loop_pad:
        s = ceil_to(s, loop_pad)
    return _attention_gemm_launch("QKT", s, config, impl_class,
                                  config.attention_tile, masked=masked,
                                  indirect_overhead=0.06)


def attnv_launch(lengths: Sequence[int], config: TransformerConfig = PAPER_BASE_CONFIG,
                 impl_class: str = "compiler", pad_to: Optional[int] = None,
                 loop_pad: Optional[int] = None, masked: bool = False) -> KernelLaunch:
    """The AttnV kernel (attention probabilities times values)."""
    s = np.asarray(lengths, dtype=np.int64)
    if pad_to is not None:
        s = np.full_like(s, pad_to)
    elif loop_pad:
        s = ceil_to(s, loop_pad)
    return _attention_gemm_launch("AttnV", s, config, impl_class,
                                  config.attention_tile, masked=masked,
                                  indirect_overhead=0.02)


# -- operation splitting + horizontal fusion (Figures 14, 20, 21) -----------------


def split_hfuse_workload(
    lengths: Sequence[int],
    operator: str = "AttnV",
    variant: str = "NoSplit",
    config: TransformerConfig = PAPER_BASE_CONFIG,
    tile: Optional[int] = None,
) -> Workload:
    """The NoSplit / Split / Split-HFused variants of one attention operator.

    * ``NoSplit`` pads the non-reduction vloop to the tile size: more
      computation, full parallelism, one kernel.
    * ``Split`` uses operation splitting to avoid the padding: the main
      (tile-aligned) part and the tail run as *two* kernels, each with less
      parallelism.
    * ``Split-HFused`` horizontally fuses the two pieces back into a single
      kernel so they execute concurrently.
    """
    tile = tile or config.attention_tile
    s = np.asarray(lengths, dtype=np.int64)
    launch_builder = attnv_launch if operator.lower() == "attnv" else qkt_launch

    if variant == "NoSplit":
        # Only the *non-reduction* vloop is padded to the tile size, so the
        # extra work scales linearly (not quadratically) with the padding.
        kernel = launch_builder(s, config)
        padded = ceil_to(s, tile).astype(np.float64)
        scale = float((padded * s).sum()) / max(float((s * s).sum()), 1.0)
        kernel.flops *= scale
        if kernel.task_work is not None:
            kernel.task_work = kernel.task_work * scale
        kernel.name = f"{operator}-nosplit"
        return Workload(name="NoSplit", kernels=[kernel])

    # Operation splitting: the tile-aligned "main" part of each sequence and
    # the sub-tile "tail" run as separate operators over the same data.  Only
    # the *non-reduction* vloop is split, so each piece still reduces over
    # the full sequence length; the total work equals the unpadded operator.
    main_lengths = (s // tile) * tile
    tail_lengths = s - main_lengths

    def _piece(rows: np.ndarray, label: str) -> Optional[KernelLaunch]:
        active = rows > 0
        if not active.any():
            return None
        kernel = launch_builder(rows[active], config)
        # Re-scale: the piece computes ``rows`` output rows but reduces over
        # the full length ``s`` of each sequence, not over ``rows``.
        piece_sq = float((rows[active].astype(np.float64) ** 2).sum())
        true_work = float((rows[active].astype(np.float64) * s[active]).sum())
        scale = true_work / max(piece_sq, 1.0)
        kernel.flops *= scale
        if kernel.task_work is not None:
            kernel.task_work = kernel.task_work * scale
        kernel.name = f"{operator}-{label}"
        return kernel

    kernels: List[KernelLaunch] = []
    main = _piece(main_lengths, "main")
    tail = _piece(tail_lengths, "tail")
    if main is not None:
        kernels.append(main)
    if tail is not None:
        kernels.append(tail)
    if variant == "Split":
        return Workload(name="Split", kernels=kernels)
    if variant in ("Split-HFused", "Split1-HFused", "Split2-HFused"):
        for k in kernels:
            k.hfused_with = f"{operator}-hfused"
        workload = Workload(name=variant, kernels=kernels)
        if variant == "Split2-HFused":
            # Splitting the second vloop as well: even less padding but the
            # generated code gets more complex (extra integer work and
            # memory requests, Section D.6) -- modelled as extra overhead.
            for k in workload.kernels:
                k.indirect_access_overhead += 0.12
        return workload
    raise ValueError(f"unknown split/hfuse variant {variant!r}")


# -- masked SDPA (Figure 18) ---------------------------------------------------------


def masked_sdpa_workload(lengths: Sequence[int], strategy: str,
                         config: TransformerConfig = PAPER_BASE_CONFIG) -> Workload:
    """The three masked-SDPA execution strategies of Figure 18.

    ``"cora-nopad"`` partially pads both vloops (triangular computation),
    ``"cora-pad"`` fully pads the inner vloop (rectangular per sequence) and
    ``"pytorch"`` fully pads both vloops (rectangular at the batch maximum).
    """
    s = np.asarray(lengths, dtype=np.int64)
    if strategy == "cora-nopad":
        padded = ceil_to(s, config.loop_pad)
        kernels = [
            qkt_launch(padded, config, masked=True),
            _softmax_masked_launch(padded, config, masked=True),
            attnv_launch(padded, config, masked=True),
        ]
        return Workload(name="CoRa-NoPad", kernels=kernels)
    if strategy == "cora-pad":
        padded = ceil_to(s, config.loop_pad)
        kernels = [
            qkt_launch(padded, config, masked=False),
            _softmax_masked_launch(padded, config, masked=False),
            attnv_launch(padded, config, masked=False),
        ]
        return Workload(name="CoRa-Pad", kernels=kernels)
    if strategy == "pytorch":
        full = int(s.max())
        kernels = [
            qkt_launch(s, config, pad_to=full, impl_class="framework"),
            _softmax_masked_launch(np.full_like(s, full), config,
                                   impl_class="framework", masked=False),
            attnv_launch(s, config, pad_to=full, impl_class="framework"),
        ]
        workload = Workload(name="PyTorch", kernels=kernels,
                            dispatch_overhead_us=8.0)
        return workload
    raise ValueError(f"unknown masked-SDPA strategy {strategy!r}")


def _softmax_masked_launch(lengths: np.ndarray, config: TransformerConfig,
                           impl_class: str = "compiler",
                           masked: bool = False) -> KernelLaunch:
    s = lengths.astype(np.float64)
    factor = 0.5 if masked else 1.0
    elements = float((config.num_heads * np.square(s) * factor).sum())
    return KernelLaunch(
        name="Softmax",
        flops=8.0 * elements,
        bytes_moved=2.0 * elements * 4.0,
        impl_class=impl_class,
        parallel_tasks=max(int(s.sum()) * config.num_heads, 1),
    )
