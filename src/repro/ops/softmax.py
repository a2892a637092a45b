"""Ragged softmax.

The softmax of the attention scores is computed row-wise over a ragged
matrix: for batch element ``b`` the rows and columns both have length
``s(b)``.  A fully padded implementation must either mask the padded
columns (extra conditional work per element) or produce garbage that the
next operator must ignore; the ragged implementation touches only valid
elements (Section 7.2 discusses why CoRa's softmax also beats
FasterTransformer's schedule).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dims import Dim
from repro.core.extents import ConstExtent, VarExtent
from repro.core.ir import LoopVar, exp
from repro.core.operator import (
    compute,
    input_tensor,
    max_reduce,
    reduce_axis,
    sum_reduce,
)
from repro.core.ragged_tensor import RaggedTensor
from repro.core.schedule import Schedule
from repro.core.storage import RaggedLayout
from repro.substrates.costmodel import KernelLaunch, softmax_flops


def softmax_slices(scores: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Numerically stable row-wise softmax over a list of per-batch matrices.

    Each element of ``scores`` is an array whose last dimension is the
    (variable) number of attention columns for that batch element.
    """
    out = []
    for s in scores:
        shifted = s - s.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        out.append(e / e.sum(axis=-1, keepdims=True))
    return out


def masked_softmax_dense(scores: np.ndarray, lengths: Sequence[int]) -> np.ndarray:
    """The fully padded baseline: mask invalid columns then softmax.

    ``scores`` has shape ``(batch, heads, max_len, max_len)``; columns and
    rows beyond each sequence's length are masked to ``-inf`` / zeroed.
    """
    lengths = np.asarray(lengths)
    batch, heads, max_len, _ = scores.shape
    col = np.arange(max_len)
    mask = col[None, :] < lengths[:, None]  # (batch, max_len)
    masked = np.where(mask[:, None, None, :], scores, -np.inf)
    shifted = masked - masked.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / np.maximum(e.sum(axis=-1, keepdims=True), 1e-30)
    row_mask = mask[:, None, :, None]
    return np.where(row_mask, out, 0.0)


# -- compiled (executor-backed) implementation ------------------------------------


class RaggedBatch:
    """One mini-batch's raggedness: its length table ``lens``, batch
    dimension ``dim`` and length function ``seq`` (``s(b)``).

    A program builder makes one and hands it to every node builder in
    place of ``lengths``, so all ragged layouts and schedules of the batch
    sit on the same extent object and are built once (:meth:`once`): every
    layer of the graph then compiles to the same kernel instances.  A
    plain length sequence makes a batch of its own (:meth:`of`); nothing
    is keyed by length values, and nothing outlives the batch."""

    def __init__(self, lengths: Sequence[int]):
        self.lens = np.ascontiguousarray(lengths, dtype=np.int64)
        self.dim = Dim("batch")
        self.seq = VarExtent(self.dim, self.lens)
        self._built: dict = {}

    @classmethod
    def of(cls, lengths: "Sequence[int] | RaggedBatch") -> "RaggedBatch":
        return lengths if isinstance(lengths, cls) else cls(lengths)

    def once(self, key: Tuple, build: Callable):
        """``build()`` the first time ``key`` (structural parameters: a
        kind, head counts, tile sizes) is asked for on this batch."""
        try:
            return self._built[key]
        except KeyError:
            value = self._built[key] = build()
            return value

    def extents(self, heads: int, *inner) -> list:
        """``[batch, heads, *inner]`` extents of one of its tensors."""
        return [ConstExtent(self.lens.size), ConstExtent(heads), *inner]


def attention_scores_layout(lengths: "Sequence[int] | RaggedBatch",
                            num_heads: int) -> RaggedLayout:
    """Layout of the ragged attention-score tensor ``[batch, heads, s(b), s(b)]``."""
    b = RaggedBatch.of(lengths)
    return b.once(("scores-layout", int(num_heads)), lambda: RaggedLayout(
        [b.dim, Dim("head"), Dim("qi"), Dim("kj")],
        b.extents(num_heads, b.seq, b.seq)))


def attention_rows_layout(lengths: "Sequence[int] | RaggedBatch",
                          num_heads: int) -> RaggedLayout:
    """Layout of a per-row attention reduction ``[batch, heads, s(b)]``
    (the row-max and row-sum tensors of the softmax chain)."""
    b = RaggedBatch.of(lengths)
    return b.once(("rows-layout", int(num_heads)), lambda: RaggedLayout(
        [b.dim, Dim("head"), Dim("qi")], b.extents(num_heads, b.seq)))


def _softmax_schedules(lengths: "Sequence[int] | RaggedBatch", heads: int,
                       ) -> Tuple[Schedule, Schedule, Schedule, Schedule]:
    """The four softmax kernels (row max, shifted exp, row sum, normalise),
    one set per batch so every layer compiles the same kernel instances."""
    b = RaggedBatch.of(lengths)
    return b.once(("softmax", int(heads)),
                  lambda: _build_softmax_schedules(b, int(heads)))


def _build_softmax_schedules(b: RaggedBatch, heads: int,
                             ) -> Tuple[Schedule, Schedule, Schedule, Schedule]:
    batch, seq = b.dim, b.seq
    head, qi, kj = Dim("head"), Dim("qi"), Dim("kj")
    row_extents = b.extents(heads, seq)
    mat_extents = row_extents + [seq]

    s_in = input_tensor("S", [batch, head, qi, kj], mat_extents)
    m_in = input_tensor("M", [batch, head, qi], row_extents)
    e_in = input_tensor("E", [batch, head, qi, kj], mat_extents)
    z_in = input_tensor("Z", [batch, head, qi], row_extents)

    jax = reduce_axis(seq, "j")
    max_op = compute("M", [batch, head, qi], row_extents,
                     lambda b, h, i: max_reduce(
                         s_in[b, h, i, LoopVar(jax.dim)], jax))
    exp_op = compute("E", [batch, head, qi, kj], mat_extents,
                     lambda b, h, i, j: exp(s_in[b, h, i, j] - m_in[b, h, i]))
    sumax = reduce_axis(seq, "j2")
    sum_op = compute("Z", [batch, head, qi], row_extents,
                     lambda b, h, i: sum_reduce(
                         e_in[b, h, i, LoopVar(sumax.dim)], sumax))
    div_op = compute("P", [batch, head, qi, kj], mat_extents,
                     lambda b, h, i, j: e_in[b, h, i, j] / z_in[b, h, i])
    return (Schedule(max_op), Schedule(exp_op), Schedule(sum_op),
            Schedule(div_op))


def _softmax_chain(s_tensor: RaggedTensor, batch: RaggedBatch, heads: int,
                   executor: "Executor") -> Tuple[RaggedTensor, list]:
    """Run the four-kernel softmax chain on a packed score tensor."""
    max_sch, exp_sch, sum_sch, div_sch = _softmax_schedules(batch, heads)
    reports = []
    m_out, rep = executor.run_once(max_sch, {"S": s_tensor})
    reports.append(rep)
    e_out, rep = executor.run_once(exp_sch, {"S": s_tensor, "M": m_out})
    reports.append(rep)
    z_out, rep = executor.run_once(sum_sch, {"E": e_out})
    reports.append(rep)
    p_out, rep = executor.run_once(div_sch, {"E": e_out, "Z": z_out})
    reports.append(rep)
    return p_out, reports


def softmax_compiled(scores: Sequence[np.ndarray],
                     backend: str = "vector",
                     executor: Optional["Executor"] = None,
                     ) -> Tuple[List[np.ndarray], List["ExecutionReport"]]:
    """Row-wise ragged softmax through the CoRa pipeline.

    ``scores[b]`` has shape ``(heads, s_b, s_b)``.  Compiled as the same
    four-kernel chain a real ragged compiler emits (row max, shifted exp,
    row sum, normalise), each kernel scheduled and code-generated with the
    chosen backend.  Returns the per-sequence probabilities and the four
    execution reports.
    """
    from repro.core.executor import shared_executor

    if executor is None:
        executor = shared_executor(backend)
    batch = RaggedBatch([s.shape[-1] for s in scores])
    heads = int(scores[0].shape[0])
    s_tensor = RaggedTensor.from_slices(
        attention_scores_layout(batch, heads), list(scores))
    p_out, reports = _softmax_chain(s_tensor, batch, heads, executor)
    return [p_out.valid_slice(b) for b in range(len(scores))], reports


# -- masked (triangular) softmax ---------------------------------------------------


def _mask_width(max_len: int) -> int:
    """Side of the mask matrix serving sequences up to ``max_len``: a
    power of two, at least 64.  The mask kernel names its row width, so
    a size class per structure keeps one kernel for every batch of it."""
    return max(64, 1 << (max(int(max_len), 1) - 1).bit_length())


@lru_cache(maxsize=16)
def causal_mask_matrix(width: int) -> np.ndarray:
    """Dense additive causal mask: 0 on and below the diagonal, ``-inf``
    above.  Shared by every sequence of the batch (rows/columns past a
    sequence's length are simply never indexed by the ragged kernels).
    Memoized per size class (:func:`_mask_width`); treat the returned
    array as immutable."""
    mask = np.zeros((width, width), dtype=np.float32)
    mask[np.triu_indices(width, k=1)] = -np.inf
    return mask


def _mask_schedule(lengths: "Sequence[int] | RaggedBatch", heads: int,
                   width: int) -> Schedule:
    """Additive-mask kernel ``SM[b,h,i,j] = S[b,h,i,j] + Mask[i,j]``.

    This is how the masked-SDPA schedule reaches the compiled pipeline
    despite the prototype's vdims-depend-on-the-outermost-dim restriction:
    the triangular iteration space is expressed as a dense mask input
    indexed by the two inner vloops, which the vector backend turns into a
    single broadcast add over each instance bucket.
    """
    batch = RaggedBatch.of(lengths)

    def build() -> Schedule:
        dims = [batch.dim, Dim("head"), Dim("qi"), Dim("kj")]
        mat_extents = batch.extents(heads, batch.seq, batch.seq)
        s_in = input_tensor("S", dims, mat_extents)
        m_in = input_tensor("Mask", [Dim("mi"), Dim("mj")],
                            [ConstExtent(width), ConstExtent(width)])
        op = compute("SM", dims, mat_extents,
                     lambda b, h, i, j: s_in[b, h, i, j] + m_in[i, j])
        return Schedule(op)

    return batch.once(("mask", int(heads), int(width)), build)


def masked_softmax_compiled(scores: Sequence[np.ndarray],
                            backend: str = "vector",
                            executor: Optional["Executor"] = None,
                            ) -> Tuple[List[np.ndarray], List["ExecutionReport"]]:
    """Causal-masked row-wise softmax through the CoRa pipeline.

    Applies the additive triangular mask as a fifth compiled kernel in
    front of the standard four-kernel chain; every row keeps at least its
    diagonal element, so the masked rows stay NaN-free without a
    ``nan_to_num`` pass (matching ``sdpa_slices(masked=True)``).
    """
    from repro.core.executor import shared_executor

    if executor is None:
        executor = shared_executor(backend)
    batch = RaggedBatch([s.shape[-1] for s in scores])
    heads = int(scores[0].shape[0])
    width = _mask_width(batch.lens.max(initial=0))
    s_tensor = RaggedTensor.from_slices(
        attention_scores_layout(batch, heads), list(scores))
    mask_sch = _mask_schedule(batch, heads, width)
    masked, rep = executor.run_once(
        mask_sch, {"S": s_tensor, "Mask": causal_mask_matrix(width)})
    p_out, reports = _softmax_chain(masked, batch, heads, executor)
    return [p_out.valid_slice(b) for b in range(len(scores))], [rep] + reports


# -- program-graph node builders ---------------------------------------------------


def softmax_nodes(program: "Program", scores: str,
                  lengths: "Sequence[int] | RaggedBatch", num_heads: int,
                  prefix: str = "softmax") -> str:
    """Append the four-kernel ragged softmax chain to a program graph.

    ``scores`` names a ``[batch, heads, s(b), s(b)]`` ragged value; the
    returned value name holds the row-normalised probabilities.  Given a
    :class:`RaggedBatch` for ``lengths``, every layer's chain shares its
    schedules and layouts and compiles to the same kernel instances.
    """
    batch = RaggedBatch.of(lengths)
    max_sch, exp_sch, sum_sch, div_sch = _softmax_schedules(batch, num_heads)
    rows = lambda: attention_rows_layout(batch, num_heads)
    mat = lambda: attention_scores_layout(batch, num_heads)
    m = program.add_kernel(f"{prefix}.max", max_sch, {"S": scores},
                           rows(), out=f"{prefix}.m")
    e = program.add_kernel(f"{prefix}.exp", exp_sch, {"S": scores, "M": m},
                           mat(), out=f"{prefix}.e")
    z = program.add_kernel(f"{prefix}.sum", sum_sch, {"E": e},
                           rows(), out=f"{prefix}.z")
    return program.add_kernel(f"{prefix}.div", div_sch, {"E": e, "Z": z},
                              mat(), out=f"{prefix}.p")


def masked_softmax_nodes(program: "Program", scores: str,
                         lengths: "Sequence[int] | RaggedBatch",
                         num_heads: int, prefix: str = "softmax") -> str:
    """Causal-masked softmax as program nodes: the additive triangular-mask
    kernel (a dense mask constant shared across the batch) followed by the
    standard four-kernel chain of :func:`softmax_nodes`."""
    batch = RaggedBatch.of(lengths)
    width = _mask_width(batch.lens.max(initial=0))
    mask_sch = _mask_schedule(batch, num_heads, width)
    mask = program.add_constant(f"{prefix}.mask", causal_mask_matrix(width))
    masked = program.add_kernel(
        f"{prefix}.addmask", mask_sch, {"S": scores, "Mask": mask},
        attention_scores_layout(batch, num_heads), out=f"{prefix}.sm")
    return softmax_nodes(program, masked, batch, num_heads, prefix=prefix)


def softmax_launch(lengths: Sequence[int], num_heads: int,
                   impl_class: str = "compiler",
                   padded_to: int | None = None,
                   name: str = "Softmax") -> KernelLaunch:
    """Describe the softmax kernel over the (possibly padded) attention matrix."""
    s = np.asarray(lengths, dtype=np.float64)
    if padded_to is not None:
        s = np.full_like(s, float(padded_to))
    rows = num_heads * s
    flops = float(softmax_flops(rows, s).sum()) if rows.ndim else softmax_flops(rows, s)
    flops = float((8.0 * num_heads * np.square(s)).sum())
    elements = float((num_heads * np.square(s)).sum())
    return KernelLaunch(
        name=name,
        flops=flops,
        bytes_moved=elements * 8.0,
        impl_class=impl_class,
        parallel_tasks=int(num_heads * s.size * max(s.mean(), 1) // 32) + 1,
        task_work=num_heads * np.square(s),
        balanced=True,
    )
