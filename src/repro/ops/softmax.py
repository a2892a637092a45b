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


def shared(program: Optional["Program"], key: Tuple, build: Callable):
    """``build()`` once per ``program`` (every time without one).

    What the call sites of one graph share -- the length function of its
    mini-batch, the layouts and schedules built on it, the same in every
    layer -- is scoped to the graph: nothing here is keyed by length
    values process-wide, and nothing outlives the batch's program."""
    return build() if program is None else program.memoize(key, build)


def batch_lengths(lengths: Sequence[int], program: Optional["Program"] = None,
                  ) -> Tuple[np.ndarray, Dim, VarExtent]:
    """A mini-batch's length table, batch dimension and length function
    ``s(b)``.  One triple per program: every ragged layout and schedule
    of the batch is built on the same extent object."""
    lens = np.ascontiguousarray(lengths, dtype=np.int64)

    def build():
        batch = Dim("batch")
        return lens, batch, VarExtent(batch, lens)

    return shared(program, ("batch", lens.tobytes()), build)


def attention_scores_layout(lengths: Sequence[int], num_heads: int,
                            program: Optional["Program"] = None,
                            ) -> RaggedLayout:
    """Layout of the ragged attention-score tensor ``[batch, heads, s(b), s(b)]``."""
    lens, batch, seq = batch_lengths(lengths, program)
    return shared(
        program, ("scores-layout", id(seq), int(num_heads)),
        lambda: RaggedLayout(
            [batch, Dim("head"), Dim("qi"), Dim("kj")],
            [ConstExtent(lens.size), ConstExtent(num_heads), seq, seq]))


def attention_rows_layout(lengths: Sequence[int], num_heads: int,
                          program: Optional["Program"] = None,
                          ) -> RaggedLayout:
    """Layout of a per-row attention reduction ``[batch, heads, s(b)]``
    (the row-max and row-sum tensors of the softmax chain)."""
    lens, batch, seq = batch_lengths(lengths, program)
    return shared(
        program, ("rows-layout", id(seq), int(num_heads)),
        lambda: RaggedLayout(
            [batch, Dim("head"), Dim("qi")],
            [ConstExtent(lens.size), ConstExtent(num_heads), seq]))


def _softmax_schedules(lengths: Sequence[int], heads: int,
                       program: Optional["Program"] = None,
                       ) -> Tuple[Schedule, Schedule, Schedule, Schedule]:
    """The four softmax kernels (row max, shifted exp, row sum, normalise),
    one set per program so every layer compiles the same kernel instances."""
    lens, batch, seq = batch_lengths(lengths, program)
    return shared(program, ("softmax", id(seq), int(heads)),
                  lambda: _build_softmax_schedules(lens.size, batch, seq,
                                                   int(heads)))


def _build_softmax_schedules(bsz: int, batch: Dim, seq: VarExtent, heads: int,
                             ) -> Tuple[Schedule, Schedule, Schedule, Schedule]:
    head, qi, kj = Dim("head"), Dim("qi"), Dim("kj")
    row_extents = [ConstExtent(bsz), ConstExtent(heads), seq]
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


def _softmax_chain(s_tensor: RaggedTensor, lens: np.ndarray, heads: int,
                   executor: "Executor") -> Tuple[RaggedTensor, list]:
    """Run the four-kernel softmax chain on a packed score tensor."""
    max_sch, exp_sch, sum_sch, div_sch = _softmax_schedules(lens, heads)
    reports = []
    m_out, rep = executor.build_and_run(max_sch, {"S": s_tensor})
    reports.append(rep)
    e_out, rep = executor.build_and_run(exp_sch, {"S": s_tensor, "M": m_out})
    reports.append(rep)
    z_out, rep = executor.build_and_run(sum_sch, {"E": e_out})
    reports.append(rep)
    p_out, rep = executor.build_and_run(div_sch, {"E": e_out, "Z": z_out})
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
    lens = np.ascontiguousarray([s.shape[-1] for s in scores], dtype=np.int64)
    heads = int(scores[0].shape[0])
    bsz = int(lens.size)
    s_tensor = RaggedTensor.from_slices(
        attention_scores_layout(lens, heads), list(scores))
    p_out, reports = _softmax_chain(s_tensor, lens, heads, executor)
    return [p_out.valid_slice(b) for b in range(bsz)], reports


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


def _mask_schedule(lengths: Sequence[int], heads: int, width: int,
                   program: Optional["Program"] = None) -> Schedule:
    """Additive-mask kernel ``SM[b,h,i,j] = S[b,h,i,j] + Mask[i,j]``.

    This is how the masked-SDPA schedule reaches the compiled pipeline
    despite the prototype's vdims-depend-on-the-outermost-dim restriction:
    the triangular iteration space is expressed as a dense mask input
    indexed by the two inner vloops, which the vector backend turns into a
    single broadcast add over each instance bucket.
    """
    lens, batch, seq = batch_lengths(lengths, program)

    def build() -> Schedule:
        head, qi, kj = Dim("head"), Dim("qi"), Dim("kj")
        mat_extents = [ConstExtent(lens.size), ConstExtent(heads), seq, seq]
        s_in = input_tensor("S", [batch, head, qi, kj], mat_extents)
        m_in = input_tensor("Mask", [Dim("mi"), Dim("mj")],
                            [ConstExtent(width), ConstExtent(width)])
        op = compute("SM", [batch, head, qi, kj], mat_extents,
                     lambda b, h, i, j: s_in[b, h, i, j] + m_in[i, j])
        return Schedule(op)

    return shared(program, ("mask", id(seq), int(heads), int(width)), build)


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
    lens = np.ascontiguousarray([s.shape[-1] for s in scores], dtype=np.int64)
    heads = int(scores[0].shape[0])
    bsz = int(lens.size)
    width = _mask_width(int(lens.max()) if bsz else 0)
    s_tensor = RaggedTensor.from_slices(
        attention_scores_layout(lens, heads), list(scores))
    mask_sch = _mask_schedule(lens, heads, width)
    masked, rep = executor.build_and_run(
        mask_sch, {"S": s_tensor, "Mask": causal_mask_matrix(width)})
    p_out, reports = _softmax_chain(masked, lens, heads, executor)
    return [p_out.valid_slice(b) for b in range(bsz)], [rep] + reports


# -- program-graph node builders ---------------------------------------------------


def softmax_nodes(program: "Program", scores: str, lengths: Sequence[int],
                  num_heads: int, prefix: str = "softmax") -> str:
    """Append the four-kernel ragged softmax chain to a program graph.

    ``scores`` names a ``[batch, heads, s(b), s(b)]`` ragged value; the
    returned value name holds the row-normalised probabilities.  Schedules
    and layouts are shared program-wide (:func:`shared`), so every layer's
    chain compiles to the same kernel instances.
    """
    max_sch, exp_sch, sum_sch, div_sch = _softmax_schedules(
        lengths, num_heads, program)
    rows = lambda: attention_rows_layout(lengths, num_heads, program)
    mat = lambda: attention_scores_layout(lengths, num_heads, program)
    m = program.add_kernel(f"{prefix}.max", max_sch, {"S": scores},
                           rows(), out=f"{prefix}.m")
    e = program.add_kernel(f"{prefix}.exp", exp_sch, {"S": scores, "M": m},
                           mat(), out=f"{prefix}.e")
    z = program.add_kernel(f"{prefix}.sum", sum_sch, {"E": e},
                           rows(), out=f"{prefix}.z")
    return program.add_kernel(f"{prefix}.div", div_sch, {"E": e, "Z": z},
                              mat(), out=f"{prefix}.p")


def masked_softmax_nodes(program: "Program", scores: str,
                         lengths: Sequence[int], num_heads: int,
                         prefix: str = "softmax") -> str:
    """Causal-masked softmax as program nodes: the additive triangular-mask
    kernel (a dense mask constant shared across the batch) followed by the
    standard four-kernel chain of :func:`softmax_nodes`."""
    width = _mask_width(max((int(n) for n in lengths), default=0))
    mask_sch = _mask_schedule(lengths, num_heads, width, program)
    mask = program.add_constant(f"{prefix}.mask", causal_mask_matrix(width))
    masked = program.add_kernel(
        f"{prefix}.addmask", mask_sch, {"S": scores, "Mask": mask},
        attention_scores_layout(lengths, num_heads, program),
        out=f"{prefix}.sm")
    return softmax_nodes(program, masked, lengths, num_heads, prefix=prefix)


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
