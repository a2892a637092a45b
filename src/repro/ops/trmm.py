"""Triangular matrix operators: trmm, tradd, trmul.

A lower-triangular matrix is a ragged tensor: row ``r`` holds ``r + 1``
densely packed non-zero elements (Section 7.1).  The paper evaluates:

* **trmm** -- lower-triangular ``L`` times dense ``B`` (Figure 10), compared
  against cuBLAS's hand-optimized ``trmm`` and its fully padded ``sgemm``,
  with three CoRa variants that progressively apply *operation splitting*
  (handle the partial tail tile of the variable reduction loop separately)
  and *thread remapping* (schedule the heaviest row-tiles first);
* **tradd / trmul** -- elementwise triangular add / multiply, used in the
  comparison against the Taco sparse compiler (Table 6).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dims import Dim
from repro.core.extents import ConstExtent, VarExtent
from repro.core.executor import register_schedule_memo
from repro.core.ir import LoopVar
from repro.core.operator import compute, input_tensor, reduce_axis, sum_reduce
from repro.core.schedule import Schedule
from repro.substrates.costmodel import KernelLaunch, Workload, gemm_flops


# -- numeric implementations -----------------------------------------------------


def make_lower_triangular(n: int, seed: int = 0) -> np.ndarray:
    """A dense array holding a random lower-triangular matrix."""
    rng = np.random.default_rng(seed)
    full = rng.standard_normal((n, n)).astype(np.float32)
    return np.tril(full)


def trmm_reference(lower: np.ndarray, dense: np.ndarray) -> np.ndarray:
    """``lower @ dense`` computed with the dense gemm (ground truth)."""
    return np.asarray(lower) @ np.asarray(dense)


def trmm_ragged(lower: np.ndarray, dense: np.ndarray, tile: int = 64) -> np.ndarray:
    """CoRa-style trmm: each row-tile only reduces over its valid columns.

    The reduction loop of row block ``[r0, r1)`` runs to ``r1`` (the length
    of the longest row in the block), exactly what operation splitting plus
    tile-aligned scheduling achieves.
    """
    lower = np.asarray(lower, dtype=np.float32)
    dense = np.asarray(dense, dtype=np.float32)
    n = lower.shape[0]
    out = np.zeros((n, dense.shape[1]), dtype=np.float32)
    for r0 in range(0, n, tile):
        r1 = min(r0 + tile, n)
        out[r0:r1] = lower[r0:r1, :r1] @ dense[:r1]
    return out


def tradd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise sum of two lower-triangular matrices (valid region only)."""
    return np.tril(np.asarray(a) + np.asarray(b))


def trmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise product of two lower-triangular matrices."""
    return np.tril(np.asarray(a) * np.asarray(b))


def triangular_elements(n: int) -> int:
    """Number of valid elements of an ``n x n`` lower-triangular matrix."""
    return n * (n + 1) // 2


# -- compiled (executor-backed) implementation ------------------------------------


@lru_cache(maxsize=64)
def make_trmm_schedule(n: int) -> Schedule:
    """Describe ``lower @ dense`` as a CoRa operator with a *variable
    reduction bound*: row ``r`` only reduces over columns ``0 .. r``.

    Memoized per size so repeated calls hit the executor's kernel cache;
    treat the returned schedule as immutable.
    """
    row, col = Dim("row"), Dim("col")
    lower = input_tensor("L", [row, Dim("lk")],
                         [ConstExtent(n), ConstExtent(n)])
    dense = input_tensor("B", [Dim("bk"), col],
                         [ConstExtent(n), ConstExtent(n)])
    axis = reduce_axis(VarExtent(row, np.arange(1, n + 1)), "k")
    op = compute(
        "T", [row, col], [ConstExtent(n), ConstExtent(n)],
        lambda r, c: sum_reduce(
            lower[r, LoopVar(axis.dim)] * dense[LoopVar(axis.dim), c], axis),
    )
    return Schedule(op)


register_schedule_memo("trmm.schedule", make_trmm_schedule)


def trmm_node(program: "Program", lower: str, dense: str, n: int,
              name: str = "trmm", out: Optional[str] = None) -> str:
    """Append the triangular matmul kernel to a program graph.

    ``lower`` / ``dense`` name dense ``(n, n)`` values; the memoized
    variable-reduction-bound schedule of :func:`trmm_compiled` is reused.
    """
    from repro.core.storage import RaggedLayout

    n = int(n)
    out_layout = RaggedLayout([Dim("row"), Dim("col")],
                              [ConstExtent(n), ConstExtent(n)])
    return program.add_kernel(name, make_trmm_schedule(n),
                              {"L": lower, "B": dense}, out_layout, out=out)


def trmm_compiled(lower: np.ndarray, dense: np.ndarray,
                  backend: str = "vector",
                  executor: Optional["Executor"] = None,
                  ) -> Tuple[np.ndarray, "ExecutionReport"]:
    """Run trmm through the CoRa pipeline with the chosen codegen backend."""
    from repro.core.executor import shared_executor

    if executor is None:
        executor = shared_executor(backend)
    n = int(lower.shape[0])
    schedule = make_trmm_schedule(n)
    out, report = executor.build_and_run(
        schedule, {"L": np.asarray(lower, dtype=np.float32),
                   "B": np.asarray(dense, dtype=np.float32)})
    return out.to_dense(), report


# -- FLOP models -------------------------------------------------------------------


def trmm_ragged_flops(n: int, tile: int = 64, pad_reduction: bool = False) -> float:
    """FLOPs of the ragged trmm.

    With ``pad_reduction=True`` the variable reduction loop of each row tile
    is padded up to a multiple of the tile size (the *unsplit* variant);
    operation splitting removes that padding.
    """
    total = 0.0
    for r0 in range(0, n, tile):
        r1 = min(r0 + tile, n)
        depth = float(r1)
        if pad_reduction:
            depth = float(((r1 + tile - 1) // tile) * tile)
        total += 2.0 * (r1 - r0) * n * depth
    return total


def trmm_dense_flops(n: int) -> float:
    return gemm_flops(n, n, n)


# -- workload builders (Figure 10) ----------------------------------------------------


def _row_tile_work(n: int, tile: int, pad_reduction: bool) -> np.ndarray:
    """Per-row-tile (thread block row) work of the ragged trmm."""
    works = []
    for r0 in range(0, n, tile):
        r1 = min(r0 + tile, n)
        depth = float(((r1 + tile - 1) // tile) * tile) if pad_reduction else float(r1)
        for c0 in range(0, n, tile):
            works.append(2.0 * (r1 - r0) * min(tile, n - c0) * depth)
    return np.asarray(works)


def _tile_utilization(n: int, saturation: int = 2048) -> float:
    """Efficiency factor modelling poor tile utilisation of triangular
    kernels at small sizes (both cuBLAS trmm and CoRa suffer from it), which
    produces the paper's observation that trmm only beats the dense sgemm
    for larger matrices."""
    return n / (n + saturation)


#: Extra work factor triangular kernels pay at low tile utilisation.
_TRIANGULAR_OVERHEAD_SCALE = 2.0


def cublas_sgemm_workload(n: int) -> Workload:
    """cuBLAS's fully padded dense sgemm."""
    kernel = KernelLaunch(
        name="sgemm",
        flops=trmm_dense_flops(n),
        bytes_moved=3.0 * n * n * 4.0,
        impl_class="vendor",
        parallel_tasks=max((n // 64) ** 2, 1),
    )
    return Workload(name="CuBLAS sgemm", kernels=[kernel])


def cublas_trmm_workload(n: int, tile: int = 64) -> Workload:
    """cuBLAS's hand-optimized triangular matrix multiply."""
    work = _row_tile_work(n, tile, pad_reduction=False)
    kernel = KernelLaunch(
        name="trmm",
        flops=trmm_dense_flops(n) / 2.0,
        bytes_moved=2.5 * n * n * 4.0,
        impl_class="vendor",
        parallel_tasks=work.size,
        task_work=work,
        balanced=True,
        indirect_access_overhead=(1.0 - _tile_utilization(n))
        * _TRIANGULAR_OVERHEAD_SCALE,
    )
    return Workload(name="CuBLAS trmm", kernels=[kernel])


def cora_trmm_workload(n: int, tile: int = 64, split: bool = True,
                       balanced: bool = True) -> Workload:
    """The three CoRa trmm variants of Figure 10.

    ``split=False, balanced=False`` is CoRa-UnSplit-Unbalanced;
    ``split=True, balanced=False`` is CoRa-Split-Unbalanced;
    ``split=True, balanced=True``  is CoRa-Split-Balanced.
    """
    pad_reduction = not split
    work = _row_tile_work(n, tile, pad_reduction)
    kernel = KernelLaunch(
        name="trmm-cora",
        flops=trmm_ragged_flops(n, tile, pad_reduction=pad_reduction),
        bytes_moved=2.5 * n * n * 4.0,
        impl_class="compiler",
        parallel_tasks=work.size,
        task_work=work,
        balanced=balanced,
        indirect_access_overhead=0.02
        + (1.0 - _tile_utilization(n)) * _TRIANGULAR_OVERHEAD_SCALE
        + (0.15 if not split else 0.0),
    )
    label = "CoRa-{}-{}".format("Split" if split else "UnSplit",
                                "Balanced" if balanced else "Unbalanced")
    return Workload(name=label, kernels=[kernel])


# -- Table 6 helpers (CoRa side; the Taco side lives in baselines.sparse_compiler) --


def cora_triangular_elementwise_workload(n: int, op: str) -> Workload:
    """CoRa's tradd / trmul: one pass over the valid triangular elements."""
    elements = float(triangular_elements(n))
    kernel = KernelLaunch(
        name=f"{op}-cora",
        flops=elements,
        bytes_moved=3.0 * elements * 4.0,
        impl_class="compiler",
        parallel_tasks=max(int(elements // 4096), 1),
        indirect_access_overhead=0.02,
    )
    return Workload(name=f"CoRa {op}", kernels=[kernel])
