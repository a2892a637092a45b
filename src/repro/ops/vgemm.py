"""Variable-sized batched matrix multiplication (vgemm).

The vgemm operator (Section 7.1, Figure 9) multiplies a batch of matrix
pairs whose dimensions differ per batch element.  The paper compares:

* **Ragged-CoRa** -- CoRa-generated code iterating only over each instance's
  actual dimensions (inner tiles offloaded to the vendor micro-kernel on the
  CPU backend);
* **Ragged-HandOptimized** -- a hand-written vgemm (prior work on the GPU,
  MKL's grouped gemm on the CPU);
* **FullyPadded-HandOptimized** -- the vendor library's *fixed-size* batched
  gemm after padding every instance to the batch maximum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dims import Dim
from repro.core.extents import ConstExtent, VarExtent
from repro.core.executor import register_schedule_memo
from repro.core.ir import LoopVar
from repro.core.operator import compute, input_tensor, reduce_axis, sum_reduce
from repro.core.ragged_tensor import RaggedTensor
from repro.core.schedule import Schedule
from repro.core.storage import RaggedLayout
from repro.data.datasets import uniform_multiple_lengths
from repro.substrates.costmodel import KernelLaunch, Workload, gemm_flops


@dataclass(frozen=True)
class VgemmProblem:
    """One vgemm workload: per-instance (m, n, k) dimensions."""

    ms: np.ndarray
    ns: np.ndarray
    ks: np.ndarray

    @property
    def batch_size(self) -> int:
        return int(self.ms.size)

    def instance_dims(self, i: int) -> Tuple[int, int, int]:
        return int(self.ms[i]), int(self.ns[i]), int(self.ks[i])

    def ragged_flops(self) -> float:
        return float((2.0 * self.ms * self.ns * self.ks).sum())

    def padded_flops(self) -> float:
        return float(2.0 * self.batch_size
                     * self.ms.max() * self.ns.max() * self.ks.max())


def paper_problem(batch_size: int, seed: int = 0,
                  low: int = 512, high: int = 1408, multiple: int = 128,
                  ) -> VgemmProblem:
    """The synthetic workload of Section 7.1: dims are uniform multiples of
    128 in [512, 1408]."""
    ms = uniform_multiple_lengths(batch_size, low, high, multiple, seed=seed)
    ns = uniform_multiple_lengths(batch_size, low, high, multiple, seed=seed + 1)
    ks = uniform_multiple_lengths(batch_size, low, high, multiple, seed=seed + 2)
    return VgemmProblem(ms=ms, ns=ns, ks=ks)


# -- numeric implementations ----------------------------------------------------


def vgemm_reference(a_list: Sequence[np.ndarray], b_list: Sequence[np.ndarray],
                    ) -> List[np.ndarray]:
    """Per-instance matrix products (the definitionally correct result)."""
    return [np.asarray(a) @ np.asarray(b) for a, b in zip(a_list, b_list)]


def vgemm_cora(a_list: Sequence[np.ndarray], b_list: Sequence[np.ndarray],
               tile: int = 64) -> List[np.ndarray]:
    """CoRa-style execution: iterate instances, offload inner tiles to the
    dense micro-kernel (NumPy's gemm standing in for MKL / cuBLAS tiles)."""
    out = []
    for a, b in zip(a_list, b_list):
        a = np.asarray(a, dtype=np.float32)
        b = np.asarray(b, dtype=np.float32)
        m, k = a.shape
        k2, n = b.shape
        if k != k2:
            raise ValueError("inner dimensions do not match")
        c = np.zeros((m, n), dtype=np.float32)
        for i0 in range(0, m, tile):
            i1 = min(i0 + tile, m)
            c[i0:i1] = a[i0:i1] @ b
        out.append(c)
    return out


def vgemm_fully_padded(a_list: Sequence[np.ndarray], b_list: Sequence[np.ndarray],
                       ) -> List[np.ndarray]:
    """The padded baseline: pad every instance to the batch maximum, run a
    fixed-size batched gemm, then slice out the valid regions."""
    ms = [a.shape[0] for a in a_list]
    ks = [a.shape[1] for a in a_list]
    ns = [b.shape[1] for b in b_list]
    mmax, kmax, nmax = max(ms), max(ks), max(ns)
    batch = len(a_list)
    a_pad = np.zeros((batch, mmax, kmax), dtype=np.float32)
    b_pad = np.zeros((batch, kmax, nmax), dtype=np.float32)
    for i, (a, b) in enumerate(zip(a_list, b_list)):
        a_pad[i, :a.shape[0], :a.shape[1]] = a
        b_pad[i, :b.shape[0], :b.shape[1]] = b
    c_pad = a_pad @ b_pad
    return [c_pad[i, :ms[i], :ns[i]] for i in range(batch)]


def random_instances(problem: VgemmProblem, seed: int = 0,
                     ) -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Random input matrices matching a vgemm problem's dimensions."""
    rng = np.random.default_rng(seed)
    a_list, b_list = [], []
    for i in range(problem.batch_size):
        m, n, k = problem.instance_dims(i)
        a_list.append(rng.standard_normal((m, k)).astype(np.float32))
        b_list.append(rng.standard_normal((k, n)).astype(np.float32))
    return a_list, b_list


# -- compiled (executor-backed) implementation ------------------------------------


def make_vgemm_schedule(ms: Sequence[int], ns: Sequence[int],
                        ks: Sequence[int]) -> Schedule:
    """Describe the vgemm batch as a single CoRa ragged operator.

    ``C[b, i, j] = sum_k A[b, i, k] * B[b, k, j]`` with all three inner
    extents variable per batch instance.  Schedules are memoized per
    dimension tuple -- repeated calls with equal problems return the *same*
    schedule object so the executor's kernel cache hits; treat it as
    immutable (copy the operator before rescheduling).
    """
    ms = np.ascontiguousarray(ms, dtype=np.int64)
    ns = np.ascontiguousarray(ns, dtype=np.int64)
    ks = np.ascontiguousarray(ks, dtype=np.int64)
    return _vgemm_schedule_memo(ms.tobytes(), ns.tobytes(), ks.tobytes())


@lru_cache(maxsize=64)
def _vgemm_schedule_memo(ms_bytes: bytes, ns_bytes: bytes,
                         ks_bytes: bytes) -> Schedule:
    ms = np.frombuffer(ms_bytes, dtype=np.int64)
    ns = np.frombuffer(ns_bytes, dtype=np.int64)
    ks = np.frombuffer(ks_bytes, dtype=np.int64)
    bsz = int(ms.size)
    batch, i, j = Dim("batch"), Dim("i"), Dim("j")
    a = input_tensor("A", [batch, Dim("ar"), Dim("ac")],
                     [ConstExtent(bsz), VarExtent(batch, ms),
                      VarExtent(batch, ks)])
    b = input_tensor("B", [batch, Dim("br"), Dim("bc")],
                     [ConstExtent(bsz), VarExtent(batch, ks),
                      VarExtent(batch, ns)])
    axis = reduce_axis(VarExtent(batch, ks), "k")
    op = compute(
        "C", [batch, i, j],
        [ConstExtent(bsz), VarExtent(batch, ms), VarExtent(batch, ns)],
        lambda bb, ii, jj: sum_reduce(
            a[bb, ii, LoopVar(axis.dim)] * b[bb, LoopVar(axis.dim), jj], axis),
    )
    return Schedule(op)


register_schedule_memo("vgemm.schedule", _vgemm_schedule_memo)


def vgemm_layouts(ms: Sequence[int], ns: Sequence[int], ks: Sequence[int],
                  ) -> Tuple[RaggedLayout, RaggedLayout, RaggedLayout]:
    """The ragged layouts of the A / B / C tensors of one vgemm batch."""
    ms = np.asarray(ms, dtype=np.int64)
    ns = np.asarray(ns, dtype=np.int64)
    ks = np.asarray(ks, dtype=np.int64)
    bsz = int(ms.size)
    batch = Dim("batch")
    layout_a = RaggedLayout(
        [batch, Dim("ar"), Dim("ac")],
        [ConstExtent(bsz), VarExtent(batch, ms), VarExtent(batch, ks)])
    layout_b = RaggedLayout(
        [batch, Dim("br"), Dim("bc")],
        [ConstExtent(bsz), VarExtent(batch, ks), VarExtent(batch, ns)])
    layout_c = RaggedLayout(
        [batch, Dim("cr"), Dim("cc")],
        [ConstExtent(bsz), VarExtent(batch, ms), VarExtent(batch, ns)])
    return layout_a, layout_b, layout_c


def vgemm_ragged_inputs(a_list: Sequence[np.ndarray],
                        b_list: Sequence[np.ndarray]) -> Dict[str, RaggedTensor]:
    """Pack the per-instance matrices into the ragged input tensors of
    :func:`make_vgemm_schedule`."""
    ms = [a.shape[0] for a in a_list]
    ks = [a.shape[1] for a in a_list]
    ns = [b.shape[1] for b in b_list]
    layout_a, layout_b, _ = vgemm_layouts(ms, ns, ks)
    return {
        "A": RaggedTensor.from_slices(layout_a, list(a_list)),
        "B": RaggedTensor.from_slices(layout_b, list(b_list)),
    }


def vgemm_node(program: "Program", a: str, b: str, ms: Sequence[int],
               ns: Sequence[int], ks: Sequence[int], name: str = "vgemm",
               out: Optional[str] = None) -> str:
    """Append the variable-sized batched matmul kernel to a program graph.

    ``a`` / ``b`` name ragged values laid out per :func:`vgemm_layouts`;
    the memoized schedule of :func:`vgemm_compiled` is reused so session
    compilation shares the executor's kernel cache.
    """
    _, _, layout_c = vgemm_layouts(ms, ns, ks)
    schedule = make_vgemm_schedule(ms, ns, ks)
    return program.add_kernel(name, schedule, {"A": a, "B": b}, layout_c,
                              out=out)


def vgemm_compiled(a_list: Sequence[np.ndarray], b_list: Sequence[np.ndarray],
                   backend: str = "vector",
                   executor: Optional["Executor"] = None,
                   ) -> Tuple[List[np.ndarray], "ExecutionReport"]:
    """Run the vgemm batch through the CoRa pipeline (lower, codegen, run).

    ``backend`` selects the code generator (``"vector"`` or ``"scalar"``);
    pass an :class:`~repro.core.executor.Executor` to share its kernel
    cache across calls.
    """
    from repro.core.executor import shared_executor

    if executor is None:
        executor = shared_executor(backend)
    ms = [a.shape[0] for a in a_list]
    ns = [b.shape[1] for b in b_list]
    ks = [a.shape[1] for a in a_list]
    schedule = make_vgemm_schedule(ms, ns, ks)
    out, report = executor.build_and_run(schedule,
                                         vgemm_ragged_inputs(a_list, b_list))
    return [out.valid_slice(i) for i in range(len(a_list))], report


# -- workload builders (Figure 9) -------------------------------------------------


def _task_work(problem: VgemmProblem, tile: int) -> np.ndarray:
    """Per-thread-block work: one task per (m-tile, n-tile) of each instance."""
    works = []
    for i in range(problem.batch_size):
        m, n, k = problem.instance_dims(i)
        tiles = max(m // tile, 1) * max(n // tile, 1)
        works.extend([2.0 * tile * tile * k] * tiles)
    return np.asarray(works)


def cora_workload(problem: VgemmProblem, tile: int = 64) -> Workload:
    """Ragged-CoRa: compiler-generated code over the actual dimensions."""
    work = _task_work(problem, tile)
    kernel = KernelLaunch(
        name="vgemm-cora",
        flops=problem.ragged_flops(),
        bytes_moved=float((problem.ms * problem.ks + problem.ks * problem.ns
                           + problem.ms * problem.ns).sum()) * 4.0,
        impl_class="compiler",
        parallel_tasks=work.size,
        task_work=work,
        balanced=True,
        indirect_access_overhead=0.02,
    )
    return Workload(name="Ragged-CoRa", kernels=[kernel])


def hand_optimized_workload(problem: VgemmProblem, tile: int = 64) -> Workload:
    """Ragged-HandOptimized: prior work's hand-written vgemm kernels."""
    work = _task_work(problem, tile)
    kernel = KernelLaunch(
        name="vgemm-handopt",
        flops=problem.ragged_flops(),
        bytes_moved=float((problem.ms * problem.ks + problem.ks * problem.ns
                           + problem.ms * problem.ns).sum()) * 4.0,
        impl_class="handopt",
        parallel_tasks=work.size,
        task_work=work,
        balanced=True,
        # The hand-written vgemm of prior work handles the per-instance
        # dimension bookkeeping with somewhat more per-tile overhead than
        # CoRa's specialised generated code, which is why CoRa matches or
        # slightly beats it on the GPU (Section 7.1).
        indirect_access_overhead=0.06,
    )
    return Workload(name="Ragged-HandOptimized", kernels=[kernel])


def fully_padded_workload(problem: VgemmProblem, tile: int = 64) -> Workload:
    """FullyPadded-HandOptimized: the vendor library's fixed-size batched gemm."""
    mmax, nmax, kmax = problem.ms.max(), problem.ns.max(), problem.ks.max()
    tiles = problem.batch_size * max(mmax // tile, 1) * max(nmax // tile, 1)
    kernel = KernelLaunch(
        name="vgemm-padded",
        flops=problem.padded_flops(),
        bytes_moved=float(problem.batch_size
                          * (mmax * kmax + kmax * nmax + mmax * nmax)) * 4.0,
        impl_class="vendor",
        parallel_tasks=int(tiles),
    )
    return Workload(name="FullyPadded-HandOptimized", kernels=[kernel])
