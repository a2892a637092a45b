"""Data-parallel steps: a compiled step runs as one chunk per usable core.

CoRa balances its ragged loop nests across threads itself.  Here, when a
:class:`~repro.core.session.CompiledProgram` resolves its steps, one with
:data:`CHUNK_S` of estimated work for two chunks or more becomes a
:class:`SplitStep`: row ranges of a row-wise host node (:func:`split_rows`)
or balanced shares of a kernel's bucket list (:func:`split_buckets`).  Chunks
write disjoint parts of the outputs with the whole step's arithmetic, so
results are bit-identical; any other step is left the object it was.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from functools import cached_property
from typing import Callable, Dict, List, Sequence, Tuple

from repro.core.program import ROLE_CONSTANT

#: Estimated serial seconds every chunk carries: several thread hand-offs
#: (16 us warm, ~50 us cold).  A GEMM chunk of 150 us (M*N*K = 7.5e6) is also
#: far above the 1e6 under which OpenBLAS sums in another order.
CHUNK_S = 150e-6
#: ... and every bucket iteration of a kernel: shorter ones mostly hold the
#: GIL, and two threads taking turns are slower than one.
BUCKET_S = 50e-6
#: Single-core rates of the estimates: a hidden-512 projection, the small
#: per-sequence matmuls of a ragged kernel, one ufunc pass over memory.
GEMM_FLOPS_PER_S, KERNEL_FLOPS_PER_S, ELEMENTS_PER_S = 1e11, 2.5e10, 2e9
#: The emitter's record that a kernel clears its whole output before its
#: bucket loop: every worker would, the late ones over the others' stores.
_CLEARS_OUTPUT = (("same", (0, "rows"), (0, "count")), False)


def usable_cores() -> int:
    """Cores this process may run on: its affinity mask where the platform
    has one (a container pinned to 2 of 8 CPUs has 2), else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


#: The helpers, shared by every session, joined at interpreter exit.  The
#: pool starts a thread when a chunk finds none idle, so none before then.
_pool = ThreadPoolExecutor(max(1, usable_cores() - 1),
                           thread_name_prefix="repro-par")


class SplitStep:
    """``fn`` over each of several chunks (argument tuples), the caller's
    own arguments ignored.  ``build`` makes the chunks when the step first
    runs: in the compile they cost an encoder program 16 % ``compile_ms``."""

    def __init__(self, fn: Callable, build: Callable[[], Sequence[Tuple]]):
        self.fn, self._build = fn, build

    @cached_property
    def chunks(self) -> Tuple[Tuple, ...]:
        return tuple(self._build())

    def __call__(self, *_whole) -> None:
        first, *rest = self.chunks
        pending = [_pool.submit(self.fn, *chunk) for chunk in rest]
        try:
            self.fn(*first)
        finally:
            wait(pending)   # the arena is the next run's, failed or not
        for future in pending:
            future.result()


def row_chunks(n: int, parts: int, least: int = 2) -> List[Tuple[int, int]]:
    """At most ``parts`` near-equal ranges tiling ``[0, n)``, each of
    ``least`` or more: a one-row GEMM is a gemv, and sums in another order."""
    parts = max(1, min(parts, n // least))
    cuts = [n * i // parts for i in range(parts + 1)]
    return list(zip(cuts, cuts[1:]))


def split_rows(node, args: Tuple, values: Dict, cores: int) -> Callable:
    """Row-wise ``node``'s function, over row chunks of ``args`` if its
    estimated seconds (one ufunc pass over the first output + ``row_flops``
    a row) give two or more.  Outputs and non-constant inputs are cut; were
    those not exactly the arguments with the output's leading extent (a
    constant table with a row per token), the node is left whole."""
    rows = len(args[0])
    seconds = (args[0].size / ELEMENTS_PER_S
               + rows * node.row_flops / GEMM_FLOPS_PER_S)
    parts = min(cores, rows // 2, int(seconds / CHUNK_S))
    if parts < 2 or (cut := [
            values[v].role != ROLE_CONSTANT for v in node.outputs + node.inputs
            ]) != [a.shape[:1] == (rows,) for a in args]:
        return node.fn
    return SplitStep(node.fn, lambda: [
        tuple([a[lo:hi] if c else a for a, c in zip(args, cut)])
        for lo, hi in row_chunks(rows, parts)])


def bucket_shares(sizes: Sequence[int], weights: Sequence[float],
                  parts: int) -> List[List[Tuple[int, int, int]]]:
    """Bucket ``i`` (``sizes[i]`` instances, ``weights[i]`` work) dealt to
    ``parts`` workers as ``(i, lo, hi)`` instance ranges: cut into up to
    ``parts`` pieces, which go heaviest first to the least loaded worker."""
    pieces = [(weight * (hi - lo) / size, i, lo, hi)
              for i, (size, weight) in enumerate(zip(sizes, weights))
              for lo, hi in row_chunks(size, parts, least=1)]
    loads, shares = [0.0] * parts, [[] for _ in range(parts)]
    for weight, *piece in sorted(pieces, reverse=True):
        worker = loads.index(min(loads))
        loads[worker] += weight
        shares[worker].append(tuple(piece))
    return shares


def split_buckets(kernel: Callable, lowered, buffers: Dict,
                  cores: int) -> Callable:
    """``kernel``, over per-worker shares of its ``aux['buckets']`` if its
    estimated seconds (a ufunc pass over its largest operand, or output
    elements x longest reduction extents as multiply-adds) give two chunks
    or more and :data:`BUCKET_S` a bucket.  (``CompiledKernel.flops`` is
    exact, but walks the loop nest: 11-15 us a kernel in every compile.)"""
    aux = lowered.aux_arrays
    buckets = aux.get("buckets")
    elements = max([b.size for b in buffers.values()])
    # No contraction does more flops than 2 * (largest operand) ** 1.5.
    if (cores < 2 or not buckets or len(buckets) + buckets[0].size < 3
            or elements ** 1.5 < CHUNK_S * KERNEL_FLOPS_PER_S
            or _CLEARS_OUTPUT in kernel.decisions):
        return kernel       # one core or instance, too small by far
    reductions = lowered.reduction_bounds.values()
    flops = 2.0 * buffers[lowered.output_plan.spec.name].size
    for bound in reductions:
        flops *= bound.value if bound.is_const \
            else max(aux[bound.table_name].tolist())
    seconds = max(elements / ELEMENTS_PER_S, flops / KERNEL_FLOPS_PER_S)
    parts = min(cores, int(seconds / CHUNK_S))
    if parts < 2 or seconds < len(buckets) * BUCKET_S:
        return kernel

    def chunks() -> List[Tuple]:
        # Work per bucket: instances x the extents of its variable loops.
        extents = [aux[bound.table_name].tolist() for bound in
                   (*[loop.bound for loop in lowered.loops[1:]], *reductions)
                   if not bound.is_const]
        shares = bucket_shares([b.size for b in buckets], [
            b.size * math.prod([e[b[0]] for e in extents])
            for b in buckets], parts)
        return [(buffers, dict(aux, buckets=[
            buckets[i][lo:hi] for i, lo, hi in share]))
            for share in shares if share]

    return SplitStep(kernel, chunks)
