"""Data-parallel steps: a compiled step runs as one chunk per usable core.

CoRa's schedules are parallel loop nests whose ragged work the compiler
balances across threads itself.  Here that is a property of a compiled
*step*: when :class:`~repro.core.session.CompiledProgram` pre-resolves its
steps, one estimated to hold :data:`CHUNK_S` of work for two chunks or more
becomes a :class:`SplitStep` -- row ranges of a row-wise host node
(:func:`split_rows`), balanced shares of a generated kernel's bucket list
(:func:`split_buckets`).  The calling thread runs chunk 0, a process-wide
pool of helper threads the others, and the step retires when all have.
Chunks write disjoint parts of the outputs with the arithmetic of the whole
step, so results are bit-identical; a step below the gate, and every step
on one core, is left the object it was.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.program import ProgramError

#: Estimated serial seconds every chunk carries: several thread hand-offs
#: (16 us warm, ~50 us cold).  It also keeps a GEMM chunk far above the
#: M*N*K = 1e6 under which OpenBLAS switches to small-matrix kernels that
#: sum in another order (150 us at the rate below is 7.5e6).
CHUNK_S = 150e-6
#: Estimated seconds a kernel's bucket iteration must carry: below it the
#: iteration's short NumPy calls mostly hold the GIL, and two threads
#: taking turns are slower than one.
BUCKET_S = 50e-6
#: Single-core rates of the estimates: a hidden-512 projection, the small
#: per-sequence matmuls of a ragged kernel, one ufunc pass over memory.
GEMM_FLOPS_PER_S = 1e11
KERNEL_FLOPS_PER_S = 2.5e10
ELEMENTS_PER_S = 2e9

#: Set in the process-pool engine's workers: they are that engine's
#: parallelism, and run their steps whole.
whole_steps = False

_pool = None
_pool_lock = threading.Lock()


def usable_cores() -> int:
    """Cores this process may run on: its affinity mask where the platform
    has one (a container pinned to 2 of 8 CPUs has 2), else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _helpers() -> ThreadPoolExecutor:
    """The helper threads: started by the first split step that runs,
    shared by every session, joined at interpreter exit."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, usable_cores() - 1),
                                       thread_name_prefix="repro-par")
        return _pool


class SplitStep:
    """``fn`` over each of several chunks (argument tuples) in place of one
    call over the whole step, whose own arguments are ignored.  Whether a
    step is split is decided when its program is compiled; ``build`` makes
    the chunks when it first runs (a first-seen signature compiles on the
    serving path, and a program that never runs here needs none)."""

    __slots__ = ("fn", "_build", "_chunks")

    def __init__(self, fn: Callable, build: Callable[[], Sequence[Tuple]]):
        self.fn, self._build, self._chunks = fn, build, None

    @property
    def chunks(self) -> Tuple[Tuple, ...]:
        if self._chunks is None:
            self._chunks, self._build = tuple(self._build()), None
        return self._chunks

    def __call__(self, *_whole) -> None:
        first, *rest = self.chunks
        submit = _helpers().submit
        pending = [submit(self.fn, *chunk) for chunk in rest]
        errors = []
        try:
            self.fn(*first)
        except BaseException as exc:
            errors.append(exc)
        # The arena is the next run's: no chunk may outlive the step, so
        # every sibling is waited for even when one has already failed.
        errors += [exc for exc in [f.exception() for f in pending]
                   if exc is not None]
        if errors:
            raise errors[0]


def parts_for(seconds: float, cores: int) -> int:
    """Chunks for a step of estimated serial ``seconds`` (1: leave it)."""
    return max(1, min(cores, int(seconds / CHUNK_S)))


def row_chunks(n: int, parts: int, least: int = 2) -> List[Tuple[int, int]]:
    """At most ``parts`` near-equal ranges tiling ``[0, n)``, each of
    ``least`` or more: a one-row GEMM is a gemv, whose sums differ in the
    last bits from the same row of the whole product."""
    parts = max(1, min(parts, n // least))
    cuts = [n * i // parts for i in range(parts + 1)]
    return list(zip(cuts, cuts[1:]))


def split_rows(fn: Callable, args: Tuple, sliced: Sequence[bool],
               parts: int) -> SplitStep:
    """``fn`` over at most ``parts`` row chunks of its ``sliced`` arguments
    (the others are passed whole to every chunk)."""
    rows = {getattr(a, "shape", (None,))[0] if cut else len(args[0])
            for a, cut in zip(args, sliced)}
    if len(rows) != 1:
        raise ProgramError("a row-wise node needs dense outputs and inputs "
                           f"of one leading extent, got {rows}")
    return SplitStep(fn, lambda: [
        tuple([a[lo:hi] if cut else a for a, cut in zip(args, sliced)])
        for lo, hi in row_chunks(len(args[0]), parts)])


def bucket_shares(sizes: Sequence[int], weights: Sequence[float],
                  parts: int) -> List[List[Tuple[int, int, int]]]:
    """Bucket ``i`` (``sizes[i]`` instances, ``weights[i]`` work) dealt to
    ``parts`` workers as ``(i, lo, hi)`` instance ranges: a multi-instance
    bucket is cut into up to ``parts`` pieces first, then the pieces go
    heaviest first to the least loaded worker (LPT: no worker exceeds the
    mean load by more than the heaviest piece)."""
    pieces = [(weight * (hi - lo) / size, i, lo, hi)
              for i, (size, weight) in enumerate(zip(sizes, weights))
              for lo, hi in row_chunks(size, parts, least=1)]
    loads = [0.0] * parts
    shares: List[List[Tuple[int, int, int]]] = [[] for _ in range(parts)]
    for weight, *piece in sorted(pieces, reverse=True):
        worker = loads.index(min(loads))
        loads[worker] += weight
        shares[worker].append(tuple(piece))
    return shares


def split_buckets(kernel: Callable, lowered, buffers: Dict[str, np.ndarray],
                  aux: Dict[str, object], cores: int, memo: Dict) -> Callable:
    """``kernel``, or ``kernel`` over per-worker shares of ``aux['buckets']``
    when its estimated seconds -- its largest operand as one ufunc pass, or
    output elements x reduction extents (a variable one at its longest) as
    multiply-adds -- give two chunks or more and :data:`BUCKET_S` a bucket.
    (The exact count, ``CompiledKernel.flops``, walks the loop nest: 11-15 us
    a kernel, on the compile path of every batch.)  The shares are a product
    of the program's one raggedness signature: ``memo`` keeps them, by
    bucket sizes, for its other kernels."""
    buckets, tables = aux.get("buckets"), lowered.aux_arrays
    elements = max([b.size for b in buffers.values()])
    # No contraction does more flops than 2 * (largest operand) ** 1.5.
    if (elements ** 1.5 < CHUNK_S * KERNEL_FLOPS_PER_S or not buckets
            or len(buckets) + buckets[0].size < 3):
        return kernel               # too small by far, or one instance
    flops = 2.0 * buffers[lowered.output_plan.spec.name].size
    for bound in lowered.reduction_bounds.values():
        flops *= bound.value if bound.is_const \
            else max(tables[bound.table_name].tolist())
    seconds = max(elements / ELEMENTS_PER_S, flops / KERNEL_FLOPS_PER_S)
    parts = parts_for(seconds, cores)
    if parts < 2 or seconds < len(buckets) * BUCKET_S:
        return kernel

    def chunks() -> List[Tuple]:
        key = (tuple([b.size for b in buckets]), parts)
        if key not in memo:
            # Work per bucket: instances x the extents of its variable loops.
            extents = [tables[bound.table_name].tolist() for bound in
                       (*[loop.bound for loop in lowered.loops[1:]],
                        *lowered.reduction_bounds.values())
                       if not bound.is_const]
            memo[key] = bucket_shares(key[0], [
                b.size * math.prod([e[b[0]] for e in extents])
                for b in buckets], parts)
        return [(buffers, dict(aux, buckets=[
            buckets[i][lo:hi] for i, lo, hi in share]))
            for share in memo[key] if share]

    return SplitStep(kernel, chunks)
