"""Prelude generation.

The *prelude* (paper Section 2, Figure 4 and Section 7.4) is host-side code
that runs before the main kernel and materialises the auxiliary data
structures the generated device code needs:

* **storage offsets** -- the cumulative ``A_d`` / ``row_idx`` arrays used by
  the O(1) storage-access lowering (:mod:`repro.core.storage`);
* **loop-fusion maps** -- when two vloops are fused, arrays ``ffo``, ``ffi``
  and ``foif`` that relate the fused iteration variable ``f`` to the original
  variables ``(o, i)`` (Section 5.1);
* an (optional) **host-to-device copy** of those arrays, which on the GPU
  backend is the dominant prelude cost in the paper.

Because the raggedness pattern of a mini-batch is known before any kernels
run (insight I1 of the paper) and is shared across every layer of a model,
the prelude only depends on the sequence lengths and is computed once per
mini-batch.

The module also implements the *sparse storage scheme* used by prior sparse
tensor compilers (CSF-style per-slice position arrays) so the benchmark for
Tables 7-8 can compare the cost of the two schemes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cache import LRUDict
from repro.core.extents import ceil_to
from repro.core.storage import RaggedLayout


@dataclass
class FusionMaps:
    """Arrays relating a fused vloop's variable to the original loop variables.

    ``ffo[f]`` is the outer index, ``ffi[f]`` the inner index corresponding
    to fused index ``f``; ``foif_row[o]`` is the fused index at which outer
    iteration ``o`` starts, so ``foif(o, i) = foif_row[o] + i``.  The fused
    loop bound is ``fused_extent``.
    """

    ffo: np.ndarray
    ffi: np.ndarray
    foif_row: np.ndarray
    fused_extent: int

    def foif(self, o: int, i: int) -> int:
        """The fused index corresponding to ``(o, i)``."""
        return int(self.foif_row[o]) + int(i)

    def check_inverses(self) -> bool:
        """Verify the uninterpreted-function axioms of Appendix B.2."""
        f = np.arange(self.fused_extent, dtype=np.int64)
        recon = self.foif_row[self.ffo] + self.ffi
        return bool(np.array_equal(recon, f))

    @property
    def memory_bytes(self) -> int:
        return int(self.ffo.nbytes + self.ffi.nbytes + self.foif_row.nbytes)


@dataclass
class PreludeResult:
    """Everything the prelude produced for one operator / mini-batch."""

    storage_aux: Dict[str, np.ndarray] = field(default_factory=dict)
    fusion_maps: Dict[str, FusionMaps] = field(default_factory=dict)
    storage_time_s: float = 0.0
    fusion_time_s: float = 0.0
    copy_time_s: float = 0.0

    @property
    def storage_memory_bytes(self) -> int:
        return int(sum(a.nbytes for a in self.storage_aux.values()))

    @property
    def fusion_memory_bytes(self) -> int:
        return int(sum(m.memory_bytes for m in self.fusion_maps.values()))

    @property
    def total_memory_bytes(self) -> int:
        return self.storage_memory_bytes + self.fusion_memory_bytes

    @property
    def total_time_s(self) -> float:
        return self.storage_time_s + self.fusion_time_s + self.copy_time_s


def build_row_offsets(lengths: Sequence[int], pad: int = 1,
                      inner_factor: int = 1) -> np.ndarray:
    """Cumulative start offsets for a ``[batch, len(b) * inner_factor]`` tensor.

    ``pad`` applies storage padding to each length before accumulation,
    matching the ``row_idx_b`` computation in the paper's Figure 4 where the
    output tensor is padded to a multiple of 4.
    """
    lens = np.asarray(lengths, dtype=np.int64)
    padded = ceil_to(lens, pad) * int(inner_factor)
    offsets = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(padded, out=offsets[1:])
    return offsets


def build_fusion_maps(lengths: Sequence[int], pad: int = 1) -> FusionMaps:
    """Build the ``ffo`` / ``ffi`` / ``foif`` arrays for fusing a vloop nest.

    Fuses ``for o in range(M): for i in range(ceil(s(o), pad)*pad)`` into a
    single loop of extent ``sum_o padded(s(o))``.  This is the vectorised
    equivalent of the prelude loop in Figure 4 / Figure 6 of the paper.
    """
    lens = np.asarray(lengths, dtype=np.int64)
    padded = ceil_to(lens, pad)
    foif_row = np.zeros(lens.size + 1, dtype=np.int64)
    np.cumsum(padded, out=foif_row[1:])
    total = int(foif_row[-1])
    ffo = np.repeat(np.arange(lens.size, dtype=np.int64), padded)
    # ffi = f - foif_row[ffo]  (position within the outer iteration)
    ffi = np.arange(total, dtype=np.int64) - foif_row[ffo]
    return FusionMaps(ffo=ffo, ffi=ffi, foif_row=foif_row[:-1].copy(),
                      fused_extent=total)


def bucket_by_signature(count: int,
                        arrays: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Group governing-loop indices by identical per-index signatures.

    ``arrays`` are per-governing-index tables (1-D bound tables or 2-D
    per-instance shape arrays, each with ``count`` leading entries); two
    indices land in the same bucket iff every table agrees on them.  The
    vector backend uses this to execute all instances of one bucket as a
    single stacked NumPy operation, shrinking its Python-level loop from
    O(batch) to O(distinct raggedness signatures).  With no tables at all,
    every index is signature-equal and a single bucket is returned.

    Buckets preserve ascending index order within each group and are
    ordered by first occurrence, so the result is deterministic.
    """
    if count <= 0:
        return []
    idx = np.arange(count, dtype=np.int64)
    if not arrays:
        return [idx]
    cols = [np.asarray(a)[:count].reshape(count, -1) for a in arrays]
    # Hash the signature rows (dicts keep first-occurrence order).  This
    # runs once per kernel instance, in the per-batch prelude: for a
    # mini-batch it beats sorting the rows several times over, and stays
    # linear in ``count``.
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for i, row in enumerate(np.concatenate(cols, axis=1).tolist()):
        groups.setdefault(tuple(row), []).append(i)
    return [np.asarray(g, dtype=np.int64) for g in groups.values()]


def bulk_pad_lengths(lengths: Sequence[int], multiple: int) -> Tuple[np.ndarray, int]:
    """Apply *bulk padding* to a batch of sequence lengths (Section 7.2).

    Bulk padding appends a synthetic "padding sequence" so the *sum* of the
    lengths becomes a multiple of ``multiple`` (64 in the paper's encoder
    implementation).  Returns the possibly extended length array and the
    number of padding elements added.
    """
    lens = np.asarray(lengths, dtype=np.int64)
    total = int(lens.sum())
    padded_total = int(ceil_to(total, multiple))
    extra = padded_total - total
    if extra == 0:
        return lens.copy(), 0
    return np.concatenate([lens, np.asarray([extra], dtype=np.int64)]), extra


class PreludeBuilder:
    """Builds and times the prelude for a set of layouts and fused loops.

    The builder mirrors the structure of the measurements in Section 7.4:
    storage-offset construction, loop-fusion map construction, and the cost
    of copying the resulting arrays to the device (modelled through the
    device's copy bandwidth; the copy itself is a no-op on the host).
    """

    def __init__(self, copy_bandwidth_gbps: float = 12.0,
                 copy_latency_us: float = 10.0,
                 cache: Optional["PreludeCache"] = None):
        self.copy_bandwidth_gbps = copy_bandwidth_gbps
        self.copy_latency_us = copy_latency_us
        #: optional :class:`PreludeCache` reusing fusion maps across builds
        #: of mini-batches with identical length tuples (insight I1).
        self.cache = cache

    def build(
        self,
        layouts: Dict[str, RaggedLayout],
        fused_loops: Optional[Dict[str, Tuple[Sequence[int], int]]] = None,
        copy_to_device: bool = True,
    ) -> PreludeResult:
        """Run the prelude.

        Parameters
        ----------
        layouts:
            Named ragged layouts whose offset arrays are needed.
        fused_loops:
            Mapping from a name to ``(lengths, pad)`` for every fused vloop
            whose fusion maps are needed.
        copy_to_device:
            Whether to account for a host-to-device copy of the auxiliary
            arrays (true for the GPU backend, false for CPUs).
        """
        result = PreludeResult()
        t0 = time.perf_counter()
        for name, layout in layouts.items():
            # With a cache attached, reuse each layout's own memoized aux;
            # without one, force a rebuild so the measured time reflects a
            # real prelude run (the Tables 7-8 benchmarks rely on that).
            aux = layout.build_aux(force=self.cache is None)
            result.storage_aux[name] = aux.row_offsets
        result.storage_time_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        for name, (lengths, pad) in (fused_loops or {}).items():
            if self.cache is not None:
                result.fusion_maps[name] = self.cache.fusion_maps(lengths, pad)
            else:
                result.fusion_maps[name] = build_fusion_maps(lengths, pad)
        result.fusion_time_s = time.perf_counter() - t0

        if copy_to_device:
            nbytes = result.total_memory_bytes
            result.copy_time_s = (
                self.copy_latency_us * 1e-6
                + nbytes / (self.copy_bandwidth_gbps * 1e9)
            )
        return result


# ---------------------------------------------------------------------------
# Prelude memoization (paper insight I1)
# ---------------------------------------------------------------------------


class PreludeCache:
    """Memoizes prelude outputs keyed by the mini-batch length tuple.

    The paper's insight I1: the raggedness pattern of a mini-batch is known
    before any kernel runs *and is shared across every layer of the model*,
    so the row-offset arrays and fusion maps only need to be built once per
    mini-batch, not once per kernel.  Keys are the (lengths, pad) pair;
    values are the materialised arrays.  ``hits`` / ``misses`` expose the
    reuse rate to benchmarks and tests.  Least-recently-used entries are
    evicted beyond ``capacity``, bounding memory when a long-running
    process sees many distinct mini-batches.
    """

    def __init__(self, capacity: int = 128) -> None:
        self.capacity = int(capacity)
        self._fusion: LRUDict = LRUDict(self.capacity)
        self._rows: LRUDict = LRUDict(self.capacity)
        self.hits = 0
        self.misses = 0

    @staticmethod
    def _key(lengths: Sequence[int]) -> bytes:
        return np.ascontiguousarray(lengths, dtype=np.int64).tobytes()

    def fusion_maps(self, lengths: Sequence[int], pad: int = 1) -> FusionMaps:
        """Memoized :func:`build_fusion_maps`."""
        key = (self._key(lengths), int(pad))
        maps = self._fusion.get(key)
        if maps is not None:
            self.hits += 1
            return maps
        self.misses += 1
        maps = build_fusion_maps(lengths, pad=pad)
        self._fusion.put(key, maps)
        return maps

    def row_offsets(self, lengths: Sequence[int], pad: int = 1,
                    inner_factor: int = 1) -> np.ndarray:
        """Memoized :func:`build_row_offsets`."""
        key = (self._key(lengths), int(pad), int(inner_factor))
        offsets = self._rows.get(key)
        if offsets is not None:
            self.hits += 1
            return offsets
        self.misses += 1
        offsets = build_row_offsets(lengths, pad=pad, inner_factor=inner_factor)
        self._rows.put(key, offsets)
        return offsets

    def clear(self) -> None:
        self._fusion.clear()
        self._rows.clear()


# ---------------------------------------------------------------------------
# The CSF-style scheme used by prior sparse tensor compilers (for Tables 7-8)
# ---------------------------------------------------------------------------


@dataclass
class SparseSchemeResult:
    """Auxiliary data for the tree-based sparse storage scheme (Appendix B.1)."""

    pos_arrays: List[np.ndarray]
    build_time_s: float

    @property
    def memory_bytes(self) -> int:
        return int(sum(a.nbytes for a in self.pos_arrays))

    @property
    def entries(self) -> int:
        return int(sum(a.size for a in self.pos_arrays))


def build_sparse_scheme_aux(layout: RaggedLayout) -> SparseSchemeResult:
    """Compute the per-level position arrays a CSF-style scheme would store.

    Unlike CoRa's dgraph-aware lowering, the sparse scheme assumes the slice
    size of every sparse level may depend on *all* outer levels, so each vdim
    level stores one position entry per slice of that level.  For the 4-D
    attention tensor this is ``s1 + s3 * sum_b s(b)`` entries versus CoRa's
    single ``s1 + 1``-entry array.
    """
    t0 = time.perf_counter()
    m = layout.governing_extent()
    batch_idx = np.arange(m, dtype=np.int64)
    pos_arrays: List[np.ndarray] = []
    # Number of slices (fibers) at the current level, per outermost index.
    fibers_per_b = np.ones(m, dtype=np.int64)
    for i in range(1, layout.ndim):
        ext = layout.extents[i]
        if ext.is_constant:
            widths = np.full(m, int(ext()), dtype=np.int64)
        else:
            widths = np.asarray(ext(batch_idx), dtype=np.int64)
        if layout.is_vdim(i):
            # One pos entry per fiber at this level, plus a terminator.
            n_fibers = int(fibers_per_b.sum())
            # The actual pos values are the running sums of widths repeated
            # per fiber; we materialise them to measure realistic build cost.
            repeated = np.repeat(widths, fibers_per_b)
            pos = np.zeros(n_fibers + 1, dtype=np.int64)
            np.cumsum(repeated, out=pos[1:])
            pos_arrays.append(pos)
        fibers_per_b = fibers_per_b * widths
    build_time = time.perf_counter() - t0
    return SparseSchemeResult(pos_arrays=pos_arrays, build_time_s=build_time)
