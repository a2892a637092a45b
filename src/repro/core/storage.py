"""Ragged storage layouts and O(1) storage-access lowering.

This module implements the storage scheme of paper Section 5.3 / Appendix
B.1 (Algorithm 1).  A :class:`RaggedLayout` describes how a (possibly
ragged) tensor is laid out in a flat buffer:

* every dimension has an :class:`~repro.core.extents.Extent` which may be a
  constant (*cdim*) or a function of one outer dimension's index (*vdim*);
* every dimension may additionally carry a *storage padding* multiple, so a
  vdim slice of length ``s(b)`` occupies ``ceil(s(b) / pad) * pad`` elements;
* the data inside each slice is densely packed, so -- unlike CSR-style sparse
  formats -- no per-element indices need to be stored and an access costs a
  constant number of operations once the per-governing-dimension offset
  arrays have been computed by the prelude.

The offset arrays correspond to the ``A_d`` functions of Algorithm 1: for
each dimension ``d`` that governs at least one inner vdim, ``A_d[k]`` is the
cumulative number of elements occupied by slices ``0 .. k-1`` of ``d``.
Because this prototype (like the paper's) restricts vdims to depend on the
outermost dimension, a single cumulative array per tensor suffices; the
general recursive definition is kept in the docstrings for reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.dgraph import DimensionGraph
from repro.core.dims import Dim
from repro.core.errors import StorageError
from repro.core.extents import (
    ConstExtent,
    Extent,
    PaddedExtent,
    VarExtent,
    as_extent,
    ceil_to,
)


@dataclass
class LayoutAux:
    """Auxiliary data structures produced by the prelude for one layout.

    Attributes
    ----------
    row_offsets:
        ``A_0`` of Algorithm 1 -- for each index ``b`` of the governing
        (outermost) dimension, the flat-buffer offset where slice ``b``
        starts.  Has length ``extent(dim 0) + 1`` so ``row_offsets[-1]`` is
        the total storage size.
    slice_shapes:
        Per governing index, the (storage-padded) shape of the inner
        sub-tensor.  Shape ``(extent(dim 0), ndim - 1)``.
    slice_strides:
        Row-major strides matching ``slice_shapes``.
    total_size:
        Total number of elements in the flat buffer.
    """

    row_offsets: np.ndarray
    slice_shapes: np.ndarray
    slice_strides: np.ndarray
    total_size: int

    @property
    def memory_bytes(self) -> int:
        """Bytes occupied by the auxiliary arrays themselves."""
        return int(
            self.row_offsets.nbytes
            + self.slice_shapes.nbytes
            + self.slice_strides.nbytes
        )


class RaggedLayout:
    """The storage layout of a (possibly ragged) tensor.

    Parameters
    ----------
    dims:
        Named dimensions, outermost first.
    extents:
        One extent per dimension.  Ints are accepted and treated as
        constants.
    storage_padding:
        Optional mapping from dimension to a padding multiple; slices of
        that dimension are padded up to the multiple in storage.  This is
        the storage counterpart of ``pad_dimension`` in the paper.
    """

    def __init__(
        self,
        dims: Sequence[Dim],
        extents: Sequence[Union[int, Extent]],
        storage_padding: Optional[Dict[Dim, int]] = None,
    ):
        self.dims: Tuple[Dim, ...] = tuple(dims)
        raw_extents = [as_extent(e) for e in extents]
        if len(self.dims) != len(raw_extents):
            raise StorageError(
                f"got {len(self.dims)} dims but {len(raw_extents)} extents"
            )
        self.storage_padding: Dict[Dim, int] = dict(storage_padding or {})
        for d, mult in self.storage_padding.items():
            if d not in self.dims:
                raise StorageError(f"padding specified for unknown dimension {d!r}")
            if mult <= 0:
                raise StorageError(f"padding multiple must be positive, got {mult}")
        self.base_extents: Tuple[Extent, ...] = tuple(raw_extents)
        self.extents: Tuple[Extent, ...] = self.base_extents \
            if not self.storage_padding else tuple(
                ext.padded(self.storage_padding.get(d, 1))
                for d, ext in zip(self.dims, raw_extents))
        # The common shape -- a cdim governing every vdim -- is valid by
        # construction; anything else goes to the dimension graph, which
        # names the violation.
        deps = {d for ext in self.extents for d in ext.deps}
        self._is_ragged = bool(deps)
        if not self.dims or self.extents[0].deps or deps - {self.dims[0]}:
            DimensionGraph.from_layout(self.dims, self.extents)
            self._validate_prototype_restriction()
        self._aux: Optional[LayoutAux] = None

    @property
    def dgraph(self) -> DimensionGraph:
        """The dependence graph between the layout's dimensions."""
        return DimensionGraph(dims=self.dims, extents=self.extents)

    # -- construction helpers ------------------------------------------------

    @classmethod
    def dense(cls, dims: Sequence[Dim], shape: Sequence[int]) -> "RaggedLayout":
        """A fully dense (padded) layout with constant extents."""
        return cls(dims, [ConstExtent(int(s)) for s in shape])

    @classmethod
    def ragged_2d(
        cls,
        batch_dim: Dim,
        len_dim: Dim,
        batch_size: int,
        lengths: Union[Sequence[int], np.ndarray],
        pad: int = 1,
    ) -> "RaggedLayout":
        """The ubiquitous ``[batch, variable-length]`` layout."""
        lens = np.asarray(lengths, dtype=np.int64)
        if lens.shape != (batch_size,):
            raise StorageError(
                f"lengths must have shape ({batch_size},), got {lens.shape}"
            )
        padding = {len_dim: pad} if pad > 1 else None
        return cls(
            [batch_dim, len_dim],
            [ConstExtent(batch_size), VarExtent(batch_dim, lens)],
            storage_padding=padding,
        )

    # -- structure -----------------------------------------------------------

    @property
    def ndim(self) -> int:
        return len(self.dims)

    def index_of(self, dim: Dim) -> int:
        return self.dgraph.index_of(dim)

    def is_vdim(self, i: int) -> bool:
        return self.dgraph.is_vdim(i)

    @property
    def is_ragged(self) -> bool:
        """True if the layout has at least one variable dimension."""
        return self._is_ragged

    def storage_pad_of(self, i: int) -> int:
        return self.storage_padding.get(self.dims[i], 1)

    def _validate_prototype_restriction(self) -> None:
        """All vdims must depend on the outermost dimension (index 0)."""
        for i in self.dgraph.vdims():
            deps = self.dgraph.incoming(i)
            if deps != [0]:
                raise StorageError(
                    f"vdim {self.dims[i].name} depends on "
                    f"{self.dims[deps[0]].name}; this prototype (like the "
                    "paper's) only supports vdims governed by the outermost "
                    "dimension"
                )

    # -- sizes ----------------------------------------------------------------

    def governing_extent(self) -> int:
        """Extent of the outermost (governing) dimension."""
        return int(self.extents[0]())

    def slice_shape(self, b: int) -> Tuple[int, ...]:
        """The (storage-padded) shape of the sub-tensor at outer index ``b``."""
        shape = []
        for i in range(1, self.ndim):
            ext = self.extents[i]
            shape.append(int(ext(b)) if not ext.is_constant else int(ext()))
        return tuple(shape)

    def dense_shape(self) -> Tuple[int, ...]:
        """The fully padded shape (every extent at its maximum)."""
        return tuple(int(e.max_value()) for e in self.extents)

    def total_size(self) -> int:
        """Total number of stored elements, including storage padding."""
        return int(self.build_aux().total_size)

    def dense_size(self) -> int:
        size = 1
        for s in self.dense_shape():
            size *= s
        return size

    def padding_fraction(self) -> float:
        """Fraction of stored elements that are padding (0 for exact storage)."""
        unpadded = RaggedLayout(self.dims, self.base_extents)
        useful = unpadded.total_size()
        stored = self.total_size()
        if stored == 0:
            return 0.0
        return 1.0 - useful / stored

    # -- auxiliary data (prelude output) --------------------------------------

    def build_aux(self, force: bool = False) -> LayoutAux:
        """Compute the offset arrays (the storage part of the prelude).

        This is the vectorised equivalent of the ``row_idx`` loop in the
        paper's Figure 4: for the governing dimension we accumulate the
        padded sizes of all inner slices.
        """
        if self._aux is not None and not force:
            return self._aux
        # Offsets depend on the extents alone: layouts built on the same
        # length function (a mini-batch's tensors, across operators and
        # layers) share one set through the extent's prelude.
        memo, key = None, []
        for ext in self.extents:
            mult, base = (ext.multiple, ext.base) \
                if isinstance(ext, PaddedExtent) else (1, ext)
            if isinstance(base, ConstExtent):
                key.append((mult, base.value))
            elif isinstance(base, VarExtent) and (
                    memo is None or memo is base.prelude):
                memo = base.prelude
                key.append((mult, None))
            else:
                memo = None
                break
        key = ("layout", *key)
        if memo is not None and not force and key in memo:
            self._aux = memo[key]
            return self._aux
        m = self.governing_extent()
        batch_idx = np.arange(m, dtype=np.int64)
        # Per-governing-index shape of the inner sub-tensor.
        shapes = np.empty((m, max(self.ndim - 1, 1)), dtype=np.int64)
        if self.ndim == 1:
            shapes[:, 0] = 1
        for col, i in enumerate(range(1, self.ndim)):
            ext = self.extents[i]
            if ext.is_constant:
                shapes[:, col] = int(ext())
            else:
                shapes[:, col] = np.asarray(ext(batch_idx), dtype=np.int64)
        # Row-major strides within each slice.
        strides = np.ones_like(shapes)
        for col in range(shapes.shape[1] - 2, -1, -1):
            strides[:, col] = strides[:, col + 1] * shapes[:, col + 1]
        slice_sizes = shapes.prod(axis=1) if self.ndim > 1 else np.ones(m, dtype=np.int64)
        row_offsets = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(slice_sizes, out=row_offsets[1:])
        self._aux = LayoutAux(
            row_offsets=row_offsets,
            slice_shapes=shapes,
            slice_strides=strides,
            total_size=int(row_offsets[-1]),
        )
        if memo is not None:
            memo[key] = self._aux
        return self._aux

    # -- access lowering -------------------------------------------------------

    def offset(self, indices: Sequence[int]) -> int:
        """Flat-buffer offset of element ``indices`` (Algorithm 1, O(1)).

        The offset is ``A_0[b] + sum_i idx_i * stride_i(b)`` where the
        strides are per-governing-index row-major strides over the
        (storage-padded) inner extents.
        """
        if len(indices) != self.ndim:
            raise StorageError(
                f"expected {self.ndim} indices, got {len(indices)}"
            )
        aux = self.build_aux()
        b = int(indices[0])
        if not (0 <= b < self.governing_extent()):
            raise StorageError(
                f"outer index {b} out of range [0, {self.governing_extent()})"
            )
        off = int(aux.row_offsets[b])
        for col, i in enumerate(range(1, self.ndim)):
            idx = int(indices[i])
            extent_here = int(aux.slice_shapes[b, col])
            if not (0 <= idx < extent_here):
                raise StorageError(
                    f"index {idx} out of range [0, {extent_here}) for "
                    f"dimension {self.dims[i].name} at outer index {b}"
                )
            off += idx * int(aux.slice_strides[b, col])
        return off

    def offsets(self, index_arrays: Sequence[np.ndarray]) -> np.ndarray:
        """Vectorised version of :meth:`offset` (no bounds checking)."""
        if len(index_arrays) != self.ndim:
            raise StorageError(
                f"expected {self.ndim} index arrays, got {len(index_arrays)}"
            )
        aux = self.build_aux()
        b = np.asarray(index_arrays[0], dtype=np.int64)
        off = aux.row_offsets[b].astype(np.int64)
        for col, i in enumerate(range(1, self.ndim)):
            idx = np.asarray(index_arrays[i], dtype=np.int64)
            off = off + idx * aux.slice_strides[b, col]
        return off

    def slice_bounds(self, b: int) -> Tuple[int, int]:
        """``(start, end)`` offsets of the slice at governing index ``b``."""
        aux = self.build_aux()
        return int(aux.row_offsets[b]), int(aux.row_offsets[b + 1])

    # -- derived layouts -------------------------------------------------------

    def with_padding(self, padding: Dict[Dim, int]) -> "RaggedLayout":
        """Return a copy of this layout with additional storage padding."""
        merged = dict(self.storage_padding)
        for d, mult in padding.items():
            merged[d] = int(np.lcm(merged.get(d, 1), mult))
        return RaggedLayout(self.dims, self.base_extents, merged)

    def fully_padded(self) -> "RaggedLayout":
        """The dense layout obtained by padding every vdim to its maximum."""
        return RaggedLayout.dense(self.dims, self.dense_shape())

    def fuse_dims(self, outer: Dim, inner: Dim) -> "RaggedLayout":
        """Fuse two adjacent dimensions of the layout (paper Section 5.1).

        The inner dimension must directly follow the outer one.  The fused
        dimension's extent is the sum of the inner extents over the outer
        index range, i.e. the total number of (padded) elements in the pair.
        Fusing a cdim with its governed vdim gives the flat ``[sum of
        lengths]`` layout used for the transformer projection operators.
        """
        i = self.index_of(outer)
        j = self.index_of(inner)
        if j != i + 1:
            raise StorageError(
                f"can only fuse adjacent dimensions; {outer.name} is at {i} "
                f"and {inner.name} is at {j}"
            )
        if i != 0:
            raise StorageError(
                "this prototype only fuses the outermost dimension pair"
            )
        from repro.core.dims import FusedDim  # local import to avoid cycle

        m = self.governing_extent()
        inner_ext = self.extents[j]
        if inner_ext.is_constant:
            fused_total = m * int(inner_ext())
        else:
            fused_total = int(np.asarray(inner_ext(np.arange(m))).sum())
        fused = FusedDim(outer=outer, inner=inner)
        new_dims = [fused] + list(self.dims[j + 1 :])
        new_extents: List[Extent] = [ConstExtent(fused_total)]
        for k in range(j + 1, self.ndim):
            ext = self.base_extents[k]
            if not ext.is_constant:
                raise StorageError(
                    "cannot fuse the governing dimension while inner vdims "
                    "still depend on it"
                )
            new_extents.append(ext)
        padding = {
            d: p for d, p in self.storage_padding.items() if d in new_dims
        }
        return RaggedLayout(new_dims, new_extents, padding)

    def __repr__(self) -> str:
        parts = []
        for i, d in enumerate(self.dims):
            ext = self.extents[i]
            tag = f"{d.name}={ext!r}"
            parts.append(tag)
        return "RaggedLayout(" + ", ".join(parts) + ")"
