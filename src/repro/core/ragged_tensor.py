"""The ragged tensor runtime object.

A :class:`RaggedTensor` couples a :class:`~repro.core.storage.RaggedLayout`
with a flat NumPy buffer.  It is what the generated kernels and the operator
library read from and write to, and it provides the conversions to and from
fully padded dense arrays that the baselines use.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.dims import Dim
from repro.core.errors import StorageError
from repro.core.extents import ConstExtent, VarExtent
from repro.core.storage import RaggedLayout

ArrayLike = Union[Sequence[float], np.ndarray]


class RaggedTensor:
    """A tensor stored according to a :class:`RaggedLayout`.

    The data lives in a single flat buffer; slices are located through the
    layout's O(1) offset arithmetic.  Construction helpers cover the common
    cases used throughout the operator library and the benchmarks.

    Slice addressing is the host side's prelude: the storage view and the
    valid view of a slice are resolved through the layout once per
    ``(layout, data)`` pair and looked up afterwards, so a host node that
    marshals the same wrapper on every run pays for the bounds and shapes
    on its first run only.  Rebinding :attr:`data` drops the table.
    """

    def __init__(self, layout: RaggedLayout, data: Optional[np.ndarray] = None,
                 dtype: np.dtype = np.float32):
        self.layout = layout
        size = layout.total_size()
        if data is None:
            data = np.zeros(size, dtype=dtype)
        else:
            data = np.asarray(data, dtype=dtype).reshape(-1)
            if data.size != size:
                raise StorageError(
                    f"buffer has {data.size} elements but the layout "
                    f"requires {size}"
                )
        self.data = data

    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        self._data = value
        #: slice index -> (storage view, valid view) of ``value``.
        self._views: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def __reduce__(self):
        # Views pickle as detached copies: ship the layout and the buffer.
        return RaggedTensor, (self.layout, self._data, self._data.dtype)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, layout: RaggedLayout, dtype: np.dtype = np.float32) -> "RaggedTensor":
        return cls(layout, None, dtype=dtype)

    @classmethod
    def from_slices(cls, layout: RaggedLayout, slices: Sequence[np.ndarray],
                    dtype: np.dtype = np.float32) -> "RaggedTensor":
        """Build a ragged tensor from one dense array per governing index.

        Each slice array must match the *unpadded* inner shape at that
        index; storage padding (if any) is zero-filled.
        """
        tensor = cls.zeros(layout, dtype=dtype)
        m = layout.governing_extent()
        if len(slices) != m:
            raise StorageError(
                f"expected {m} slices, got {len(slices)}"
            )
        for b, arr in enumerate(slices):
            tensor.set_slice(b, np.asarray(arr, dtype=dtype))
        return tensor

    @classmethod
    def from_dense(cls, layout: RaggedLayout, dense: np.ndarray,
                   dtype: np.dtype = np.float32) -> "RaggedTensor":
        """Copy the valid region of a fully padded dense array into ragged storage."""
        dense = np.asarray(dense, dtype=dtype)
        tensor = cls.zeros(layout, dtype=dtype)
        m = layout.governing_extent()
        for b in range(m):
            valid = tensor.valid_slice_shape(b)
            index = (b,) + tuple(slice(0, s) for s in valid)
            tensor.set_slice(b, dense[index])
        return tensor

    @classmethod
    def random(cls, layout: RaggedLayout, seed: int = 0,
               dtype: np.dtype = np.float32) -> "RaggedTensor":
        """A ragged tensor filled with reproducible uniform random values."""
        rng = np.random.default_rng(seed)
        tensor = cls(layout, rng.standard_normal(layout.total_size()).astype(dtype))
        return tensor

    # -- shapes --------------------------------------------------------------

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nnz(self) -> int:
        """Number of stored elements (including storage padding)."""
        return int(self.data.size)

    @property
    def storage_bytes(self) -> int:
        return int(self.data.nbytes)

    def valid_slice_shape(self, b: int) -> Tuple[int, ...]:
        """Unpadded (useful-data) shape of slice ``b``."""
        shape = []
        for i in range(1, self.layout.ndim):
            ext = self.layout.base_extents[i]
            shape.append(int(ext(b)) if not ext.is_constant else int(ext()))
        return tuple(shape)

    def storage_slice_shape(self, b: int) -> Tuple[int, ...]:
        """Storage (padded) shape of slice ``b``."""
        return self.layout.slice_shape(b)

    # -- element and slice access ---------------------------------------------

    def __getitem__(self, indices: Tuple[int, ...]) -> float:
        if isinstance(indices, int):
            indices = (indices,)
        return float(self.data[self.layout.offset(indices)])

    def __setitem__(self, indices: Tuple[int, ...], value: float) -> None:
        if isinstance(indices, int):
            indices = (indices,)
        self.data[self.layout.offset(indices)] = value

    def _slice_views(self, b: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(storage view, valid view)`` of slice ``b``, resolved once."""
        views = self._views.get(b)
        if views is None:
            start, end = self.layout.slice_bounds(b)
            view = self._data[start:end].reshape(self.storage_slice_shape(b))
            valid = view[tuple(slice(0, s) for s in self.valid_slice_shape(b))]
            views = self._views[b] = (view, valid)
        return views

    def slice_view(self, b: int) -> np.ndarray:
        """A writable dense view of the (storage-padded) slice at index ``b``."""
        return self._slice_views(b)[0]

    def valid_slice(self, b: int) -> np.ndarray:
        """A view of only the valid (unpadded) region of slice ``b``."""
        return self._slice_views(b)[1]

    def set_slice(self, b: int, values: np.ndarray) -> None:
        """Write ``values`` into the valid region of slice ``b``."""
        target = self.valid_slice(b)
        values = np.asarray(values, dtype=self.dtype)
        if values.shape != target.shape:
            raise StorageError(
                f"slice {b}: expected shape {target.shape}, got {values.shape}"
            )
        target[...] = values

    def iter_slices(self):
        """Iterate over ``(index, valid_slice_view)`` pairs."""
        for b in range(self.layout.governing_extent()):
            yield b, self.valid_slice(b)

    # -- conversions ------------------------------------------------------------

    def to_dense(self, fill: float = 0.0) -> np.ndarray:
        """Expand into a fully padded dense array (padding filled with ``fill``)."""
        dense = np.full(self.layout.dense_shape(), fill, dtype=self.dtype)
        for b, valid in self.iter_slices():
            index = (b,) + tuple(slice(0, s) for s in valid.shape)
            dense[index] = valid
        return dense

    def copy(self) -> "RaggedTensor":
        return RaggedTensor(self.layout, self.data.copy(), dtype=self.dtype)

    # -- comparisons --------------------------------------------------------------

    def allclose(self, other: Union["RaggedTensor", np.ndarray],
                 rtol: float = 1e-4, atol: float = 1e-5) -> bool:
        """Compare the *valid* regions of two tensors.

        ``other`` may be another ragged tensor with the same governing extent
        or a fully padded dense array (only its valid region is compared).
        """
        for b, mine in self.iter_slices():
            if isinstance(other, RaggedTensor):
                theirs = other.valid_slice(b)
                index = tuple(slice(0, s) for s in mine.shape)
                theirs = theirs[index]
            else:
                index = (b,) + tuple(slice(0, s) for s in mine.shape)
                theirs = np.asarray(other)[index]
            if not np.allclose(mine, theirs, rtol=rtol, atol=atol):
                return False
        return True

    def max_abs_diff(self, other: Union["RaggedTensor", np.ndarray]) -> float:
        worst = 0.0
        for b, mine in self.iter_slices():
            if isinstance(other, RaggedTensor):
                theirs = other.valid_slice(b)[tuple(slice(0, s) for s in mine.shape)]
            else:
                theirs = np.asarray(other)[(b,) + tuple(slice(0, s) for s in mine.shape)]
            if mine.size:
                worst = max(worst, float(np.abs(mine - theirs).max()))
        return worst

    def __repr__(self) -> str:
        return (
            f"RaggedTensor(dims={[d.name for d in self.layout.dims]}, "
            f"nnz={self.nnz}, dtype={self.dtype})"
        )


def ragged_from_lengths(
    lengths: Sequence[int],
    inner_shape: Sequence[int] = (),
    pad: int = 1,
    names: Tuple[str, str] = ("batch", "seq"),
    dtype: np.dtype = np.float32,
    seed: Optional[int] = None,
) -> RaggedTensor:
    """Convenience constructor for the common ``[batch, len(b), *inner]`` tensor.

    Parameters
    ----------
    lengths:
        Per-batch-element sequence lengths.
    inner_shape:
        Trailing constant dimensions (e.g. the hidden size).
    pad:
        Storage padding multiple applied to the variable dimension.
    seed:
        If given, fill with reproducible random values; otherwise zeros.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    batch_dim = Dim(names[0])
    len_dim = Dim(names[1])
    dims = [batch_dim, len_dim] + [Dim(f"inner{i}") for i in range(len(inner_shape))]
    extents = [ConstExtent(len(lengths)), VarExtent(batch_dim, lengths)] + [
        ConstExtent(int(s)) for s in inner_shape
    ]
    padding = {len_dim: pad} if pad > 1 else None
    layout = RaggedLayout(dims, extents, storage_padding=padding)
    if seed is None:
        return RaggedTensor.zeros(layout, dtype=dtype)
    return RaggedTensor.random(layout, seed=seed, dtype=dtype)
