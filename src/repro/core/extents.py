"""Loop and dimension extents.

In a ragged operator the bound of an inner loop (and the size of the
corresponding tensor-dimension slice) is a *function of the iteration
variables of outer loops* -- in the paper's terminology an **uninterpreted
function** such as ``s(o)`` (Sections 4 and 5).  At compile time CoRa treats
these functions symbolically; at run time the prelude materialises them as
plain arrays.

This module provides the small class hierarchy used to represent extents:

* :class:`ConstExtent` -- a constant bound (a *cloop* / *cdim*).
* :class:`VarExtent` -- a bound that is a function of exactly one outer named
  dimension (a *vloop* / *vdim*).  This mirrors the prototype restriction in
  Section 6 of the paper ("our prototype allows vdims to depend on at most
  one outer tensor dimension").
* :class:`PaddedExtent` -- an extent padded up to a multiple of a constant,
  produced by the ``pad_loop`` / ``pad_dimension`` scheduling primitives.

Extents are callable: ``extent(outer_index)`` returns the concrete bound.
They accept NumPy integer arrays as well as Python ints so the prelude can
evaluate them vectorised over a whole mini-batch.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.core.dims import Dim
from repro.core.errors import CoraError

IndexLike = Union[int, np.ndarray]


def ceil_to(value: IndexLike, multiple: int) -> IndexLike:
    """Round ``value`` up to the nearest multiple of ``multiple``.

    Works elementwise on NumPy arrays.  ``multiple`` must be positive.
    """
    if multiple <= 0:
        raise ValueError(f"padding multiple must be positive, got {multiple}")
    if isinstance(value, np.ndarray):
        return ((value + multiple - 1) // multiple) * multiple
    return ((int(value) + multiple - 1) // multiple) * multiple


class Extent:
    """Abstract base class for loop / dimension extents."""

    #: Named dimensions this extent depends on (empty for constants).
    deps: tuple[Dim, ...] = ()

    @property
    def is_constant(self) -> bool:
        """Whether this extent is a compile-time constant."""
        return not self.deps

    def __call__(self, *indices: IndexLike) -> IndexLike:
        raise NotImplementedError

    def max_value(self) -> int:
        """An upper bound on the extent over all outer indices.

        Used to size fully padded (dense) buffers and to compute the amount
        of wasted computation padding would cause.
        """
        raise NotImplementedError

    def padded(self, multiple: int) -> "Extent":
        """Return this extent padded up to a multiple of ``multiple``."""
        if multiple == 1:
            return self
        return PaddedExtent(self, multiple)

    # -- convenience -------------------------------------------------------

    def values(self, outer_count: Optional[int] = None) -> np.ndarray:
        """Evaluate the extent for every outer index ``0..outer_count-1``.

        For a constant extent ``outer_count`` may be omitted and a length-1
        array is returned.
        """
        if self.is_constant:
            return np.asarray([self()], dtype=np.int64)
        if outer_count is None:
            raise ValueError("outer_count is required for a variable extent")
        idx = np.arange(outer_count, dtype=np.int64)
        return np.asarray(self(idx), dtype=np.int64)

    def total(self, outer_count: Optional[int] = None) -> int:
        """Sum of the extent over all outer indices (the fused-loop bound F)."""
        if self.is_constant:
            return int(self())
        return int(self.values(outer_count).sum())


class ConstExtent(Extent):
    """A constant extent -- the bound of a *cloop* / size of a *cdim*."""

    def __init__(self, value: int):
        value = int(value)
        if value < 0:
            raise ValueError(f"extent must be non-negative, got {value}")
        self.value = value
        self.deps = ()

    def __call__(self, *indices: IndexLike) -> int:
        return self.value

    def max_value(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"ConstExtent({self.value})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ConstExtent) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("ConstExtent", self.value))


class VarExtent(Extent):
    """An extent that is a function of one outer named dimension.

    Parameters
    ----------
    dep:
        The outer :class:`~repro.core.dims.Dim` the extent depends on.
    fn:
        Either a callable mapping an outer index (int or int array) to the
        bound, or a sequence/array of per-index bounds (the common case of
        a ``lengths`` tensor).
    name:
        Optional symbolic name used in generated code (defaults to ``s``).
    """

    def __init__(
        self,
        dep: Dim,
        fn: Union[Callable[[IndexLike], IndexLike], Sequence[int], np.ndarray],
        name: str = "s",
    ):
        if not isinstance(dep, Dim):
            raise TypeError(f"dep must be a Dim, got {type(dep).__name__}")
        self.dep = dep
        self.deps = (dep,)
        self.name = name
        #: per-batch arrays derived from this length function (storage
        #: offsets of the layouts built on it), shared by every layout and
        #: kernel of the mini-batch; lives and dies with the extent
        self.prelude: dict = {}
        if callable(fn):
            self._fn: Callable[[IndexLike], IndexLike] = fn
            self._table: Optional[np.ndarray] = None
        else:
            table = np.asarray(fn, dtype=np.int64)
            if table.ndim != 1:
                raise ValueError("length table must be one-dimensional")
            if table.size and table.min() < 0:
                raise ValueError("lengths must be non-negative")
            self._table = table
            self._fn = lambda i: table[i]

    def __call__(self, *indices: IndexLike) -> IndexLike:
        if len(indices) != 1:
            raise CoraError(
                f"VarExtent depends on exactly one outer dimension "
                f"({self.dep.name}); got {len(indices)} indices"
            )
        return self._fn(indices[0])

    def max_value(self) -> int:
        if self._table is not None:
            return int(self._table.max()) if self._table.size else 0
        raise CoraError(
            "max_value of a callable-backed VarExtent is unknown; "
            "construct it from a length table to enable dense padding"
        )

    @property
    def table(self) -> Optional[np.ndarray]:
        """The per-index bound table, if the extent was built from one."""
        return self._table

    def __getstate__(self):
        # Only table-backed extents round-trip: a callable ``fn`` is an
        # arbitrary closure, so pickling it would silently capture process
        # state.  The AOT disk cache relies on this raising to skip
        # uncacheable kernels.
        if self._table is None:
            raise TypeError(
                "callable-backed VarExtent is not picklable; construct it "
                "from a length table to serialise"
            )
        return {"dep": self.dep, "table": self._table, "name": self.name}

    def __setstate__(self, state):
        self.dep = state["dep"]
        self.deps = (self.dep,)
        self.name = state["name"]
        self.prelude = {}
        table = state["table"]
        self._table = table
        self._fn = lambda i: table[i]

    def __repr__(self) -> str:
        return f"VarExtent({self.name}[{self.dep.name}])"


class PaddedExtent(Extent):
    """An extent padded up to a multiple of a constant.

    Produced by the ``pad_loop`` and ``pad_dimension`` scheduling primitives
    (Section 4.1).  Padding a loop elides conditional checks in vectorised /
    tiled code at the cost of a small amount of wasted computation
    (quantified in Section 7.4 / Figure 22 of the paper).
    """

    def __init__(self, base: Extent, multiple: int):
        if multiple <= 0:
            raise ValueError(f"padding multiple must be positive, got {multiple}")
        # Collapse nested padding into the least common multiple so that
        # ``pad(pad(e, 2), 4)`` behaves like ``pad(e, 4)``.
        if isinstance(base, PaddedExtent):
            multiple = int(np.lcm(multiple, base.multiple))
            base = base.base
        self.base = base
        self.multiple = int(multiple)
        self.deps = base.deps

    def __call__(self, *indices: IndexLike) -> IndexLike:
        return ceil_to(self.base(*indices), self.multiple)

    def max_value(self) -> int:
        return int(ceil_to(self.base.max_value(), self.multiple))

    def __repr__(self) -> str:
        return f"PaddedExtent({self.base!r}, multiple={self.multiple})"


def as_extent(value: Union[int, Extent]) -> Extent:
    """Coerce an int into a :class:`ConstExtent`, passing extents through."""
    if isinstance(value, Extent):
        return value
    if isinstance(value, (int, np.integer)):
        return ConstExtent(int(value))
    raise TypeError(f"cannot interpret {value!r} as an extent")


def loop_padding_of(extent: Extent) -> int:
    """Return the padding multiple applied to ``extent`` (1 if unpadded)."""
    if isinstance(extent, PaddedExtent):
        return extent.multiple
    return 1


def unpadded(extent: Extent) -> Extent:
    """Strip any padding wrapper from ``extent``."""
    if isinstance(extent, PaddedExtent):
        return extent.base
    return extent
