"""Vectorized NumPy code generation backend.

Where the scalar backend (:mod:`repro.core.codegen`) emits one Python
``for`` statement per loop and one flat-buffer load per access, this
backend collapses the lowered loop nest into NumPy operations.  It has two
emission modes:

* **bucketed governing loop** (the common case): governing-loop indices are
  grouped into *buckets* of identical raggedness signature (identical bound
  -table and storage-shape entries, see
  :func:`repro.core.prelude.bucket_by_signature`).  Each bucket executes as
  one stacked operation over ``(bucket, ...)`` arrays.  A single-instance
  bucket is addressed through zero-copy strided *views* of the flat
  slabs; only a multi-instance bucket gathers its inputs into a stack
  and scatters its output back.  The remaining Python loop is O(distinct
  signatures), not O(batch).
* **flat fused gather**: a fused governing vloop (``fuse_loops`` of the
  governing cloop with its vloop) executes as a single flat gather over the
  prelude's ``ffo`` / ``ffi`` fusion maps -- no Python loop at all.

**Store-through emission.**  Every value is computed directly into its
destination: the body expression becomes a chain of ``ufunc(..., out=dst)``
calls where ``dst`` is the loop-bounded region of the output slab view (or
of the bucket's stack), matmul-shaped contractions become
``np.matmul(lhs, rhs, out=dst)`` with the operand transposes resolved at
codegen time, and other reductions ``.sum/.max/.min(axis=, out=dst)``.
There is no ``einsum`` path search, no intermediate broadcast and no
temporary-then-copy.  A generated kernel writes *every* element of its
output buffer -- where loop bounds fall short of the storage extents it
clears exactly the padding strips -- so callers never pre-zero
(``GeneratedKernel.fills_output``).

Construct coverage (the matrix below is asserted by the differential tests
in ``tests/test_codegen_vector.py``):

============================  =========  =====================================
construct                     backend    how
============================  =========  =====================================
constant / table inner loops  vector     broadcast axes / slice bounds of the
                                         slab views
elementwise bodies            vector     ``ufunc(..., out=dst)`` chain into
                                         the output region
matmul-shaped contractions    vector     ``np.matmul(a, b_T_view, out=dst)``
                                         (BLAS, batched over leading axes)
other sum / max / min         vector     ``.sum/.max/.min(axis=, out=dst)``
reductions                               over the operand view, or over a
                                         workspace holding a compound body
guarded split vloops          vector     split pair collapsed back to the
                                         original domain; the guard becomes
                                         the trailing slice ``[:bound]``
unguarded (padded) splits     vector     collapsed, bound = tiles * factor
loop bound < storage extent   vector     padding strips cleared per bucket
fused governing vloops        vector     flat gather through ``ffo``/``ffi``
thread remaps                 vector     order-only: stores are disjoint, so
                                         the permutation is a no-op for the
                                         result (noted in the source)
table-bound governing chains  vector     bucketed by bound signature
masked (triangular) SDPA      vector     mask-add operator + softmax chain
                                         (see ``repro.ops.softmax``)
fused kernel regions          vector     members chained in one bucket loop;
                                         internal values live in views of a
                                         caller-provided workspace, reused in
                                         place where region liveness allows
loop pad > storage pad        scalar     slice would silently truncate
diagonal accesses A[b, i, i]  scalar     needs a gather per element
nested splits                 scalar     split of a split-derived loop
non-governing loop fusion     scalar     fusion maps assume the governing dim
variable bounds under fusion  scalar     per-f bounds break rectangularity
remap on variable inner loop  scalar     permutation outruns the bound
============================  =========  =====================================

Anything in the ``scalar`` rows raises :class:`VectorizeError` and
:class:`VectorBackend` transparently falls back to the scalar backend
(recording the reason), which is why the scalar emitter stays the reference
implementation for differential testing.

**Structure and prelude.**  A generated kernel is a pure function of
``(buffers, aux)``: its text names no instance length, instance count or
workspace size, so it is emitted once per kernel *structure* and shared by
every raggedness signature (:func:`repro.core.codegen.structure_kernel`).
What depends on the lengths is (a) the emitter's *decisions* -- does a
loop bound fit, or exactly fill, a storage extent; do two padded extents
agree -- recorded with their outcomes in ``GeneratedKernel.decisions`` and
re-checked for a new instance by :func:`decisions_hold`, and (b) the
*prelude* :func:`bind_prelude` adds to the lowered tables: the bucket
partition ``aux["buckets"]`` and a fused region's workspace offsets
``aux["ws_offsets"]``.  Per-bucket view arithmetic (offsets, shapes)
stays at run time on aux scalars.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.codegen import (
    CodegenBackend,
    GeneratedKernel,
    ScalarBackend,
    _Emitter,
)
from repro.core.dims import Dim
from repro.core.errors import LoweringError
from repro.core.extents import PaddedExtent
from repro.core.ir import (
    BinOp,
    Call,
    Const,
    Expr,
    LoopVar,
    Reduce,
    TensorAccess,
    reductions_in,
)
from repro.core.lowering import BoundSpec, LoweredKernel, LoopSpec, TensorPlan
from repro.core.prelude import bucket_by_signature

_NP_INTRINSICS = {
    "exp": "np.exp",
    "sqrt": "np.sqrt",
    "tanh": "np.tanh",
    "log": "np.log",
}

#: Expression nodes usable as a ufunc operand as-is.
_LEAVES = (Const, LoopVar, TensorAccess)

_NP_BINOPS = {
    "+": "np.add",
    "-": "np.subtract",
    "*": "np.multiply",
    "/": "np.divide",
    "max": "np.maximum",
    "min": "np.minimum",
}


class VectorizeError(LoweringError):
    """The lowered kernel contains a construct this backend cannot vectorize."""


# ---------------------------------------------------------------------------
# Runtime helpers (injected into the generated kernel's namespace)
# ---------------------------------------------------------------------------


def _gather_slices(buf: np.ndarray, row_offsets: np.ndarray,
                   shapes: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The ragged slices at governing indices ``idx`` as one
    ``(len(idx), *shape)`` array.

    All indexed slices share one (storage-padded) shape -- guaranteed by
    signature bucketing.  A single-instance bucket returns a zero-copy
    view of the slab; larger buckets gather into a new dense stack.
    """
    first = idx[0]
    shape = (idx.size, *shapes[first].tolist())
    if idx.size == 1:
        return buf[row_offsets[first]:row_offsets[first + 1]].reshape(shape)
    size = math.prod(shape[1:])
    return buf[row_offsets[idx][:, None] + np.arange(size)].reshape(shape)


def _out_slices(buf: np.ndarray, row_offsets: np.ndarray,
                shapes: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Where a bucket's output slices are computed: the slab itself (a
    view, see :func:`_gather_slices`) for a single-instance bucket, else
    an uninitialised stack that :func:`_scatter_slices` copies back."""
    if idx.size == 1:
        return _gather_slices(buf, row_offsets, shapes, idx)
    return np.empty((idx.size, *shapes[idx[0]].tolist()), dtype=buf.dtype)


def _scatter_slices(buf: np.ndarray, row_offsets: np.ndarray,
                    idx: np.ndarray, values: np.ndarray) -> None:
    """Copy a multi-instance bucket's stack of whole (storage-padded)
    slices back to governing indices ``idx`` -- the inverse of the
    gathering :func:`_gather_slices`.  A single-instance bucket was
    computed in the slab itself: nothing to copy."""
    if idx.size > 1:
        flat = values.reshape(idx.size, -1)
        buf[row_offsets[idx][:, None] + np.arange(flat.shape[1])] = flat


def _out_rows(nd: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """:func:`_out_slices` for a dense output ``nd[governing, ...]``."""
    if idx.size == 1:
        return nd[idx[0]:idx[0] + 1]
    return np.empty((idx.size, *nd.shape[1:]), dtype=nd.dtype)


def _scatter_rows(nd: np.ndarray, idx: np.ndarray,
                  values: np.ndarray) -> None:
    """:func:`_scatter_slices` for a dense output."""
    if idx.size > 1:
        nd[idx] = values


def _workspace(ws: np.ndarray, offset: int, shape, count: int) -> np.ndarray:
    """A ``(count, *shape)`` view of the fused-region workspace at
    ``offset`` -- the stand-in for an internalised value's arena slab."""
    shape = (count, *shape)
    return ws[offset:offset + math.prod(shape)].reshape(shape)


#: Names every generated vector kernel may reference (also what the AOT
#: cache re-``exec``s persisted sources against).
KERNEL_NAMESPACE: Dict[str, object] = {
    "np": np,
    "_gather_slices": _gather_slices,
    "_out_slices": _out_slices,
    "_scatter_slices": _scatter_slices,
    "_out_rows": _out_rows,
    "_scatter_rows": _scatter_rows,
    "_workspace": _workspace,
}


def _flatten_product(expr: Expr):
    """Decompose ``expr`` into (constant factors, tensor accesses) if it is a
    pure product of those; return ``None`` otherwise."""
    if isinstance(expr, Const):
        return [float(expr.value)], []
    if isinstance(expr, TensorAccess):
        return [], [expr]
    if isinstance(expr, BinOp) and expr.op == "*":
        left = _flatten_product(expr.lhs)
        right = _flatten_product(expr.rhs)
        if left is None or right is None:
            return None
        return left[0] + right[0], left[1] + right[1]
    return None


@dataclass
class _VecBound:
    """An effective loop bound: a :class:`BoundSpec` times a constant scale.

    The scale collapses an unguarded split pair back into its original
    domain (``tiles * factor``); guarded pairs use the guard bound with
    scale 1 (the guard *is* the original domain).
    """

    base: BoundSpec
    scale: int = 1

    @property
    def is_const(self) -> bool:
        return self.base.is_const

    def const_value(self) -> int:
        return int(self.base.value) * self.scale

    def ref(self, member: int) -> Tuple:
        """The bound over every governing index, as a table reference."""
        if self.base.is_const:
            return (member, "const", self.const_value())
        return (member, "bound", self.base.table_name, self.scale)


@dataclass
class _AliasSource:
    """A fused-region internal value held in a workspace view.

    ``var`` names the view: shape ``(_nb, *padded_extents)`` per bucket
    -- exactly the array a slab view of the value would be, so NumPy
    sees identical shapes and strides fused and unfused (matmul and the
    pairwise reductions are layout-sensitive at the ULP level).
    ``tables`` references, per store axis, the producer's storage-padded
    extents over every governing index; consumers check both their own
    padding (must be equal) and their loop bounds (must fit) against
    them at compile time.
    """

    var: str
    tables: Tuple[Tuple, ...]


@dataclass
class _AliasOut:
    """Where an internal member's store goes inside a fused region:
    ``var`` becomes a view of workspace region ``region`` (its element
    offset is the instance's ``aux["ws_offsets"][region]``), or -- when
    ``reuse`` names the view of an input that dies at this member and is
    only read elementwise -- that view itself, so the member overwrites
    its input in place."""

    var: str
    region: int = 0
    reuse: Optional[str] = None


# ---------------------------------------------------------------------------
# Length-dependent decisions and the prelude they leave to the instance
# ---------------------------------------------------------------------------


def _resolve(ref: Tuple, kernels: Sequence[LoweredKernel]) -> np.ndarray:
    """Evaluate a table reference ``(member, kind, *args)`` on an instance
    (``kernels``: its lowered kernel, or the members of its fused region)."""
    member, kind, *args = ref
    kernel = kernels[member]
    if kind == "const":
        return np.asarray(args, dtype=np.int64)
    if kind == "bound":         # a bound table times its split factor
        return kernel.aux_arrays[args[0]] * args[1]
    if kind == "shape":         # one axis of a ragged tensor's storage
        return kernel.aux_arrays[args[0]][:, args[1]]
    if kind == "dense":         # one axis of a dense tensor (None: output)
        plan = kernel.output_plan if args[0] is None \
            else kernel.input_plans[args[0]]
        return np.asarray([plan.layout.dense_shape()[args[1]]],
                          dtype=np.int64)
    if kind == "count":         # extent of the outermost loop
        return np.asarray([kernel.loops[0].bound.value], dtype=np.int64)
    if kind == "rows":          # governing extent of the output storage
        return np.asarray([kernel.output_plan.layout.governing_extent()],
                          dtype=np.int64)
    row = kernel.aux_arrays[f"{args[0]}_row"]
    if kind == "instances":     # governing extent under a fused loop
        return np.asarray([row.size], dtype=np.int64)
    # "fused": per-governing-index fused (loop-padded) lengths
    total = kernel.aux_arrays[f"{args[0]}_ffo"].size
    return np.diff(np.concatenate([row, [total]]))


def _extent_of(ref: Tuple, kernels: Sequence[LoweredKernel]):
    """The extent a table reference was materialised from, if known."""
    kind = ref[1]
    if kind == "shape":
        return kernels[ref[0]].extents.get(ref[2:])
    if kind == "bound" and ref[3] == 1:
        return kernels[ref[0]].extents.get(ref[2])
    return None


def _same_extent(a: Tuple, b: Tuple,
                 kernels: Sequence[LoweredKernel]) -> bool:
    """Whether two table references are known to agree without looking:
    both were materialised from one extent (the same length function
    under the same padding)."""
    ea = _extent_of(a, kernels)
    eb = _extent_of(b, kernels) if ea is not None else None
    if eb is None:
        return False
    return ea is eb or (
        isinstance(ea, PaddedExtent) and isinstance(eb, PaddedExtent)
        and ea.multiple == eb.multiple and ea.base is eb.base)


def _fit(needed: np.ndarray, available: np.ndarray) -> Optional[bool]:
    """``None`` when a loop bound exceeds its storage extent, else whether
    the bound *equals* the extent at every governing index."""
    comparable = needed.size == available.size \
        or 1 in (needed.size, available.size)
    if not comparable:
        n = min(needed.size, available.size) or 1
        needed, available = needed[:n], available[:n]
    slack = available - needed
    if slack.size and slack.min() < 0:
        return None
    return comparable and not slack.any()


#: decision kind -> its outcome on two resolved tables
_OUTCOMES = {
    "fit": _fit,
    "exceeds": lambda a, b: _fit(a, b) is None,
    "same": lambda a, b: bool(np.array_equal(a.ravel(), b.ravel())),
    "all": lambda a, b: bool(np.all(a == b)),
}


def decisions_hold(decisions: Tuple,
                   kernels: Sequence[LoweredKernel]) -> bool:
    """Whether an instance repeats every recorded emitter decision -- i.e.
    whether the kernel generated under them computes this instance too."""
    tables: Dict[Tuple, np.ndarray] = {}
    for (kind, a, b), outcome in decisions:
        if outcome is True and kind in ("fit", "same") \
                and _same_extent(a, b, kernels):
            continue
        for ref in (a, b):
            if ref not in tables:
                tables[ref] = _resolve(ref, kernels)
        if _OUTCOMES[kind](tables[a], tables[b]) != outcome:
            return False
    return True


def bind_prelude(generated: GeneratedKernel,
                 kernels: Sequence[LoweredKernel],
                 ) -> Tuple[Dict[str, object], int]:
    """The per-instance half of a bucketed kernel: the extra ``aux``
    entries it reads (bucket partition; a fused region's workspace
    offsets) and the workspace elements it needs."""
    if generated.prelude is None:
        return {}, 0
    tables, regions = generated.prelude
    buckets = bucket_by_signature(
        kernels[0].loops[0].bound.value,
        [kernels[member].aux_arrays[name] for member, name in tables])
    extra: Dict[str, object] = {"buckets": buckets}
    if not regions:
        return extra, 0
    # Workspace layout: one region per (non-reusing) internal value,
    # each sized for the bucket that needs the most of it.
    firsts = np.asarray([int(b[0]) for b in buckets], dtype=np.int64)
    counts = np.asarray([b.size for b in buckets], dtype=np.int64)
    offsets, workspace = [], 0
    for refs in regions:
        size = np.ones(1, dtype=np.int64)
        for ref in refs:
            size = size * _resolve(ref, kernels)
        per_bucket = counts * (size[firsts] if size.size > 1 else size)
        offsets.append(workspace)
        workspace += int(per_bucket.max()) if per_bucket.size else 0
    extra["ws_offsets"] = offsets
    return extra, max(workspace, 1)


def _emit_bucket_loop(em: _Emitter) -> None:
    """Open the loop over instance buckets."""
    em.emit("for _bs in aux['buckets']:")
    em.push()
    em.emit("_nb = _bs.size")
    em.emit("_b0 = int(_bs[0])")


class VectorCodeGenerator:
    """Emits the vectorized Python source for one lowered kernel.

    With a ``prefix`` the generator namespaces every emitted local
    (buffers, aux views, bounds, index arrays, reduction temporaries)
    so several member kernels can share one function body and one
    bucket loop -- the fused-region emission of
    :func:`generate_fused_kernel`.  ``value_of`` remaps tensor names to
    program value names for the ``buffers`` dict, ``aux_ns`` prefixes
    the ``aux`` dict keys, and ``alias`` redirects reads of internalised
    values to their producer's workspace view;
    :func:`generate_fused_kernel` then points the store of an internal
    member at a workspace view too (``_alias_out``).  ``kernels`` /
    ``member`` place the kernel among the lowered members of its region
    (what table references resolve against) and ``decisions`` is the
    region-wide record of length-dependent checks.
    """

    def __init__(self, kernel: LoweredKernel, prefix: str = "",
                 value_of: Optional[Dict[str, str]] = None,
                 aux_ns: str = "",
                 alias: Optional[Dict[str, _AliasSource]] = None,
                 kernels: Optional[Sequence[LoweredKernel]] = None,
                 member: int = 0,
                 decisions: Optional[Dict[Tuple, object]] = None):
        self.kernel = kernel
        self._kernels = kernels if kernels is not None else (kernel,)
        self._member = member
        #: (kind, table ref, table ref) -> outcome, in the order made
        self._decisions: Dict[Tuple, object] = \
            decisions if decisions is not None else {}
        self._prefix = prefix
        self._values = value_of or {}
        self._aux_ns = aux_ns
        self._alias = alias or {}
        self._alias_out: Optional[_AliasOut] = None
        #: synthetic leading axis: the bucket axis (loop mode) or the fused
        #: iteration axis (fused mode)
        self._stack_dim = Dim("stack")
        self._analyze()
        #: id(Reduce) -> code of its (out-context aligned) temporary, for
        #: the reductions computed ahead of the body (see _plan_reduces)
        self._reduce_code: Dict[int, str] = {}
        #: id(TensorAccess) -> its (code, dims), built once per emission
        self._access_cache: Dict[int, Tuple[str, Tuple[Dim, ...]]] = {}
        self._temp_count = 0
        #: the store destination's variable and, per stored axis, whether
        #: the loop bound reaches the storage extent (set by _open_store)
        self._out_var = ""
        self._store_full: List[bool] = []
        #: dims of the per-instance loop index arrays already emitted
        self._index_arrays: Dict[Dim, str] = {}
        self._gov_value_var: Optional[str] = None
        self._inner_value_var: Optional[str] = None
        self._accessed_cache: Optional[List[str]] = None

    def _decide(self, kind: str, a: Tuple, b: Tuple, record: bool = True):
        """Make (once) and record a length-dependent decision; one that
        the kernel structure already settles need not be recorded."""
        probe = (kind, a, b)
        if probe in self._decisions:
            return self._decisions[probe]
        outcome = _OUTCOMES[kind](_resolve(a, self._kernels),
                                  _resolve(b, self._kernels))
        if record:
            self._decisions[probe] = outcome
        return outcome

    # -- analysis ------------------------------------------------------------

    def _analyze(self) -> None:
        kernel = self.kernel
        if not kernel.loops:
            raise VectorizeError("kernel has no loops")
        gov = kernel.loops[0]
        if gov.guard is not None:
            raise VectorizeError("outer loop carries a guard")
        if not gov.bound.is_const:
            raise VectorizeError("outer loop bound must be constant")
        if gov.fusion is not None:
            self.mode = "fused"
            self._analyze_fused(gov)
        else:
            self.mode = "loop"
            self._analyze_loop(gov)
        reduces = reductions_in(kernel.body)
        for red in reduces:
            if red.combiner not in ("sum", "max", "min"):
                raise VectorizeError(f"unknown combiner {red.combiner!r}")
            if reductions_in(red.body):
                raise VectorizeError("nested reductions are not vectorized")
        self.reduces = reduces
        # Per-dim bound variable names (collision-safe).
        self._bound_var: Dict[Dim, str] = {
            self._stack_dim: "_nb" if self.mode == "loop" else "_F",
        }
        taken: Dict[str, Dim] = {}
        for dim in self.inner_dims + self.reduce_dims:
            base = f"_n_{self._safe(dim.name)}"
            name = base if taken.get(base, dim) is dim else f"{base}_{dim.uid}"
            taken[name] = dim
            self._bound_var[dim] = name

    def _analyze_loop(self, gov: LoopSpec) -> None:
        kernel = self.kernel
        if kernel.output_dims_fused:
            raise VectorizeError(
                "fused output dimensions without a fused governing loop")
        if gov.split is not None:
            raise VectorizeError("the governing loop itself is split")
        self.gov_dim = gov.dim
        self.gov_count = gov.bound.value
        if kernel.output_dims[0] is not self.gov_dim:
            raise VectorizeError("outer loop is not the output governing dim")
        # Collapse split pairs back into their original dims; everything else
        # maps 1:1.  ``eff`` keeps loop order (split pairs at first member).
        eff: Dict[Dim, Optional[_VecBound]] = {}
        pending: Dict[Dim, Dict[str, LoopSpec]] = {}
        for loop in kernel.loops[1:]:
            if loop.fusion is not None:
                raise VectorizeError(
                    f"inner loop {loop.dim.name} is fused")
            if loop.remap_name is not None and not loop.bound.is_const:
                raise VectorizeError(
                    f"thread remap on variable inner loop {loop.dim.name}")
            if loop.split is None:
                if loop.guard is not None:
                    raise VectorizeError(
                        f"guard on unsplit loop {loop.dim.name}")
                self._check_bound(loop.bound, loop.dim)
                eff[loop.dim] = _VecBound(loop.bound)
                continue
            link = loop.split
            if link.original not in kernel.output_dims:
                raise VectorizeError("nested loop splits are not vectorized")
            pending.setdefault(link.original, {})[link.role] = loop
            eff.setdefault(link.original, None)
        for orig, group in pending.items():
            if "outer" not in group or "inner" not in group:
                raise VectorizeError(
                    f"split of {orig.name} is only partially in the nest")
            outer, inner = group["outer"], group["inner"]
            if outer.guard is not None:
                raise VectorizeError("guard attached to the outer split loop")
            factor = outer.split.factor
            guard = inner.guard
            if guard is not None:
                if (guard.outer_var_dim is not outer.dim
                        or guard.inner_var_dim is not inner.dim
                        or guard.factor != factor):
                    raise VectorizeError("guard does not match its split pair")
                self._check_bound(guard.bound, orig)
                eff[orig] = _VecBound(guard.bound)
            else:
                if not inner.bound.is_const or inner.bound.value != factor:
                    raise VectorizeError(
                        "inner split bound is not the split factor")
                self._check_bound(outer.bound, orig)
                eff[orig] = _VecBound(outer.bound, scale=factor)
        self.inner_dims: Tuple[Dim, ...] = tuple(eff.keys())
        self._eff_bounds: Dict[Dim, _VecBound] = eff  # type: ignore[assignment]
        if set(kernel.output_dims[1:]) != set(self.inner_dims):
            raise VectorizeError(
                "loop dims do not map 1:1 onto output dims")
        self.reduce_dims: Tuple[Dim, ...] = tuple(kernel.reduction_bounds)
        self._red_bounds: Dict[Dim, _VecBound] = {}
        for dim, bound in kernel.reduction_bounds.items():
            self._check_bound(bound, dim)
            self._red_bounds[dim] = _VecBound(bound)

    def _analyze_fused(self, gov: LoopSpec) -> None:
        kernel = self.kernel
        fusion = gov.fusion
        self.map_name = fusion.map_name
        self.gov_dim = fusion.outer_dim
        self.inner_fused_dim = fusion.inner_dim
        if (kernel.output_dims[0] is not fusion.outer_dim
                or len(kernel.output_dims) < 2
                or kernel.output_dims[1] is not fusion.inner_dim):
            raise VectorizeError(
                "fused loop does not cover the two leading output dims")
        eff: Dict[Dim, _VecBound] = {}
        for loop in kernel.loops[1:]:
            if loop.guard or loop.fusion or loop.split:
                raise VectorizeError(
                    f"loop {loop.dim.name} carries a guard/fusion/split "
                    "under a fused governing loop")
            if not loop.bound.is_const:
                raise VectorizeError(
                    "variable inner bound under a fused governing loop")
            eff[loop.dim] = _VecBound(loop.bound)
        self.inner_dims = tuple(eff.keys())
        self._eff_bounds = eff
        if set(kernel.output_dims[2:]) != set(self.inner_dims):
            raise VectorizeError("loop dims do not map 1:1 onto output dims")
        self.reduce_dims = tuple(kernel.reduction_bounds)
        self._red_bounds = {}
        for dim, bound in kernel.reduction_bounds.items():
            if not bound.is_const:
                raise VectorizeError(
                    "variable reduction bound under a fused governing loop")
            self._red_bounds[dim] = _VecBound(bound)
        if kernel.output_dims_fused and not self._decide(
                "same", (self._member, "dense", None, 0),
                (self._member, "count")):
            raise VectorizeError(
                "fused loop extent differs from fused storage extent")

    def _check_bound(self, bound: BoundSpec, dim: Dim) -> None:
        if not bound.is_const and bound.governing is not self.gov_dim:
            raise VectorizeError(
                f"bound of {dim.name} is governed by {bound.governing.name}, "
                "not the outermost loop"
            )

    def _vb_of(self, dim: Dim) -> _VecBound:
        vb = self._eff_bounds.get(dim)
        if vb is None:
            vb = self._red_bounds.get(dim)
        if vb is None:
            raise VectorizeError(f"{dim.name} is not a vectorized loop")
        return vb

    # -- public API -----------------------------------------------------------

    def generate(self) -> GeneratedKernel:
        source = self.generate_source()
        namespace = dict(KERNEL_NAMESPACE)
        exec(compile(source, f"<cora-vec:{self.kernel.name}>", "exec"),
             namespace)
        fn = namespace[self._fn_name()]
        prelude = None if self.mode != "loop" else (
            tuple((0, n) for n in self._signature_tables()), ())
        return GeneratedKernel(name=self.kernel.name, source=source, fn=fn,
                               backend="vector", fills_output=True,
                               decisions=tuple(self._decisions.items()),
                               prelude=prelude)

    def _signature_tables(self) -> List[str]:
        names: List[str] = []
        for vb in list(self._eff_bounds.values()) + list(self._red_bounds.values()):
            if not vb.base.is_const:
                names.append(vb.base.table_name)
        for name in self._accessed_tensors():
            plan = self.kernel.input_plans[name]
            if plan.is_ragged:
                names.append(plan.shape_name)
        if self.kernel.output_plan.is_ragged:
            names.append(self.kernel.output_plan.shape_name)
        return list(dict.fromkeys(names))

    @staticmethod
    @lru_cache(maxsize=4096)
    def _sanitize(name: str) -> str:
        return "".join(c if c.isalnum() or c == "_" else "_" for c in name)

    def _safe(self, name: str) -> str:
        clean = self._sanitize(name)
        return f"{self._prefix}_{clean}" if self._prefix else clean

    def _local(self, base: str) -> str:
        """Namespace a fixed-name local (``_ixb``, ``_val``, ``_red0``...)."""
        return f"{base}_{self._prefix}" if self._prefix else base

    def _aux_key(self, name: str) -> str:
        return f"{self._aux_ns}{name}"

    def _value_name(self, tensor_name: str) -> str:
        """The ``buffers`` dict key for a tensor (program value name when
        emitted as a fused-region member, the tensor name otherwise)."""
        return self._values.get(tensor_name, tensor_name)

    def _fn_name(self) -> str:
        return f"cora_vkernel_{self._sanitize(self.kernel.name)}"

    # -- source emission -------------------------------------------------------

    def generate_source(self) -> str:
        kernel = self.kernel
        em = _Emitter()
        em.emit(f"def {self._fn_name()}(buffers, aux):")
        em.push()
        em.emit(f'"""Vectorized (NumPy) CoRa kernel for operator '
                f'{kernel.name!r}."""')
        accessed = self._accessed_tensors()
        self.emit_prolog(em, accessed)
        if self.mode == "fused":
            self._emit_fused_prolog(em)
            self._emit_body(em)
        else:
            gov = kernel.loops[0]
            if gov.remap_name is not None:
                em.emit(f"# thread remap {gov.remap_name!r} is execution-order "
                        "only; bucketed stores are order-independent")
            em.emit("# one iteration per bucket of governing indices with "
                    "equal raggedness")
            _emit_bucket_loop(em)
            self.emit_bucket_body(em, accessed)
            em.pop()
        em.pop()
        return em.source()

    def emit_prolog(self, em: _Emitter, accessed: Sequence[str]) -> None:
        """Emit the per-call setup: buffer views, aux views, dense reshapes.

        Aliased tensors (fused-region internals) have no buffer -- their
        reads and stores go through views of the region workspace instead.
        """
        kernel = self.kernel
        out_name = kernel.output_plan.spec.name
        out_has_buffer = self._alias_out is None
        if out_has_buffer:
            em.emit(f"_buf_{self._safe(out_name)} = "
                    f"buffers[{self._value_name(out_name)!r}]")
        for name in kernel.input_plans:
            if name in accessed and name not in self._alias:
                em.emit(f"_buf_{self._safe(name)} = "
                        f"buffers[{self._value_name(name)!r}]")
        for name in sorted(self._aux_names_used()):
            em.emit(f"_aux_{self._safe(name)} = aux[{self._aux_key(name)!r}]")
        # Dense tensors are reshaped once, outside any instance loop.  In
        # fused mode the reshape is skipped only when *every* access to the
        # tensor goes through the flat-gather path instead.
        for name in accessed:
            plan = kernel.input_plans[name]
            if name in self._alias or plan.is_ragged:
                continue
            if self.mode != "fused" or self._dense_needs_nd(name):
                em.emit(f"_nd_{self._safe(name)} = _buf_{self._safe(name)}"
                        f".reshape({self._dense_shape_code(plan)})")
        if out_has_buffer and not kernel.output_plan.is_ragged:
            em.emit(f"_nd_{self._safe(out_name)} = "
                    f"_buf_{self._safe(out_name)}"
                    f".reshape({self._dense_shape_code(kernel.output_plan)})")
        if out_has_buffer and self.mode == "loop" and not self._decide(
                "same", (self._member, "rows"), (self._member, "count")):
            # Storage rows no governing index reaches: not coverable by
            # per-bucket stores, so the whole buffer is cleared up front.
            em.emit(f"_buf_{self._safe(out_name)}.fill(0.0)")

    @staticmethod
    def _dense_shape_code(plan: TensorPlan) -> str:
        """Reshape arguments of a dense tensor: the leading extent may
        count instances, so it is left to the buffer's size."""
        return ", ".join(["-1"] + [str(s) for s in
                                   plan.layout.dense_shape()[1:]])

    def emit_bucket_body(self, em: _Emitter, accessed: Sequence[str]) -> None:
        """Emit one loop-mode bucket iteration (bounds, gathers, body).

        Assumes ``_bs`` / ``_nb`` / ``_b0`` are in scope -- shared across
        all members when composed into a fused-region kernel.
        """
        self._emit_bounds(em)
        self._emit_views(em, accessed)
        self._emit_body(em)

    def _dense_needs_nd(self, name: str) -> bool:
        """Whether any fused-mode access to dense tensor ``name`` takes the
        plain ``_nd_`` slicing path (no fused outer/inner index) -- such
        accesses need the reshaped view even when other accesses to the
        same tensor go through the flat gather."""
        for expr in self._walk(self.kernel.body):
            if isinstance(expr, TensorAccess) and expr.tensor.name == name:
                if not any(isinstance(idx, LoopVar)
                           and idx.dim in (self.gov_dim, self.inner_fused_dim)
                           for idx in expr.indices):
                    return True
        return False

    def _accessed_tensors(self) -> List[str]:
        if self._accessed_cache is None:
            seen: List[str] = []
            for expr in self._walk(self.kernel.body):
                if isinstance(expr, TensorAccess) \
                        and expr.tensor.name not in seen:
                    if expr.tensor.name not in self.kernel.input_plans:
                        raise VectorizeError(
                            f"access to unknown tensor {expr.tensor.name!r}"
                        )
                    seen.append(expr.tensor.name)
            self._accessed_cache = seen
        return self._accessed_cache

    @staticmethod
    def _walk(expr: Expr):
        yield expr
        for child in expr.children():
            yield from VectorCodeGenerator._walk(child)

    @staticmethod
    def _walk_values(expr: Expr):
        """Like :meth:`_walk` but does not descend into access indices."""
        yield expr
        if isinstance(expr, TensorAccess):
            return
        for child in expr.children():
            yield from VectorCodeGenerator._walk_values(child)

    def _aux_names_used(self) -> List[str]:
        names: List[str] = []
        if self.mode == "fused":
            names.extend([f"{self.map_name}_ffo", f"{self.map_name}_ffi"])
        for vb in list(self._eff_bounds.values()) + list(self._red_bounds.values()):
            if not vb.base.is_const:
                names.append(vb.base.table_name)
        for name in self._accessed_tensors():
            if name in self._alias:
                continue  # reads come from a temporary, no gather aux
            plan = self.kernel.input_plans[name]
            if plan.is_ragged:
                if self.mode == "fused":
                    names.extend([plan.row_name, plan.stride_name])
                else:
                    names.extend([plan.row_name, plan.shape_name])
        out_plan = self.kernel.output_plan
        if out_plan.is_ragged:
            if self._alias_out is None:
                if self.mode == "fused":
                    names.extend([out_plan.row_name, out_plan.stride_name])
                else:
                    names.extend([out_plan.row_name, out_plan.shape_name])
            elif self._alias_out.reuse is None:
                # Workspace views take the storage extents from the
                # shape table at run time.
                names.append(out_plan.shape_name)
        return list(dict.fromkeys(names))

    # -- bounds / views --------------------------------------------------------

    def _vb_code(self, vb: _VecBound) -> str:
        if vb.is_const:
            return str(vb.const_value())
        code = f"int(_aux_{self._safe(vb.base.table_name)}[_b0])"
        if vb.scale != 1:
            code = f"{code} * {vb.scale}"
        return code

    def _emit_bounds(self, em: _Emitter) -> None:
        for dim in self.inner_dims:
            em.emit(f"{self._bound_var[dim]} = "
                    f"{self._vb_code(self._eff_bounds[dim])}")
        for dim in self.reduce_dims:
            em.emit(f"{self._bound_var[dim]} = "
                    f"{self._vb_code(self._red_bounds[dim])}")

    def _emit_views(self, em: _Emitter, accessed: Sequence[str]) -> None:
        for name in accessed:
            if name in self._alias:
                continue  # fed from the producing member's workspace view
            plan = self.kernel.input_plans[name]
            if plan.is_ragged:
                safe = self._safe(name)
                em.emit(f"_v_{safe} = _gather_slices(_buf_{safe}, "
                        f"_aux_{self._safe(plan.row_name)}, "
                        f"_aux_{self._safe(plan.shape_name)}, _bs)")

    def _emit_fused_prolog(self, em: _Emitter) -> None:
        em.emit(f"_ffo = _aux_{self._safe(self.map_name + '_ffo')}")
        em.emit("_F = _ffo.size")
        em.emit(f"_ffi = _aux_{self._safe(self.map_name + '_ffi')}")
        for dim in self.inner_dims:
            em.emit(f"{self._bound_var[dim]} = "
                    f"{self._vb_code(self._eff_bounds[dim])}")
        for dim in self.reduce_dims:
            em.emit(f"{self._bound_var[dim]} = "
                    f"{self._vb_code(self._red_bounds[dim])}")
        # Index arrays double as gather-offset components.
        for dim in self.inner_dims + self.reduce_dims:
            var = "_ix" + self._bound_var[dim][2:]
            em.emit(f"{var} = np.arange({self._bound_var[dim]})")
            self._index_arrays[dim] = var

    # -- body -----------------------------------------------------------------

    def _store_dims(self) -> Tuple[Dim, ...]:
        """The output's stored inner dims (after the governing / fused pair)."""
        return tuple(self.kernel.output_dims[1 if self.mode == "loop" else 2:])

    def _ctx_out(self) -> Tuple[Dim, ...]:
        """Axes of the store destination: the bucket / fused axis, then the
        stored dims in *storage* order (loop order is irrelevant once the
        nest is a set of broadcast axes), so values land untransposed."""
        return (self._stack_dim,) + self._store_dims()

    def _emit_body(self, em: _Emitter) -> None:
        ctx_out = self._ctx_out()
        self._reduce_code = {}
        self._access_cache = {}
        self._temp_count = 0
        if self.mode == "loop":
            self._index_arrays = {}
        self._gov_value_var = None
        self._inner_value_var = None
        # Loop variables used as *values* in the body become arange arrays
        # (governing-loop values become per-instance index arrays).  The walk
        # does not descend into accesses: loop variables inside tensor-access
        # indices become slices / gather offsets instead.
        for expr in self._walk_values(self.kernel.body):
            if not isinstance(expr, LoopVar):
                continue
            dim = expr.dim
            if dim is self.gov_dim and self._gov_value_var is None:
                self._gov_value_var = self._local("_ixb")
                src = "_bs" if self.mode == "loop" else "_ffo"
                em.emit(f"{self._gov_value_var} = {src}.astype(np.float64)")
            elif (self.mode == "fused" and dim is self.inner_fused_dim
                    and self._inner_value_var is None):
                self._inner_value_var = self._local("_ixf")
                em.emit(f"{self._inner_value_var} = _ffi.astype(np.float64)")
            elif (dim in self._bound_var and dim is not self._stack_dim
                    and dim not in self._index_arrays):
                var = "_ix" + self._bound_var[dim][2:]
                em.emit(f"{var} = np.arange({self._bound_var[dim]})")
                self._index_arrays[dim] = var
        dst = self._open_store(em)
        for i, (red, rctx) in enumerate(self._plan_reduces(ctx_out)):
            temp = self._local(f"_red{i}")
            em.emit(f"{temp} = np.empty({self._shape_code(rctx)}, "
                    "dtype=np.float32)")
            self._emit_reduce_into(em, red, temp, rctx)
            self._reduce_code[id(red)] = self._aligned_code(temp, rctx, ctx_out)
        self._emit_into(em, self.kernel.body, dst, ctx_out)
        self._close_store(em)

    # -- reductions -------------------------------------------------------------

    def _reduce_ctx(self, red: Reduce,
                    ctx_out: Tuple[Dim, ...]) -> Tuple[Dim, ...]:
        """The ``ctx_out`` axes a reduction's result actually varies over."""
        stacked = (self.gov_dim,) if self.mode == "loop" \
            else (self.gov_dim, self.inner_fused_dim)
        used = set()
        for expr in self._walk_values(red.body):
            if isinstance(expr, TensorAccess):
                used.update(self._access_info(expr)[1])
            elif isinstance(expr, LoopVar):
                used.add(self._stack_dim if expr.dim in stacked else expr.dim)
        return tuple(d for d in ctx_out if d in used)

    def _plan_reduces(self, ctx_out: Tuple[Dim, ...],
                      ) -> List[Tuple[Reduce, Tuple[Dim, ...]]]:
        """The reductions (with their result axes) that must be computed
        into their own temporary ahead of the body: those whose result
        does not span every output axis (it is broadcast where used) or
        that the body uses twice.  Every other reduction is computed
        straight into its destination by :meth:`_emit_into` when the
        body walk reaches it."""
        uses = Counter(id(e) for e in self._walk_values(self.kernel.body)
                       if isinstance(e, Reduce))
        planned = []
        for red in self.reduces:
            rctx = self._reduce_ctx(red, ctx_out)
            if uses[id(red)] != 1 or rctx != ctx_out:
                planned.append((red, rctx))
        return planned

    def _emit_reduce_into(self, em: _Emitter, red: Reduce, dst: str,
                          rctx: Tuple[Dim, ...]) -> None:
        """Emit ``red`` (whose result spans the ``rctx`` axes) into ``dst``."""
        axes = tuple(a.dim for a in red.axes)
        for dim in axes:
            if dim not in self.kernel.reduction_bounds:
                raise VectorizeError(
                    f"reduction axis {dim.name} has no materialised bound"
                )
        if not (red.combiner == "sum"
                and self._try_emit_matmul(em, red, dst, rctx, axes)):
            ctx_red = rctx + axes
            src = None
            if isinstance(red.body, TensorAccess):
                code, dims = self._access_info(red.body)
                if set(dims) == set(ctx_red):
                    src = self._aligned_code(code, dims, ctx_red)
            if src is None:
                # Compound (or broadcast) body: materialise it once in a
                # workspace of the full reduction domain.
                src = self._new_temp(em, ctx_red)
                self._emit_into(em, red.body, src, ctx_red)
            positions = tuple(range(len(rctx), len(ctx_red)))
            axis = (str(positions[0]) if len(positions) == 1
                    else repr(positions))
            # Match the scalar backend's accumulator semantics (including
            # empty reductions): sum starts at ``init``, max at -inf, min
            # at ``init``.
            if red.combiner == "sum":
                em.emit(f"{src}.sum(axis={axis}, out={dst})")
            elif red.combiner == "max":
                em.emit(f"{src}.max(axis={axis}, out={dst}, "
                        "initial=-np.inf)")
            else:
                em.emit(f"{src}.min(axis={axis}, out={dst}, "
                        f"initial={self._float_code(red.init)})")
        if red.combiner == "sum" and float(red.init) != 0.0:
            em.emit(f"np.add({dst}, {self._float_code(red.init)}, out={dst})")

    @staticmethod
    def _float_code(value: float) -> str:
        value = float(value)
        if np.isinf(value):
            return "-np.inf" if value < 0 else "np.inf"
        return repr(value)

    def _try_emit_matmul(self, em: _Emitter, red: Reduce, dst: str,
                         rctx: Tuple[Dim, ...], axes: Tuple[Dim, ...]) -> bool:
        """``sum_k a[.., i, k] * b[.., k, j]`` (times constants) as one
        ``np.matmul`` straight into ``dst``.

        Applies when the body is a product of exactly two accesses that
        share the single reduction axis ``k``, and the two trailing
        result axes are one free axis of each operand; every leading
        result axis is a (broadcastable) batch axis.  Operand transposes
        are views, so the layout is resolved here, not at run time.
        """
        if len(axes) != 1 or len(rctx) < 2:
            return False
        flattened = _flatten_product(red.body)
        if flattened is None or len(flattened[1]) != 2:
            return False
        consts, accesses = flattened
        k = axes[0]
        (code_a, dims_a), (code_b, dims_b) = (self._access_info(a)
                                              for a in accesses)
        if k not in dims_a or k not in dims_b:
            return False
        row, col = rctx[-2], rctx[-1]
        if row in dims_b and col in dims_a \
                and row not in dims_a and col not in dims_b:
            code_a, dims_a, code_b, dims_b = code_b, dims_b, code_a, dims_a
        if not (row in dims_a and col in dims_b
                and row not in dims_b and col not in dims_a):
            return False
        batch = rctx[:-2]
        lhs = self._aligned_code(code_a, dims_a, batch + (row, k))
        rhs = self._aligned_code(code_b, dims_b, batch + (k, col))
        em.emit(f"np.matmul({lhs}, {rhs}, out={dst})")
        factor = float(np.prod(consts)) if consts else 1.0
        if factor != 1.0:
            em.emit(f"np.multiply({dst}, {factor!r}, out={dst})")
        return True

    # -- store-through expression emission ----------------------------------------

    def _new_temp(self, em: _Emitter, ctx: Tuple[Dim, ...]) -> str:
        temp = self._local(f"_tmp{self._temp_count}")
        self._temp_count += 1
        em.emit(f"{temp} = np.empty({self._shape_code(ctx)}, dtype=np.float32)")
        return temp

    def _is_atom(self, expr: Expr) -> bool:
        """Whether ``expr`` is usable as a ufunc operand as-is: a constant,
        an index array, a tensor view, or an already-computed reduction."""
        return isinstance(expr, _LEAVES) or (
            isinstance(expr, Reduce) and id(expr) in self._reduce_code)

    def _emit_into(self, em: _Emitter, expr: Expr, dst: str,
                   ctx: Tuple[Dim, ...]) -> None:
        """Emit code computing ``expr`` over the ``ctx`` axes into ``dst``.

        One ``ufunc(..., out=dst)`` per operator node, innermost first:
        a compound operand is computed into ``dst`` itself and then
        combined in place, so an expression tree needs no temporaries
        unless both operands of a node are compound (the second then
        gets its own).  The first instruction emitted is the deepest
        leftmost node's -- :meth:`_first_operands` relies on this order.
        """
        if self._is_atom(expr):
            em.emit(f"{dst}[...] = {self._expr_code(expr, ctx)}")
        elif isinstance(expr, Reduce):
            self._emit_reduce_into(em, expr, dst, ctx)
        elif isinstance(expr, Call):
            if len(expr.args) != 1:
                raise VectorizeError(
                    f"intrinsic {expr.fn!r} takes {len(expr.args)} arguments")
            arg = self._operand(em, expr.args[0], dst, ctx)
            if expr.fn == "relu":
                em.emit(f"np.maximum({arg}, 0.0, out={dst})")
            else:
                fn = _NP_INTRINSICS.get(expr.fn)
                if fn is None:
                    raise VectorizeError(f"unknown intrinsic {expr.fn!r}")
                em.emit(f"{fn}({arg}, out={dst})")
        elif isinstance(expr, BinOp):
            ufunc = _NP_BINOPS.get(expr.op)
            if ufunc is None:
                raise VectorizeError(f"unknown operator {expr.op!r}")
            lhs_in_dst = not self._is_atom(expr.lhs)
            lhs = self._operand(em, expr.lhs, dst, ctx)
            if lhs_in_dst and not self._is_atom(expr.rhs):
                rhs = self._new_temp(em, ctx)
                self._emit_into(em, expr.rhs, rhs, ctx)
            else:
                rhs = self._operand(em, expr.rhs, dst, ctx)
            em.emit(f"{ufunc}({lhs}, {rhs}, out={dst})")
        else:
            raise VectorizeError(f"cannot vectorize expression {expr!r}")

    def _operand(self, em: _Emitter, expr: Expr, dst: str,
                 ctx: Tuple[Dim, ...]) -> str:
        """An operand's code: the atom itself, or ``dst`` after computing
        the compound operand into it."""
        if self._is_atom(expr):
            return self._expr_code(expr, ctx)
        self._emit_into(em, expr, dst, ctx)
        return dst

    def _first_operands(self, expr: Expr) -> List[Expr]:
        """The atoms read by the first instruction :meth:`_emit_into`
        emits for ``expr`` -- everything it reads before ``dst`` is first
        written.  Reductions count as reading nothing *safely*: they
        write ``dst`` while still reading their operands."""
        if isinstance(expr, _LEAVES):
            return [expr]
        if isinstance(expr, Call) and len(expr.args) == 1:
            return self._first_operands(expr.args[0])
        if isinstance(expr, BinOp):
            lhs_leaf = isinstance(expr.lhs, _LEAVES)
            if lhs_leaf and isinstance(expr.rhs, _LEAVES):
                return [expr.lhs, expr.rhs]
            return self._first_operands(expr.rhs if lhs_leaf else expr.lhs)
        return []

    def inplace_safe(self, name: str) -> bool:
        """Whether this kernel may store over its input tensor ``name``
        (same storage shape) as it goes: the tensor is read exactly once,
        elementwise at the store position, outside any reduction, and by
        the very first instruction of the store-through chain."""
        reads = [e for e in self._walk(self.kernel.body)
                 if isinstance(e, TensorAccess) and e.tensor.name == name]
        if len(reads) != 1:
            return False
        (read,) = reads
        position = (self.gov_dim,) + self._store_dims()
        if len(read.indices) != len(position) or not all(
                isinstance(i, LoopVar) and i.dim is d
                for i, d in zip(read.indices, position)):
            return False
        return any(e is read for e in self._first_operands(self.kernel.body))

    # -- expressions -----------------------------------------------------------

    def _expr_code(self, expr: Expr, ctx: Tuple[Dim, ...]) -> str:
        """Code of an atom (see :meth:`_is_atom`), aligned to ``ctx``."""
        if isinstance(expr, Reduce):
            return self._reduce_code[id(expr)]
        if isinstance(expr, Const):
            return repr(float(expr.value))
        if isinstance(expr, LoopVar):
            return self._loop_var_code(expr.dim, ctx)
        code, dims = self._access_info(expr)
        return self._aligned_code(code, dims, ctx)

    def _loop_var_code(self, dim: Dim, ctx: Tuple[Dim, ...]) -> str:
        if dim is self.gov_dim:
            if self._gov_value_var is None:
                raise VectorizeError("governing index array was not emitted")
            return self._aligned_code(self._gov_value_var,
                                      (self._stack_dim,), ctx)
        if self.mode == "fused" and dim is self.inner_fused_dim:
            if self._inner_value_var is None:
                raise VectorizeError("fused index array was not emitted")
            return self._aligned_code(self._inner_value_var,
                                      (self._stack_dim,), ctx)
        if dim not in ctx:
            raise VectorizeError(
                f"loop variable {dim.name} is not available here"
            )
        var = self._index_arrays.get(dim)
        if var is None:
            raise VectorizeError(
                f"index array for {dim.name} was not pre-emitted"
            )
        return self._aligned_code(var, (dim,), ctx)

    # -- tensor accesses --------------------------------------------------------

    def _access_info(self, access: TensorAccess) -> Tuple[str, Tuple[Dim, ...]]:
        """Code + axis dims for an access.

        The returned dims follow the produced array's axis order; the stack
        sentinel marks the bucket / fused axis.
        """
        info = self._access_cache.get(id(access))
        if info is None:
            plan = self.kernel.input_plans.get(access.tensor.name)
            if plan is None:
                raise VectorizeError(
                    f"access to unknown tensor {access.tensor.name!r}"
                )
            if self.mode == "fused":
                info = self._access_info_fused(access, plan)
            else:
                info = self._access_info_loop(access, plan)
            self._access_cache[id(access)] = info
        return info

    def _access_info_loop(self, access: TensorAccess,
                          plan: TensorPlan) -> Tuple[str, Tuple[Dim, ...]]:
        alias = self._alias.get(access.tensor.name)
        if alias is not None:
            return self._access_info_alias(access, alias)
        indices = access.indices
        if plan.is_ragged:
            first = indices[0]
            if not (isinstance(first, LoopVar) and first.dim is self.gov_dim):
                raise VectorizeError(
                    f"ragged access to {access.tensor.name!r} is not "
                    "governed by the outer loop"
                )
            inner_indices = indices[1:]
            dims: List[Dim] = [self._stack_dim]
            subs: List[str] = [":"]
            col_base = 0
        else:
            inner_indices = indices
            dims = []
            subs = []
            col_base = 0
        for col, idx in enumerate(inner_indices):
            self._check_index_fits(plan, col_base + col, idx)
            if isinstance(idx, Const):
                subs.append(str(int(idx.value)))
                continue
            if not isinstance(idx, LoopVar):
                raise VectorizeError(
                    f"unsupported index expression {idx!r} on "
                    f"{access.tensor.name!r}"
                )
            if idx.dim is self.gov_dim:
                d: Dim = self._stack_dim
                subs.append("_bs")
            else:
                var = self._bound_var.get(idx.dim)
                if var is None:
                    raise VectorizeError(
                        f"access to {access.tensor.name!r} indexes "
                        f"{idx.dim.name}, which is not a vectorized loop"
                    )
                d = idx.dim
                subs.append(f":{var}")
            if d in dims:
                # Diagonal accesses (A[b, i, i]) would need a per-element
                # gather; leave them to the scalar backend.
                raise VectorizeError(
                    f"access to {access.tensor.name!r} indexes "
                    f"{d.name} more than once"
                )
            dims.append(d)
        prefix = "_v_" if plan.is_ragged else "_nd_"
        name = f"{prefix}{self._safe(access.tensor.name)}"
        code = f"{name}[{', '.join(subs)}]" if subs else name
        return code, tuple(dims)

    def _access_info_alias(self, access: TensorAccess,
                           alias: _AliasSource) -> Tuple[str, Tuple[Dim, ...]]:
        """Read a fused-region internal value straight from its producer's
        workspace view (axes: stack, then the producer's store axes at
        their storage-padded extents).

        The view reproduces buffer semantics bit-for-bit -- padded
        contiguous layout with zeros in the slack, exactly like an arena
        slab -- so the consumer's own storage-padded extents must match
        the producer's, and its loop bounds must stay within them.  Any
        violation rejects the fused emission (the grouped fallback
        reproduces buffer semantics exactly).
        """
        name = access.tensor.name
        plan = self.kernel.input_plans.get(name)
        indices = access.indices
        first = indices[0] if indices else None
        if not (isinstance(first, LoopVar) and first.dim is self.gov_dim):
            raise VectorizeError(
                f"fused alias read of {name!r} is not governed by the "
                "outer loop"
            )
        inner = indices[1:]
        if len(inner) != len(alias.tables):
            raise VectorizeError(
                f"fused alias read of {name!r} has rank {len(inner)}, "
                f"producer stores rank {len(alias.tables)}"
            )
        self._alias_padding_matches(name, plan, alias)
        dims: List[Dim] = [self._stack_dim]
        subs: List[str] = [":"]
        for col, idx in enumerate(inner):
            if isinstance(idx, Const):
                self._alias_fit((self._member, "const", int(idx.value) + 1),
                                alias.tables[col], name, col)
                subs.append(str(int(idx.value)))
                continue
            if not isinstance(idx, LoopVar) or idx.dim is self.gov_dim:
                raise VectorizeError(
                    f"unsupported index expression {idx!r} on fused alias "
                    f"read of {name!r}"
                )
            var = self._bound_var.get(idx.dim)
            if var is None:
                raise VectorizeError(
                    f"fused alias read of {name!r} indexes "
                    f"{idx.dim.name}, which is not a vectorized loop"
                )
            self._alias_fit(self._vb_of(idx.dim).ref(self._member),
                            alias.tables[col], name, col)
            if idx.dim in dims:
                raise VectorizeError(
                    f"fused alias read of {name!r} indexes "
                    f"{idx.dim.name} more than once"
                )
            dims.append(idx.dim)
            subs.append(f":{var}")
        code = f"{alias.var}[{', '.join(subs)}]"
        if plan is not None and not plan.is_ragged:
            # The unfused plan reads dense tensors through an
            # advanced-index copy; match its contiguity.
            code = f"np.ascontiguousarray({code})"
        return code, tuple(dims)

    def _alias_padding_matches(self, name: str, plan: Optional[TensorPlan],
                               alias: _AliasSource) -> None:
        """The consumer's storage-padded extents for ``name`` must equal
        the producer's: the unfused plan would gather an array padded to
        the *consumer's* shape table, and a padding mismatch would hand
        NumPy's layout-sensitive reductions a differently shaped operand.
        """
        if plan is None:
            raise VectorizeError(
                f"fused alias read of unknown tensor {name!r}")
        if len(plan.layout.dims) - 1 != len(alias.tables):
            raise VectorizeError(
                f"fused alias read of {name!r}: consumer storage rank does "
                f"not match {len(alias.tables)} store axes")
        for col, avail in enumerate(alias.tables):
            if plan.is_ragged:
                same = self._decide(
                    "same", (self._member, "shape", plan.shape_name, col),
                    avail)
            else:
                same = self._decide(
                    "all", avail, (self._member, "dense", name, col + 1))
            if not same:
                raise VectorizeError(
                    f"fused consumer pads {name!r} axis {col} "
                    "differently from the producer's storage extents")

    def _alias_fit(self, needed: Tuple, available: Tuple,
                   name: str, col: int) -> None:
        if self._decide("exceeds", needed, available):
            raise VectorizeError(
                f"fused consumer bound exceeds the producer storage extent "
                f"of {name!r} axis {col}"
            )

    def store_bound_tables(self) -> Tuple[Tuple, ...]:
        """References to the per-store-axis *storage-padded* extents --
        the shape of this kernel's workspace view, and what a consuming
        member checks its reads against (loop mode only).

        These are the padded extents a slab view would have, not the
        tighter loop bounds: the workspace mirrors the slab bit-for-bit
        (zeros in the slack, padded contiguous layout), because matmul
        and NumPy reductions are layout-sensitive at the ULP level.
        """
        if self.mode != "loop":
            raise VectorizeError(
                "fused-mode members cannot feed a workspace view")
        out_plan = self.kernel.output_plan
        store_rank = len(self.kernel.output_dims) - 1
        if len(out_plan.layout.dims) - 1 != store_rank:
            raise VectorizeError(
                f"output {out_plan.spec.name!r} storage rank does not "
                f"match {store_rank} store axes")
        if out_plan.is_ragged:
            return tuple((self._member, "shape", out_plan.shape_name, col)
                         for col in range(store_rank))
        return tuple((self._member, "dense", None, col + 1)
                     for col in range(store_rank))

    # -- fused-mode gathers ------------------------------------------------------

    def _fused_lengths(self) -> Tuple:
        """Per-governing-index fused (loop-padded) lengths, from the maps."""
        return (self._member, "fused", self.map_name)

    def _access_info_fused(self, access: TensorAccess,
                           plan: TensorPlan) -> Tuple[str, Tuple[Dim, ...]]:
        indices = access.indices
        uses_stack = any(
            isinstance(i, LoopVar) and i.dim in (self.gov_dim,
                                                 self.inner_fused_dim)
            for i in indices)
        if not plan.is_ragged and not uses_stack:
            # Fused-index-free dense access: plain slicing, no gather.
            return self._access_info_loop(access, plan)
        if plan.is_ragged:
            first = indices[0]
            if not (isinstance(first, LoopVar) and first.dim is self.gov_dim):
                raise VectorizeError(
                    f"ragged access to {access.tensor.name!r} is not "
                    "governed by the fused outer dim"
                )
        return self._fused_gather_code(access, plan)

    def _fused_gather_code(self, access: TensorAccess,
                           plan: TensorPlan) -> Tuple[str, Tuple[Dim, ...]]:
        """Flat-gather code for one fused-mode access: the flat-buffer offset
        of every touched element is built as a broadcast sum of per-index
        terms, then gathered in one fancy-indexing operation."""
        safe = self._safe(access.tensor.name)
        indices = access.indices[1:] if plan.is_ragged else access.indices
        # Offset context: fused axis first, then loop-var dims in index order.
        octx: List[Dim] = [self._stack_dim]
        seen_special = 0
        for idx in indices:
            if not isinstance(idx, (Const, LoopVar)):
                raise VectorizeError(
                    f"unsupported index expression {idx!r} on "
                    f"{access.tensor.name!r}"
                )
            if isinstance(idx, LoopVar):
                if idx.dim in (self.gov_dim, self.inner_fused_dim):
                    seen_special += 1
                    if seen_special > 2 or (plan.is_ragged
                                            and idx.dim is self.gov_dim):
                        raise VectorizeError(
                            f"access to {access.tensor.name!r} re-indexes "
                            "the fused governing pair"
                        )
                elif idx.dim in octx:
                    raise VectorizeError(
                        f"access to {access.tensor.name!r} indexes "
                        f"{idx.dim.name} more than once"
                    )
                elif idx.dim in self._index_arrays:
                    octx.append(idx.dim)
                else:
                    raise VectorizeError(
                        f"access to {access.tensor.name!r} indexes "
                        f"{idx.dim.name}, which is not a vectorized loop"
                    )
        octx_t = tuple(octx)
        parts: List[str] = []
        if plan.is_ragged:
            parts.append(self._aligned_code(
                f"_aux_{self._safe(plan.row_name)}[_ffo]",
                (self._stack_dim,), octx_t))
        const_sum = 0
        for col, idx in enumerate(indices):
            if plan.is_ragged:
                stride_code = (f"_aux_{self._safe(plan.stride_name)}"
                               f"[_ffo, {col}]")
                stride_varies = True
            else:
                stride_code = str(plan.dense_strides[col])
                stride_varies = False
            if isinstance(idx, Const):
                self._check_index_fits(plan, col, idx)
                c = int(idx.value)
                if not c:
                    continue
                if stride_varies:
                    parts.append(self._aligned_code(
                        f"({c} * {stride_code})", (self._stack_dim,), octx_t))
                else:
                    const_sum += c * plan.dense_strides[col]
                continue
            if idx.dim is self.inner_fused_dim:
                self._compare_fit(self._fused_lengths(), plan, col)
                code = "_ffi" if stride_code == "1" \
                    else f"(_ffi * {stride_code})"
                parts.append(self._aligned_code(code, (self._stack_dim,),
                                                octx_t))
            elif idx.dim is self.gov_dim:
                self._compare_fit(
                    (self._member, "instances", self.map_name), plan, col)
                code = "_ffo" if stride_code == "1" \
                    else f"(_ffo * {stride_code})"
                parts.append(self._aligned_code(code, (self._stack_dim,),
                                                octx_t))
            else:
                self._check_index_fits(plan, col, idx)
                var = self._index_arrays[idx.dim]
                if stride_varies:
                    stride_aligned = self._aligned_code(
                        stride_code, (self._stack_dim,), octx_t)
                    var_aligned = self._aligned_code(var, (idx.dim,), octx_t)
                    parts.append(f"({stride_aligned} * {var_aligned})")
                else:
                    code = var if stride_code == "1" \
                        else f"({var} * {stride_code})"
                    parts.append(self._aligned_code(code, (idx.dim,), octx_t))
        if const_sum:
            parts.append(str(const_sum))
        offset = " + ".join(parts) if parts else "0"
        return f"_buf_{safe}[{offset}]", octx_t

    # -- index-fit validation -----------------------------------------------------

    def _check_index_fits(self, plan: TensorPlan, col: int, idx: Expr) -> bool:
        """Reject (-> scalar fallback) accesses whose loop bound can exceed
        the instance's storage extent -- slicing / gathering would silently
        truncate where the scalar backend's flat-offset arithmetic does not.
        Happens when a loop is padded without matching storage padding.
        Returns whether the bound *equals* the extent at every governing
        index (the index sweeps the whole storage axis)."""
        if isinstance(idx, Const):
            needed = (self._member, "const", int(idx.value) + 1)
        elif isinstance(idx, LoopVar) and idx.dim is not self.gov_dim:
            if self.mode == "fused" and idx.dim is self.inner_fused_dim:
                needed = self._fused_lengths()
            else:
                needed = self._vb_of(idx.dim).ref(self._member)
        else:
            return False
        return self._compare_fit(needed, plan, col)

    def _compare_fit(self, needed: Tuple, plan: TensorPlan, col: int) -> bool:
        """Decide ``needed`` against storage axis ``col`` of ``plan``."""
        if plan.is_ragged:
            available = (self._member, "shape", plan.shape_name, col)
            fixed = plan.layout.extents[col + 1].is_constant
        else:
            is_out = plan is self.kernel.output_plan
            available = (self._member, "dense",
                         None if is_out else plan.spec.name, col)
            fixed = col > 0     # the leading extent may count instances
        # Constant against constant: the structure key names both.
        full = self._decide("fit", needed, available,
                            record=not (fixed and needed[1] == "const"))
        if full is None:
            raise VectorizeError(
                f"loop bound exceeds the storage extent of "
                f"{plan.spec.name!r} axis {col} (loop padding without "
                "matching storage padding)"
            )
        return full

    # -- alignment --------------------------------------------------------------

    def _aligned_code(self, raw: str, raw_dims: Tuple[Dim, ...],
                      ctx: Tuple[Dim, ...]) -> str:
        """Align an array whose axes are ``raw_dims`` to the ``ctx`` axis order
        (transposing and inserting broadcast axes as needed)."""
        if not raw_dims:
            return raw
        for d in raw_dims:
            if d not in ctx:
                raise VectorizeError(
                    f"dimension {d.name} is out of scope in this context"
                )
        order = [d for d in ctx if d in raw_dims]
        perm = [raw_dims.index(d) for d in order]
        code = raw
        if perm != sorted(perm):
            code = f"{code}.transpose({', '.join(map(str, perm))})"
        if len(order) == len(ctx):
            return code
        subs = ", ".join(":" if d in raw_dims else "None" for d in ctx)
        return f"{code}[{subs}]"

    def _shape_code(self, ctx: Tuple[Dim, ...]) -> str:
        parts = [self._bound_var[d] for d in ctx]
        return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"

    # -- store -------------------------------------------------------------------

    def _open_store(self, em: _Emitter) -> str:
        """Emit the acquisition of the store destination and return its
        code: an array over the :meth:`_ctx_out` axes that the body is
        computed straight into.

        Loop mode: ``_o`` is the bucket's full (storage-padded) output --
        a view of the slab for a single-instance bucket, a view of the
        region workspace for a fused-internal value, else a stack that
        :meth:`_close_store` scatters back -- and the destination is its
        loop-bounded region.  Flat-fused mode stores through a scatter,
        so the destination is a dense temporary.
        """
        kernel = self.kernel
        out_plan = kernel.output_plan
        safe = self._safe(out_plan.spec.name)
        store_dims = self._store_dims()
        if self.mode == "fused":
            self._out_var = self._local("_val")
            em.emit(f"{self._out_var} = np.empty("
                    f"{self._shape_code(self._ctx_out())}, dtype=np.float32)")
            return self._out_var
        # Ragged shape columns exclude the governing axis; a dense
        # output's shape includes it at position 0.
        base = 0 if out_plan.is_ragged else 1
        self._store_full = [
            self._check_index_fits(out_plan, base + col, LoopVar(dim))
            for col, dim in enumerate(store_dims)]
        alias = self._alias_out
        out = self._out_var = alias.var if alias is not None \
            else self._local("_o")
        if out_plan.is_ragged:
            shapes = f"_aux_{self._safe(out_plan.shape_name)}"
            shape = f"{shapes}[_b0].tolist()"
        else:
            dense = out_plan.layout.dense_shape()[1:]
            shape = "(" + "".join(f"{int(n)}, " for n in dense) + ")"
        if alias is not None and alias.reuse is not None:
            em.emit(f"{out} = {alias.reuse}")
        elif alias is not None:
            em.emit(f"{out} = _workspace(_ws, _ws_offsets[{alias.region}], "
                    f"{shape}, _nb)")
        elif out_plan.is_ragged:
            em.emit(f"{out} = _out_slices(_buf_{safe}, "
                    f"_aux_{self._safe(out_plan.row_name)}, {shapes}, _bs)")
        else:
            em.emit(f"{out} = _out_rows(_nd_{safe}, _bs)")
        if all(self._store_full):
            return out
        dst = self._local("_d")
        region = ", ".join(f":{self._bound_var[d]}" for d in store_dims)
        em.emit(f"{dst} = {out}[:, {region}]")
        return dst

    def _close_store(self, em: _Emitter) -> None:
        """Finish the store: clear the storage padding the loop bounds do
        not reach (so the output buffer is fully written, whatever it
        held), then write a gathered bucket's stack back."""
        if self.mode == "fused":
            self._emit_store_fused(em, self._out_var)
            return
        out_plan = self.kernel.output_plan
        safe = self._safe(out_plan.spec.name)
        store_dims = self._store_dims()
        out = self._out_var
        for col, dim in enumerate(store_dims):
            if not self._store_full[col]:
                strip = [f":{self._bound_var[d]}" for d in store_dims[:col]]
                strip.append(f"{self._bound_var[dim]}:")
                em.emit(f"{out}[:, {', '.join(strip)}] = 0.0")
        if self._alias_out is not None:
            return
        if out_plan.is_ragged:
            em.emit(f"_scatter_slices(_buf_{safe}, "
                    f"_aux_{self._safe(out_plan.row_name)}, _bs, {out})")
        else:
            em.emit(f"_scatter_rows(_nd_{safe}, _bs, {out})")

    def _emit_store_fused(self, em: _Emitter, val: str) -> None:
        kernel = self.kernel
        out_plan = kernel.output_plan
        safe = self._safe(out_plan.spec.name)
        rest_dims = self._store_dims()
        if kernel.output_dims_fused:
            # Flat storage: axis 0 is the fused index itself (extent checked
            # against the loop's fused extent during analysis).
            full = [self._check_index_fits(out_plan, col + 1, LoopVar(dim))
                    for col, dim in enumerate(rest_dims)]
            if not all(full):
                em.emit(f"_buf_{safe}.fill(0.0)")
            subs = ", ".join([":"] + [f":{self._bound_var[d]}"
                                      for d in rest_dims])
            em.emit(f"_nd_{safe}[{subs}] = {val}")
            return
        if out_plan.is_ragged:
            full = [self._compare_fit(self._fused_lengths(), out_plan, 0)]
            octx = (self._stack_dim,) + tuple(rest_dims)
            parts = [self._aligned_code(
                f"_aux_{self._safe(out_plan.row_name)}[_ffo]",
                (self._stack_dim,), octx)]
            parts.append(self._aligned_code(
                f"(_ffi * _aux_{self._safe(out_plan.stride_name)}[_ffo, 0])",
                (self._stack_dim,), octx))
            for col, dim in enumerate(rest_dims):
                full.append(
                    self._check_index_fits(out_plan, col + 1, LoopVar(dim)))
                stride = self._aligned_code(
                    f"_aux_{self._safe(out_plan.stride_name)}"
                    f"[_ffo, {col + 1}]", (self._stack_dim,), octx)
                var = self._aligned_code(self._index_arrays[dim], (dim,), octx)
                parts.append(f"({stride} * {var})")
            if not all(full):
                em.emit(f"_buf_{safe}.fill(0.0)")
            em.emit(f"_buf_{safe}[{' + '.join(parts)}] = {val}")
            return
        # Dense, unfused storage: two adjacent advanced indices land the
        # fused axis at position 0, matching the value's axis order.
        full = [self._compare_fit((self._member, "instances", self.map_name),
                                  out_plan, 0),
                self._compare_fit(self._fused_lengths(), out_plan, 1)]
        for col, dim in enumerate(rest_dims):
            full.append(self._check_index_fits(out_plan, col + 2, LoopVar(dim)))
        if not all(full):
            em.emit(f"_buf_{safe}.fill(0.0)")
        subs = ", ".join(["_ffo", "_ffi"] + [f":{self._bound_var[d]}"
                                             for d in rest_dims])
        em.emit(f"_nd_{safe}[{subs}] = {val}")


class VectorBackend(CodegenBackend):
    """NumPy-vectorized backend with automatic scalar fallback.

    ``generate`` first attempts vectorized emission; a
    :class:`VectorizeError` (diagonal accesses, nested splits, loop padding
    without storage padding, exotic index expressions...) falls back to the
    scalar reference backend, whose result is marked ``backend="scalar"``
    and carries the reason in ``fallback_reason``.  ``vectorized_count`` /
    ``fallback_count`` / ``fallback_reasons`` expose the decisions to the
    executor, tests and benchmarks.
    """

    name = "vector"

    def __init__(self, fallback: Optional[CodegenBackend] = None):
        self.fallback = fallback or ScalarBackend()
        #: counts of vectorized vs fallen-back kernels, for introspection
        self.vectorized_count = 0
        self.fallback_count = 0
        #: VectorizeError reason string -> occurrence count
        self.fallback_reasons: Counter = Counter()

    def generate(self, kernel: LoweredKernel) -> GeneratedKernel:
        decisions: Dict[Tuple, object] = {}
        try:
            generated = VectorCodeGenerator(
                kernel, decisions=decisions).generate()
        except VectorizeError as err:
            # The fallback holds for the instances that repeat the
            # decisions leading up to the rejection.
            generated = replace(self.fallback.generate(kernel),
                                fallback_reason=str(err),
                                decisions=tuple(decisions.items()))
        self.count(generated)
        return generated

    def count(self, generated: GeneratedKernel) -> None:
        """Account one kernel instance as vectorized or fallen back."""
        if generated.fallback_reason is None:
            self.vectorized_count += 1
        else:
            self.fallback_count += 1
            self.fallback_reasons[generated.fallback_reason] += 1

    def reset_stats(self) -> None:
        """Zero the vectorized / fallback counters and reason map."""
        self.vectorized_count = 0
        self.fallback_count = 0
        self.fallback_reasons.clear()


def can_vectorize(kernel: LoweredKernel) -> bool:
    """Whether the vector backend can emit ``kernel`` without falling back."""
    try:
        VectorCodeGenerator(kernel).generate_source()
    except VectorizeError:
        return False
    return True


# ---------------------------------------------------------------------------
# Fused-region emission
# ---------------------------------------------------------------------------


@dataclass
class FusedMemberPlan:
    """One member of a fused region, as the executor hands it to
    :func:`generate_fused_kernel`.

    ``bindings`` maps the member's *input* tensor names to program value
    names; ``out_value`` is the program value its output feeds.  An
    ``internal`` output has no reader outside the region and lives in a
    loop-local temporary instead of a buffer.
    """

    kernel: LoweredKernel
    bindings: Dict[str, str]
    out_value: str
    internal: bool


def generate_fused_kernel(name: str,
                          members: Sequence[FusedMemberPlan],
                          decisions: Optional[Dict[Tuple, object]] = None,
                          ) -> GeneratedKernel:
    """Emit one vector kernel executing a whole fused region.

    Every member's body is namespaced (prefix ``m{i}``) and composed
    inside a *single* shared bucket loop, so the chain pays one Python
    dispatch and one signature-bucketing pass instead of one per member.
    Internal values flow producer -> consumer through views of one
    caller-provided workspace (``buffers["ws"]``, sized for the largest
    bucket -- their arena slabs disappear); a member whose input dies
    with it and is only read elementwise stores over that input in
    place, so e.g. a softmax chain runs in a single score-sized view per
    bucket.  Values with external readers are still stored to their
    buffers and re-read from them by in-region consumers, preserving
    buffer semantics exactly.

    Legality (anything else raises :class:`VectorizeError` and the
    executor falls back to the bit-identical grouped dispatch): every
    member vectorizes in bucketed-loop mode over the *same* governing
    extent, and every alias read stays within its producer's store
    bounds (checked per governing index at compile time).  Those checks
    land in ``decisions`` (also when emission is rejected): the verdict
    holds for every instance that repeats them.
    """
    if not members:
        raise VectorizeError("fused region has no members")
    kernels = [m.kernel for m in members]
    if decisions is None:
        decisions = {}
    last_reader = {value: i for i, m in enumerate(members)
                   for value in m.bindings.values()}
    gens: List[VectorCodeGenerator] = []
    alias_reg: Dict[str, _AliasSource] = {}
    #: store-extent references of every internal value that needs a
    #: workspace region of its own
    regions: List[Tuple[Tuple, ...]] = []
    for i, m in enumerate(members):
        alias = {}
        for tensor, value in m.bindings.items():
            src = alias_reg.get(value)
            if src is not None:
                alias[tensor] = src
        out_tensor = m.kernel.output_plan.spec.name
        gen = VectorCodeGenerator(
            m.kernel,
            prefix=f"m{i}",
            value_of={**m.bindings, out_tensor: m.out_value},
            aux_ns=f"m{i}/",
            alias=alias,
            kernels=kernels, member=i, decisions=decisions,
        )
        if gen.mode != "loop":
            raise VectorizeError(
                f"member {m.kernel.name!r} uses a fused governing loop")
        if not gen._decide("same", (i, "count"), (0, "count")):
            raise VectorizeError(
                "fused members disagree on the governing extent")
        gens.append(gen)
        if not m.internal:
            continue
        tables = gen.store_bound_tables()
        bound = list(m.bindings.values())
        reuse = next(
            (src.var for tensor, src in alias.items()
             if last_reader[m.bindings[tensor]] == i
             and bound.count(m.bindings[tensor]) == 1
             and len(src.tables) == len(tables)
             and all(gen._decide("same", a, b)
                     for a, b in zip(src.tables, tables))
             and gen.inplace_safe(tensor)), None)
        gen._alias_out = _AliasOut(var=f"_t{i}", region=len(regions),
                                   reuse=reuse)
        if reuse is None:
            regions.append(tables)
        alias_reg[m.out_value] = _AliasSource(var=f"_t{i}", tables=tables)

    em = _Emitter()
    fn_name = f"cora_vfused_{VectorCodeGenerator._sanitize(name)}"
    em.emit(f"def {fn_name}(buffers, aux):")
    em.push()
    em.emit(f'"""Fused vectorized CoRa kernel for region {name!r} '
            f'({len(members)} members)."""')
    accessed = [gen._accessed_tensors() for gen in gens]
    for gen, acc in zip(gens, accessed):
        gen.emit_prolog(em, acc)
    if regions:
        em.emit("_ws = buffers['ws']")
        em.emit("_ws_offsets = aux['ws_offsets']")
    em.emit("# one iteration per bucket shared by all members")
    _emit_bucket_loop(em)
    for gen, acc in zip(gens, accessed):
        em.emit(f"# member {gen.kernel.name!r}")
        gen.emit_bucket_body(em, acc)
    em.pop()
    em.pop()
    source = em.source()
    namespace = dict(KERNEL_NAMESPACE)
    exec(compile(source, f"<cora-vfused:{name}>", "exec"), namespace)
    # One shared bucket partition: the union of every member's signature
    # tables, so each member's per-bucket bound reads stay constant.
    tables = tuple((i, n) for i, gen in enumerate(gens)
                   for n in gen._signature_tables())
    return GeneratedKernel(name=name, source=source,
                           fn=namespace[fn_name], backend="vector",
                           fills_output=True,
                           decisions=tuple(decisions.items()),
                           prelude=(tables, tuple(regions)))
