"""Lowering: from a scheduled ragged operator to a concrete loop nest.

Lowering applies the recorded scheduling transformations, materialises every
(possibly variable) loop bound into either a constant or a *bound table*
indexed by the governing loop variable, decides which auxiliary arrays the
prelude must provide (bound tables, fusion maps, storage row-offset arrays,
thread-remap permutations), and packages everything into a
:class:`LoweredKernel` that the code generator consumes.

The output is intentionally concrete: "extent of loop ``i`` is
``aux['len_seq'][b]``" rather than a symbolic uninterpreted function --
mirroring how CoRa's generated code indexes prelude-built arrays at run time
(paper Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.dims import Dim, FusedDim
from repro.core.errors import LoweringError
from repro.core.extents import ConstExtent, Extent, ExtentMap, PaddedExtent, VarExtent, ceil_to
from repro.core.ir import (
    Annotation,
    Expr,
    LoopKind,
    Reduce,
    ReduceAxis,
    TensorSpec,
    reductions_in,
    tensor_reads,
)
from repro.core.operator import RaggedOperator
from repro.core.prelude import build_fusion_maps
from repro.core.schedule import FuseInfo, Schedule, SplitInfo
from repro.core.storage import RaggedLayout


# ---------------------------------------------------------------------------
# Bound specifications
# ---------------------------------------------------------------------------


@dataclass
class BoundSpec:
    """A concrete loop bound: either a constant or a per-governing-index table.

    A constant that counts *instances* (the governing extent, its tiles,
    a fused extent) is part of the prelude, not of the kernel structure:
    it carries the name of the 0-d aux entry holding it, and emitters
    read it from there instead of naming the value.
    """

    kind: str  # "const" | "table"
    value: int = 0
    table_name: str = ""
    governing: Optional[Dim] = None

    @classmethod
    def const(cls, value: int, table_name: str = "") -> "BoundSpec":
        return cls(kind="const", value=int(value), table_name=table_name)

    @classmethod
    def table(cls, name: str, governing: Dim) -> "BoundSpec":
        return cls(kind="table", table_name=name, governing=governing)

    @property
    def is_const(self) -> bool:
        return self.kind == "const"


@dataclass
class FusionSpec:
    """Codegen information for a fused loop."""

    map_name: str
    outer_dim: Dim
    inner_dim: Dim


@dataclass
class GuardSpec:
    """A bound check for the inner loop of a split vloop."""

    outer_var_dim: Dim
    inner_var_dim: Dim
    factor: int
    bound: BoundSpec


@dataclass
class SplitLink:
    """Ties a split-derived loop back to its original dimension.

    Both loops of a split pair carry a link (``role`` distinguishes them),
    so a backend can recognise the pair and, e.g., collapse it back into
    the original iteration domain (the vector backend vectorizes guarded
    split loops exactly this way).
    """

    original: Dim
    outer: Dim
    inner: Dim
    factor: int
    role: str  # "outer" | "inner"


@dataclass
class LoopSpec:
    """One loop of the lowered kernel, ready for code generation."""

    dim: Dim
    var: str
    bound: BoundSpec
    kind: LoopKind
    annotation: Annotation = Annotation.NONE
    guard: Optional[GuardSpec] = None
    fusion: Optional[FusionSpec] = None
    remap_name: Optional[str] = None
    split: Optional[SplitLink] = None


@dataclass
class TensorPlan:
    """How accesses to one tensor are lowered to flat-buffer offsets."""

    spec: TensorSpec
    layout: RaggedLayout
    #: aux array names for ragged layouts.  The scalar backend addresses
    #: elements through ``row_name``/``stride_name``; the vector backend
    #: additionally uses ``shape_name`` (the per-instance storage shapes) to
    #: view whole slices at once.
    row_name: str = ""
    stride_name: str = ""
    shape_name: str = ""
    #: constant strides for dense layouts.
    dense_strides: Tuple[int, ...] = ()

    @property
    def is_ragged(self) -> bool:
        return self.layout.is_ragged


@dataclass
class LoweredKernel:
    """Everything the code generator and executor need for one operator."""

    name: str
    loops: List[LoopSpec]
    body: Expr
    output_plan: TensorPlan
    output_dims: Tuple[Dim, ...]
    input_plans: Dict[str, TensorPlan]
    #: mapping original dim -> how to recover its value from loop variables
    #: ("loop", var) | ("split", outer_var, inner_var, factor) |
    #: ("fused_outer"/"fused_inner", map_name, fused_var)
    dim_recovery: Dict[Dim, Tuple] = field(default_factory=dict)
    #: aux arrays the executor must provide: name -> numpy array
    aux_arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    #: reduction axes with materialised bound specs
    reduction_bounds: Dict[Dim, BoundSpec] = field(default_factory=dict)
    #: whether to hoist aux-array loads out of inner loops
    hoist_loads: bool = True
    #: output storage dims are fused into a single flat dim
    output_dims_fused: bool = False
    #: the extent each bound table (by name) and each ragged storage axis
    #: (by ``(shape table name, column)``) was materialised from: two
    #: tables of one extent agree without being compared
    extents: Dict[object, Extent] = field(default_factory=dict, repr=False)
    #: how to rebuild ``aux_arrays`` and the tensor layouts for another
    #: instance of this kernel structure (see :class:`_Prelude`)
    prelude: List[Callable] = field(default_factory=list, repr=False,
                                    compare=False)

    def loop_vars(self) -> List[str]:
        return [l.var for l in self.loops]


# ---------------------------------------------------------------------------
# Extent materialisation
# ---------------------------------------------------------------------------


def _governing_extent_of(op: RaggedOperator) -> int:
    ext = op.loop_extents[0]
    if not ext.is_constant:
        raise LoweringError("the outermost loop must have a constant bound")
    return int(ext())


def materialise_extent(ext: Extent, gov_count: int) -> Tuple[str, Union[int, np.ndarray], Optional[Dim]]:
    """Evaluate an extent into a constant or a bound table.

    Returns ``("const", value, None)`` or ``("table", array, governing_dim)``.
    """
    if ext.is_constant:
        return ("const", int(ext()), None)
    governing = ext.deps[0]
    idx = np.arange(gov_count, dtype=np.int64)
    table = np.asarray(ext(idx), dtype=np.int64)
    return ("table", table, governing)


class _Prelude:
    """The length-dependent half of one lowering.

    Lowering records every auxiliary array it registers as a *step*: a
    function of a ``_Prelude`` that refers to the schedule's dims, extents
    and inputs by position only.  Running the steps on the schedule of
    another instance of the same kernel structure therefore rebuilds that
    instance's tables and layouts -- without building the loop nest again.
    """

    def __init__(self, schedule: Schedule,
                 input_layouts: Optional[Dict[str, RaggedLayout]],
                 extents: Optional[ExtentMap] = None):
        self.schedule = schedule
        self.op = schedule.operator
        self.gov_count = _governing_extent_of(self.op)
        self.input_layouts = input_layouts or {}
        #: the instance's extent for each of the schedule's
        self.ext: Callable[[Extent], Extent] = extents or (lambda e: e)
        self.aux: Dict[str, np.ndarray] = {}
        self.extents: Dict[object, Extent] = {}
        #: tensor name (``None``: the output) -> its storage layout
        self.layouts: Dict[Optional[str], RaggedLayout] = {}
        self._axes: Optional[List[ReduceAxis]] = None

    def put(self, name: str, table) -> None:
        self.aux[name] = np.asarray(table, dtype=np.int64)

    def put_extent(self, name: str, ext: Extent, tile: int = 1) -> None:
        """Register ``ceil(ext / tile)`` -- a count or a table over the
        governing indices -- as ``name``."""
        value = materialise_extent(ext, self.gov_count)[1]
        if tile == 1:
            self.extents[name] = ext
        else:
            value = (value + tile - 1) // tile
        self.put(name, value)

    def loop_extent(self, i: int) -> Extent:
        """The loop-padded extent of the operator's ``i``-th loop."""
        return self.ext(self.op.loop_extents[i]).padded(
            self.schedule.loop_padding.get(self.op.dims[i], 1))

    def axis_extent(self, k: int) -> Extent:
        """The extent of the ``k``-th reduction axis of the body."""
        if self._axes is None:
            self._axes = [axis for red in reductions_in(self.op.body)
                          for axis in red.axes]
        return self.ext(self._axes[k].extent)


def clone(obj: Any, **changes: Any) -> Any:
    """``dataclasses.replace`` for plain dataclasses, without re-running
    ``__init__`` (a shallow copy with ``changes`` applied)."""
    new = object.__new__(type(obj))
    new.__dict__.update(obj.__dict__, **changes)
    return new


def _rebind(like: "LoweredKernel", prelude: _Prelude) -> "LoweredKernel":
    """``like``'s loop nest over the tables and layouts of ``prelude``."""
    for step in like.prelude:
        step(prelude)
    aux, layouts = prelude.aux, prelude.layouts

    def counted(bound: BoundSpec) -> BoundSpec:
        """A bound that counts instances, at this instance's count."""
        return clone(bound, value=int(aux[bound.table_name]))

    loops = list(like.loops)
    for k, loop in enumerate(loops):
        if loop.bound.is_const and loop.bound.table_name:
            loops[k] = loop = clone(loop, bound=counted(loop.bound))
        guard = loop.guard
        if guard and guard.bound.is_const and guard.bound.table_name:
            loops[k] = clone(loop, guard=clone(
                guard, bound=counted(guard.bound)))

    def over(plan: TensorPlan, layout: RaggedLayout) -> TensorPlan:
        return TensorPlan(plan.spec, layout, plan.row_name, plan.stride_name,
                          plan.shape_name, plan.dense_strides)

    return clone(
        like, loops=loops, aux_arrays=aux, extents=prelude.extents,
        output_plan=over(like.output_plan, layouts[None]),
        input_plans={name: over(plan, layouts[name])
                     for name, plan in like.input_plans.items()})


# ---------------------------------------------------------------------------
# Main lowering routine
# ---------------------------------------------------------------------------


def lower_schedule(
    schedule: Schedule,
    input_layouts: Optional[Dict[str, RaggedLayout]] = None,
    like: Optional[LoweredKernel] = None,
    extents: Optional[ExtentMap] = None,
) -> LoweredKernel:
    """Lower a scheduled operator into a :class:`LoweredKernel`.

    Parameters
    ----------
    schedule:
        The schedule to lower.
    input_layouts:
        Optional explicit layouts for the input tensors.  By default each
        input uses the layout implied by its declared extents plus any
        input storage padding recorded on the schedule.
    like:
        The lowering of another instance of the same kernel structure
        (same operator, schedule state and layout kinds; other lengths):
        only the prelude part of lowering runs, and the result shares
        ``like``'s loop nest.
    extents:
        Lower the schedule for another mini-batch than the one it was
        declared over: every extent is read through this map.
    """
    p = _Prelude(schedule, input_layouts, extents)
    if like is not None:
        return _rebind(like, p)
    op = schedule.operator
    aux = p.aux
    steps: List[Callable[[_Prelude], None]] = []

    def run(step: Callable[[_Prelude], None]) -> None:
        steps.append(step)
        step(p)

    position = {d: i for i, d in enumerate(op.dims)}
    split_by_outer = {s.outer: s for s in schedule.splits}
    split_by_inner = {s.inner: s for s in schedule.splits}
    fuse_by_fused = {f.fused: f for f in schedule.fusions}

    def padded_loop_extent(dim: Dim) -> Extent:
        return op.loop_extents[position[dim]].padded(
            schedule.loop_padding.get(dim, 1))

    def loop_table(name: str, dim: Dim, tile: int = 1) -> str:
        """Register the (tiled) loop-padded extent of ``dim`` as ``name``."""
        i = position[dim]
        run(lambda p: p.put_extent(name, p.loop_extent(i), tile))
        return name

    def loop_bound(dim: Dim, table_name: str, count_name: str,
                   tile: int = 1) -> BoundSpec:
        """The bound ``ceil(extent(dim) / tile)`` of a loop or guard; a
        constant derived from the governing extent (the instance count)
        is also published in ``aux``."""
        ext = padded_loop_extent(dim)
        if not ext.is_constant:
            return BoundSpec.table(loop_table(table_name, dim, tile),
                                   ext.deps[0])
        value = (int(ext()) + tile - 1) // tile
        if dim is op.dims[0]:
            return BoundSpec.const(value, loop_table(count_name, dim, tile))
        return BoundSpec.const(value)

    # ---- build loop specs -------------------------------------------------
    loops: List[LoopSpec] = []
    dim_recovery: Dict[Dim, Tuple] = {}
    var_names: Dict[Dim, str] = {}

    def var_of(dim: Dim) -> str:
        if dim not in var_names:
            base = dim.name.replace(".", "_").replace("-", "_")
            var_names[dim] = f"_{base}"
        return var_names[dim]

    for dim in schedule.loop_order:
        ann = schedule.annotations.get(dim, Annotation.NONE)
        remap_name = None
        for remap in schedule.remaps:
            if remap.dim is dim:
                remap_name = f"remap_{dim.name}"
        if dim in fuse_by_fused:
            fuse = fuse_by_fused[dim]
            map_name = f"fuse_{fuse.outer.name}_{fuse.inner.name}"

            def fusion_maps(p: _Prelude, i=position[fuse.inner],
                            map_name=map_name) -> None:
                lengths = materialise_extent(p.loop_extent(i), p.gov_count)[1]
                if not isinstance(lengths, np.ndarray):
                    lengths = np.full(p.gov_count, lengths, dtype=np.int64)
                maps = build_fusion_maps(lengths, pad=1)
                p.put(f"{map_name}_ffo", maps.ffo)
                p.put(f"{map_name}_ffi", maps.ffi)
                p.put(f"{map_name}_row", maps.foif_row)
                p.put(f"{map_name}_extent", maps.fused_extent)

            run(fusion_maps)
            spec = LoopSpec(
                dim=dim, var=var_of(dim), kind=LoopKind.FUSED,
                bound=BoundSpec.const(int(aux[f"{map_name}_extent"]),
                                      f"{map_name}_extent"),
                annotation=ann,
                fusion=FusionSpec(map_name=map_name, outer_dim=fuse.outer,
                                  inner_dim=fuse.inner),
                remap_name=remap_name,
            )
            loops.append(spec)
            dim_recovery[fuse.outer] = ("fused_outer", map_name, var_of(dim))
            dim_recovery[fuse.inner] = ("fused_inner", map_name, var_of(dim))
            continue

        if dim in split_by_outer:
            split = split_by_outer[dim]
            name = split.original.name
            bound = loop_bound(split.original, f"tiles_{name}",
                               f"tiles_{name}", split.factor)
            loops.append(LoopSpec(dim=dim, var=var_of(dim), bound=bound,
                                  kind=LoopKind.CONSTANT if bound.is_const
                                  else LoopKind.VARIABLE, annotation=ann,
                                  remap_name=remap_name,
                                  split=SplitLink(original=split.original,
                                                  outer=split.outer,
                                                  inner=split.inner,
                                                  factor=split.factor,
                                                  role="outer")))
            continue

        if dim in split_by_inner:
            split = split_by_inner[dim]
            orig_ext = padded_loop_extent(split.original)
            guard: Optional[GuardSpec] = None
            pad = schedule.loop_padding.get(split.original, 1)
            needs_guard = True
            # (The instance count is not structure: a split of the
            # governing loop keeps its guard whatever the count.)
            if (orig_ext.is_constant and int(orig_ext()) % split.factor == 0
                    and split.original is not op.dims[0]):
                needs_guard = False
            if pad % split.factor == 0 and pad >= split.factor:
                needs_guard = False
            if needs_guard:
                name = split.original.name
                guard = GuardSpec(outer_var_dim=split.outer,
                                  inner_var_dim=split.inner,
                                  factor=split.factor,
                                  bound=loop_bound(split.original,
                                                   f"len_{name}",
                                                   f"count_{name}"))
            loops.append(LoopSpec(dim=dim, var=var_of(dim),
                                  bound=BoundSpec.const(split.factor),
                                  kind=LoopKind.CONSTANT, annotation=ann,
                                  guard=guard, remap_name=remap_name,
                                  split=SplitLink(original=split.original,
                                                  outer=split.outer,
                                                  inner=split.inner,
                                                  factor=split.factor,
                                                  role="inner")))
            dim_recovery[split.original] = (
                "split", var_of(split.outer), var_of(split.inner), split.factor
            )
            continue

        # An original, untransformed loop.
        bound = loop_bound(dim, f"len_{dim.name}", f"count_{dim.name}")
        loops.append(LoopSpec(dim=dim, var=var_of(dim), bound=bound,
                              kind=LoopKind.CONSTANT if bound.is_const
                              else LoopKind.VARIABLE, annotation=ann,
                              remap_name=remap_name))
        dim_recovery[dim] = ("loop", var_of(dim))

    # ---- thread remapping permutations -------------------------------------
    for k, remap in enumerate(schedule.remaps):
        loop = next((l for l in loops if l.dim is remap.dim), None)
        if loop is None:
            raise LoweringError(f"thread remap refers to unknown loop {remap.dim.name}")
        # Workload of each iteration: total inner work governed by it if any
        # vloop depends on this dim, else uniform.
        governed = [i for i, ext in enumerate(op.loop_extents)
                    if ext.deps and ext.deps[0] is remap.dim]

        def permutation(p: _Prelude, k=k, bound=loop.bound, governed=governed,
                        name=f"remap_{remap.dim.name}") -> None:
            if not bound.is_const:
                n = p.aux[bound.table_name].size
            elif bound.table_name:
                n = int(p.aux[bound.table_name])
            else:
                n = bound.value
            workloads = np.ones(n, dtype=np.int64)
            for i in governed:
                workloads = workloads * materialise_extent(
                    p.ext(p.op.loop_extents[i]), p.gov_count)[1]
            p.aux[name] = p.schedule.remaps[k].permutation(workloads)

        run(permutation)

    # ---- reduction bounds ---------------------------------------------------
    reduction_bounds: Dict[Dim, BoundSpec] = {}
    axes = [axis for red in reductions_in(op.body) for axis in red.axes]
    for k, axis in enumerate(axes):
        if axis.extent.is_constant:
            reduction_bounds[axis.dim] = BoundSpec.const(int(axis.extent()))
        else:
            name = f"rlen_{axis.dim.name}"
            run(lambda p, k=k, name=name: p.put_extent(name, p.axis_extent(k)))
            reduction_bounds[axis.dim] = BoundSpec.table(
                name, axis.extent.deps[0])

    # ---- tensor plans --------------------------------------------------------

    def plan_for(spec: TensorSpec, key: Optional[str], prefix: str,
                 make_layout: Callable[[_Prelude], RaggedLayout]) -> TensorPlan:
        row_name = f"{prefix}_{spec.name}_row"
        stride_name = f"{prefix}_{spec.name}_strides"
        shape_name = f"{prefix}_{spec.name}_shapes"

        def bind_layout(p: _Prelude) -> None:
            layout = p.layouts[key] = make_layout(p)
            if layout.is_ragged:
                layout_aux = layout.build_aux()
                p.aux[row_name] = layout_aux.row_offsets
                p.aux[stride_name] = layout_aux.slice_strides
                p.aux[shape_name] = layout_aux.slice_shapes
                for col, ext in enumerate(layout.extents[1:]):
                    p.extents[shape_name, col] = ext

        run(bind_layout)
        layout = p.layouts[key]
        if layout.is_ragged:
            return TensorPlan(spec=spec, layout=layout, row_name=row_name,
                              stride_name=stride_name, shape_name=shape_name)
        shape = layout.dense_shape()
        strides = [1] * len(shape)
        for i in range(len(shape) - 2, -1, -1):
            strides[i] = strides[i + 1] * shape[i + 1]
        return TensorPlan(spec=spec, layout=layout,
                          dense_strides=tuple(strides))

    # Output layout: storage extents + storage padding (+ dim fusion).
    fused_dims = None
    if schedule.dim_fusions:
        outer_d, inner_d = schedule.dim_fusions[0]
        fused_dims = (position[outer_d], position[inner_d])

    def output_layout(p: _Prelude) -> RaggedLayout:
        layout = RaggedLayout(p.op.dims, [p.ext(e) for e in p.op.storage_extents],
                              storage_padding=dict(p.schedule.storage_padding))
        if fused_dims is not None:
            layout = layout.fuse_dims(p.op.dims[fused_dims[0]],
                                      p.op.dims[fused_dims[1]])
        return layout

    output_plan = plan_for(op.output, None, "out", output_layout)

    def input_layout(j: int) -> Callable[[_Prelude], RaggedLayout]:
        def make(p: _Prelude) -> RaggedLayout:
            spec = p.op.inputs[j]
            layout = p.input_layouts.get(spec.name)
            if layout is None:
                layout = RaggedLayout(
                    spec.dims, [p.ext(e) for e in spec.extents],
                    storage_padding=p.schedule.input_storage_padding.get(
                        spec.name))
            return layout
        return make

    input_plans = {spec.name: plan_for(spec, spec.name, "in", input_layout(j))
                   for j, spec in enumerate(op.inputs)}

    return LoweredKernel(
        name=op.name,
        loops=loops,
        body=op.body,
        output_plan=output_plan,
        output_dims=op.dims,
        input_plans=input_plans,
        dim_recovery=dim_recovery,
        aux_arrays=aux,
        reduction_bounds=reduction_bounds,
        hoist_loads=schedule.hoist_loads,
        output_dims_fused=fused_dims is not None,
        extents=p.extents,
        prelude=steps,
    )
