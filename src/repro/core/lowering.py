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
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.dims import Dim, FusedDim
from repro.core.errors import LoweringError
from repro.core.extents import ConstExtent, Extent, PaddedExtent, VarExtent, ceil_to
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


# ---------------------------------------------------------------------------
# Main lowering routine
# ---------------------------------------------------------------------------


def lower_schedule(
    schedule: Schedule,
    input_layouts: Optional[Dict[str, RaggedLayout]] = None,
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
    """
    op = schedule.operator
    gov_count = _governing_extent_of(op)
    aux: Dict[str, np.ndarray] = {}

    base_extents = dict(zip(op.dims, op.loop_extents))
    split_by_outer = {s.outer: s for s in schedule.splits}
    split_by_inner = {s.inner: s for s in schedule.splits}
    fuse_by_fused = {f.fused: f for f in schedule.fusions}

    def padded_loop_extent(dim: Dim) -> Extent:
        ext = base_extents[dim]
        pad = schedule.loop_padding.get(dim, 1)
        return ext.padded(pad)

    def register_table(name: str, table: np.ndarray) -> str:
        aux[name] = np.asarray(table, dtype=np.int64)
        return name

    def count_bound(dim: Dim, name: str, value: int) -> BoundSpec:
        """A constant bound; one derived from the governing extent (the
        instance count) is also published in ``aux`` under ``name``."""
        if dim is op.dims[0]:
            return BoundSpec.const(value, register_table(name, value))
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
            inner_ext = padded_loop_extent(fuse.inner)
            kind_, value, governing = materialise_extent(inner_ext, gov_count)
            if kind_ == "const":
                lengths = np.full(gov_count, value, dtype=np.int64)
            else:
                lengths = value
            maps = build_fusion_maps(lengths, pad=1)
            map_name = f"fuse_{fuse.outer.name}_{fuse.inner.name}"
            register_table(f"{map_name}_ffo", maps.ffo)
            register_table(f"{map_name}_ffi", maps.ffi)
            register_table(f"{map_name}_row", maps.foif_row)
            bound = BoundSpec.const(maps.fused_extent, register_table(
                f"{map_name}_extent", maps.fused_extent))
            spec = LoopSpec(
                dim=dim, var=var_of(dim), bound=bound, kind=LoopKind.FUSED,
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
            orig_ext = padded_loop_extent(split.original)
            kind_, value, governing = materialise_extent(orig_ext, gov_count)
            if kind_ == "const":
                bound = count_bound(split.original, f"tiles_{split.original.name}",
                                    (value + split.factor - 1) // split.factor)
                loop_kind = LoopKind.CONSTANT
            else:
                tiles = (value + split.factor - 1) // split.factor
                name = register_table(f"tiles_{split.original.name}", tiles)
                bound = BoundSpec.table(name, governing)
                loop_kind = LoopKind.VARIABLE
            loops.append(LoopSpec(dim=dim, var=var_of(dim), bound=bound,
                                  kind=loop_kind, annotation=ann,
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
            bound = BoundSpec.const(split.factor)
            guard: Optional[GuardSpec] = None
            pad = schedule.loop_padding.get(split.original, 1)
            kind_, value, governing = materialise_extent(orig_ext, gov_count)
            needs_guard = True
            if (kind_ == "const" and value % split.factor == 0
                    and split.original is not op.dims[0]):
                needs_guard = False
            if pad % split.factor == 0 and pad >= split.factor:
                needs_guard = False
            if needs_guard:
                if kind_ == "const":
                    guard_bound = count_bound(
                        split.original, f"count_{split.original.name}", value)
                else:
                    name = register_table(f"len_{split.original.name}", value)
                    guard_bound = BoundSpec.table(name, governing)
                guard = GuardSpec(outer_var_dim=split.outer,
                                  inner_var_dim=split.inner,
                                  factor=split.factor, bound=guard_bound)
            loops.append(LoopSpec(dim=dim, var=var_of(dim), bound=bound,
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
        ext = padded_loop_extent(dim)
        kind_, value, governing = materialise_extent(ext, gov_count)
        if kind_ == "const":
            bound = count_bound(dim, f"count_{dim.name}", value)
            loop_kind = LoopKind.CONSTANT
        else:
            name = register_table(f"len_{dim.name}", value)
            bound = BoundSpec.table(name, governing)
            loop_kind = LoopKind.VARIABLE
        loops.append(LoopSpec(dim=dim, var=var_of(dim), bound=bound,
                              kind=loop_kind, annotation=ann,
                              remap_name=remap_name))
        dim_recovery[dim] = ("loop", var_of(dim))

    # ---- thread remapping permutations -------------------------------------
    for remap in schedule.remaps:
        loop = next((l for l in loops if l.dim is remap.dim), None)
        if loop is None:
            raise LoweringError(f"thread remap refers to unknown loop {remap.dim.name}")
        # Workload of each iteration: total inner work governed by it if any
        # vloop depends on this dim, else uniform.
        workloads = np.ones(
            loop.bound.value if loop.bound.is_const else aux[loop.bound.table_name].size,
            dtype=np.int64,
        )
        for d, ext in base_extents.items():
            if ext.deps and ext.deps[0] is remap.dim:
                kind_, value, _ = materialise_extent(ext, gov_count)
                if kind_ == "table":
                    workloads = workloads * value
        perm = remap.permutation(workloads)
        aux[f"remap_{remap.dim.name}"] = perm

    # ---- reduction bounds ---------------------------------------------------
    reduction_bounds: Dict[Dim, BoundSpec] = {}
    for red in reductions_in(op.body):
        for axis in red.axes:
            kind_, value, governing = materialise_extent(axis.extent, gov_count)
            if kind_ == "const":
                reduction_bounds[axis.dim] = BoundSpec.const(value)
            else:
                name = register_table(f"rlen_{axis.dim.name}", value)
                reduction_bounds[axis.dim] = BoundSpec.table(name, governing)

    # ---- tensor plans --------------------------------------------------------
    input_layouts = dict(input_layouts or {})

    def plan_for(spec: TensorSpec, layout: RaggedLayout, prefix: str) -> TensorPlan:
        if layout.is_ragged:
            layout_aux = layout.build_aux()
            row_name = f"{prefix}_{spec.name}_row"
            stride_name = f"{prefix}_{spec.name}_strides"
            shape_name = f"{prefix}_{spec.name}_shapes"
            aux[row_name] = layout_aux.row_offsets
            aux[stride_name] = layout_aux.slice_strides
            aux[shape_name] = layout_aux.slice_shapes
            return TensorPlan(spec=spec, layout=layout, row_name=row_name,
                              stride_name=stride_name, shape_name=shape_name)
        shape = layout.dense_shape()
        strides = [1] * len(shape)
        for i in range(len(shape) - 2, -1, -1):
            strides[i] = strides[i + 1] * shape[i + 1]
        return TensorPlan(spec=spec, layout=layout,
                          dense_strides=tuple(strides))

    # Output layout: storage extents + storage padding (+ dim fusion).
    output_layout = RaggedLayout(op.dims, op.storage_extents,
                                 storage_padding=dict(schedule.storage_padding))
    output_dims_fused = False
    if schedule.dim_fusions:
        outer_d, inner_d = schedule.dim_fusions[0]
        output_layout = output_layout.fuse_dims(outer_d, inner_d)
        output_dims_fused = True
    output_plan = plan_for(op.output, output_layout, "out")

    input_plans: Dict[str, TensorPlan] = {}
    for spec in op.inputs:
        if spec.name in input_layouts:
            layout = input_layouts[spec.name]
        else:
            padding = schedule.input_storage_padding.get(spec.name)
            layout = RaggedLayout(spec.dims, spec.extents, storage_padding=padding)
        input_plans[spec.name] = plan_for(spec, layout, "in")

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
        output_dims_fused=output_dims_fused,
    )
