"""The ragged program graph IR.

CoRa's core insight (I1) is that raggedness is known *before* execution:
the auxiliary work of a whole model can be hoisted out of the kernels and
shared.  This module lifts that insight from single operators to whole
programs.  A :class:`Program` is a directed acyclic graph whose nodes are
scheduled ragged operators and whose edges are ragged tensor *values*:

* a :class:`KernelNode` wraps a :class:`~repro.core.schedule.Schedule` and
  is lowered / code-generated through the executor's
  :class:`~repro.core.codegen.CodegenBackend` machinery exactly like an
  op-by-op ``build_and_run`` call would be;
* a :class:`HostNode` wraps a host-side NumPy function (packed gemms,
  layout marshalling, layer normalisation) that writes its result into a
  pre-planned output buffer.

Because every value's layout is fixed once the mini-batch's raggedness
signature is known, the :mod:`~repro.core.planner` can topologically order
the graph, run liveness analysis, and assign every intermediate value into
a reusable arena slab before anything executes; the
:class:`~repro.core.session.Session` then compiles the whole program ahead
of time and replays it with a single flat dispatch loop.
"""

from __future__ import annotations

import dataclasses
import importlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import CoraError
from repro.core.schedule import Schedule
from repro.core.storage import RaggedLayout


class ProgramError(CoraError):
    """Raised for malformed program graphs (unknown values, cycles, ...)."""


#: Value roles.  ``input`` values are bound at ``Session.run`` time,
#: ``constant`` values carry an array fixed at program-construction time
#: (weights, mask matrices), ``intermediate`` values are produced by nodes
#: and live in the planned arena.
ROLE_INPUT = "input"
ROLE_CONSTANT = "constant"
ROLE_INTERMEDIATE = "intermediate"


@dataclass
class ValueSpec:
    """One edge of the program graph: a ragged or dense tensor value.

    A *ragged* value carries a :class:`RaggedLayout` and materialises as a
    :class:`~repro.core.ragged_tensor.RaggedTensor` over a flat buffer; a
    *dense* value carries a plain shape (e.g. the packed ``(tokens,
    hidden)`` matrix of a fused-vloop projection).
    """

    name: str
    layout: Optional[RaggedLayout] = None
    shape: Optional[Tuple[int, ...]] = None
    dtype: np.dtype = np.float32
    role: str = ROLE_INTERMEDIATE
    #: the fixed array of a constant value
    array: Optional[np.ndarray] = None
    #: graph structure, filled in by :class:`Program`
    producer: Optional[int] = None
    consumers: List[int] = field(default_factory=list)

    @property
    def is_ragged(self) -> bool:
        return self.layout is not None

    @property
    def num_elements(self) -> int:
        if self.layout is not None:
            return int(self.layout.total_size())
        size = 1
        for s in self.shape or ():
            size *= int(s)
        return size

    @property
    def nbytes(self) -> int:
        return self.num_elements * np.dtype(self.dtype).itemsize


@dataclass
class ProgramNode:
    """Base class of program-graph nodes.

    ``elementwise`` names the inputs each output element depends on only
    pointwise: the node's (single) output may safely alias any of those
    inputs' buffers -- the planner uses this to schedule provably-safe
    in-place updates that share the input's arena slab instead of double
    buffering.
    """

    name: str
    inputs: Tuple[str, ...]
    outputs: Tuple[str, ...]
    elementwise: Tuple[str, ...] = ()

    @property
    def kind(self) -> str:
        return "node"


@dataclass
class KernelNode(ProgramNode):
    """A scheduled ragged operator, compiled through the codegen backend.

    ``bindings`` maps the schedule's input-tensor names to program value
    names; the single output value's layout is declared up front (it is
    validated against the compiled kernel's output plan at session-compile
    time).
    """

    schedule: Schedule = None
    bindings: Dict[str, str] = field(default_factory=dict)
    input_layouts: Optional[Dict[str, RaggedLayout]] = None

    @property
    def kind(self) -> str:
        return "kernel"


@dataclass
class HostNode(ProgramNode):
    """A host-side NumPy step writing into pre-planned output buffers.

    ``fn`` is called as ``fn(*outputs, *inputs)`` where each output is the
    materialised value (a :class:`~repro.core.ragged_tensor.RaggedTensor`
    for ragged values, a shaped ``ndarray`` view for dense values) backed
    by its planned arena buffer.  With ``fills_output=True`` the function
    promises to overwrite every element of each output, so the dispatcher
    can skip the pre-zeroing pass.  ``row_wise`` declares that row ``r`` of
    every output depends only on the constants and on row ``r`` of the other
    inputs (all dense), at ``row_flops`` GEMM flops a row: a session may run
    such a node over row chunks in parallel (:mod:`repro.core.parallel`).
    """

    fn: Callable = None
    fills_output: bool = True
    row_wise: bool = False
    row_flops: int = 0

    @property
    def kind(self) -> str:
        return "host"


_PROGRAM_UIDS = iter(range(1, 1 << 62))


class Program:
    """A ragged program graph, built once per raggedness signature.

    Nodes are appended in execution (hence topological) order through
    :meth:`add_kernel` / :meth:`add_host`; values are declared through
    :meth:`add_input` / :meth:`add_constant` or implicitly as node
    outputs.  :meth:`mark_output` selects the values ``Session.run``
    returns.
    """

    def __init__(self, name: str):
        self.name = name
        self.uid = next(_PROGRAM_UIDS)
        self.values: Dict[str, ValueSpec] = {}
        self.nodes: List[ProgramNode] = []
        self.outputs: List[str] = []
        #: optional rebuild recipe (see :func:`register_program_builder`):
        #: a picklable description from which an identical program can be
        #: reconstructed in another process.  ``None`` for ad-hoc programs.
        self.recipe: Optional[Tuple] = None
        #: merge metadata (set by :func:`merge_programs`): value names
        #: whose producers must start unobstructed (fresh arena slabs),
        #: the per-value merge-group index, and the per-part rename maps.
        self.merge_roots: frozenset = frozenset()
        self.merge_groups: Dict[str, int] = {}
        self.merge_info: Optional["MergeInfo"] = None

    # -- value declaration ---------------------------------------------------

    def _declare(self, spec: ValueSpec) -> str:
        if spec.name in self.values:
            raise ProgramError(
                f"value {spec.name!r} already declared in program {self.name!r}")
        if (spec.layout is None) == (spec.shape is None):
            raise ProgramError(
                f"value {spec.name!r} must have exactly one of layout / shape")
        self.values[spec.name] = spec
        return spec.name

    def add_input(self, name: str, layout: Optional[RaggedLayout] = None,
                  shape: Optional[Sequence[int]] = None,
                  dtype: np.dtype = np.float32) -> str:
        """Declare a value bound by the caller at ``Session.run`` time."""
        return self._declare(ValueSpec(
            name=name, layout=layout,
            shape=None if shape is None else tuple(int(s) for s in shape),
            dtype=np.dtype(dtype), role=ROLE_INPUT))

    def add_constant(self, name: str, array: np.ndarray) -> str:
        """Declare a value fixed at program-construction time (weights).

        The array is referenced, not copied -- treat it as immutable for
        the lifetime of the program.
        """
        array = np.asarray(array)
        return self._declare(ValueSpec(
            name=name, shape=tuple(array.shape), dtype=array.dtype,
            role=ROLE_CONSTANT, array=array))

    # -- node construction -----------------------------------------------------

    def _check_inputs(self, node_name: str, names: Sequence[str]) -> None:
        for n in names:
            if n not in self.values:
                raise ProgramError(
                    f"node {node_name!r} reads undeclared value {n!r}")

    def _add_node(self, node: ProgramNode) -> None:
        index = len(self.nodes)
        self.nodes.append(node)
        for n in node.inputs:
            self.values[n].consumers.append(index)
        for n in node.outputs:
            self.values[n].producer = index

    def add_kernel(self, name: str, schedule: Schedule,
                   bindings: Dict[str, str], output_layout: RaggedLayout,
                   out: Optional[str] = None,
                   input_layouts: Optional[Dict[str, RaggedLayout]] = None,
                   ) -> str:
        """Append a scheduled-operator node; returns its output value name."""
        self._check_inputs(name, list(bindings.values()))
        out = out or name
        self._declare(ValueSpec(name=out, layout=output_layout))
        self._add_node(KernelNode(
            name=name, inputs=tuple(bindings.values()), outputs=(out,),
            schedule=schedule, bindings=dict(bindings),
            input_layouts=input_layouts))
        return out

    def add_host(self, name: str, fn: Callable, inputs: Sequence[str],
                 output_layouts: Optional[Dict[str, RaggedLayout]] = None,
                 output_shapes: Optional[Dict[str, Sequence[int]]] = None,
                 fills_output: bool = True,
                 elementwise: Optional[Sequence[str]] = None,
                 row_wise: bool = False, row_flops: int = 0,
                 ) -> Tuple[str, ...]:
        """Append a host-side step; returns its output value names.

        Outputs are declared through ``output_layouts`` (ragged) and/or
        ``output_shapes`` (dense); ``fn`` receives them first, in
        declaration order, followed by the materialised inputs.

        ``elementwise`` names inputs the output depends on only pointwise
        (``out[i] = f(in[i], ...)``): the planner may then alias the
        output onto one of those inputs' arena slabs (in-place update)
        when that input is otherwise dead.  Requires a single output of
        the same element count as each named input, and
        ``fills_output=True`` (a pre-zeroing pass would clobber the
        aliased input before ``fn`` reads it).
        """
        self._check_inputs(name, inputs)
        out_names: List[str] = []
        for out, layout in (output_layouts or {}).items():
            self._declare(ValueSpec(name=out, layout=layout))
            out_names.append(out)
        for out, shape in (output_shapes or {}).items():
            self._declare(ValueSpec(
                name=out, shape=tuple(int(s) for s in shape)))
            out_names.append(out)
        if not out_names:
            raise ProgramError(f"host node {name!r} declares no outputs")
        if row_wise and any(self.values[v].is_ragged
                            for v in (*inputs, *out_names)):
            raise ProgramError(f"host node {name!r}: a row-wise node's "
                               "inputs and outputs must be dense")
        elementwise = tuple(elementwise or ())
        if elementwise:
            if len(out_names) != 1:
                raise ProgramError(
                    f"host node {name!r}: elementwise (in-place-safe) nodes "
                    f"must have exactly one output, got {len(out_names)}")
            if not fills_output:
                raise ProgramError(
                    f"host node {name!r}: elementwise nodes require "
                    "fills_output=True (pre-zeroing would clobber the "
                    "aliased input)")
            out_elements = self.values[out_names[0]].num_elements
            for n in elementwise:
                if n not in inputs:
                    raise ProgramError(
                        f"host node {name!r}: elementwise input {n!r} is "
                        f"not among the node's inputs {list(inputs)}")
                if self.values[n].num_elements != out_elements:
                    raise ProgramError(
                        f"host node {name!r}: elementwise input {n!r} has "
                        f"{self.values[n].num_elements} elements but the "
                        f"output has {out_elements}")
        self._add_node(HostNode(
            name=name, inputs=tuple(inputs), outputs=tuple(out_names),
            fn=fn, fills_output=fills_output, elementwise=elementwise,
            row_wise=row_wise, row_flops=row_flops))
        return tuple(out_names)

    def mark_output(self, *names: str) -> None:
        """Select the values returned by ``Session.run``."""
        for n in names:
            if n not in self.values:
                raise ProgramError(f"unknown output value {n!r}")
            if self.values[n].role != ROLE_INTERMEDIATE:
                raise ProgramError(
                    f"output {n!r} must be produced by a node, not a "
                    f"{self.values[n].role}")
            if n not in self.outputs:
                self.outputs.append(n)

    def dense_shape_of(self, name: str) -> Tuple[int, ...]:
        """The shape of a dense value; a clear error for ragged values.

        Node builders over packed (dense) values use this so binding a
        ragged value fails with a :class:`ProgramError` naming the value
        instead of an opaque ``TypeError``.
        """
        if name not in self.values:
            raise ProgramError(f"unknown value {name!r}")
        spec = self.values[name]
        if spec.shape is None:
            raise ProgramError(
                f"value {name!r} is ragged; this node requires a dense "
                "(packed) value")
        return spec.shape

    # -- introspection ----------------------------------------------------------

    @property
    def kernel_nodes(self) -> List[KernelNode]:
        return [n for n in self.nodes if isinstance(n, KernelNode)]

    @property
    def host_nodes(self) -> List[HostNode]:
        return [n for n in self.nodes if isinstance(n, HostNode)]

    def intermediates(self) -> List[ValueSpec]:
        """Values produced by nodes (the arena-planned set)."""
        return [v for v in self.values.values()
                if v.role == ROLE_INTERMEDIATE]

    def input_values(self) -> List[ValueSpec]:
        return [v for v in self.values.values() if v.role == ROLE_INPUT]

    def validate(self) -> None:
        """Check graph well-formedness (producers exist, outputs marked)."""
        if not self.outputs:
            raise ProgramError(f"program {self.name!r} has no marked outputs")
        for v in self.values.values():
            if v.role == ROLE_INTERMEDIATE and v.producer is None:
                raise ProgramError(
                    f"intermediate value {v.name!r} has no producer")

    def __repr__(self) -> str:
        return (f"Program({self.name!r}, nodes={len(self.nodes)}, "
                f"values={len(self.values)}, outputs={self.outputs})")


# ---------------------------------------------------------------------------
# Program rebuild recipes
# ---------------------------------------------------------------------------
#
# Host-node functions and schedule bodies are local closures, so a
# ``Program`` cannot be pickled across process boundaries.  A *recipe*
# sidesteps pickling entirely: it names a registered builder function plus
# the (picklable) keyword arguments that reproduce the program, and the
# receiving process rebuilds -- and recompiles -- an identical program
# locally.  Builders must be deterministic: the same recipe must yield the
# same node order, value names, layouts and constant arrays, so the
# resulting :class:`~repro.core.planner.ProgramPlan` is identical in every
# process (the process-pool engine verifies this with a plan fingerprint).

_PROGRAM_BUILDERS: Dict[str, Callable[..., "Program"]] = {}


def register_program_builder(name: str,
                             builder: Callable[..., "Program"]) -> None:
    """Register a deterministic program builder under ``name``.

    The builder is invoked as ``builder(**kwargs)`` by
    :func:`build_from_recipe`; its keyword arguments must be picklable.
    Re-registering the same name overwrites (module reload friendliness).
    """
    if not callable(builder):
        raise TypeError(f"builder for {name!r} must be callable")
    _PROGRAM_BUILDERS[name] = builder


def make_recipe(module: str, builder: str, **kwargs) -> Tuple:
    """A recipe tuple: import ``module``, call registered ``builder``."""
    return ("builder", module, builder, kwargs)


def build_from_recipe(recipe: Tuple) -> "Program":
    """Rebuild a program from its recipe (see
    :func:`register_program_builder`).

    ``("builder", module, name, kwargs)`` imports ``module`` first (so the
    import side effect registers the builder) and calls the registered
    builder; ``("merged", opts)`` recursively rebuilds the parts and
    re-merges them with the recorded sharing/stagger options.
    """
    if not isinstance(recipe, tuple) or not recipe:
        raise ProgramError(f"malformed program recipe: {recipe!r}")
    kind = recipe[0]
    if kind == "merged":
        opts = recipe[1]
        parts = [build_from_recipe(r) for r in opts["parts"]]
        return merge_programs(parts, share=opts.get("share", "constants"),
                              stagger=opts.get("stagger"))
    if kind != "builder" or len(recipe) != 4:
        raise ProgramError(f"malformed program recipe: {recipe!r}")
    _, module, builder, kwargs = recipe
    importlib.import_module(module)
    fn = _PROGRAM_BUILDERS.get(builder)
    if fn is None:
        raise ProgramError(
            f"no program builder named {builder!r} registered by module "
            f"{module!r}; call register_program_builder at import time")
    program = fn(**kwargs)
    if program.recipe is None:
        program.recipe = recipe
    return program


# ---------------------------------------------------------------------------
# Multi-program fusion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MergeInfo:
    """How :func:`merge_programs` renamed each part into the merged graph."""

    #: per-part prefix (``"R0."``, ``"R1."``, ...)
    prefixes: Tuple[str, ...]
    #: per-part mapping of original value name -> merged value name
    value_maps: Tuple[Dict[str, str], ...]
    #: constants deduplicated across parts (shared by array identity)
    shared_constants: int
    #: node-emission stagger used for the interleave
    stagger: int

    @property
    def num_parts(self) -> int:
        return len(self.prefixes)

    def input_name(self, part: int, name: str) -> str:
        return self.value_maps[part][name]

    def output_name(self, part: int, name: str) -> str:
        return self.value_maps[part][name]


def merge_programs(programs: Sequence[Program], share: str = "constants",
                   stagger: Optional[int] = None,
                   name: Optional[str] = None) -> Program:
    """Fuse K independent programs into one wide program graph.

    Part ``i``'s values and nodes are namespaced ``R{i}.``; the parts stay
    *disjoint* subgraphs (no data edges between them), so the planner's
    dependence analysis sees K independent chains and ``ready_steps``
    gains genuine width -- the prerequisite for pipelined / process-pool
    dispatch to overlap anything on chain-shaped models.  With
    ``share="constants"`` (default) constant values referencing the *same
    array object* (weights shared across requests, or across layers) are
    declared once and rebound everywhere; ``share=None`` keeps every
    part's constants separate.

    ``stagger`` controls the node-emission interleave, which -- because
    planning orders steps by emission -- controls how far the parts'
    lifetimes overlap and hence the fused arena size: part ``i``'s node
    ``j`` is emitted at tick ``i * stagger + j``.  ``stagger=1`` runs the
    parts in near-lockstep (maximum width, arena ~ K x one part);
    ``stagger=len(nodes)`` concatenates them (arena ~ one part, no
    steady-state overlap).  The default -- about half a part's length --
    overlaps 2-3 parts at a time, so arena(fused K) stays well below
    K x arena(single) while every part's first step remains immediately
    ready (the planner gives merge roots fresh slabs, see
    ``Program.merge_roots``).

    The same ``Program`` object may appear multiple times (its values are
    only read).  If every part carries a rebuild recipe, the merged
    program gets a ``("merged", ...)`` recipe so it too can be shipped to
    worker processes.
    """
    programs = list(programs)
    if not programs:
        raise ProgramError("merge_programs needs at least one program")
    if share not in (None, False, "constants"):
        raise ProgramError(
            f"unknown share mode {share!r}; expected 'constants' or None")
    for p in programs:
        p.validate()
    max_nodes = max(len(p.nodes) for p in programs)
    if stagger is None:
        stagger = max(1, (max_nodes + 1) // 2)
    stagger = int(stagger)
    if stagger < 1:
        raise ProgramError(f"stagger must be >= 1, got {stagger}")

    merged = Program(name or
                     f"merged[{len(programs)}]({programs[0].name})")
    prefixes = tuple(f"R{i}." for i in range(len(programs)))
    value_maps: List[Dict[str, str]] = [dict() for _ in programs]
    #: id(array) -> merged constant name (cross-part weight sharing)
    const_by_array: Dict[int, str] = {}
    shared_constants = 0
    cross_part_shared = 0
    roots: List[str] = []

    # Declare every part's inputs and constants up front (declaration
    # order does not matter for planning -- only node emission order does).
    for i, part in enumerate(programs):
        for vname, spec in part.values.items():
            if spec.role == ROLE_INPUT:
                new = merged.add_input(prefixes[i] + vname,
                                       layout=spec.layout, shape=spec.shape,
                                       dtype=spec.dtype)
                value_maps[i][vname] = new
                merged.merge_groups[new] = i
            elif spec.role == ROLE_CONSTANT:
                existing = (const_by_array.get(id(spec.array))
                            if share == "constants" else None)
                if existing is not None:
                    value_maps[i][vname] = existing
                    shared_constants += 1
                    if merged.merge_groups.get(existing) != i:
                        cross_part_shared += 1
                    continue
                new = merged.add_constant(prefixes[i] + vname, spec.array)
                value_maps[i][vname] = new
                merged.merge_groups[new] = i
                if share == "constants":
                    const_by_array[id(spec.array)] = new

    # Emit nodes in staggered round-robin order: part i's node j at tick
    # i * stagger + j.  Emission order is topological (each part already
    # is, and parts are disjoint), and the planner's topological order
    # preserves it, so the stagger directly shapes liveness overlap.
    ticks: List[Tuple[int, int]] = []
    for i, part in enumerate(programs):
        for j in range(len(part.nodes)):
            ticks.append((i * stagger + j, i))
    ticks.sort(key=lambda t: (t[0], t[1]))
    cursor = [0] * len(programs)
    for _tick, i in ticks:
        part = programs[i]
        node = part.nodes[cursor[i]]
        cursor[i] += 1
        vmap = value_maps[i]
        for oname in node.outputs:
            spec = part.values[oname]
            new = merged._declare(ValueSpec(
                name=prefixes[i] + oname, layout=spec.layout,
                shape=spec.shape, dtype=spec.dtype))
            vmap[oname] = new
            merged.merge_groups[new] = i
        renamed = dataclasses.replace(
            node,
            name=prefixes[i] + node.name,
            inputs=tuple(vmap[n] for n in node.inputs),
            outputs=tuple(vmap[n] for n in node.outputs),
            elementwise=tuple(vmap[n] for n in node.elementwise))
        if isinstance(node, KernelNode):
            renamed.bindings = {t: vmap[v]
                                for t, v in node.bindings.items()}
        merged._add_node(renamed)
        if cursor[i] == 1:
            # The part's first node: its outputs are the merge roots --
            # the planner gives them fresh slabs so no slab-reuse
            # anti-edge can delay the part's entry step, keeping all K
            # parts in ``ready_steps``.
            roots.extend(vmap[n] for n in node.outputs)

    for i, part in enumerate(programs):
        for oname in part.outputs:
            merged.mark_output(value_maps[i][oname])

    merged.merge_roots = frozenset(roots)
    merged.merge_info = MergeInfo(
        prefixes=prefixes,
        value_maps=tuple(value_maps),
        shared_constants=shared_constants,
        stagger=stagger)
    # The generic merged recipe rebuilds each part from its own recipe and
    # re-merges.  That is only faithful when no constant was deduplicated
    # *across* parts: rebuilding unpickles each part's kwargs separately,
    # so cross-part array identity -- the thing ``share="constants"``
    # keys on -- would not survive and the rebuilt plan would diverge.
    # Programs whose parts share weights should register a dedicated wide
    # builder instead (e.g. the encoder's ``encoder_wide`` builder, which
    # unpickles the weights once and shares the one object across parts).
    if (all(p.recipe is not None for p in programs)
            and cross_part_shared == 0):
        merged.recipe = ("merged", {
            "parts": [p.recipe for p in programs],
            "share": share, "stagger": stagger})
    return merged
