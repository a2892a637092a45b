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

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import CoraError
from repro.core.extents import ExtentMap, VarExtent
from repro.core.ir import reductions_in
from repro.core.lowering import clone
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
    """A ragged program graph for one raggedness signature.

    Nodes are appended in execution (hence topological) order through
    :meth:`add_kernel` / :meth:`add_host`; values are declared through
    :meth:`add_input` / :meth:`add_constant` or implicitly as node
    outputs.  :meth:`mark_output` selects the values ``Session.run``
    returns.

    A program declared over one length function ``seq`` (the batch's
    ``s(b)``, a table-backed :class:`~repro.core.extents.VarExtent`) can
    become the template of a :class:`ProgramStructure`, which binds the
    same graph to other lengths; ``structure`` is set on the template and
    on every program bound from it.
    """

    def __init__(self, name: str, seq: Optional[VarExtent] = None):
        self.name = name
        self.uid = next(_PROGRAM_UIDS)
        self.values: Dict[str, ValueSpec] = {}
        self.nodes: List[ProgramNode] = []
        self.outputs: List[str] = []
        self.seq = seq
        self.structure: Optional["ProgramStructure"] = None
        #: bound from a structure: the template's length function -> this
        #: program's (its kernel nodes are the template's)
        self.extents: Optional[ExtentMap] = None

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


class ProgramStructure:
    """What every raggedness signature of one program shares.

    The graph of the ``template`` program -- its nodes, value names and
    edges; kernel schedules and ragged layouts whose only length function
    is the template's ``seq``, and host functions that read lengths from
    the tensors they are handed -- plus, filled in by the first compile of
    each plan mode, the planned order and liveness and each kernel's
    structure fingerprint.  Nothing here is sized by the lengths:
    :meth:`bind` gives another signature of the same number of sequences
    its own layouts and value sizes over the shared nodes, and compiling
    that program pays only its prelude, value sizes, slab packing and
    step wiring.  Dense values other than constants must be packed token
    matrices (leading dimension = the token count).
    """

    def __init__(self, template: Program, pinned: Any = None):
        seq = template.seq
        if seq is None or seq.table is None:
            raise ProgramError(
                f"program {template.name!r} was not declared over a length "
                "table; it has no structure to bind")
        template.validate()
        tokens = int(seq.table.sum())

        def own(extents, what: str) -> None:
            for ext in extents:
                if ext.deps and getattr(ext, "base", ext) is not seq:
                    raise ProgramError(
                        f"{what} has a length function other than its "
                        "program's: it cannot be bound to other lengths")

        for spec in template.values.values():
            if spec.role == ROLE_CONSTANT:
                continue
            if spec.layout is not None:
                if not spec.layout.is_ragged:
                    raise ProgramError(
                        f"value {spec.name!r} has a dense layout")
                own(spec.layout.base_extents, f"value {spec.name!r}")
            elif not spec.shape or spec.shape[0] != tokens:
                raise ProgramError(
                    f"value {spec.name!r} of shape {spec.shape} is not a "
                    f"packed token matrix ({tokens} rows)")
        for node in template.kernel_nodes:
            if node.input_layouts:
                raise ProgramError(
                    f"kernel node {node.name!r} overrides its input layouts:"
                    " its program cannot be bound to other lengths")
            op = node.schedule.operator
            own((*op.loop_extents, *op.storage_extents,
                 *(e for t in op.inputs for e in t.extents),
                 *(axis.extent for red in reductions_in(op.body)
                   for axis in red.axes)), f"kernel node {node.name!r}")
        self.template = template
        #: objects the structure's key names by identity (weights)
        self.pinned = pinned
        #: plan mode (``fuse``) -> (order, liveness) of the planned graph
        self.topology: Dict[bool, Tuple[List[int],
                                        Dict[str, Tuple[int, int]]]] = {}
        #: id of a kernel node -> its schedule's structure fingerprint
        self.fingerprints: Dict[int, Any] = {}
        template.structure = self

    def bind(self, lengths: Sequence[int], name: str) -> Program:
        """The template's graph over ``lengths``."""
        old = self.template.seq
        seq = VarExtent(old.dep, lengths)
        if seq.table.size != old.table.size:
            raise ProgramError(
                f"a structure of {old.table.size} sequences cannot bind "
                f"{seq.table.size}")
        program = Program(name, seq=seq)
        program.structure = self
        program.extents = extents = ExtentMap([(old, seq)])
        rows = (int(seq.table.sum()),)
        layouts: Dict[int, RaggedLayout] = {}
        for vname, spec in self.template.values.items():
            if spec.role != ROLE_CONSTANT:
                spec = clone(spec)
                if spec.layout is not None:
                    was = spec.layout
                    spec.layout = layouts.get(id(was))
                    if spec.layout is None:
                        spec.layout = layouts[id(was)] = RaggedLayout(
                            was.dims, [extents(e) for e in was.base_extents],
                            was.storage_padding)
                else:
                    spec.shape = rows + spec.shape[1:]
            program.values[vname] = spec
        program.nodes = list(self.template.nodes)
        program.outputs = list(self.template.outputs)
        return program
