"""Planner-level kernel fusion: collapse producer-consumer node chains.

The compiled encoder still pays one dispatch per operator with an arena
round-trip between every producer-consumer pair -- exactly the overhead
the source paper argues a ragged-tensor compiler should fuse away.
:func:`fuse_program` rewrites a :class:`Program` graph so that maximal
runs of *consecutive same-kind* nodes (all-kernel or all-host) become
single fused nodes:

* a run of :class:`KernelNode`\\ s (e.g. the masked softmax chain
  ``addmask -> max -> exp -> sum -> div``) becomes one
  :class:`FusedKernelNode`, which the executor either emits as *one*
  vector kernel sharing a single gather/scatter
  (:func:`repro.core.codegen_vector.generate_fused_kernel`) or, when
  any member resists vector emission, runs as a grouped dispatch that
  is bit-identical to the unfused chain by construction;
* a run of :class:`HostNode`\\ s (projections, residual adds, layer
  norms) becomes one :class:`FusedHostNode` executed as a single step.

The legality rule for *internalising* an intermediate value -- making
it a kernel-local (or fused-step-local) temporary whose arena slab
disappears from the plan -- is that its producer and **all** of its
consumers lie inside the region and it is not a program output.
Values with any external reader survive as outputs of the fused node.

Fusion never reorders work: regions are contiguous runs of the
original (topological) node order and members execute in that order
inside the fused step, so the rewrite is bit-identical by
construction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.program import (
    HostNode,
    KernelNode,
    Program,
    ProgramNode,
    ROLE_CONSTANT,
    ROLE_INPUT,
    ValueSpec,
)


@dataclass
class FusedKernelNode(ProgramNode):
    """A contiguous run of kernel nodes executed as one dispatch.

    ``members`` are the original :class:`KernelNode`\\ s in execution
    order; ``internal_specs`` are the value specs of the intermediates
    that became fused-local temporaries (their names no longer exist in
    the rewritten program).  Deliberately *not* a :class:`KernelNode`
    subclass so ``Program.kernel_nodes`` keeps counting unfused kernels.
    """

    members: Tuple[KernelNode, ...] = ()
    internal_specs: Tuple[ValueSpec, ...] = ()

    @property
    def kind(self) -> str:
        return "fused-kernel"


@dataclass
class FusedHostNode(ProgramNode):
    """A contiguous run of host nodes executed as one step.

    Member functions run in order inside the fused step; internalised
    intermediates live in private step-local buffers instead of arena
    slabs.  Per-member ``fills_output`` semantics are preserved by the
    fused closure the session builds.
    """

    members: Tuple[HostNode, ...] = ()
    internal_specs: Tuple[ValueSpec, ...] = ()

    @property
    def kind(self) -> str:
        return "fused-host"


@dataclass
class FusionReport:
    """What :func:`fuse_program` did to a program graph."""

    regions: int = 0
    fused_kernels: int = 0
    fused_hosts: int = 0
    #: member nodes swallowed into fused nodes (sum of region sizes)
    nodes_fused: int = 0
    #: intermediates turned into fused-local temporaries
    values_internalized: int = 0
    #: steps removed from the dispatch loop: sum of (len(region) - 1)
    dispatches_eliminated: int = 0
    #: names of the internalised values (their slabs left the plan)
    internalized: Tuple[str, ...] = ()
    region_sizes: Tuple[int, ...] = ()

    def summary(self) -> Dict[str, object]:
        return {
            "regions": self.regions,
            "fused_kernels": self.fused_kernels,
            "fused_hosts": self.fused_hosts,
            "nodes_fused": self.nodes_fused,
            "values_internalized": self.values_internalized,
            "dispatches_eliminated": self.dispatches_eliminated,
            "region_sizes": list(self.region_sizes),
        }


def _fusable_runs(program: Program) -> List[Tuple[str, List[int]]]:
    """Maximal runs of consecutive same-kind nodes.

    Returns ``(kind, node_indices)`` for every run; only runs of length
    >= 2 are fusion regions.
    """
    runs: List[Tuple[str, List[int]]] = []
    for idx, node in enumerate(program.nodes):
        if isinstance(node, KernelNode):
            kind = "kernel"
        elif isinstance(node, HostNode):
            kind = "host"
        else:  # already fused, or a foreign node kind: never re-fuse
            kind = f"other:{idx}"
        if runs and runs[-1][0] == kind:
            runs[-1][1].append(idx)
        else:
            runs.append((kind, [idx]))
    return runs


def _region_node(program: Program, indices: List[int],
                 kind: str) -> Tuple[ProgramNode, List[str]]:
    """Build the fused node for one region; returns it plus the names of
    the internalised values."""
    members = tuple(program.nodes[i] for i in indices)
    region = set(indices)
    produced: List[str] = []
    for m in members:
        produced.extend(m.outputs)
    produced_set = set(produced)

    internal: List[str] = []
    external_out: List[str] = []
    for name in produced:
        spec = program.values[name]
        outside = [c for c in spec.consumers if c not in region]
        if not outside and name not in program.outputs:
            internal.append(name)
        else:
            external_out.append(name)

    inputs: List[str] = []
    for m in members:
        for name in m.inputs:
            if name not in produced_set and name not in inputs:
                inputs.append(name)

    internal_specs = tuple(
        dataclasses.replace(program.values[n], producer=None, consumers=[])
        for n in internal)
    cls = FusedKernelNode if kind == "kernel" else FusedHostNode
    node = cls(
        name="fused(" + "+".join(m.name for m in members) + ")",
        inputs=tuple(inputs),
        outputs=tuple(external_out),
        members=members,
        internal_specs=internal_specs)
    return node, internal


def fuse_program(program: Program,
                 ) -> Tuple[Optional[Program], FusionReport]:
    """Rewrite ``program`` with fusable regions collapsed.

    Returns ``(fused_program, report)``; ``fused_program`` is ``None``
    (and the report all-zero) when no region of length >= 2 exists.
    The rewritten program preserves input / constant / surviving-value
    names and the marked outputs, so it is a drop-in execution plan for
    the original -- callers keep addressing the *original* program (the
    session caches by its uid).
    """
    program.validate()
    runs = _fusable_runs(program)
    report = FusionReport()
    if not any(len(idx) >= 2 for _, idx in runs):
        return None, report

    fused = Program(program.name)

    for spec in program.values.values():
        if spec.role in (ROLE_INPUT, ROLE_CONSTANT):
            fused._declare(dataclasses.replace(
                spec, producer=None, consumers=[]))

    internalized: List[str] = []
    region_sizes: List[int] = []
    for kind, indices in runs:
        if len(indices) < 2 or kind not in ("kernel", "host"):
            for i in indices:
                node = program.nodes[i]
                for oname in node.outputs:
                    fused._declare(dataclasses.replace(
                        program.values[oname], producer=None, consumers=[]))
                fused._add_node(node)
            continue
        node, internal = _region_node(program, indices, kind)
        for oname in node.outputs:
            fused._declare(dataclasses.replace(
                program.values[oname], producer=None, consumers=[]))
        fused._add_node(node)
        internalized.extend(internal)
        region_sizes.append(len(indices))
        report.regions += 1
        report.nodes_fused += len(indices)
        report.dispatches_eliminated += len(indices) - 1
        if kind == "kernel":
            report.fused_kernels += 1
        else:
            report.fused_hosts += 1

    fused.mark_output(*program.outputs)

    report.values_internalized = len(internalized)
    report.internalized = tuple(internalized)
    report.region_sizes = tuple(region_sizes)
    return fused, report
