"""Program planning: ordering, liveness, arena assignment.

Given a :class:`~repro.core.program.Program` whose raggedness signature is
fixed, every intermediate value's byte size is known before execution
(insight I1 of the paper: raggedness is known up front).  The planner
exploits that to replace per-op output allocation with a small set of
reusable arena *slabs*:

1. :func:`topological_order` orders the nodes (Kahn's algorithm, stable in
   insertion order -- programs built through the ``Program`` API are
   already topological, but the planner does not rely on it);
2. liveness analysis computes, for every intermediate value, the half-open
   interval of node steps during which its buffer must exist: from its
   producing step to its last consuming step (program outputs stay live to
   the end of the program);
3. a greedy best-fit allocator assigns each value to a slab.  A node's
   output is assigned *while its inputs are still live*, so a value never
   aliases the buffers its producer reads -- overlapping producer/consumer
   lifetimes are automatically double-buffered into distinct slabs; slabs
   are recycled only once their occupant's last consumer has executed.
   With ``inplace=True``, a node declared element-wise may instead alias
   its (otherwise dead) input's slab -- a provably-safe in-place update.
   The planner packs both ways and keeps the aliasing only when it does
   not lose, so the in-place arena is never larger than the
   double-buffered one.

Steps run one after another in ``order``, so slab reuse and in-place
aliasing need no further bookkeeping: a slab is rewritten only after
every step touching its previous occupant has run.  The resulting
:class:`ProgramPlan` records the slab sizes, the per-value assignment,
the in-place aliases and the peak arena bytes, alongside the bytes a
per-op allocator would have touched -- the numbers the memory model
reports.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.program import (
    Program,
    ProgramError,
    ROLE_INTERMEDIATE,
)


@dataclass
class ProgramPlan:
    """The execution plan of one program: order, liveness, arena."""

    #: node indices in execution order
    order: List[int]
    #: value name -> (birth step, death step); steps index into ``order``.
    #: A value is live on ``[birth, death]`` inclusive.
    liveness: Dict[str, Tuple[int, int]]
    #: value name -> arena slab index
    slab_of: Dict[str, int]
    #: per-slab capacity in elements
    slab_elements: List[int]
    #: per-value element counts used for planning
    value_elements: Dict[str, int]
    #: bytes per element (float32 throughout the numeric path)
    itemsize: int = 4
    #: value name -> the input value it aliases in place (same slab)
    inplace_of: Dict[str, str] = field(default_factory=dict)
    #: whether in-place aliasing was enabled for this plan
    inplace: bool = False
    #: the rewritten program when planned with ``fuse=True`` and at
    #: least one region fused; ``order`` / ``liveness`` / steps index
    #: into *its* nodes.  ``None`` for unfused plans.
    fused_program: Optional[Program] = None
    #: the :class:`~repro.core.fusion.FusionReport` (``None`` unfused)
    fusion: Optional[object] = None

    @property
    def arena_bytes(self) -> int:
        """Peak intermediate bytes under arena reuse (sum of slab sizes)."""
        return int(sum(self.slab_elements)) * self.itemsize

    @property
    def naive_bytes(self) -> int:
        """Bytes a per-op allocator would allocate (one buffer per value)."""
        return int(sum(self.value_elements.values())) * self.itemsize

    @property
    def peak_live_bytes(self) -> int:
        """Max bytes simultaneously live at any step.

        The liveness lower bound for a *non-aliasing* allocator;
        ``arena_bytes`` is what the greedy best-fit packing actually
        reserves.  In-place aliased values share their source's buffer at
        the hand-over step, so they are counted once there -- an in-place
        plan's arena can therefore dip below the double-buffered bound.
        For an N-layer stacked program this stays near one layer's
        working set -- the number the cross-layer reuse regression pins
        down.
        """
        if not self.liveness:
            return 0
        steps = len(self.order)
        live = np.zeros(steps, dtype=np.int64)
        for name, (birth, death) in self.liveness.items():
            live[birth:death + 1] += self.value_elements[name]
        for name in self.inplace_of:
            # At its birth step an in-place value occupies its source's
            # buffer, not a second one.
            live[self.liveness[name][0]] -= self.value_elements[name]
        return int(live.max()) * self.itemsize

    @property
    def num_slabs(self) -> int:
        return len(self.slab_elements)

    @property
    def num_values(self) -> int:
        return len(self.value_elements)

    @property
    def inplace_values(self) -> int:
        """Number of values sharing their input's slab in place."""
        return len(self.inplace_of)

    @property
    def inplace_shared_bytes(self) -> int:
        """Bytes of buffer the in-place aliases avoided allocating."""
        return int(sum(self.value_elements[n]
                       for n in self.inplace_of)) * self.itemsize

    @property
    def reuse_savings(self) -> float:
        """Fraction of per-op allocation bytes the arena avoids (0..1)."""
        naive = self.naive_bytes
        if naive == 0:
            return 0.0
        return 1.0 - self.arena_bytes / naive

    def summary(self) -> Dict[str, object]:
        return {
            "num_nodes": len(self.order),
            "num_values": self.num_values,
            "num_slabs": self.num_slabs,
            "arena_bytes": self.arena_bytes,
            "peak_live_bytes": self.peak_live_bytes,
            "naive_bytes": self.naive_bytes,
            "reuse_savings": self.reuse_savings,
            "inplace": self.inplace,
            "inplace_values": self.inplace_values,
            "inplace_shared_bytes": self.inplace_shared_bytes,
            "fused": self.fused_program is not None,
            "fusion": (self.fusion.summary()
                       if self.fusion is not None else None),
        }


def topological_order(program: Program) -> List[int]:
    """Kahn's algorithm over the node graph, stable in insertion order.

    The ready set is a min-index heap, so among runnable nodes the one
    inserted earliest always goes first.  For any program built through
    the ``Program`` API (which requires producers before consumers) this
    makes the planned order *exactly* the insertion order.
    """
    n = len(program.nodes)
    preds: List[set] = [set() for _ in range(n)]
    succs: List[set] = [set() for _ in range(n)]
    for idx, node in enumerate(program.nodes):
        for name in node.inputs:
            producer = program.values[name].producer
            if producer is not None and producer != idx:
                preds[idx].add(producer)
                succs[producer].add(idx)
    ready = [i for i in range(n) if not preds[i]]
    heapq.heapify(ready)
    order: List[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in sorted(succs[i]):
            preds[j].discard(i)
            if not preds[j]:
                heapq.heappush(ready, j)
    if len(order) != n:
        cyclic = [program.nodes[i].name for i in range(n) if preds[i]]
        raise ProgramError(f"program graph has a cycle through {cyclic}")
    return order


def compute_liveness(program: Program,
                     order: List[int]) -> Dict[str, Tuple[int, int]]:
    """Per-intermediate ``(birth, death)`` step interval (inclusive).

    Program outputs die at the last step so their buffers survive until
    ``Session.run`` copies them out.
    """
    step_of = {node_idx: step for step, node_idx in enumerate(order)}
    last_step = len(order) - 1
    liveness: Dict[str, Tuple[int, int]] = {}
    for value in program.intermediates():
        if value.producer is None:
            raise ProgramError(f"value {value.name!r} has no producer")
        birth = step_of[value.producer]
        death = birth
        for consumer in value.consumers:
            death = max(death, step_of[consumer])
        if value.name in program.outputs:
            death = last_step
        liveness[value.name] = (birth, death)
    return liveness


def _pack_slabs(
    program: Program,
    order: List[int],
    liveness: Dict[str, Tuple[int, int]],
    value_elements: Dict[str, int],
    inplace: bool,
) -> Tuple[List[int], Dict[str, int], Dict[str, str]]:
    """Greedy best-fit slab packing over the liveness intervals.

    Values are born in execution order; a slab is free once its
    occupant's death step has passed.  Because a node's output is
    assigned before its inputs are released, producer/consumer lifetime
    overlap never shares a slab (double buffering) -- unless the
    producing node is declared element-wise and ``inplace`` reassigns
    the dying input's slab to the output directly.

    Returns ``(slab_elements, slab_of, inplace_of)``.
    """
    outputs = set(program.outputs)
    slab_elements: List[int] = []
    slab_of: Dict[str, int] = {}
    inplace_of: Dict[str, str] = {}
    free: List[int] = []
    #: slab index -> the value currently occupying it (an in-place
    #: hand-over replaces the occupant without the slab ever going free).
    occupant: Dict[int, str] = {}
    # values grouped by birth / death step
    births: Dict[int, List[str]] = {}
    deaths: Dict[int, List[str]] = {}
    for name, (birth, death) in liveness.items():
        births.setdefault(birth, []).append(name)
        deaths.setdefault(death, []).append(name)

    def _inplace_source(name: str, step: int) -> Optional[str]:
        node = program.nodes[order[step]]
        if not node.elementwise or len(node.outputs) != 1:
            return None
        if not getattr(node, "fills_output", False):
            # Kernel outputs (and host outputs needing pre-zeroing) are
            # zero-filled before dispatch, which would clobber the
            # aliased input before the node reads it.
            return None
        need = value_elements[name]
        for cand in node.elementwise:
            spec = program.values[cand]
            if spec.role != ROLE_INTERMEDIATE or cand in outputs:
                continue
            if value_elements.get(cand) != need:
                continue
            if liveness[cand][1] != step:
                # Another consumer reads the input after this node: the
                # in-place write would clobber live bytes.
                continue
            return cand
        return None

    for step in range(len(order)):
        for name in births.get(step, ()):
            need = value_elements[name]
            source = _inplace_source(name, step) if inplace else None
            if source is not None:
                slab = slab_of[source]
                slab_of[name] = slab
                occupant[slab] = name
                inplace_of[name] = source
                continue
            best = None
            for slab in free:
                if slab_elements[slab] >= need:
                    if best is None or slab_elements[slab] < slab_elements[best]:
                        best = slab
            if best is not None:
                free.remove(best)
                slab_of[name] = best
            elif free:
                # No free slab fits: grow the largest free one instead of
                # opening a new slab (fewer, bigger slabs -> higher reuse).
                grow = max(free, key=lambda s: slab_elements[s])
                free.remove(grow)
                slab_elements[grow] = need
                slab_of[name] = grow
            else:
                slab_of[name] = len(slab_elements)
                slab_elements.append(need)
            occupant[slab_of[name]] = name
        for name in deaths.get(step, ()):
            slab = slab_of[name]
            # An in-place successor took the slab over at this very step:
            # it stays occupied, not free.
            if occupant.get(slab) == name:
                free.append(slab)
                occupant.pop(slab)

    return slab_elements, slab_of, inplace_of


def plan_program(program: Program, itemsize: int = 4,
                 inplace: bool = False, fuse: bool = False) -> ProgramPlan:
    """Order the graph, run liveness, pack intermediates into slabs.

    Sizes come from the declared value layouts/shapes, so no compilation
    is required (the analytical memory model plans programs directly);
    session compilation separately validates that every kernel node's
    declared output layout matches its compiled plan's size.

    With ``inplace=True``, a single-output host node declared
    element-wise may alias one of its declared-safe inputs instead of
    double-buffering, provided that input is an intermediate (not a
    program input, constant, or marked output), has exactly the output's
    element count, and -- crucially -- has no consumer later than this
    node: a second live reader forbids the in-place update, since the
    write would clobber bytes that reader has yet to consume.  Aliased
    values share the input's slab.  Guarantee: if the aliased packing
    would end up *larger* than plain double buffering (hand-over can
    strand a big recycled slab), the planner falls back to the
    double-buffered packing, so
    ``arena_bytes`` with ``inplace=True`` never exceeds the default.

    With ``fuse=True`` the graph is first rewritten by
    :func:`~repro.core.fusion.fuse_program`: contiguous same-kind node
    runs collapse into single fused steps and fully-internal
    intermediates leave the plan (their slabs disappear).  The plan's
    ``order`` / liveness then describes the
    *fused* program, available as ``plan.fused_program``; callers keep
    addressing the original program.

    A program bound from a :class:`~repro.core.program.ProgramStructure`
    takes the order and liveness of its structure (computed by the first
    plan of each mode); only value sizes and slab packing are its own.
    """
    structure = program.structure
    topology = structure.topology.get(fuse) if structure else None
    if topology is None:
        program.validate()
    fused_program = None
    fusion = None
    if fuse:
        from repro.core.fusion import fuse_program

        fused_program, fusion = fuse_program(program)
        if fused_program is not None:
            program = fused_program
    if topology is None:
        order = topological_order(program)
        topology = order, compute_liveness(program, order)
        if structure is not None:
            structure.topology[fuse] = topology
    order, liveness = topology

    value_elements = {
        v.name: v.num_elements for v in program.intermediates()
    }

    slab_elements, slab_of, inplace_of = _pack_slabs(
        program, order, liveness, value_elements, inplace=inplace)
    if inplace and inplace_of:
        # In-place hand-over keeps the source's slab occupied past its
        # death, which can -- on adversarial shapes -- strand a large
        # recycled slab and make the greedy total *worse* than plain
        # double buffering.  Pack both ways and keep the aliasing only
        # when it does not lose, so arena(inplace) <= arena(2-buffered)
        # holds by construction.
        plain_elements, plain_of, _ = _pack_slabs(
            program, order, liveness, value_elements, inplace=False)
        if sum(slab_elements) > sum(plain_elements):
            slab_elements, slab_of, inplace_of = (
                plain_elements, plain_of, {})

    return ProgramPlan(
        order=order,
        liveness=liveness,
        slab_of=slab_of,
        slab_elements=slab_elements,
        value_elements=value_elements,
        itemsize=int(itemsize),
        inplace_of=inplace_of,
        inplace=bool(inplace),
        fused_program=fused_program,
        fusion=fusion,
    )
