"""The executor: compiling and running scheduled ragged operators.

The executor glues the pipeline of paper Figure 4 together:

1. lower the scheduled operator (:mod:`repro.core.lowering`);
2. generate the kernel through a codegen *backend* (the scalar reference
   emitter of :mod:`repro.core.codegen` or the vectorized NumPy emitter of
   :mod:`repro.core.codegen_vector`);
3. at run time, run the *prelude* (already materialised as the lowered
   kernel's auxiliary arrays -- bound tables, fusion maps, storage offsets,
   remap permutations) and hand the kernel flat buffers for every tensor;
4. report execution statistics: measured host wall time, the analytically
   counted FLOPs of the ragged loop nest, the FLOPs a fully padded
   execution would have needed, and (if a simulated device is attached)
   the modelled device latency.

Compilation is cached at two levels.  A :class:`CompiledKernel` -- one
kernel *instance*: the lowered tables of one raggedness signature bound to
a generated kernel -- is keyed per executor by the identity of the
(operator, schedule state, input layouts) triple, so repeated
``build_and_run`` calls with an unchanged schedule skip everything.  The
generated kernel itself is looked up by its length-free *structure* in a
process-wide table (:func:`repro.core.codegen.kernel_structure`): a
never-seen signature of a known structure only pays the prelude --
lowering its tables, re-checking the emitter's recorded decisions and
bucketing its instances.  ``Executor.lower_count`` / ``cache_hits`` /
``cache_misses`` and ``structures_generated`` / ``structure_hits`` /
``prelude_builds`` expose both levels to benchmarks and tests.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.aotcache import (
    AOTCache,
    Uncacheable,
    disk_key,
    stable_schedule_fingerprint,
)
from repro.core.cache import LRUDict
from repro.core.codegen import (
    CodegenBackend,
    GeneratedKernel,
    KernelStructure,
    get_backend,
    kernel_structure,
)
from repro.core.codegen_vector import (
    FusedMemberPlan,
    VectorizeError,
    bind_prelude,
    decisions_hold,
    generate_fused_kernel,
)
from repro.core.errors import ExecutionError
from repro.core.ir import count_flops, reductions_in
from repro.core.lowering import LoweredKernel, lower_schedule
from repro.core.ragged_tensor import RaggedTensor
from repro.core.schedule import Schedule
from repro.core.storage import RaggedLayout


@dataclass
class ExecutionReport:
    """Statistics of one kernel execution."""

    wall_time_s: float
    flops: int
    dense_flops: int
    device_latency_s: Optional[float] = None

    @property
    def padding_waste(self) -> float:
        """Ratio of fully padded to ragged FLOPs (>= 1)."""
        if self.flops == 0:
            return 1.0
        return self.dense_flops / self.flops


@dataclass
class CompiledKernel:
    """A lowered, generated, ready-to-run kernel.

    The FLOP estimates are pure functions of the lowered kernel, so they
    are computed once on first access and memoized -- ``run`` no longer
    re-walks the loop nest on every execution.
    """

    lowered: LoweredKernel
    generated: GeneratedKernel
    #: the kernel's ``(backend, fingerprint)`` structure (``None``: not
    #: content-addressable)
    structure: Optional[Tuple] = None
    _flops: Optional[int] = field(default=None, repr=False)
    _dense_flops: Optional[int] = field(default=None, repr=False)

    @property
    def source(self) -> str:
        return self.generated.source

    @property
    def backend_name(self) -> str:
        """Which backend emitted the kernel (``"scalar"`` or ``"vector"``)."""
        return self.generated.backend

    @property
    def fallback_reason(self) -> Optional[str]:
        """Why a vector-backend request fell back to scalar (else ``None``)."""
        return self.generated.fallback_reason

    @property
    def output_layout(self) -> RaggedLayout:
        return self.lowered.output_plan.layout

    @property
    def flops(self) -> int:
        if self._flops is None:
            self._flops = estimate_flops(self.lowered)
        return self._flops

    @property
    def dense_flops(self) -> int:
        if self._dense_flops is None:
            self._dense_flops = estimate_dense_flops(self.lowered)
        return self._dense_flops


class _GroupedFusedKernel:
    """Bit-identical fallback execution of a fused kernel region.

    Runs each member's individually compiled kernel in order inside one
    dispatch.  Internal values flow through fresh temporaries (allocated
    per call: fused kernels are cached and may be shared across
    threads); like external outputs they are zero-filled first unless
    the member writes every element itself, reproducing the arena-slab
    semantics of the unfused plan exactly.
    """

    def __init__(self, plans, members: List["CompiledKernel"]):
        self._parts = []
        for plan, compiled in zip(plans, members):
            self._parts.append((
                compiled.generated,
                compiled.lowered.aux_arrays,
                dict(plan.bindings),
                compiled.lowered.output_plan.spec.name,
                plan.out_value,
                plan.internal,
                int(compiled.output_layout.total_size()),
            ))

    def __call__(self, buffers: Dict[str, np.ndarray],
                 aux: Dict[str, np.ndarray]) -> None:
        temps: Dict[str, np.ndarray] = {}
        for (generated, aux_arrays, bindings, out_tensor, out_value,
                internal, size) in self._parts:
            local: Dict[str, np.ndarray] = {}
            for tensor, value in bindings.items():
                buf = temps.get(value)
                local[tensor] = buffers[value] if buf is None else buf
            if internal:
                out = temps[out_value] = np.empty(size, dtype=np.float32)
            else:
                out = buffers[out_value]
            if not generated.fills_output:
                out.fill(0.0)
            local[out_tensor] = out
            generated(local, aux_arrays)


@dataclass
class CompiledFusedKernel:
    """A compiled fused region: one dispatch covering several kernels.

    ``generated`` is either the single emitted vector kernel
    (``fused=True``) or a :class:`_GroupedFusedKernel` wrapper running
    the members back-to-back (``fused=False``, with the
    :class:`~repro.core.codegen_vector.VectorizeError` reason).  Either
    way the callable takes ``(buffers, aux)`` with buffers keyed by
    canonical value keys (plus ``"ws"``, the emitted kernel's private
    workspace of ``generated.workspace_elements`` floats) and writes
    every element of its external outputs.
    """

    node: object
    members: List[CompiledKernel]
    generated: GeneratedKernel
    aux_arrays: Dict[str, np.ndarray]
    fused: bool
    fallback_reason: Optional[str] = None

    @property
    def backend_name(self) -> str:
        return self.generated.backend

    @property
    def flops(self) -> int:
        return sum(m.flops for m in self.members)

    @property
    def dense_flops(self) -> int:
        return sum(m.dense_flops for m in self.members)

    def output_layouts(self) -> Dict[str, Optional[RaggedLayout]]:
        """Program value name -> compiled output layout, per member."""
        return {m_node.outputs[0]: compiled.output_layout
                for m_node, compiled in zip(self.node.members, self.members)}


def _per_point_flops(lowered: LoweredKernel) -> int:
    """FLOPs per output point, excluding the reduction-loop trip counts."""
    body = lowered.body
    reds = reductions_in(body)
    if not reds:
        return max(count_flops(body), 1)
    # count_flops multiplies by max reduction extents; strip that factor and
    # re-apply per-governing-index trip counts in estimate_flops instead.
    total = 0
    for red in reds:
        total += count_flops(red.body) + 1
    return max(total, 1)


def _bound_table(lowered: LoweredKernel, table_name: str, outer: int) -> np.ndarray:
    """Fetch a bound table, validating it covers the outer loop extent."""
    table = lowered.aux_arrays[table_name]
    if table.size != outer:
        raise ExecutionError(
            f"bound table {table_name!r} has {table.size} entries but the "
            f"outer loop of kernel {lowered.name!r} has extent {outer}; the "
            "prelude arrays do not match the compiled schedule"
        )
    return table


def estimate_flops(lowered: LoweredKernel) -> int:
    """Total FLOPs of the lowered (ragged, padded-as-scheduled) loop nest."""
    # Evaluate per-governing-index trip counts of all loops.
    # All bound tables are indexed by the outermost governing dimension; for
    # a fused governing loop the prelude's ``ffo`` map recovers it.
    outer = lowered.loops[0] if lowered.loops else None
    if outer is None:
        return 0
    if outer.bound.is_const:
        m = outer.bound.value
    else:
        m = lowered.aux_arrays[outer.bound.table_name].size
    ffo = None
    gov_count = None
    if outer.fusion is not None:
        ffo = lowered.aux_arrays.get(f"{outer.fusion.map_name}_ffo")
        row = lowered.aux_arrays.get(f"{outer.fusion.map_name}_row")
        gov_count = None if row is None else int(row.size)

    def table_for(table_name: str, outer_size: int) -> np.ndarray:
        table = lowered.aux_arrays[table_name]
        # Bound tables are always registered per *original* governing index
        # (materialise_extent), never per fused iteration -- so under a
        # fused outer loop a table of the governing extent must be gathered
        # through ffo even when that extent coincides with the fused one.
        if ffo is not None and gov_count is not None and table.size == gov_count:
            return table[ffo]
        return _bound_table(lowered, table_name, outer_size)

    per_b = np.ones(max(m, 1), dtype=np.float64)
    for loop in lowered.loops[1:]:
        if loop.bound.is_const:
            per_b *= loop.bound.value
        else:
            per_b *= table_for(loop.bound.table_name, per_b.size)
    for bound in lowered.reduction_bounds.values():
        if bound.is_const:
            per_b *= bound.value
        else:
            per_b *= table_for(bound.table_name, per_b.size)
    point_flops = _per_point_flops(lowered)
    return int(float(per_b.sum()) * point_flops)


def estimate_dense_flops(lowered: LoweredKernel) -> int:
    """FLOPs a fully padded execution of the same operator would need."""
    if not lowered.loops:
        return 0
    total = 1.0
    outer = lowered.loops[0].bound
    total *= outer.value if outer.is_const else lowered.aux_arrays[outer.table_name].size
    for loop in lowered.loops[1:]:
        if loop.bound.is_const:
            total *= loop.bound.value
        else:
            total *= float(lowered.aux_arrays[loop.bound.table_name].max())
    for bound in lowered.reduction_bounds.values():
        if bound.is_const:
            total *= bound.value
        else:
            total *= float(lowered.aux_arrays[bound.table_name].max())
    return int(total * _per_point_flops(lowered))


# ---------------------------------------------------------------------------
# Compilation-cache signatures
# ---------------------------------------------------------------------------


def schedule_signature(
    schedule: Schedule,
    input_layouts: Optional[Dict[str, RaggedLayout]] = None,
) -> Tuple:
    """A hashable key identifying one kernel instance within a process.

    The operator and the input layouts -- which embed the raggedness
    pattern and never change once built -- count by identity (the cache
    entry pins them), the mutable schedule state by value, so mutating
    and re-compiling a schedule cannot produce a stale cache hit.
    """
    sched_sig = (
        tuple(sorted((d.uid, p) for d, p in schedule.loop_padding.items())),
        tuple(sorted((d.uid, p) for d, p in schedule.storage_padding.items())),
        tuple(sorted(
            (name, tuple(sorted((d.uid, p) for d, p in pads.items())))
            for name, pads in schedule.input_storage_padding.items()
        )),
        tuple((s.original.uid, s.outer.uid, s.inner.uid, s.factor)
              for s in schedule.splits),
        tuple((f.outer.uid, f.inner.uid, f.fused.uid) for f in schedule.fusions),
        tuple((o.uid, i.uid) for o, i in schedule.dim_fusions),
        tuple(sorted((d.uid, a.value) for d, a in schedule.annotations.items())),
        tuple((r.dim.uid, r.policy if isinstance(r.policy, str) else id(r.policy))
              for r in schedule.remaps),
        tuple(d.uid for d in schedule.loop_order),
        schedule.hoist_loads,
    )
    layouts_sig = tuple(sorted(
        (name, id(layout)) for name, layout in (input_layouts or {}).items()
    ))
    return (id(schedule.operator), sched_sig, layouts_sig)


# ---------------------------------------------------------------------------
# Schedule-memo registry (bounded lens-bytes-keyed LRU caches)
# ---------------------------------------------------------------------------


_SCHEDULE_MEMOS: Dict[str, Callable] = {}


def register_schedule_memo(name: str, fn: Callable) -> Callable:
    """Register an ``@lru_cache``-wrapped schedule memo for observability.

    The ops modules memoize schedules per lengths-bytes so the
    executor's kernel cache (keyed on schedule identity) hits; the LRU
    ``maxsize`` bounds what diverse traffic can pin in long-running
    processes.  Registration makes cap/size/hit counts visible through
    ``Executor.codegen_stats()["schedule_memos"]``.
    """
    if not hasattr(fn, "cache_info"):
        raise TypeError(f"schedule memo {name!r} is not lru_cache-wrapped")
    _SCHEDULE_MEMOS[name] = fn
    return fn


def schedule_memo_stats() -> Dict[str, Dict[str, object]]:
    """Hit/miss/size/cap of every registered schedule memo."""
    out: Dict[str, Dict[str, object]] = {}
    for name, fn in sorted(_SCHEDULE_MEMOS.items()):
        info = fn.cache_info()
        out[name] = {"hits": info.hits, "misses": info.misses,
                     "size": info.currsize, "cap": info.maxsize}
    return out


class Executor:
    """Compiles schedules and runs the generated kernels.

    Parameters
    ----------
    device:
        Optional :class:`~repro.substrates.device.Device`; when given, each
        execution report includes a modelled device latency for the kernel.
    backend:
        Codegen backend: ``"vector"`` (default -- NumPy-vectorized with
        automatic scalar fallback), ``"scalar"`` (the reference emitter),
        or a :class:`~repro.core.codegen.CodegenBackend` instance.
    cache:
        Whether to cache compiled kernels across :meth:`compile` /
        :meth:`build_and_run` calls (keyed by operator, schedule state and
        input-layout signature).
    cache_capacity:
        Maximum number of cached kernels; least-recently-used entries are
        evicted beyond that, bounding memory in long-running processes.

    Attributes
    ----------
    lower_count:
        Kernel instances this executor had to build itself (cache misses
        whose kernel did not come from the disk tier).
    cache_hits / cache_misses:
        Kernel-cache statistics.
    prelude_builds / structure_hits / structures_generated:
        Instances built (``lower_count`` plus disk hits); how many of them
        found their kernel in the process-wide table (the disk tier sits
        behind it: a structure is read from disk once per process); how
        many kernels this executor generated.
    """

    def __init__(self, device: Optional[object] = None,
                 backend: Union[str, CodegenBackend, None] = "vector",
                 cache: bool = True, cache_capacity: int = 256,
                 disk_cache: Union[AOTCache, str, bool, None] = None):
        self.device = device
        self.backend = get_backend(backend)
        self.cache_enabled = cache
        self.cache_capacity = int(cache_capacity)
        if disk_cache is None or disk_cache is False:
            self.disk_cache: Optional[AOTCache] = None
        elif isinstance(disk_cache, AOTCache):
            self.disk_cache = disk_cache
        elif disk_cache is True:
            self.disk_cache = AOTCache()
        else:
            self.disk_cache = AOTCache(disk_cache)
        #: key -> (compiled kernel, pinned schedule, pinned layouts), LRU.
        #: The schedule/layout references keep the objects (and hence the
        #: ids in the key) alive for as long as the entry exists.
        self._kernel_cache: LRUDict[Tuple, Tuple[CompiledKernel, Schedule, object]] = LRUDict(self.cache_capacity)
        #: fused-region cache: canonical region key -> (compiled, node)
        self._fused_cache: LRUDict[Tuple, Tuple[CompiledFusedKernel, object]] = LRUDict(self.cache_capacity)
        #: guards the kernel cache and compile counters: sessions may
        #: compile concurrently (e.g. a serving scheduler overlapping
        #: batches while another thread warms new signatures), and the
        #: LRU's get/put reordering is not atomic on its own.
        self._lock = threading.RLock()
        self.lower_count = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.prelude_builds = 0
        self.structure_hits = 0
        self.structures_generated = 0
        #: kernels rebuilt from / persisted to the AOT disk cache
        self.disk_hits = 0
        self.disk_stores = 0
        #: fused-region compilation counters
        self.fused_regions = 0
        self.fused_emitted = 0
        self.fused_fallbacks = 0
        self.fused_cache_hits = 0
        self.fused_fallback_reasons: Counter = Counter()

    # -- compilation ----------------------------------------------------------

    def compile(
        self,
        schedule: Schedule,
        input_layouts: Optional[Dict[str, RaggedLayout]] = None,
    ) -> CompiledKernel:
        """Lower and generate code for a scheduled operator (cached).

        Thread-safe: cache lookups, compile-counter updates and the
        lower+generate pass itself are serialised under the executor's
        lock, so concurrent sessions hitting a shared executor never race
        the LRU or compile the same kernel twice.
        """
        with self._lock:
            if not self.cache_enabled:
                return self._instantiate(schedule, input_layouts)
            key = (self.backend.name,
                   schedule_signature(schedule, input_layouts))
            entry = self._kernel_cache.get(key)
            if entry is not None:
                self.cache_hits += 1
                return entry[0]
            self.cache_misses += 1
            compiled = self._instantiate(schedule, input_layouts)
            self._kernel_cache.put(key, (compiled, schedule, input_layouts))
            return compiled

    def _instantiate(
        self,
        schedule: Schedule,
        input_layouts: Optional[Dict[str, RaggedLayout]] = None,
    ) -> CompiledKernel:
        """Build one kernel instance: lower its tables (for a known
        structure, only the prelude part of lowering runs) and bind them
        to the kernel of its structure."""
        try:
            key = (self.backend.name,
                   stable_schedule_fingerprint(schedule, input_layouts))
        except Uncacheable:
            key = None
        entry = kernel_structure(key) if key is not None else None
        lowered = lower_schedule(schedule, input_layouts=input_layouts,
                                 like=entry and entry.lowered)
        if entry is not None and entry.lowered is None:
            # (Unlocked: racing executors store equally good loop nests.)
            entry.lowered = lowered
        disk = self.disk_cache if key is not None else None
        on_disk = disk_key(key) if disk is not None else None

        def holds(decisions: Tuple) -> bool:
            return decisions_hold(decisions, [lowered])

        def generate() -> GeneratedKernel:
            """A kernel the process does not have yet: from the disk tier
            (a previous process generated it), else from the backend."""
            generated = disk.load(on_disk, holds) if disk is not None else None
            if generated is not None:
                self.disk_hits += 1
                return generated
            self.structures_generated += 1
            return self.backend.generate(lowered)

        # A disk hit leaves ``lower_count`` alone -- the zero-lowerings-
        # on-warm-start guarantee is asserted on it.
        self.prelude_builds += 1
        disk_hits = self.disk_hits
        generated = self._shared_kernel(entry, holds, generate)
        if self.disk_hits == disk_hits:
            self.lower_count += 1
            if disk is not None and disk.store(on_disk, generated):
                self.disk_stores += 1
        extra, _ = bind_prelude(generated, [lowered])
        lowered.aux_arrays.update(extra)
        return CompiledKernel(lowered=lowered, generated=generated,
                              structure=key)

    def _shared_kernel(self, entry: Optional[KernelStructure],
                       holds: Callable[[Tuple], bool],
                       generate: Callable[[], GeneratedKernel],
                       ) -> GeneratedKernel:
        """The kernel of a structure from its entry in the process-wide
        table -- the one whose recorded decisions the instance repeats --
        else ``generate`` it and remember it there.  Structures without
        an entry (callable-backed extents / remap policies) are generated
        per instance."""
        if entry is None:
            return generate()
        generated, known = entry.kernel(holds, generate)
        if known:
            self.structure_hits += 1
            # Account the reuse like a generation: the backend's
            # vectorized / fallback counters describe instances.
            count = getattr(self.backend, "count", None)
            if count is not None and generated.backend != "grouped":
                count(generated)
        return generated

    # -- fused regions ---------------------------------------------------------

    @staticmethod
    def _fused_value_keys(node) -> Dict[str, str]:
        """Canonical buffer keys for a fused region's program values.

        Region inputs become ``i0, i1, ...`` (positional in
        ``node.inputs``), external outputs ``o0, o1, ...`` and internal
        values ``x0, x1, ...``.  Both the emitted kernel's ``buffers``
        dict keys and the fused-cache key are built from these, so
        structurally equal regions under different value names (the same
        SDPA chain in every encoder layer) share one compiled kernel --
        callers just hand in buffers keyed the same canonical way.
        """
        keys: Dict[str, str] = {}
        for j, v in enumerate(node.inputs):
            keys[v] = f"i{j}"
        for j, v in enumerate(node.outputs):
            keys[v] = f"o{j}"
        for j, s in enumerate(node.internal_specs):
            keys[s.name] = f"x{j}"
        return keys

    def _fused_key(self, node) -> Tuple:
        """Cache key for a fused region (canonical value names)."""
        keys = self._fused_value_keys(node)
        parts = []
        for m in node.members:
            sig = schedule_signature(m.schedule, m.input_layouts)
            bindings = tuple((t, keys[v])
                             for t, v in sorted(m.bindings.items()))
            parts.append((sig, bindings, keys[m.outputs[0]]))
        return ("fused", self.backend.name, tuple(parts))

    def compile_fused(self, node) -> CompiledFusedKernel:
        """Compile a :class:`~repro.core.fusion.FusedKernelNode` (cached).

        Members compile through :meth:`compile` (hitting the LRU and the
        disk tier as usual); the region is then emitted as one vector
        kernel, or -- when any member resists vector emission or an
        alias read would leave its producer's store bounds -- wrapped in
        the bit-identical grouped dispatch.  Either verdict is shared,
        like a kernel's, by every region of the same structure that
        repeats the emitter's decisions.  Neither path performs any
        extra lowering, so fused compilation never increments
        ``lower_count`` beyond its members.
        """
        with self._lock:
            key = self._fused_key(node)
            if self.cache_enabled:
                entry = self._fused_cache.get(key)
                if entry is not None:
                    self.fused_cache_hits += 1
                    return entry[0]
            compiled = self._compile_fused_uncached(node)
            if self.cache_enabled:
                self._fused_cache.put(key, (compiled, node))
            return compiled

    def _compile_fused_uncached(self, node) -> CompiledFusedKernel:
        members = [self.compile(m.schedule, input_layouts=m.input_layouts)
                   for m in node.members]
        internal = {s.name for s in node.internal_specs}
        keys = self._fused_value_keys(node)
        self.fused_regions += 1
        plans = [
            FusedMemberPlan(
                kernel=compiled.lowered,
                bindings={t: keys[v] for t, v in m.bindings.items()},
                out_value=keys[m.outputs[0]],
                internal=m.outputs[0] in internal,
            )
            for m, compiled in zip(node.members, members)
        ]
        lowered = [compiled.lowered for compiled in members]
        key = None
        if all(compiled.structure is not None for compiled in members):
            key = ("fused", tuple(
                (compiled.structure, compiled.backend_name,
                 tuple(sorted(plan.bindings.items())), plan.out_value,
                 plan.internal)
                for plan, compiled in zip(plans, members)))
        generated = self._shared_kernel(
            kernel_structure(key) if key is not None else None,
            lambda decisions: decisions_hold(decisions, lowered),
            lambda: self._generate_fused(node.name, plans, members))
        reason = generated.fallback_reason
        if reason is None:
            self.fused_emitted += 1
        else:
            self.fused_fallbacks += 1
            self.fused_fallback_reasons[reason] += 1
            generated = replace(generated,
                                fn=_GroupedFusedKernel(plans, members))
        aux: Dict[str, object] = {}
        for i, compiled in enumerate(members):
            for k, v in compiled.lowered.aux_arrays.items():
                aux[f"m{i}/{k}"] = v
        extra, workspace = bind_prelude(generated, lowered)
        aux.update(extra)
        if workspace:
            generated = replace(generated, workspace_elements=workspace)
        return CompiledFusedKernel(
            node=node, members=members, generated=generated,
            aux_arrays=aux, fused=reason is None, fallback_reason=reason)

    def _generate_fused(self, name: str, plans: List[FusedMemberPlan],
                        members: List[CompiledKernel]) -> GeneratedKernel:
        """Emit a fused region's kernel, or -- recording why, and under
        which decisions -- the marker of its grouped dispatch."""
        self.structures_generated += 1
        decisions: Dict[Tuple, object] = {}
        try:
            if self.backend.name != "vector":
                raise VectorizeError(
                    f"backend {self.backend.name!r} has no fused emitter")
            for compiled in members:
                if compiled.backend_name != "vector":
                    raise VectorizeError(
                        f"member {compiled.lowered.name!r} fell back to "
                        f"scalar: {compiled.fallback_reason}")
            return generate_fused_kernel(name, plans, decisions)
        except VectorizeError as err:
            return GeneratedKernel(
                name=name,
                source=f"# grouped fused dispatch (fallback: {err})",
                fn=None, backend="grouped", fallback_reason=str(err),
                decisions=tuple(decisions.items()))

    def clear_cache(self) -> None:
        """Drop all cached kernels (counters are left untouched)."""
        with self._lock:
            self._kernel_cache.clear()
            self._fused_cache.clear()

    def reset_stats(self) -> None:
        """Zero the lowering / cache counters and the backend's codegen
        (vectorized vs fallback) counters; cached kernels are kept."""
        with self._lock:
            self.lower_count = 0
            self.cache_hits = 0
            self.cache_misses = 0
            self.prelude_builds = 0
            self.structure_hits = 0
            self.structures_generated = 0
            self.disk_hits = 0
            self.disk_stores = 0
            self.fused_regions = 0
            self.fused_emitted = 0
            self.fused_fallbacks = 0
            self.fused_cache_hits = 0
            self.fused_fallback_reasons.clear()
            reset = getattr(self.backend, "reset_stats", None)
            if reset is not None:
                reset()

    def reset(self) -> None:
        """Return the executor to its freshly-constructed state: drop the
        kernel cache *and* zero every counter, so a replayed workload
        reproduces the original compile/statistics trajectory exactly."""
        self.clear_cache()
        self.reset_stats()

    # -- codegen observability --------------------------------------------------

    @property
    def vectorized_count(self) -> int:
        """Kernels the (vector) backend emitted on the fast path."""
        return int(getattr(self.backend, "vectorized_count", 0))

    @property
    def fallback_count(self) -> int:
        """Kernels the (vector) backend handed to the scalar fallback."""
        return int(getattr(self.backend, "fallback_count", 0))

    def codegen_stats(self) -> Dict[str, object]:
        """Vectorize successes vs scalar fallbacks, with reason strings.

        Extends the ``lower_count`` / ``cache_hits`` statistics: each actual
        lower+generate pass either vectorizes or falls back, and every
        fallback records the :class:`~repro.core.codegen_vector.VectorizeError`
        message that caused it.  Scalar-only backends report zero for both
        counters and an empty reason map.
        """
        return {
            "backend": self.backend.name,
            "lower_count": self.lower_count,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "prelude_builds": self.prelude_builds,
            "structure_hits": self.structure_hits,
            "structures_generated": self.structures_generated,
            "vectorized": self.vectorized_count,
            "fallbacks": self.fallback_count,
            "fallback_reasons": dict(
                getattr(self.backend, "fallback_reasons", {})),
            "disk_hits": self.disk_hits,
            "disk_stores": self.disk_stores,
            "disk_cache": (self.disk_cache.stats()
                           if self.disk_cache is not None else None),
            "fused_regions": self.fused_regions,
            "fused_emitted": self.fused_emitted,
            "fused_fallbacks": self.fused_fallbacks,
            "fused_cache_hits": self.fused_cache_hits,
            "fused_fallback_reasons": dict(self.fused_fallback_reasons),
            "schedule_memos": schedule_memo_stats(),
        }

    # -- execution --------------------------------------------------------------

    def run(
        self,
        compiled: CompiledKernel,
        inputs: Dict[str, Union[RaggedTensor, np.ndarray]],
        output: Optional[RaggedTensor] = None,
    ) -> tuple:
        """Execute a compiled kernel.

        Parameters
        ----------
        compiled:
            The kernel returned by :meth:`compile`.
        inputs:
            Mapping from input-tensor name to a :class:`RaggedTensor` (whose
            layout must match the compiled plan's total size) or a flat /
            dense NumPy array.
        output:
            Optional pre-allocated output tensor; allocated if omitted.

        Returns
        -------
        (output, report):
            The output ragged tensor and an :class:`ExecutionReport`.
        """
        lowered = compiled.lowered
        buffers: Dict[str, np.ndarray] = {}
        for name, plan in lowered.input_plans.items():
            if name not in inputs:
                raise ExecutionError(f"missing input tensor {name!r}")
            value = inputs[name]
            if isinstance(value, RaggedTensor):
                flat = value.data
            else:
                flat = np.asarray(value, dtype=np.float32).reshape(-1)
            expected = plan.layout.total_size()
            if flat.size != expected:
                raise ExecutionError(
                    f"input {name!r} has {flat.size} elements but the "
                    f"compiled layout requires {expected}"
                )
            buffers[name] = flat
        if output is None:
            output = RaggedTensor.zeros(compiled.output_layout)
        buffers[lowered.output_plan.spec.name] = output.data

        t0 = time.perf_counter()
        compiled.generated(buffers, lowered.aux_arrays)
        wall = time.perf_counter() - t0

        flops = compiled.flops
        dense_flops = compiled.dense_flops
        device_latency = None
        if self.device is not None:
            bytes_moved = sum(b.nbytes for b in buffers.values())
            device_latency = self.device.kernel_time(flops=flops,
                                                     bytes_moved=bytes_moved)
        report = ExecutionReport(
            wall_time_s=wall,
            flops=flops,
            dense_flops=dense_flops,
            device_latency_s=device_latency,
        )
        return output, report

    # -- convenience -------------------------------------------------------------

    def build_and_run(
        self,
        schedule: Schedule,
        inputs: Dict[str, Union[RaggedTensor, np.ndarray]],
        input_layouts: Optional[Dict[str, RaggedLayout]] = None,
    ) -> tuple:
        """Compile and immediately execute a scheduled operator."""
        compiled = self.compile(schedule, input_layouts=input_layouts)
        return self.run(compiled, inputs)

    def run_once(
        self,
        schedule: Schedule,
        inputs: Dict[str, Union[RaggedTensor, np.ndarray]],
    ) -> tuple:
        """Build a kernel instance, execute it and forget it.

        For schedules nobody keeps: the op-by-op wrappers build theirs per
        call, on that call's lengths, so caching them would only evict
        reusable instances and pin every call's tables until it is their
        turn.  The kernel still comes from the process-wide table -- a
        repeated call pays its preludes, never a generation."""
        with self._lock:
            compiled = self._instantiate(schedule)
        return self.run(compiled, inputs)


#: Process-wide default executors, one per backend name.  The ops-layer
#: convenience wrappers (``vgemm_compiled`` etc.) route through these when
#: no explicit executor is passed, so their kernel caches persist across
#: calls instead of dying with a per-call Executor.
_SHARED_EXECUTORS: Dict[str, Executor] = {}


def shared_executor(backend: str = "vector") -> Executor:
    """The process-wide default :class:`Executor` for the given backend."""
    executor = _SHARED_EXECUTORS.get(backend)
    if executor is None:
        executor = Executor(backend=backend)
        _SHARED_EXECUTORS[backend] = executor
    return executor
