"""The Session: ahead-of-time compilation and execution of ragged programs.

A :class:`Session` is the program-level runtime boundary of the paper's
insight I1: the raggedness signature of a mini-batch is known before
anything executes and is shared across the whole model, so *all* auxiliary
work -- kernel lowering and code generation, prelude arrays, buffer
planning and allocation -- is hoisted out of the per-batch path:

* :meth:`Session.compile` builds a kernel instance for every kernel node
  of a :class:`~repro.core.program.Program` through the executor (the
  kernels themselves are generated once per structure, process-wide; a
  new raggedness signature only pays their preludes), plans the
  intermediate buffers with the :mod:`~repro.core.planner` liveness/arena
  pass, and binds them to the session's arena (one set of slabs shared by
  every cached program: no intermediate outlives a run);
* :meth:`Session.run` then executes repeated mini-batches with a single
  flat dispatch loop over prebuilt buffer tables -- no per-op output
  allocation, no per-op schedule lookups, no per-op report objects.

The session also owns the state that previously lived in module-level
globals: the per-mini-batch prelude memo, the shared
:class:`~repro.core.prelude.PreludeCache`, and a generic builder memo used
by the model layer.  :meth:`Session.reset` clears all of it
deterministically, which tests and long-running processes rely on.
"""

from __future__ import annotations

import contextlib
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core import parallel
from repro.core.aotcache import AOTCache
from repro.core.cache import LRUDict
from repro.core.engine import (
    ExecutionEngine,
    HOST_STEP,
    KERNEL_STEP,
    get_engine,
)
from repro.core.executor import (
    CompiledFusedKernel,
    CompiledKernel,
    Executor,
    shared_executor,
)
from repro.core.fusion import FusedHostNode, FusedKernelNode
from repro.core.planner import ProgramPlan, plan_program
from repro.core.prelude import PreludeCache
from repro.core.program import (
    KernelNode,
    Program,
    ProgramError,
    ROLE_CONSTANT,
    ROLE_INPUT,
)
from repro.core.ragged_tensor import RaggedTensor


#: Backwards-compatible aliases; the step kinds live in the engine module.
_KERNEL_STEP = KERNEL_STEP
_HOST_STEP = HOST_STEP

#: The engine used when ``CompiledProgram.run`` is called without one.
_FALLBACK_ENGINE = ExecutionEngine()


class CompiledProgram:
    """One program compiled for one raggedness signature.

    Holds the compiled kernels, the arena plan (double-buffered by
    default; in-place slab sharing with ``inplace=True``), the allocated
    slabs and a flat list of dispatch steps with every buffer
    pre-resolved.  ``run`` hands the steps, in plan order, to an
    :class:`~repro.core.engine.ExecutionEngine`.
    """

    def __init__(self, program: Program, executor: Executor,
                 inplace: bool = False,
                 fuse: bool = False,
                 slab_buffers: Optional[Callable[
                     [Sequence[int]], Sequence[np.ndarray]]] = None,
                 run_lock: Optional[Any] = None):
        program.validate()
        self.program = program
        self.executor = executor
        self.fuse = bool(fuse)

        # 1. Liveness + arena planning.  With ``fuse`` the planner first
        #    collapses fusable regions (:mod:`repro.core.fusion`) and the
        #    plan -- order and slab assignment -- is the *fused*
        #    program's; internalised intermediates have no slab at all.
        #    Everything below (compilation, buffers, steps) follows the
        #    planned graph, while ``self.program`` stays the original
        #    (callers address it).
        self.plan: ProgramPlan = plan_program(program, inplace=inplace,
                                              fuse=fuse)
        work = self.plan.fused_program \
            if self.plan.fused_program is not None else program
        self._work = work

        # 2. Lower + codegen every kernel node (shared executor cache);
        #    fused regions compile through ``executor.compile_fused``
        #    (one emitted vector kernel, or a bit-identical grouped
        #    dispatch when a member resists vector emission).
        self.kernels: Dict[int, CompiledKernel] = {}
        self.fused_kernels: Dict[int, CompiledFusedKernel] = {}
        #: value name -> compiled output layout, for ragged wrapping.
        self._kernel_layouts: Dict[str, Any] = {}
        for idx, node in enumerate(work.nodes):
            if isinstance(node, KernelNode):
                compiled = executor.compile(node.schedule,
                                            input_layouts=node.input_layouts)
                expected = set(compiled.lowered.input_plans)
                bound = set(node.bindings)
                if expected != bound:
                    raise ProgramError(
                        f"kernel node {node.name!r} binds {sorted(bound)} "
                        f"but the schedule's inputs are {sorted(expected)}")
                out_name = node.outputs[0]
                declared = work.values[out_name].layout.total_size()
                actual = compiled.output_layout.total_size()
                if declared != actual:
                    raise ProgramError(
                        f"kernel node {node.name!r}: declared output layout "
                        f"has {declared} elements but the compiled plan "
                        f"requires {actual}")
                self.kernels[idx] = compiled
                self._kernel_layouts[out_name] = compiled.output_layout
            elif isinstance(node, FusedKernelNode):
                fused_compiled = executor.compile_fused(node)
                self.fused_kernels[idx] = fused_compiled
                for vname, layout in fused_compiled.output_layouts().items():
                    if vname not in work.values:
                        continue  # internalised: no arena value to wrap
                    declared = work.values[vname].layout.total_size()
                    if declared != layout.total_size():
                        raise ProgramError(
                            f"fused node {node.name!r}: output {vname!r} "
                            f"declares {declared} elements but the compiled "
                            f"plan requires {layout.total_size()}")
                    self._kernel_layouts[vname] = layout

        # 3. Allocate the arena slabs and the persistent input staging
        #    buffers once; every later run reuses them.  ``slab_buffers``
        #    optionally hands out flat float32 buffers of at least the
        #    sizes asked for instead (a session's one shared arena, with
        #    ``run_lock`` serialising the runs that use it).
        self._run_lock = run_lock if run_lock is not None \
            else contextlib.nullcontext()
        sizes = self.plan.slab_elements
        if slab_buffers is None:
            self._slabs: List[np.ndarray] = [
                np.zeros(n, dtype=np.float32) for n in sizes]
        else:
            self._slabs = [buf[:n] for buf, n in
                           zip(slab_buffers(sizes), sizes)]
        flat: Dict[str, np.ndarray] = {}
        for name, spec in work.values.items():
            if spec.role == ROLE_CONSTANT:
                flat[name] = np.ascontiguousarray(
                    spec.array, dtype=spec.dtype).reshape(-1)
            elif spec.role == ROLE_INPUT:
                flat[name] = np.zeros(spec.num_elements, dtype=spec.dtype)
            else:
                if np.dtype(spec.dtype) != np.float32:
                    raise ProgramError(
                        f"arena values must be float32, got {spec.dtype} "
                        f"for {name!r}")
                slab = self._slabs[self.plan.slab_of[name]]
                flat[name] = slab[:self.plan.value_elements[name]]
        self._flat = flat

        # Materialised wrappers handed to host functions / returned as
        # outputs: RaggedTensor for ragged values, shaped views for dense.
        wrapped: Dict[str, Any] = {}
        for name, spec in work.values.items():
            if spec.is_ragged:
                layout = self._kernel_layouts.get(name, spec.layout)
                wrapped[name] = RaggedTensor(layout, flat[name],
                                             dtype=np.float32)
            else:
                wrapped[name] = flat[name].reshape(spec.shape)
        self._wrapped = wrapped

        # 4. Pre-resolve every dispatch step.  A row-wise host node or a
        #    bucketed kernel with enough work runs as one chunk per usable
        #    core; fused regions share one workspace and stay whole.
        cores = parallel.usable_cores()
        self._steps: List[Tuple] = []
        for step_idx in self.plan.order:
            node = work.nodes[step_idx]
            if isinstance(node, KernelNode):
                compiled = self.kernels[step_idx]
                buffers = {tname: flat[vname]
                           for tname, vname in node.bindings.items()}
                out_flat = flat[node.outputs[0]]
                buffers[compiled.lowered.output_plan.spec.name] = out_flat
                self._steps.append((
                    _KERNEL_STEP, parallel.split_buckets(
                        compiled.generated, compiled.lowered, buffers, cores),
                    buffers, compiled.lowered.aux_arrays,
                    None if compiled.generated.fills_output else out_flat))
            elif isinstance(node, FusedKernelNode):
                # The emitted fused kernel addresses buffers by canonical
                # value key (``i0``/``o0``/...), never by program value
                # name -- so one compiled region is shared by every
                # structurally-equal region (each layer's SDPA chain).
                fused_compiled = self.fused_kernels[step_idx]
                keys = Executor._fused_value_keys(node)
                buffers = {keys[v]: flat[v]
                           for v in (*node.inputs, *node.outputs)}
                scratch = fused_compiled.generated.workspace_elements
                if scratch:
                    # Step-private, like a fused host region's buffers:
                    # the compiled region is shared by every structurally
                    # equal call site, its workspace must not be.
                    buffers["ws"] = np.empty(scratch, dtype=np.float32)
                # Fused regions fill (or zero-fill) their own outputs.
                self._steps.append((_KERNEL_STEP, fused_compiled.generated,
                                    buffers, fused_compiled.aux_arrays,
                                    None))
            elif isinstance(node, FusedHostNode):
                self._steps.append(
                    (_HOST_STEP, self._fused_host_closure(node, flat, wrapped),
                     (), None, None))
            else:
                args = tuple(wrapped[o] for o in node.outputs)
                args += tuple(wrapped[i] for i in node.inputs)
                prezero = (None if node.fills_output
                           else tuple(flat[o] for o in node.outputs))
                fn = (parallel.split_rows(node, args, work.values, cores)
                      if node.row_wise else node.fn)
                self._steps.append((_HOST_STEP, fn, args, prezero, None))

        self.kernel_dispatches = sum(1 for s in self._steps
                                     if s[0] == _KERNEL_STEP)
        self.host_dispatches = len(self._steps) - self.kernel_dispatches
        self._input_specs = [(v.name, flat[v.name], np.dtype(v.dtype))
                             for v in work.input_values()]
        self.run_count = 0
        self.total_run_s = 0.0
        self.last_run_s = 0.0

    @staticmethod
    def _fused_host_closure(node: FusedHostNode,
                            flat: Dict[str, np.ndarray],
                            wrapped: Dict[str, Any]) -> Callable[[], None]:
        """One step running a fused host region's members in order.

        Internalised intermediates live in step-private buffers (their
        arena slabs no longer exist); per-member ``fills_output``
        semantics are preserved by pre-zeroing exactly the outputs the
        unfused dispatch would have pre-zeroed.
        """
        private_flat: Dict[str, np.ndarray] = {}
        private_wrapped: Dict[str, Any] = {}
        for spec in node.internal_specs:
            buf = np.zeros(spec.num_elements, dtype=np.float32)
            private_flat[spec.name] = buf
            if spec.is_ragged:
                private_wrapped[spec.name] = RaggedTensor(
                    spec.layout, buf, dtype=np.float32)
            else:
                private_wrapped[spec.name] = buf.reshape(spec.shape)

        def _wrap(name: str) -> Any:
            return (private_wrapped[name] if name in private_wrapped
                    else wrapped[name])

        parts: List[Tuple] = []
        for m in node.members:
            args = tuple(_wrap(o) for o in m.outputs)
            args += tuple(_wrap(i) for i in m.inputs)
            prezero = (None if m.fills_output
                       else tuple(private_flat[o] if o in private_flat
                                  else flat[o] for o in m.outputs))
            parts.append((m.fn, args, prezero))
        frozen = tuple(parts)

        def _fused_host() -> None:
            for fn, args, prezero in frozen:
                if prezero is not None:
                    for buf in prezero:
                        buf.fill(0.0)
                fn(*args)

        return _fused_host

    # -- statistics -------------------------------------------------------------

    @property
    def flops(self) -> int:
        """Analytically counted FLOPs of all kernel nodes per execution."""
        return int(sum(k.flops for k in self.kernels.values())
                   + sum(k.flops for k in self.fused_kernels.values()))

    @property
    def arena_bytes(self) -> int:
        return self.plan.arena_bytes

    @property
    def naive_bytes(self) -> int:
        return self.plan.naive_bytes

    def fusion_summary(self) -> Optional[Dict[str, object]]:
        """What fusion did to this program (``None`` when unfused)."""
        fusion = getattr(self.plan, "fusion", None)
        return fusion.summary() if fusion is not None else None

    def stats(self) -> Dict[str, object]:
        node_kinds: Dict[str, int] = {}
        for node in self._work.nodes:
            node_kinds[node.kind] = node_kinds.get(node.kind, 0) + 1
        return {
            "program": self.program.name,
            "nodes": len(self._work.nodes),
            "node_kinds": node_kinds,
            "kernels": len(self.kernels),
            "fused_kernels": len(self.fused_kernels),
            "kernel_dispatches": self.kernel_dispatches,
            "host_dispatches": self.host_dispatches,
            "runs": self.run_count,
            "total_run_s": self.total_run_s,
            "flops_per_run": self.flops,
            **self.plan.summary(),
        }

    # -- execution --------------------------------------------------------------

    def run(self, inputs: Dict[str, Union[np.ndarray, RaggedTensor]],
            copy_outputs: bool = True,
            engine: Optional[ExecutionEngine] = None,
            fault_injector=None) -> Dict[str, Any]:
        """Execute the program once over bound inputs.

        Input arrays are copied into the session's persistent staging
        buffers (so the precompiled dispatch tables stay valid); every
        kernel output buffer is fully written on each run -- by the
        kernel itself, or zero-filled before dispatch when the kernel
        does not promise to -- reproducing the fresh
        ``RaggedTensor.zeros`` semantics of op-by-op execution bit for
        bit.  Outputs are returned as copies unless ``copy_outputs`` is
        false (views into the arena, only valid until the next run --
        of *any* program of the owning session, which shares one arena).

        ``engine`` runs the pre-resolved steps (defaults to a
        process-wide :class:`~repro.core.engine.ExecutionEngine`).
        """
        t0 = time.perf_counter()
        with self._run_lock:
            for name, stage, dtype in self._input_specs:
                try:
                    value = inputs[name]
                except KeyError:
                    raise ProgramError(
                        f"missing program input {name!r}") from None
                src = value.data if isinstance(value, RaggedTensor) else \
                    np.asarray(value, dtype=dtype).reshape(-1)
                if src.size != stage.size:
                    raise ProgramError(
                        f"input {name!r} has {src.size} elements but the "
                        f"program expects {stage.size}")
                np.copyto(stage, src)

            (engine or _FALLBACK_ENGINE).execute(self._steps, self.plan,
                                                 context=self)

            result: Dict[str, Any] = {}
            for name in self.program.outputs:
                value = self._wrapped[name]
                result[name] = value.copy() if copy_outputs else value
        if fault_injector is not None:
            # Named injection point "run": fired on the packed outputs so
            # "corrupt" faults truncate the result rows (a realistic
            # short-transfer failure) while "raise" emulates a kernel
            # failure surfacing out of dispatch.
            result = fault_injector.fire("run", result)
        self.last_run_s = time.perf_counter() - t0
        self.total_run_s += self.last_run_s
        self.run_count += 1
        return result


class Session:
    """Compiles ragged programs ahead of time and executes mini-batches.

    Parameters
    ----------
    backend:
        Codegen backend for kernel nodes (``"vector"`` / ``"scalar"``);
        ignored when an explicit ``executor`` is given.
    executor:
        Optional :class:`~repro.core.executor.Executor` to compile through;
        defaults to the process-wide shared executor of ``backend`` so
        kernel caches are shared with op-by-op execution.
    program_capacity:
        LRU bound on compiled programs kept alive by this session.
    engine:
        The loop over compiled-program steps: ``"serial"`` (default) or
        an :class:`~repro.core.engine.ExecutionEngine` instance (e.g. one
        that traces each step).
    inplace:
        Plan element-wise nodes' outputs into their dying input's arena
        slab instead of double-buffering (bit-identical by construction;
        shrinks the arena).  Off by default.
    fault_injector:
        Optional :class:`~repro.serving.faults.FaultInjector` threaded
        through the session's injection points (``"compile"`` on a
        program-cache miss, ``"run"`` on a compiled program's outputs).
        ``None`` (default) leaves every path untouched.
    """

    def __init__(self, backend: str = "vector",
                 executor: Optional[Executor] = None,
                 program_capacity: int = 64,
                 prelude_capacity: int = 128,
                 signature_capacity: int = 1024,
                 engine: Union[str, ExecutionEngine, None] = "serial",
                 inplace: bool = False,
                 fuse: bool = False,
                 disk_cache: Union[AOTCache, str, bool, None] = None,
                 fault_injector=None):
        #: whether the executor is session-private (passed explicitly) or
        #: the process-wide shared one -- ``reset`` only clears the kernel
        #: cache of a private executor.
        self._private_executor = executor is not None
        #: persistent cross-process AOT kernel cache.  ``True`` uses the
        #: default directory (``$REPRO_CACHE_DIR`` / ``~/.cache/repro``),
        #: a path a specific one.  When requested without an explicit
        #: executor, the session builds a *private* executor around it --
        #: the process-wide shared executor is never mutated.
        if disk_cache is None or disk_cache is False:
            cache: Optional[AOTCache] = None
        elif isinstance(disk_cache, AOTCache):
            cache = disk_cache
        elif disk_cache is True:
            cache = AOTCache()
        else:
            cache = AOTCache(disk_cache)
        if executor is None and cache is not None:
            executor = Executor(backend=backend, disk_cache=cache)
            self._private_executor = True
        self.executor = executor if executor is not None \
            else shared_executor(backend)
        if cache is not None and self.executor.disk_cache is None:
            # Explicit executor without a disk tier: attach the requested
            # cache so Session(disk_cache=...) always takes effect.
            self.executor.disk_cache = cache
        self.backend = self.executor.backend.name
        #: the session's execution engine (shared by every compiled
        #: program run through this session).
        self.engine: ExecutionEngine = get_engine(engine)
        #: fault injection for this session's compile/run paths.
        self.fault_injector = fault_injector
        #: whether programs are planned with in-place slab sharing.
        self.inplace = bool(inplace)
        #: whether programs are planned with kernel/host fusion.
        self.fuse = bool(fuse)
        #: compiled programs, keyed by program uid (the program object is
        #: pinned alongside so the uid stays unique for the entry's life).
        self._programs: LRUDict = LRUDict(program_capacity)
        #: the arena every compiled program of this session runs in: no
        #: intermediate outlives a run, so cached programs need not each
        #: hold slabs of their own.  Runs are serialised on the lock.
        self._arena: List[np.ndarray] = []
        self._arena_lock = threading.Lock()
        #: generic builder memo used by the model layer (encoder programs).
        self._memo: LRUDict = LRUDict(256)
        #: prelude state previously held in module-level globals.
        self.prelude_cache = PreludeCache(capacity=prelude_capacity)
        self.prelude_memo: LRUDict = LRUDict(prelude_capacity)
        self.prelude_memo_stats: Dict[str, int] = {"hits": 0, "misses": 0}
        self.program_compiles = 0
        self.program_cache_hits = 0
        #: compiles that built at least one kernel instance themselves --
        #: of which those that generated no kernel (every structure was
        #: known: only preludes were built) -- vs compiles served entirely
        #: from the persistent AOT disk cache.
        self.cold_compiles = 0
        self.prelude_only_compiles = 0
        self.disk_hit_compiles = 0
        self.run_count = 0
        #: per-raggedness-signature compiled-program hit/miss counters,
        #: recorded when callers tag ``compile`` / ``run`` with a
        #: ``signature`` (the serving scheduler tags every batch with its
        #: bucketed lengths tuple and consumes these to report reuse).
        #: Bounded: beyond ``signature_capacity`` distinct signatures the
        #: oldest entries are evicted, so long-running servers with
        #: diverse exact signatures do not grow memory without bound.
        #: The aggregate hit/miss totals reported by :meth:`stats` are
        #: kept as separate running counters, so eviction never makes
        #: them undercount or go non-monotone.
        self.signature_stats: Dict[Any, Dict[str, int]] = {}
        self.signature_capacity = max(1, int(signature_capacity))
        self._signature_totals: Dict[str, int] = {"hits": 0, "misses": 0}

    # -- compilation ------------------------------------------------------------

    def _note_signature(self, signature: Any, hit: bool) -> None:
        self._signature_totals["hits" if hit else "misses"] += 1
        entry = self.signature_stats.get(signature)
        if entry is None:
            entry = self.signature_stats[signature] = {"hits": 0, "misses": 0}
            while len(self.signature_stats) > self.signature_capacity:
                self.signature_stats.pop(next(iter(self.signature_stats)))
        entry["hits" if hit else "misses"] += 1

    def compile(self, program: Program,
                signature: Optional[Any] = None) -> CompiledProgram:
        """Compile a program (cached per program / raggedness signature).

        ``signature`` optionally tags the lookup with a caller-level
        raggedness signature (any hashable); per-signature hit/miss
        counts accumulate in :attr:`signature_stats`.  A program-cache
        miss whose every kernel was served from the persistent AOT disk
        cache (zero lowers) still counts as a signature *hit* -- the
        expensive work was reused, just from a previous process.  A miss
        that finds every kernel structure in the process-wide table and
        only builds preludes stays a signature miss (the batch was never
        seen) and is counted in ``prelude_only_compiles``.
        """
        entry = self._programs.get(program.uid)
        if entry is not None:
            self.program_cache_hits += 1
            if signature is not None:
                self._note_signature(signature, hit=True)
            return entry[0]
        if self.fault_injector is not None:
            # Named injection point "compile": fired on a cache miss
            # before any counter moves or lowering starts, so a failed
            # compile leaves the caches coherent and a later attempt at
            # the same signature compiles cleanly.
            self.fault_injector.fire("compile", signature=signature)
        self.program_compiles += 1
        lowers_before = self.executor.lower_count
        disk_before = self.executor.disk_hits
        generated_before = self.executor.structures_generated
        compiled = CompiledProgram(program, self.executor,
                                   inplace=self.inplace, fuse=self.fuse,
                                   slab_buffers=self._arena_slabs,
                                   run_lock=self._arena_lock)
        lowered = self.executor.lower_count - lowers_before
        from_disk = self.executor.disk_hits - disk_before
        aot_warm = lowered == 0 and from_disk > 0
        if lowered > 0:
            self.cold_compiles += 1
            if self.executor.structures_generated == generated_before:
                self.prelude_only_compiles += 1
        elif aot_warm:
            self.disk_hit_compiles += 1
        if signature is not None:
            self._note_signature(signature, hit=aot_warm)
        self._programs.put(program.uid, (compiled, program))
        return compiled

    def _arena_slabs(self, sizes: Sequence[int]) -> List[np.ndarray]:
        """Slab buffers for a program needing ``sizes`` elements per slab,
        out of the session's one arena (slab ``i`` of every program is a
        prefix of the same buffer, regrown when a program needs more).

        A regrown slab is rounded up to four significant bits (at most
        12.5 % slack, untouched pages cost nothing): cached programs keep
        the buffer they were bound to, so batches of nearly equal size
        should land on one buffer rather than one generation each."""
        arena = self._arena
        slabs = []
        for i, n in enumerate(sizes):
            slab = arena[i] if i < len(arena) else None
            if slab is None or slab.size < n:
                shift = max(int(n).bit_length() - 4, 0)
                slab = np.zeros(-(-int(n) >> shift) << shift,
                                dtype=np.float32)
                if i < len(arena):
                    arena[i] = slab
                else:
                    arena.append(slab)
            slabs.append(slab)
        return slabs

    def compiled_program(self, program: Program) -> Optional[CompiledProgram]:
        """The cached :class:`CompiledProgram` for ``program``, if any.

        Pure lookup: no counters move and nothing compiles.
        """
        entry = self._programs.get(program.uid)
        return entry[0] if entry is not None else None

    def compiled_by_uid(self, uid: int) -> Optional["CompiledProgram"]:
        """The cached :class:`CompiledProgram` for a program uid, if any.

        Pure lookup, like :meth:`compiled_program`, but keyed by the uid
        a caller recorded earlier -- so stats paths can inspect compiled
        programs without holding (or rebuilding) the program objects.
        """
        entry = self._programs.get(uid)
        return entry[0] if entry is not None else None

    # -- execution --------------------------------------------------------------

    def run(self, program: Program,
            inputs: Dict[str, Union[np.ndarray, RaggedTensor]],
            copy_outputs: bool = True,
            signature: Optional[Any] = None) -> Dict[str, Any]:
        """Compile (cached) and execute a program over bound inputs
        through the session's execution engine."""
        compiled = self.compile(program, signature=signature)
        result = compiled.run(inputs, copy_outputs=copy_outputs,
                              engine=self.engine,
                              fault_injector=self.fault_injector)
        self.run_count += 1
        return result

    def run_stack(self, programs: Sequence[Program],
                  inputs: Dict[str, Union[np.ndarray, RaggedTensor]],
                  copy_outputs: bool = True) -> Dict[str, Any]:
        """Execute a stack of programs sequentially, piping outputs along.

        ``inputs`` binds the first program; each later program must take a
        single input, fed from the previous program's single output (the
        per-layer encoder programs have exactly this shape).  Because
        :meth:`CompiledProgram.run` copies inputs into persistent staging
        buffers *before* dispatching, the intermediate hand-off can use
        arena views (``copy_outputs=False``) -- even when consecutive
        stack entries are the same program object -- so the stack pays one
        output copy total, at the end (controlled by ``copy_outputs``).

        This is the sequential baseline the stacked whole-model program is
        differentially tested against; prefer a single N-layer
        :class:`Program` (one arena plan spanning all layers) when the
        stack shape is known ahead of time.
        """
        if not programs:
            raise ProgramError("run_stack needs at least one program")
        result: Optional[Dict[str, Any]] = None
        last = len(programs) - 1
        for i, program in enumerate(programs):
            if result is not None:
                specs = program.input_values()
                if len(specs) != 1 or len(result) != 1:
                    raise ProgramError(
                        f"run_stack cannot pipe {len(result)} outputs into "
                        f"the {len(specs)} inputs of program "
                        f"{program.name!r}; only single-input/single-output "
                        "chaining is supported")
                inputs = {specs[0].name: next(iter(result.values()))}
            result = self.run(program, inputs,
                              copy_outputs=copy_outputs if i == last
                              else False)
        return result

    # -- memoization ------------------------------------------------------------

    def memoize(self, key: Tuple, factory: Callable[[], Any]) -> Any:
        """Generic LRU memo scoped to this session (cleared by ``reset``).

        The model layer uses this to build each program once per
        raggedness signature; entries may pin objects (weights, programs)
        for their lifetime in the memo.
        """
        value = self._memo.get(key)
        if value is None:
            value = factory()
            self._memo.put(key, value)
        return value

    # -- state management -------------------------------------------------------

    def reset(self) -> None:
        """Drop every cache and counter owned by this session.

        Clears the compiled-program LRU and its arena, the builder memo, the
        per-signature statistics, and the prelude memo/cache with their
        statistics.  A session-private executor is reset *cold*: its
        kernel cache is dropped and its lowering / kernel-cache / codegen
        (vectorized vs fallback) counters are zeroed, so a replay after
        ``reset()`` reproduces the original ``lower_count`` trajectory
        exactly -- repeated benchmark runs start from the same state.  The
        process-wide shared executor is left alone (other sessions and
        the op-by-op helpers depend on it -- reset it explicitly via
        ``executor.reset()`` if that is what you want).  Deterministic
        cleanup hook for tests and long-running processes.
        """
        self._programs.clear()
        self._arena.clear()
        self._memo.clear()
        self.prelude_cache.clear()
        self.prelude_cache.hits = 0
        self.prelude_cache.misses = 0
        self.prelude_memo.clear()
        self.prelude_memo_stats["hits"] = 0
        self.prelude_memo_stats["misses"] = 0
        self.program_compiles = 0
        self.program_cache_hits = 0
        self.cold_compiles = 0
        self.prelude_only_compiles = 0
        self.disk_hit_compiles = 0
        self.run_count = 0
        self.signature_stats.clear()
        self._signature_totals["hits"] = 0
        self._signature_totals["misses"] = 0
        self.engine.reset_stats()
        if self._private_executor:
            self.executor.reset()

    def stats(self) -> Dict[str, object]:
        """Session counters plus engine and executor codegen statistics."""
        return {
            "backend": self.backend,
            "engine": self.engine.stats(),
            "inplace": self.inplace,
            "fuse": self.fuse,
            "program_compiles": self.program_compiles,
            "program_cache_hits": self.program_cache_hits,
            "cold_compiles": self.cold_compiles,
            "prelude_only_compiles": self.prelude_only_compiles,
            "disk_hits": self.disk_hit_compiles,
            "runs": self.run_count,
            "cached_programs": len(self._programs),
            "prelude_memo": dict(self.prelude_memo_stats),
            "signature_hits": self._signature_totals["hits"],
            "signature_misses": self._signature_totals["misses"],
            "codegen": self.executor.codegen_stats(),
        }


#: Process-wide default sessions, one per backend name (mirrors
#: ``shared_executor``); the model-layer convenience paths route through
#: these so program and prelude caches persist across calls.
_DEFAULT_SESSIONS: Dict[str, Session] = {}


def default_session(backend: str = "vector") -> Session:
    """The process-wide default :class:`Session` for the given backend."""
    session = _DEFAULT_SESSIONS.get(backend)
    if session is None:
        session = Session(backend=backend)
        _DEFAULT_SESSIONS[backend] = session
    return session


def reset_default_sessions() -> None:
    """Reset every process-wide default session (tests / long processes)."""
    for session in _DEFAULT_SESSIONS.values():
        session.reset()


#: Sessions wrapped around explicitly-passed executors, keyed weakly by
#: the executor object: repeated calls with the same executor reuse one
#: session (and hence its compiled programs / arena) instead of paying
#: full AOT compilation per call.  Entries die with their executor.
_EXECUTOR_SESSIONS: "weakref.WeakKeyDictionary[Executor, Session]" = None


def session_for_executor(executor: Executor) -> Session:
    """The memoized :class:`Session` wrapping an explicit executor."""
    global _EXECUTOR_SESSIONS
    if _EXECUTOR_SESSIONS is None:
        import weakref

        _EXECUTOR_SESSIONS = weakref.WeakKeyDictionary()
    session = _EXECUTOR_SESSIONS.get(executor)
    if session is None:
        session = Session(executor=executor)
        _EXECUTOR_SESSIONS[executor] = session
    return session
