"""Pluggable execution engines: how a compiled program's steps are run.

The :class:`~repro.core.session.CompiledProgram` knows *what* to execute
(a flat list of pre-resolved dispatch steps) and the
:class:`~repro.core.planner.ProgramPlan` knows the exact partial order
those steps must respect (data edges plus the anti-dependences induced by
arena-slab reuse and in-place aliasing).  An :class:`ExecutionEngine` is
the swappable strategy in between -- the separation of the mapping space
from mapping execution:

* :class:`SerialEngine` replays the steps in plan order with a flat loop
  -- the original ``CompiledProgram.run`` behaviour, bit for bit;
* :class:`PipelinedEngine` dispatches over a worker pool, launching each
  step as soon as its predecessors retire, so host marshalling nodes
  (packed gemms, QKV splits, layer norms) overlap with compiled kernel
  nodes.  Because every edge of ``plan.step_preds`` is honoured --
  including the write-after-read edges the planner records for slab reuse
  and in-place outputs -- any interleaving the engine chooses computes
  the same values, so the result stays bit-identical to the serial
  engine.  Chain-shaped plans (``plan.max_width == 1``) shortcut to a
  serial loop, skipping the thread-pool tax where overlap cannot pay;
* :class:`ProcessPoolEngine` dispatches over worker *processes*, stepping
  past the GIL entirely.  Workers rebuild the program from its picklable
  recipe (:func:`~repro.core.program.build_from_recipe`) and compile it
  locally against arena slabs and input staging buffers backed by
  ``multiprocessing.shared_memory`` -- so per-step dispatch ships only a
  step index over a queue, never arrays.  The same dependence-edge
  contract applies, so results stay bit-identical to serial execution.

Engines are stateless with respect to any particular program: one engine
instance (owned by a :class:`~repro.core.session.Session`) executes every
compiled program of that session and accumulates dispatch statistics
across runs.  ``execute`` optionally receives the owning
:class:`~repro.core.session.CompiledProgram` as ``context``; thread-based
engines ignore it, the process-pool engine requires it (it is the handle
to the program's recipe, staging buffers and arena).
"""

from __future__ import annotations

import queue as queue_mod
import threading
from collections import OrderedDict, deque
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core import parallel

#: Step kinds, as stored in ``CompiledProgram._steps``.
KERNEL_STEP = 0
HOST_STEP = 1


def dispatch_step(step: Tuple) -> None:
    """Execute one pre-resolved dispatch step.

    A kernel step calls the generated kernel over its pre-bound buffers,
    first zero-filling the output buffer (reproducing the fresh
    ``RaggedTensor.zeros`` semantics of op-by-op execution) unless the
    kernel writes every element itself (``out_flat`` is then ``None``,
    see ``GeneratedKernel.fills_output``); a host step optionally
    pre-zeroes outputs the host function does not promise to fill, then
    calls it over the materialised value wrappers.
    """
    kind, fn, args, aux, out_flat = step
    if kind == KERNEL_STEP:
        if out_flat is not None:
            out_flat.fill(0.0)
        fn(args, aux)
    else:
        if aux is not None:  # host outputs needing pre-zeroing
            for buf in aux:
                buf.fill(0.0)
        fn(*args)


class ExecutionEngine:
    """Base class of execution strategies over a compiled program's steps.

    ``execute`` receives the flat step list and the :class:`ProgramPlan`
    whose ``step_preds`` / ``step_succs`` / ``ready_steps`` encode the
    dependence structure; it must run every step exactly once, respecting
    the partial order, and return only once all steps have retired.
    """

    name = "engine"

    def __init__(self) -> None:
        self.runs = 0
        self.steps_dispatched = 0
        #: optional :class:`~repro.serving.faults.FaultInjector` wired in
        #: by the owning session; engines that dispatch on workers fire
        #: their injection point per step (see ``PipelinedEngine``).
        self.fault_injector = None

    def execute(self, steps: Sequence[Tuple], plan, context=None) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release any worker resources (idempotent; no-op by default)."""

    def reset_stats(self) -> None:
        """Zero the dispatch counters (``Session.reset`` calls this)."""
        self.runs = 0
        self.steps_dispatched = 0

    def stats(self) -> Dict[str, object]:
        return {
            "engine": self.name,
            "runs": self.runs,
            "steps_dispatched": self.steps_dispatched,
        }


class SerialEngine(ExecutionEngine):
    """The flat dispatch loop: steps run one after another in plan order.

    This is the default engine and the bit-identity baseline every other
    engine is differentially tested against.
    """

    name = "serial"

    def execute(self, steps: Sequence[Tuple], plan=None, context=None) -> None:
        for step in steps:
            dispatch_step(step)
        self.runs += 1
        self.steps_dispatched += len(steps)


class PipelinedEngine(ExecutionEngine):
    """Dependence-driven dispatch over a shared worker pool.

    Each step is submitted the moment its last predecessor retires, so
    independent host and kernel nodes overlap (NumPy releases the GIL
    inside its kernels).  The pool is created lazily on first use and
    reused across runs; :meth:`close` shuts it down.

    Chain-shaped plans gain nothing from worker dispatch -- every step
    waits on the previous one, so the pool only adds synchronization
    overhead.  With ``serial_shortcut`` (default on), a plan whose
    levelized ``max_width`` is 1 is executed as a plain serial loop on
    the calling thread (still firing the ``pipelined_worker`` injection
    point per step, so fault behaviour is unchanged); the
    ``serial_shortcuts`` counter reports how often this fired.

    Parameters
    ----------
    max_workers:
        Worker-thread count; defaults to ``min(8, usable cores)``, floored
        at 2 so concurrent dispatch is exercised even on one core.
    serial_shortcut:
        Auto-degrade width-1 plans to serial dispatch (default True).
    """

    name = "pipelined"

    def __init__(self, max_workers: Optional[int] = None,
                 serial_shortcut: bool = True) -> None:
        super().__init__()
        if max_workers is None:
            max_workers = max(2, min(8, parallel.usable_cores()))
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = int(max_workers)
        self.serial_shortcut = bool(serial_shortcut)
        self.serial_shortcuts = 0
        self.max_inflight = 0
        self._pool = None
        self._pool_lock = threading.Lock()

    def _ensure_pool(self):
        with self._pool_lock:
            if self._pool is None:
                from concurrent.futures import ThreadPoolExecutor

                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix="repro-engine")
            return self._pool

    def close(self) -> None:
        with self._pool_lock:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None

    def execute(self, steps: Sequence[Tuple], plan, context=None) -> None:
        n = len(steps)
        if n == 0:
            self.runs += 1
            return
        if plan is None or getattr(plan, "step_preds", None) is None:
            raise ValueError(
                "PipelinedEngine needs a plan with dependence edges "
                "(ProgramPlan.step_preds); got none")
        if self.serial_shortcut and plan.max_width <= 1:
            # A pure dependence chain: worker dispatch cannot overlap
            # anything, so skip the pool and its synchronization tax.
            # The per-step injection point still fires -- fault-injection
            # behaviour is identical either way.
            injector = self.fault_injector
            for i, step in enumerate(steps):
                if injector is not None:
                    injector.fire("pipelined_worker", step=i)
                dispatch_step(step)
            self.serial_shortcuts += 1
            if self.max_inflight < 1:
                self.max_inflight = 1
            self.runs += 1
            self.steps_dispatched += n
            return
        succs = plan.step_succs
        remaining = [len(p) for p in plan.step_preds]
        pool = self._ensure_pool()
        cond = threading.Condition()
        # All counters below are guarded by ``cond``.  ``submitted`` is
        # bumped *before* ``finished`` inside one critical section, so
        # ``finished == submitted`` can only hold when no successor
        # submission is pending -- the main thread's wake-up condition.
        state = {"submitted": 0, "finished": 0, "running": 0,
                 "max_running": 0, "failed": None}

        def _submit(j: int) -> None:
            # A failed submit (e.g. the pool was shut down concurrently
            # by ``close``) must not strand the main thread: the step was
            # already counted as submitted, so count it finished too and
            # record the failure, keeping ``finished == submitted``
            # reachable.
            try:
                pool.submit(_run, j)
            except BaseException as exc:
                with cond:
                    if state["failed"] is None:
                        state["failed"] = exc
                    state["finished"] += 1
                    cond.notify()

        def _run(i: int) -> None:
            with cond:
                state["running"] += 1
                if state["running"] > state["max_running"]:
                    state["max_running"] = state["running"]
            newly: List[int] = []
            try:
                # Named injection point "pipelined_worker": a fault here
                # surfaces through the engine's normal failure path, so
                # callers exercise the real worker-death recovery (the
                # serving scheduler retries once on a SerialEngine).
                injector = self.fault_injector
                if injector is not None:
                    injector.fire("pipelined_worker", step=i)
                dispatch_step(steps[i])
            except BaseException as exc:  # propagate to the caller
                with cond:
                    if state["failed"] is None:
                        state["failed"] = exc
                    state["running"] -= 1
                    state["finished"] += 1
                    cond.notify()
                return
            with cond:
                if state["failed"] is None:
                    for j in succs[i]:
                        remaining[j] -= 1
                        if remaining[j] == 0:
                            newly.append(j)
                    state["submitted"] += len(newly)
                state["running"] -= 1
                state["finished"] += 1
                cond.notify()
            for j in newly:
                _submit(j)

        roots = list(plan.ready_steps)
        with cond:
            state["submitted"] = len(roots)
        for i in roots:
            _submit(i)
        with cond:
            cond.wait_for(
                lambda: state["finished"] == state["submitted"])
            failed = state["failed"]
            finished = state["finished"]
            if state["max_running"] > self.max_inflight:
                self.max_inflight = state["max_running"]
        if failed is not None:
            raise failed
        if finished != n:
            raise RuntimeError(
                f"pipelined dispatch retired {finished} of {n} steps; the "
                "plan's dependence edges do not cover the step graph")
        self.runs += 1
        self.steps_dispatched += n

    def reset_stats(self) -> None:
        super().reset_stats()
        self.max_inflight = 0
        self.serial_shortcuts = 0

    def stats(self) -> Dict[str, object]:
        return {
            **super().stats(),
            "max_workers": self.max_workers,
            "max_inflight": self.max_inflight,
            "serial_shortcuts": self.serial_shortcuts,
        }


# ---------------------------------------------------------------------------
# Process-pool execution
# ---------------------------------------------------------------------------


def _attach_shm(name: str):
    """Attach to an existing shared-memory block without ownership.

    The parent owns (and unlinks) every segment; a worker must not let
    its resource tracker also claim it, or the tracker unlinks the
    segment when the *worker* exits and warns about leaks.  Python 3.13+
    exposes ``track=False`` for exactly this; older versions need the
    explicit ``resource_tracker.unregister`` dance.
    """
    from multiprocessing import resource_tracker, shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        # Python < 3.13: no ``track`` parameter.  Unregistering after the
        # fact would race the *shared* (forked) tracker process and strip
        # the parent's own registration; instead suppress the worker's
        # registration attempt itself.
        original = resource_tracker.register

        def _no_shm_register(rname, rtype):
            if rtype != "shared_memory":
                original(rname, rtype)

        resource_tracker.register = _no_shm_register
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _worker_drop(programs: Dict, key) -> None:
    entry = programs.pop(key, None)
    if entry is None:
        return
    compiled, shm = entry
    # Drop every view into the segment before closing it, or the close
    # raises BufferError over the exported memoryviews.
    del compiled, entry
    try:
        shm.close()
    except BufferError:
        pass


def _process_worker_main(worker_id: int, task_q, result_q) -> None:
    """Worker-process loop: install programs, dispatch steps by index.

    Installed programs are rebuilt from their recipes and compiled
    *locally* (same deterministic planner, verified by fingerprint
    against the parent's plan), with arena slabs and input staging
    buffers mapped onto the parent's shared-memory segment -- so a
    ``("run", key, steps, seq)`` message executes exactly the steps the
    parent would have, in plan order, writing the same bytes into the
    same (shared) buffers.  Each step of the batch is acknowledged with
    its own ``("done", ...)`` as it retires, so the parent can unblock
    successors while the rest of the chunk is still running.
    """
    programs: Dict = {}
    # The workers are this engine's parallelism: their steps run whole.
    parallel.usable_cores = lambda: 1
    while True:
        try:
            msg = task_q.get()
        except (EOFError, OSError):
            break
        kind = msg[0]
        if kind == "stop":
            for key in list(programs):
                _worker_drop(programs, key)
            break
        if kind == "ping":
            result_q.put(("pong", worker_id, msg[1]))
        elif kind == "uninstall":
            _worker_drop(programs, msg[1])
        elif kind == "install":
            (_, key, recipe, inplace, fuse, backend, cache_dir, sdb_root,
             shm_name, slab_meta, input_meta, seq) = msg
            try:
                from repro.core.executor import shared_executor
                from repro.core.program import build_from_recipe
                from repro.core.session import CompiledProgram
                from repro.core.tunespace import (
                    activate_policy,
                    deactivate_policy,
                )

                executor = shared_executor(backend)
                if cache_dir is not None and (
                        executor.disk_cache is None
                        or str(executor.disk_cache.root) != cache_dir):
                    from repro.core.aotcache import AOTCache
                    executor.disk_cache = AOTCache(cache_dir)
                # Mirror the parent's tuned-schedule policy before the
                # recipe rebuild runs the op builders: the worker then
                # constructs the *same* tuned schedules the parent
                # compiled, so its kernels come straight from the shared
                # AOT disk cache -- tuned start-up with zero search and
                # zero extra lowerings.
                if sdb_root is not None:
                    from repro.core.scheduledb import ScheduleDB
                    activate_policy(ScheduleDB(sdb_root), backend)
                else:
                    deactivate_policy()
                shm = _attach_shm(shm_name)
                slabs = [np.frombuffer(shm.buf, dtype=np.float32,
                                       count=count, offset=off)
                         for off, count in slab_meta]
                inputs = {
                    name: np.frombuffer(shm.buf, dtype=np.dtype(dt),
                                        count=count, offset=off)
                    for name, (off, dt, count) in input_meta.items()
                }
                program = build_from_recipe(recipe)
                compiled = CompiledProgram(
                    program, executor, inplace=inplace, fuse=fuse,
                    slab_buffers=slabs, input_buffers=inputs)
                del slabs, inputs
                fingerprint = (tuple(compiled.plan.order),
                               tuple(compiled.plan.slab_elements),
                               tuple(compiled.plan.ready_steps),
                               len(compiled._steps))
                programs[key] = (compiled, shm)
                result_q.put(("installed", worker_id, key, seq, True,
                              fingerprint))
            except BaseException as exc:
                result_q.put(("installed", worker_id, key, seq, False,
                              f"{type(exc).__name__}: {exc}"))
        elif kind == "run":
            # ``steps`` is a tuple of ready step indices: the parent
            # batches everything dispatchable to this worker into one
            # queue message, amortising the per-message IPC overhead.
            # Each step is acknowledged individually as it retires so
            # the parent can release its successors without waiting for
            # the rest of the chunk; a failure reports the failed step
            # together with the unrun remainder so the parent's inflight
            # accounting still retires every shipped step.
            _, key, steps, seq = msg
            for pos, step_idx in enumerate(steps):
                try:
                    compiled = programs[key][0]
                    dispatch_step(compiled._steps[step_idx])
                except BaseException as exc:
                    result_q.put(("done", worker_id, key, steps[pos:], seq,
                                  False, (type(exc).__name__, str(exc))))
                    break
                result_q.put(("done", worker_id, key, (step_idx,), seq,
                              True, None))


class _InstalledProgram:
    """Parent-side record of a program installed across the worker pool."""

    __slots__ = ("shm", "slab_views", "input_views")

    def __init__(self, shm, slab_views, input_views):
        self.shm = shm
        self.slab_views = slab_views
        self.input_views = input_views

    def release(self) -> None:
        shm = self.shm
        self.shm = None
        self.slab_views = []
        self.input_views = {}
        if shm is None:
            return
        try:
            shm.close()
        except BufferError:
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


class ProcessPoolEngine(ExecutionEngine):
    """Dependence-driven dispatch over a pool of worker *processes*.

    The GIL serializes the Python-level portions of thread dispatch; on
    multi-core hosts a process pool is the way past it.  What makes it
    affordable here is that nothing heavy crosses the process boundary
    per step:

    * at **install** time (once per program x raggedness signature) each
      worker rebuilds the program from its picklable recipe
      (``Program.recipe``, see
      :func:`~repro.core.program.register_program_builder`) and compiles
      it locally -- the planner is deterministic, and a plan fingerprint
      is verified against the parent's so every process agrees on step
      indices, slab assignment and execution order;
    * arena slabs and input staging buffers live in one
      ``multiprocessing.shared_memory`` segment per installed program,
      mapped by parent and workers alike -- a **dispatch** ships just
      ``(key, step_indices, seq)`` over a queue and the completion ships
      back a few integers;
    * the parent submits every ready step before blocking, batching the
      ready set into at most one queue message per idle worker
      (``ceil(ready / idle)`` steps each; disable with
      ``batch_dispatch=False`` for strict one-step-per-message), so a
      fused program with K independent chains reaches
      ``max_inflight >= min(K, max_workers)`` deterministically and the
      per-message IPC overhead is amortised over the batch.

    Results are bit-identical to :class:`SerialEngine`: workers execute
    the same pre-resolved steps over the same (shared) buffers, and the
    plan's dependence edges are honoured exactly as in the pipelined
    engine.

    Ownership and lifecycle: the pool and its shared-memory segments are
    created lazily on first use and reused across runs (and across
    sessions -- one instance may serve several).  :meth:`close` is
    idempotent and *reuse-safe*: it stops the workers and unlinks every
    segment, and the next ``execute`` transparently respawns the pool
    and reinstalls what it needs.  A session only closes engines it
    constructed itself, so an instance-passed engine shared across
    sessions is closed exactly once -- by whoever owns it.

    Parameters
    ----------
    max_workers:
        Worker-process count; defaults to ``min(8, usable cores)``,
        floored at 2.
    program_capacity:
        LRU bound on concurrently installed programs (each pins a
        shared-memory segment sized by its arena + inputs).
    mp_context:
        ``multiprocessing`` context or start-method name; defaults to
        ``"fork"`` where available (cheap spawn, inherits warm kernel
        caches), else ``"spawn"``.
    batch_dispatch:
        Batch all currently-ready step indices into one queue message
        per idle worker (default).  ``False`` restores one message per
        step -- the pre-batching protocol, kept for A/B measurement of
        the IPC overhead (``bench_wide.py`` records the delta).
    """

    name = "process"

    #: seconds between liveness checks while waiting on results
    _POLL_S = 1.0

    def __init__(self, max_workers: Optional[int] = None,
                 program_capacity: int = 8,
                 mp_context=None,
                 batch_dispatch: bool = True) -> None:
        super().__init__()
        if max_workers is None:
            max_workers = max(2, min(8, parallel.usable_cores()))
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if program_capacity < 1:
            raise ValueError(
                f"program_capacity must be >= 1, got {program_capacity}")
        self.max_workers = int(max_workers)
        self.program_capacity = int(program_capacity)
        self.batch_dispatch = bool(batch_dispatch)
        self.max_inflight = 0
        self.installs = 0
        self.evictions = 0
        self.worker_restarts = 0
        self._mp_context = mp_context
        self._workers: List = []
        self._task_qs: List = []
        self._result_q = None
        self._installed: "OrderedDict" = OrderedDict()
        self._seq = 0
        self._lock = threading.RLock()

    # -- pool lifecycle ---------------------------------------------------------

    def _context(self):
        import multiprocessing as mp

        ctx = self._mp_context
        if ctx is None:
            method = ("fork" if "fork" in mp.get_all_start_methods()
                      else "spawn")
            ctx = self._mp_context = mp.get_context(method)
        elif isinstance(ctx, str):
            ctx = self._mp_context = mp.get_context(ctx)
        return ctx

    def _ensure_pool(self) -> None:
        if self._workers:
            return
        ctx = self._context()
        self._result_q = ctx.Queue()
        self._task_qs = []
        self._workers = []
        for wid in range(self.max_workers):
            task_q = ctx.Queue()
            proc = ctx.Process(
                target=_process_worker_main,
                args=(wid, task_q, self._result_q),
                daemon=True, name=f"repro-engine-worker-{wid}")
            proc.start()
            self._task_qs.append(task_q)
            self._workers.append(proc)
        # Warm-up: one round trip per worker proves the queues and the
        # processes are up before any program is installed.
        self._seq += 1
        for task_q in self._task_qs:
            task_q.put(("ping", self._seq))
        pending = set(range(self.max_workers))
        while pending:
            msg = self._next_result()
            if msg[0] == "pong" and msg[2] == self._seq:
                pending.discard(msg[1])

    def warm_up(self) -> None:
        """Spawn (or respawn) the worker pool eagerly.

        Optional -- the first ``execute`` does this lazily -- but useful
        to move process start-up out of the measured/serving path.
        """
        with self._lock:
            self._ensure_pool()

    def close(self) -> None:
        """Stop the workers and unlink every shared-memory segment.

        Idempotent and reuse-safe: a later ``execute`` respawns the pool
        and reinstalls programs on demand.
        """
        with self._lock:
            self._teardown_pool()

    def _teardown_pool(self) -> None:
        for key in list(self._installed):
            self._installed.pop(key).release()
        if not self._workers:
            return
        for task_q, proc in zip(self._task_qs, self._workers):
            if proc.is_alive():
                try:
                    task_q.put(("stop",))
                except (ValueError, OSError):
                    pass
        for proc in self._workers:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for task_q in self._task_qs:
            task_q.cancel_join_thread()
            task_q.close()
        if self._result_q is not None:
            self._result_q.cancel_join_thread()
            self._result_q.close()
        self._workers = []
        self._task_qs = []
        self._result_q = None

    def _next_result(self, poll_s: Optional[float] = None):
        """Next result-queue message; detects and reports worker death.

        If a worker dies (OOM kill, segfault, hard crash) the queue would
        block forever -- instead the pool is torn down (shared memory
        unlinked, siblings stopped) and a ``RuntimeError`` surfaces, which
        the serving scheduler's engine-failure path turns into a serial
        retry.  The next ``execute`` respawns everything lazily.
        """
        poll = self._POLL_S if poll_s is None else poll_s
        while True:
            try:
                return self._result_q.get(timeout=poll)
            except queue_mod.Empty:
                dead = [p for p in self._workers if not p.is_alive()]
                if dead:
                    names = ", ".join(p.name for p in dead)
                    self._teardown_pool()
                    self.worker_restarts += 1
                    raise RuntimeError(
                        f"process-pool worker(s) died: {names}; pool torn "
                        "down (respawns lazily on the next run)") from None

    # -- program installation ---------------------------------------------------

    @staticmethod
    def _align(nbytes: int, align: int = 64) -> int:
        return -(-int(nbytes) // align) * align

    def _install(self, context) -> Tuple:
        key = (context.program.uid, bool(context.plan.inplace),
               bool(getattr(context, "fuse", False)))
        entry = self._installed.get(key)
        if entry is not None:
            self._installed.move_to_end(key)
            return key, entry
        recipe = getattr(context.program, "recipe", None)
        if recipe is None:
            raise ValueError(
                f"program {context.program.name!r} has no rebuild recipe; "
                "ProcessPoolEngine can only run programs registered via "
                "register_program_builder (or merges of such programs) -- "
                "use the serial or pipelined engine for ad-hoc programs")
        from multiprocessing import shared_memory

        while len(self._installed) >= self.program_capacity:
            old_key, old_entry = self._installed.popitem(last=False)
            for task_q in self._task_qs:
                task_q.put(("uninstall", old_key))
            old_entry.release()
            self.evictions += 1

        # One segment laid out [slab0 | slab1 | ... | input staging...],
        # 64-byte aligned regions.
        offset = 0
        slab_meta: List[Tuple[int, int]] = []
        for count in context.plan.slab_elements:
            slab_meta.append((offset, int(count)))
            offset += self._align(int(count) * 4)
        input_meta: Dict[str, Tuple[int, str, int]] = {}
        for name, stage, dtype in context._input_specs:
            input_meta[name] = (offset, np.dtype(dtype).str, int(stage.size))
            offset += self._align(int(stage.size) * np.dtype(dtype).itemsize)
        shm = shared_memory.SharedMemory(create=True, size=max(1, offset))
        np.frombuffer(shm.buf, dtype=np.uint8)[:] = 0
        slab_views = [np.frombuffer(shm.buf, dtype=np.float32,
                                    count=count, offset=off)
                      for off, count in slab_meta]
        input_views = {
            name: np.frombuffer(shm.buf, dtype=np.dtype(dt),
                                count=count, offset=off)
            for name, (off, dt, count) in input_meta.items()
        }
        entry = _InstalledProgram(shm, slab_views, input_views)

        self._seq += 1
        seq = self._seq
        backend = context.executor.backend.name
        disk = context.executor.disk_cache
        cache_dir = str(disk.root) if disk is not None else None
        sdb_root = getattr(context, "schedule_db_root", None)
        for task_q in self._task_qs:
            task_q.put(("install", key, recipe, bool(context.plan.inplace),
                        bool(getattr(context, "fuse", False)), backend,
                        cache_dir, sdb_root, shm.name, slab_meta,
                        input_meta, seq))
        parent_fp = (tuple(context.plan.order),
                     tuple(context.plan.slab_elements),
                     tuple(context.plan.ready_steps),
                     len(context._steps))
        pending = set(range(self.max_workers))
        failure: Optional[str] = None
        try:
            while pending:
                msg = self._next_result()
                if msg[0] != "installed" or msg[3] != seq:
                    continue
                _, wid, _mkey, _mseq, ok, payload = msg
                pending.discard(wid)
                if not ok and failure is None:
                    failure = f"worker {wid}: {payload}"
                elif ok and payload != parent_fp and failure is None:
                    failure = (f"worker {wid} compiled a divergent plan "
                               f"(fingerprint mismatch)")
        except RuntimeError:
            entry.release()
            raise
        if failure is not None:
            for task_q in self._task_qs:
                task_q.put(("uninstall", key))
            entry.release()
            raise RuntimeError(
                f"installing program {context.program.name!r} on the "
                f"process pool failed: {failure}")
        self._installed[key] = entry
        self.installs += 1
        return key, entry

    # -- execution --------------------------------------------------------------

    def execute(self, steps: Sequence[Tuple], plan, context=None) -> None:
        n = len(steps)
        if n == 0:
            self.runs += 1
            return
        if plan is None or getattr(plan, "step_preds", None) is None:
            raise ValueError(
                "ProcessPoolEngine needs a plan with dependence edges "
                "(ProgramPlan.step_preds); got none")
        if context is None:
            raise ValueError(
                "ProcessPoolEngine needs the CompiledProgram as context "
                "(run it through Session.run / CompiledProgram.run)")
        with self._lock:
            self._ensure_pool()
            key, entry = self._install(context)

            # Ship this run's inputs into the shared staging buffers.
            for name, stage, _dtype in context._input_specs:
                np.copyto(entry.input_views[name], stage)

            self._seq += 1
            seq = self._seq
            remaining = [len(p) for p in plan.step_preds]
            ready = deque(plan.ready_steps)
            idle = deque(range(self.max_workers))
            inflight: Dict[int, int] = {}
            outstanding: Dict[int, int] = {}  # wid -> unretired chunk steps
            finished = 0
            peak = 0
            failed: Optional[BaseException] = None
            injector = self.fault_injector

            while finished < n and failed is None:
                # Submit everything ready before blocking: a fused
                # program's K root steps land on K workers immediately.
                # When the ready set outruns the whole pool, each idle
                # worker gets a ceil(ready / max_workers)-step chunk in
                # one queue message, amortising the per-message IPC
                # overhead.  Sizing against the pool rather than the
                # idle set matters: a fan-out step's successors must not
                # all pile onto the one currently-idle worker while its
                # siblings free up a moment later -- steps held back in
                # the ready deque go to whichever worker idles next.
                while ready and idle and failed is None:
                    chunk_size = 1
                    if self.batch_dispatch:
                        chunk_size = max(
                            1, -(-len(ready) // self.max_workers))
                    chunk: List[int] = []
                    while ready and len(chunk) < chunk_size:
                        i = ready.popleft()
                        if injector is not None:
                            # Named injection point "process_worker":
                            # fired parent-side before the step is
                            # shipped, so a fault surfaces through the
                            # engine's normal failure path (serial retry
                            # in the scheduler).
                            try:
                                injector.fire("process_worker", step=i)
                            except BaseException as exc:
                                failed = exc
                                break
                        chunk.append(i)
                    if failed is not None:
                        break
                    wid = idle.popleft()
                    self._task_qs[wid].put(("run", key, tuple(chunk), seq))
                    outstanding[wid] = len(chunk)
                    for i in chunk:
                        inflight[i] = wid
                    if len(inflight) > peak:
                        peak = len(inflight)
                if failed is not None:
                    break
                if not inflight:
                    break  # nothing running, nothing ready: edges broken
                msg = self._next_result()
                if msg[0] != "done" or msg[4] != seq:
                    continue  # stale message from an aborted earlier run
                _, wid, _mkey, done_steps, _mseq, ok, err = msg
                for i in done_steps:
                    inflight.pop(i, None)
                # The worker acknowledges chunk steps one at a time; it
                # goes back on the idle list only once its whole chunk
                # has retired (its task queue is FIFO, so re-dispatching
                # earlier would just queue behind the remainder).
                outstanding[wid] = outstanding.get(wid, 0) - len(done_steps)
                if outstanding[wid] <= 0:
                    outstanding.pop(wid, None)
                    idle.append(wid)
                if not ok:
                    failed = RuntimeError(
                        f"process worker {wid} failed dispatching steps "
                        f"{list(done_steps)}: {err[0]}: {err[1]}")
                    continue
                for i in done_steps:
                    finished += 1
                    self.steps_dispatched += 1
                    for j in plan.step_succs[i]:
                        remaining[j] -= 1
                        if remaining[j] == 0:
                            ready.append(j)

            if failed is not None or finished != n:
                # Drain in-flight steps before surfacing the failure:
                # letting workers keep writing the shared slabs while a
                # retry runs would race it.
                self._drain(inflight, seq)
                if failed is not None:
                    raise failed
                raise RuntimeError(
                    f"process dispatch retired {finished} of {n} steps; "
                    "the plan's dependence edges do not cover the step "
                    "graph")

            if peak > self.max_inflight:
                self.max_inflight = peak
            self.runs += 1

            # Copy the shared arena back into the parent's slabs: the
            # compiled program's output views (and every intermediate)
            # now see exactly what serial in-process execution would
            # have produced.
            for parent_slab, view in zip(context._slabs, entry.slab_views):
                np.copyto(parent_slab, view[:parent_slab.size])

    def _drain(self, inflight: Dict[int, int], seq: int) -> None:
        try:
            while inflight:
                msg = self._next_result()
                if msg[0] == "done" and msg[4] == seq:
                    for i in msg[3]:
                        inflight.pop(i, None)
        except RuntimeError:
            pass  # a worker died; the pool is already torn down

    # -- statistics -------------------------------------------------------------

    def reset_stats(self) -> None:
        super().reset_stats()
        self.max_inflight = 0
        self.installs = 0
        self.evictions = 0
        self.worker_restarts = 0

    def stats(self) -> Dict[str, object]:
        return {
            **super().stats(),
            "max_workers": self.max_workers,
            "batch_dispatch": self.batch_dispatch,
            "max_inflight": self.max_inflight,
            "installed_programs": len(self._installed),
            "installs": self.installs,
            "evictions": self.evictions,
            "worker_restarts": self.worker_restarts,
        }


def get_engine(engine: Union[str, ExecutionEngine, None]) -> ExecutionEngine:
    """Resolve an engine argument: an instance, a name, or ``None``.

    ``None`` and ``"serial"`` give a fresh :class:`SerialEngine`;
    ``"pipelined"`` a fresh :class:`PipelinedEngine` with default
    workers; ``"process"`` a fresh :class:`ProcessPoolEngine` with
    default workers.
    """
    if engine is None:
        return SerialEngine()
    if isinstance(engine, ExecutionEngine):
        return engine
    if isinstance(engine, str):
        name = engine.lower()
        if name == "serial":
            return SerialEngine()
        if name == "pipelined":
            return PipelinedEngine()
        if name == "process":
            return ProcessPoolEngine()
        raise ValueError(
            f"unknown engine {engine!r}; expected 'serial', 'pipelined', "
            "'process' or an ExecutionEngine instance")
    raise TypeError(f"engine must be a name or ExecutionEngine, got "
                    f"{type(engine).__name__}")
