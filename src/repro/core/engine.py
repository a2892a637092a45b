"""The execution engine: how a compiled program's steps are run.

The :class:`~repro.core.session.CompiledProgram` knows *what* to execute
(a flat list of pre-resolved dispatch steps, in plan order) and an
:class:`ExecutionEngine` runs them: one flat loop over
:func:`dispatch_step`.  Multi-core speed comes from inside the steps
(:mod:`repro.core.parallel` splits heavy ones across cores), not from
reordering them, so the serial plan order is the only order there is --
which is also what makes the planner's slab reuse and in-place aliasing
safe.

The engine is kept as a class so a caller can observe dispatch: a
subclass overriding :meth:`ExecutionEngine.execute` (a tracer timing
each step, say) plugs in through ``Session(engine=<instance>)``.
``execute`` receives the steps, the :class:`~repro.core.planner.
ProgramPlan` (``plan.order`` names the node of each step) and the owning
:class:`~repro.core.session.CompiledProgram` as ``context``.  One engine
instance, owned by a :class:`~repro.core.session.Session`, executes every
compiled program of that session and accumulates dispatch statistics
across runs.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple, Union

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
    """The flat dispatch loop: steps run one after another in plan order."""

    name = "serial"

    def __init__(self) -> None:
        self.runs = 0
        self.steps_dispatched = 0

    def execute(self, steps: Sequence[Tuple], plan=None, context=None) -> None:
        for step in steps:
            dispatch_step(step)
        self.runs += 1
        self.steps_dispatched += len(steps)

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


def get_engine(engine: Union[str, ExecutionEngine, None]) -> ExecutionEngine:
    """Resolve an engine argument: ``None`` or ``"serial"`` give a fresh
    serial engine; an :class:`ExecutionEngine` instance is used as is."""
    if isinstance(engine, ExecutionEngine):
        return engine
    if engine is None or engine == "serial":
        return ExecutionEngine()
    if isinstance(engine, str):
        raise ValueError(
            f"unknown engine {engine!r}; expected None, 'serial' or an "
            "ExecutionEngine instance")
    raise TypeError(f"engine must be a name or ExecutionEngine, got "
                    f"{type(engine).__name__}")
