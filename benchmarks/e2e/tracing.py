"""Benchmark-side tracing wrappers, plugged into the library's own extension
points: ``Session(engine=<ExecutionEngine>)`` and
``BatchScheduler(session=, admission=<AdmissionPolicy>)``.

Nothing under ``src/`` is patched.  Each wrapper brackets the public call
of one layer with a span in a :class:`measure.Tracer`; spans inside the
library are a later change.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.core.engine import ExecutionEngine, dispatch_step
from repro.core.session import Session
from repro.serving.admission import PriorityDeadlineAdmission

from measure import Tracer

#: Step-span groups reported as ``ops.<group>_ms``, matched on the node
#: name's suffix after the ``L<i>.`` layer prefix (see
#: ``repro.models.transformer._append_encoder_layer``).
OP_GROUPS = {
    "linear": ("proj1", "proj2", "ff1", "ff2"),
    "layernorm": ("ln1", "ln2"),
    "elementwise": ("resid1", "resid2", "ff1.relu"),
    "marshal": ("qkv.split", "attn.merge"),
}


def op_group(node_name: str) -> str:
    """The ``ops.*`` group of a plan step, from its node name.  A fused
    region (``fused(a+b+...)``) counts as ``sdpa`` when it holds the
    attention kernels and as ``other`` otherwise."""
    if "sdpa" in node_name:
        return "sdpa"
    base = node_name.split(".", 1)[-1]
    for group, names in OP_GROUPS.items():
        if base in names:
            return group
    return "other"


class TracingEngine(ExecutionEngine):
    """The serial dispatch loop with one span per plan step."""

    name = "tracing-serial"

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer
        #: id(plan) -> (plan, step names); the plan is pinned so the id
        #: stays unique while the entry lives.
        self._names: Dict[int, Tuple[object, List[str]]] = {}

    def _step_names(self, plan, context) -> List[str]:
        entry = self._names.get(id(plan))
        if entry is None:
            work = plan.fused_program or context.program
            entry = (plan, [work.nodes[i].name for i in plan.order])
            self._names[id(plan)] = entry
        return entry[1]

    def execute(self, steps, plan, context=None) -> None:
        names = self._step_names(plan, context)
        tracer, clock = self.tracer, time.perf_counter
        index = tracer.begin("engine.execute", "engine")
        for step, name in zip(steps, names):
            start = clock()
            dispatch_step(step)
            tracer.leaf(name, "ops", start, clock())
        tracer.end(index)
        self.runs += 1
        self.steps_dispatched += len(steps)


class TimedSession(Session):
    """A session recording ``compile`` and ``run`` spans.  A compile that
    finds the program cached is named ``session.lookup``."""

    def __init__(self, tracer: Tracer, **kwargs) -> None:
        super().__init__(engine=TracingEngine(tracer), **kwargs)
        self.tracer = tracer

    def compile(self, program, signature=None):
        cached = self.compiled_program(program) is not None
        index = self.tracer.begin(
            "session.lookup" if cached else "session.compile", "session")
        try:
            return super().compile(program, signature=signature)
        finally:
            self.tracer.end(index)

    def run(self, program, inputs, **kwargs):
        index = self.tracer.begin("session.run", "session")
        try:
            return super().run(program, inputs, **kwargs)
        finally:
            self.tracer.end(index)


class TimedAdmission(PriorityDeadlineAdmission):
    """The stock priority+EDF policy with a span around each selection."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer

    def select(self, queue, k, now):
        start = time.perf_counter()
        chosen = super().select(queue, k, now)
        self.tracer.leaf("admission.select", "admission", start,
                         time.perf_counter())
        return chosen
