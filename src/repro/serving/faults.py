"""Deterministic fault injection and structured failure results.

Robustness claims are only as good as the faults they were tested
against, so the serving stack is wired with *named injection points* --
places where a :class:`FaultInjector` may deterministically raise, delay,
or corrupt the value flowing through:

``"compile"``
    :meth:`repro.Session.compile`, fired on a compiled-program cache miss
    before lowering starts.  The scheduler recovers by degrading the
    batch to the retained op-by-op execution path.
``"run"``
    :meth:`repro.core.session.CompiledProgram.run`, fired on the batch's
    packed outputs.  ``corrupt`` truncates the output rows so shape
    validation trips; ``raise`` emulates a kernel failure.  The scheduler
    recovers by bisecting the batch to isolate the poison request.
``"demux"``
    The scheduler's demultiplexing path (including the
    ``overlap_demux`` background worker), fired on the packed output
    before it is split into per-request rows.  The scheduler retries the
    demux once synchronously.
``"admission"``
    The scheduler's admission-policy selection round.  The scheduler
    falls back to FIFO selection for that round.

Every decision is deterministic: faults fire on explicit call indices
(``calls``), on batches containing a given ``request_id``, up to
``max_fires`` times, or -- for chaos runs -- with a probability drawn
from the injector's seeded generator.  The same seed and the same
sequence of ``fire`` calls reproduce the same fault schedule, which is
what lets the fault matrix assert bit-identical outputs for every
request a fault did not poison.

With no injector attached (the default everywhere) the serving stack
executes exactly the pre-fault-injection code path; ``enabled=False``
turns an attached injector into a no-op.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Type

import numpy as np

from repro.core.errors import ExecutionError

#: The named injection points threaded through the stack.
INJECTION_POINTS = ("compile", "run", "demux", "admission")

#: What a firing fault does to the call it interrupts.
FAULT_ACTIONS = ("raise", "delay", "corrupt")


@dataclass(eq=False)
class Fault:
    """One armed fault: where it fires, when, and what it does.

    A fault fires at its ``point`` when *all* of its conditions hold:
    the 0-based per-point call index is in ``calls`` (``None`` matches
    every call), the ambient batch contains ``request_id`` (``None``
    matches every batch), a seeded coin lands under ``probability``, and
    fewer than ``max_fires`` firings have happened (``None`` is
    unlimited).
    """

    point: str
    action: str = "raise"
    #: exception type instantiated (with ``message``) by ``raise`` faults
    error: Type[BaseException] = ExecutionError
    message: str = "injected fault"
    #: sleep duration of ``delay`` faults
    delay_s: float = 0.0
    #: 0-based call indices at this point that may fire; ``None`` = all
    calls: Optional[FrozenSet[int]] = None
    #: fire only when this request id is in the ambient batch context
    request_id: Optional[int] = None
    probability: float = 1.0
    max_fires: Optional[int] = 1
    fired: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.point not in INJECTION_POINTS:
            raise ValueError(
                f"unknown injection point {self.point!r}; expected one of "
                f"{INJECTION_POINTS}")
        if self.action not in FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; expected one of "
                f"{FAULT_ACTIONS}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")
        if self.calls is not None:
            self.calls = frozenset(int(c) for c in self.calls)


def _corrupt(payload: Any) -> Any:
    """Shape-corrupt a payload: drop the last row of every array in it.

    Arrays keep their dtype and all but one row, so downstream shape
    validation (not value inspection) is what must catch the corruption
    -- the realistic failure mode of a truncated transfer.
    """
    if isinstance(payload, np.ndarray):
        return payload[:-1] if payload.ndim >= 1 and payload.shape[0] else \
            payload
    if isinstance(payload, dict):
        return {key: _corrupt(value) for key, value in payload.items()}
    return payload


class FaultInjector:
    """A seeded, deterministic fault schedule over named injection points.

    Thread-safe: ``fire`` is called from the main scheduling thread and
    from the overlap-demux worker; all
    counters are guarded by one lock.  The seeded generator is only
    consulted by probability faults, so call-indexed and request-matched
    faults are deterministic regardless of threading.
    """

    def __init__(self, seed: int = 0, enabled: bool = True):
        self.seed = int(seed)
        self.enabled = bool(enabled)
        self.faults: List[Fault] = []
        self._rng = np.random.default_rng(self.seed)
        self._lock = threading.Lock()
        #: per-point fire/call counters (all points pre-seeded to 0)
        self.calls: Dict[str, int] = {p: 0 for p in INJECTION_POINTS}
        self.fires: Dict[str, int] = {p: 0 for p in INJECTION_POINTS}
        #: ambient context (set per batch by the scheduler) merged under
        #: any explicit context a ``fire`` call passes
        self._ambient: Dict[str, Any] = {}

    # -- arming -----------------------------------------------------------------

    def add(self, point: str, action: str = "raise", **kwargs) -> Fault:
        """Arm one fault; returns it (its ``fired`` count is live)."""
        fault = Fault(point=point, action=action, **kwargs)
        with self._lock:
            self.faults.append(fault)
        return fault

    def set_ambient(self, **context: Any) -> None:
        """Replace the ambient context (the scheduler tags each batch's
        ``request_ids`` and ``signature`` before running it)."""
        with self._lock:
            self._ambient = dict(context)

    # -- firing -----------------------------------------------------------------

    def _should_fire(self, fault: Fault, index: int,
                     context: Dict[str, Any]) -> bool:
        if fault.max_fires is not None and fault.fired >= fault.max_fires:
            return False
        if fault.calls is not None and index not in fault.calls:
            return False
        if fault.request_id is not None and \
                fault.request_id not in context.get("request_ids", ()):
            return False
        if fault.probability < 1.0 and \
                float(self._rng.random()) >= fault.probability:
            return False
        return True

    def fire(self, point: str, payload: Any = None,
             **context: Any) -> Any:
        """Evaluate the armed faults at one injection point.

        Returns ``payload`` (possibly corrupted); raises the fault's
        error for ``raise`` faults; sleeps for ``delay`` faults.  The
        per-point call index advances only while the injector is enabled,
        so a disabled injector is transparent.
        """
        if not self.enabled:
            return payload
        if point not in INJECTION_POINTS:
            raise ValueError(f"unknown injection point {point!r}")
        to_raise: Optional[BaseException] = None
        delays: List[float] = []
        with self._lock:
            index = self.calls[point]
            self.calls[point] = index + 1
            merged = {**self._ambient, **context}
            for fault in self.faults:
                if fault.point != point:
                    continue
                if not self._should_fire(fault, index, merged):
                    continue
                fault.fired += 1
                self.fires[point] += 1
                if fault.action == "delay":
                    delays.append(fault.delay_s)
                elif fault.action == "corrupt":
                    payload = _corrupt(payload)
                elif to_raise is None:
                    to_raise = fault.error(
                        f"{fault.message} [injected at {point!r}]")
        for delay in delays:
            time.sleep(delay)
        if to_raise is not None:
            raise to_raise
        return payload

    # -- state ------------------------------------------------------------------

    def reset(self) -> None:
        """Zero every counter and re-seed the probability generator, so a
        second identical run reproduces the same fault schedule."""
        with self._lock:
            self._rng = np.random.default_rng(self.seed)
            for point in INJECTION_POINTS:
                self.calls[point] = 0
                self.fires[point] = 0
            for fault in self.faults:
                fault.fired = 0

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "enabled": self.enabled,
                "seed": self.seed,
                "faults": len(self.faults),
                "calls": dict(self.calls),
                "fires": dict(self.fires),
                "total_fires": sum(self.fires.values()),
            }

    def __repr__(self) -> str:
        return (f"FaultInjector(seed={self.seed}, enabled={self.enabled}, "
                f"faults={len(self.faults)}, "
                f"fires={sum(self.fires.values())})")


@dataclass(frozen=True)
class FailedResult:
    """The structured terminal answer of a request that did not complete.

    Delivered in the same results mapping as successful outputs, so every
    submitted request resolves to exactly one of: its output array, or
    one ``FailedResult`` naming the terminal state, the error, and how
    many execution attempts were spent.
    """

    request_id: int
    #: the request's terminal :class:`~repro.serving.queue.RequestState`
    state: Any
    error_type: str
    message: str
    attempts: int = 0

    @classmethod
    def from_exception(cls, request_id: int, state: Any,
                       exc: BaseException,
                       attempts: int = 0) -> "FailedResult":
        return cls(request_id=request_id, state=state,
                   error_type=type(exc).__name__, message=str(exc),
                   attempts=attempts)


__all__ = [
    "Fault",
    "FaultInjector",
    "FailedResult",
    "INJECTION_POINTS",
    "FAULT_ACTIONS",
]
