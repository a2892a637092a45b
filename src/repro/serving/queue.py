"""Ragged requests, their terminal-state machine, and the arrival queue.

A :class:`Request` is one variable-length sequence (its ``(length,
hidden)`` activation matrix) waiting to be batched, now carrying the
serving lifecycle state: an optional absolute deadline, a retry budget,
and a :class:`RequestState` that moves exactly once from ``PENDING`` to
one of the four terminal states (``COMPLETED`` / ``FAILED`` /
``TIMED_OUT`` / ``REJECTED``).  :meth:`Request.mark` enforces the
exactly-once transition -- a request that already reached a terminal
state cannot be re-resolved, which is what the serving layer's
exactly-once delivery property rests on.

The :class:`RequestQueue` holds requests in arrival order.  It may be
*bounded* (``capacity``): when full, the configured shed policy decides
who pays -- ``"reject_newest"`` turns the incoming request away;
``"drop_expired_first"`` first evicts already-expired pending requests
(their compute would be wasted anyway) and only rejects the newcomer if
no room could be reclaimed; ``"shed_low_priority"`` additionally sheds
the *lowest-priority, latest-deadline* request (the newcomer competes
too, and is rejected only when it is itself the least valuable).  Shed
requests are marked terminally (``REJECTED`` / ``TIMED_OUT``) and parked
on a shed list the scheduler converts into structured failure results,
so backpressure never silently loses a request.

Requests also carry the serving-observability timestamps
(``t_submitted`` / ``t_formed`` / ``t_executed`` / ``t_delivered``, all
on the queue's injectable clock) the scheduler fills in as the request
moves through its lifecycle, and an integer ``priority`` class (smaller
= more urgent) consumed by the admission policies in
:mod:`repro.serving.admission`.

Batch *formation* policy -- how many requests to take, how to bucket
their lengths into a raggedness signature, what to do with expired
requests at formation time -- lives in :mod:`repro.serving.scheduler`.
"""

from __future__ import annotations

import enum
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import CoraError

#: Queue shed policies for bounded capacity.
SHED_POLICIES = ("reject_newest", "drop_expired_first", "shed_low_priority")


class RequestState(enum.Enum):
    """Lifecycle states of a request; all but ``PENDING`` are terminal."""

    PENDING = "pending"
    COMPLETED = "completed"
    FAILED = "failed"
    TIMED_OUT = "timed_out"
    REJECTED = "rejected"

    @property
    def terminal(self) -> bool:
        return self is not RequestState.PENDING


#: The four terminal states, as a frozenset (handy for assertions).
TERMINAL_STATES = frozenset(
    s for s in RequestState if s is not RequestState.PENDING)


@dataclass(eq=False)
class Request:
    """One ragged sequence awaiting encoder execution.

    ``eq=False``: requests compare (and hash) by identity -- a
    field-wise ``__eq__`` would compare the ``hidden`` array
    element-wise and raise on any multi-element sequence.
    """

    request_id: int
    #: the ``(length, hidden_size)`` activation matrix of the sequence
    hidden: np.ndarray
    #: absolute deadline on the queue's clock; ``None`` = no deadline
    deadline: Optional[float] = None
    #: extra execution attempts the scheduler may spend after the first
    max_retries: int = 0
    #: priority class, smaller = more urgent (see repro.serving.admission)
    priority: int = 1
    state: RequestState = field(default=RequestState.PENDING)
    #: execution attempts spent on this request (batched or isolated)
    attempts: int = field(default=0)
    #: selection rounds an admission policy passed this request over
    #: (drives the starvation bound of PriorityDeadlineAdmission)
    skips: int = field(default=0)
    #: lifecycle timestamps on the queue's clock, filled in as the
    #: request moves through submit -> batch formation -> execution ->
    #: delivery; ``None`` until the stage is reached
    t_submitted: Optional[float] = field(default=None)
    t_formed: Optional[float] = field(default=None)
    t_executed: Optional[float] = field(default=None)
    t_delivered: Optional[float] = field(default=None)

    @property
    def length(self) -> int:
        return int(self.hidden.shape[0])

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline

    def mark(self, state: RequestState) -> None:
        """Transition to a terminal state, exactly once.

        Re-marking an already terminal request (even with the same
        state) raises: every request resolves to one terminal answer.
        """
        if not state.terminal:
            raise ValueError(f"cannot mark a request {state}; only "
                             "terminal states are assignable")
        if self.state.terminal:
            raise CoraError(
                f"request {self.request_id} is already terminal "
                f"({self.state.value}); cannot re-mark as {state.value}")
        self.state = state


class RequestQueue:
    """An arrival-order queue with optional bounded capacity.

    Parameters
    ----------
    capacity:
        Maximum pending requests; ``None`` (default) is unbounded --
        the original FIFO behaviour, bit for bit.
    shed_policy:
        What to do with a submission when full: ``"reject_newest"``
        marks the incoming request ``REJECTED``; ``"drop_expired_first"``
        first evicts expired pending requests (marked ``TIMED_OUT``) and
        only rejects the newcomer if the queue is still full.
    clock:
        Monotonic time source for deadline checks (injectable so tests
        drive time deterministically).
    """

    def __init__(self, capacity: Optional[int] = None,
                 shed_policy: str = "reject_newest",
                 clock: Callable[[], float] = time.monotonic) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        if shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed_policy {shed_policy!r}; expected one of "
                f"{SHED_POLICIES}")
        self.capacity = capacity
        self.shed_policy = shed_policy
        self.clock = clock
        self._pending: Deque[Request] = deque()
        self._next_id = 0
        self.submitted = 0
        self.popped = 0
        #: requests shed at admission time (``REJECTED``) or evicted as
        #: expired (``TIMED_OUT``), awaiting conversion into structured
        #: failure results by the scheduler
        self.shed: List[Request] = []
        self.rejected = 0
        self.expired_dropped = 0

    def _evict_expired(self) -> int:
        """Drop expired pending requests (drop_expired_first policy)."""
        now = self.clock()
        kept: Deque[Request] = deque()
        dropped = 0
        for request in self._pending:
            if request.expired(now):
                request.mark(RequestState.TIMED_OUT)
                self.shed.append(request)
                dropped += 1
            else:
                kept.append(request)
        self._pending = kept
        self.expired_dropped += dropped
        return dropped

    def _shed_low_priority(self, request: Request) -> Optional[Request]:
        """Backpressure under ``shed_low_priority``: evict the pending
        request that is lowest-priority with the latest deadline (ties:
        newest arrival).  The newcomer competes too; returns the victim
        (``None`` when the newcomer itself is the victim)."""
        inf = float("inf")

        def cost(r: Request) -> tuple:
            return (r.priority,
                    r.deadline if r.deadline is not None else inf,
                    r.request_id)

        victim = max((*self._pending, request), key=cost)
        if victim is request:
            return None
        self._pending.remove(victim)
        victim.mark(RequestState.REJECTED)
        self.shed.append(victim)
        self.rejected += 1
        return victim

    def submit(self, hidden: np.ndarray, *,
               deadline_s: Optional[float] = None,
               max_retries: int = 0,
               priority: int = 1) -> int:
        """Enqueue one ``(length, hidden_size)`` sequence; returns its id.

        ``deadline_s`` is relative to now on the queue's clock.  When the
        queue is full the shed policy applies; a shed request still gets
        an id and a terminal state, parked on :attr:`shed`.
        """
        hidden = np.ascontiguousarray(hidden, dtype=np.float32)
        if hidden.ndim != 2 or hidden.shape[0] == 0:
            raise ValueError(
                "a request must be a non-empty (length, hidden) matrix, "
                f"got shape {hidden.shape}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        deadline = None
        if deadline_s is not None:
            if deadline_s < 0:
                raise ValueError(
                    f"deadline_s must be >= 0, got {deadline_s}")
            deadline = self.clock() + float(deadline_s)
        request = Request(request_id=self._next_id, hidden=hidden,
                          deadline=deadline, max_retries=int(max_retries),
                          priority=int(priority),
                          t_submitted=self.clock())
        self._next_id += 1
        self.submitted += 1
        if self.capacity is not None and len(self._pending) >= self.capacity:
            if self.shed_policy in ("drop_expired_first",
                                    "shed_low_priority"):
                self._evict_expired()
            if len(self._pending) >= self.capacity \
                    and self.shed_policy == "shed_low_priority":
                self._shed_low_priority(request)
            if len(self._pending) >= self.capacity:
                request.mark(RequestState.REJECTED)
                self.shed.append(request)
                self.rejected += 1
                return request.request_id
        self._pending.append(request)
        return request.request_id

    def submit_many(self, hiddens: Iterable[np.ndarray], **kwargs) -> List[int]:
        return [self.submit(h, **kwargs) for h in hiddens]

    def pop(self, max_requests: int) -> List[Request]:
        """Dequeue up to ``max_requests`` requests in arrival order."""
        if max_requests <= 0:
            raise ValueError(f"max_requests must be positive, got {max_requests}")
        out: List[Request] = []
        while self._pending and len(out) < max_requests:
            out.append(self._pending.popleft())
        self.popped += len(out)
        return out

    def peek(self, max_requests: int) -> List[Request]:
        """The first ``max_requests`` pending requests, arrival order,
        without removing them (the admission policies' candidate window)."""
        if max_requests <= 0:
            raise ValueError(
                f"max_requests must be positive, got {max_requests}")
        out: List[Request] = []
        for request in self._pending:
            if len(out) >= max_requests:
                break
            out.append(request)
        return out

    def take(self, requests: Iterable[Request]) -> None:
        """Remove specific pending requests (by identity), preserving the
        arrival order of the rest -- the removal half of an admission
        policy's out-of-order selection."""
        taken = set(id(r) for r in requests)
        if not taken:
            return
        kept: Deque[Request] = deque()
        removed = 0
        for request in self._pending:
            if id(request) in taken:
                removed += 1
            else:
                kept.append(request)
        if removed != len(taken):
            raise ValueError(
                f"take() was handed {len(taken)} requests but only "
                f"{removed} are pending")
        self._pending = kept
        self.popped += removed

    def drain_shed(self) -> List[Request]:
        """Hand over (and clear) the shed requests accumulated so far."""
        shed, self.shed = self.shed, []
        return shed

    def __len__(self) -> int:
        return len(self._pending)

    def __repr__(self) -> str:
        return (f"RequestQueue(pending={len(self)}, "
                f"submitted={self.submitted}, popped={self.popped}, "
                f"rejected={self.rejected}, "
                f"expired_dropped={self.expired_dropped})")


def bucketed_length(length: int, bucket_tolerance: int) -> int:
    """The padded sequence length under a bucket tolerance.

    ``bucket_tolerance <= 1`` keeps lengths exact (signatures only match
    between identical length tuples); a tolerance ``t > 1`` rounds each
    length up to the next multiple of ``t``, so at most ``t - 1`` padding
    tokens are added per sequence and any two lengths within the same
    ``t``-bucket produce the same signature entry.  Coarser tolerances
    along a divisibility chain (2, 4, 8, ...) strictly merge buckets, so
    compiled-program reuse is monotone along such chains.
    """
    length = int(length)
    t = int(bucket_tolerance)
    if t <= 1:
        return length
    return -(-length // t) * t


def raggedness_bucket(lengths: Sequence[int]) -> Tuple[int, int, int]:
    """Bucket a raggedness signature to ``(batch, max_len, total_tokens)``,
    each rounded up to a power of two (``(0, 0, 0)`` for no sequences).

    Signatures of similar shape share a bucket, so the scheduler's
    adaptive-tolerance window sees one dominant bucket even when the
    exact length tuples differ.
    """
    lens = [int(x) for x in lengths]
    if not lens:
        return (0, 0, 0)
    return tuple(max(n, 0) if n <= 1 else 1 << (n - 1).bit_length()
                 for n in (len(lens), max(lens), sum(lens)))
