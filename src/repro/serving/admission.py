"""Admission control: priority + deadline-aware batch formation, adaptive
bucket tolerance, and the serving-observability primitives.

The FIFO scheduler treats every pending request the same; a production
front end cannot.  This module grows the serving layer three ways:

* **Admission policies** decide *which* pending requests form the next
  batch.  :class:`FifoAdmission` is the seed behaviour, bit for bit.
  :class:`PriorityDeadlineAdmission` orders a bounded *arrival window*
  of the oldest pending requests by (priority class, earliest deadline
  first, arrival) -- so an interactive request submitted behind a pile
  of batch work still makes the next mini-batch -- with an explicit
  starvation bound: a request passed over ``starvation_limit`` times is
  served ahead of everything, whatever its class.  Reordering only
  changes *which* requests share a batch; slot order inside the batch
  stays signature-canonical, so the paper's compiled-program-reuse
  argument is untouched.

* **Adaptive bucket tolerance.**  The scheduler already tracks, live,
  the two quantities the padding trade-off balances: the compiled
  program hit rate (how often a raggedness signature recurs) and the
  padding overhead (wasted padded tokens).  :class:`AdaptiveTolerance`
  is the feedback controller closing that loop: when the recent hit
  rate is poor it widens the tolerance (one power-of-two step, so
  bucket merging stays monotone along the divisibility chain); when the
  recent padding overhead exceeds its budget it narrows.  Bounds are
  explicit, and widening beyond 1 is only legal under causal masking --
  the exactness rule the scheduler already enforces.

* **Observability.**  :class:`LatencyHistogram` is a bounded
  log-bucketed histogram (a long-running server cannot keep a float per
  request) with p50/p99 estimation, and :class:`SimulatedClock` is an
  advanceable monotonic clock that lets benchmarks and tests replay a
  traffic trace in deterministic virtual time -- deadlines, backoff
  sleeps and service times all move on the same injected timeline.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Any, Dict, List

from repro.serving.queue import Request, RequestQueue

#: Conventional priority classes (smaller = more urgent).  Priorities are
#: plain ints; these names just keep call sites readable.
PRIORITY_INTERACTIVE = 0
PRIORITY_STANDARD = 1
PRIORITY_BATCH = 2

_INF = float("inf")


def _urgency(request: Request) -> tuple:
    """Sort key: starved first, then priority class, then EDF, then
    arrival order (request ids are assigned in arrival order)."""
    return (request.priority,
            request.deadline if request.deadline is not None else _INF,
            request.request_id)


class AdmissionPolicy:
    """Strategy deciding which pending requests form the next batch.

    ``select`` removes and returns up to ``k`` requests from the queue
    (possibly expired ones -- the scheduler drops those with
    ``TIMED_OUT`` results and calls ``select`` again to backfill, so a
    policy never needs deadline bookkeeping of its own).
    """

    name = "abstract"

    def select(self, queue: RequestQueue, k: int,
               now: float) -> List[Request]:
        raise NotImplementedError


class FifoAdmission(AdmissionPolicy):
    """Arrival-order batch formation -- the seed scheduler, bit for bit."""

    name = "fifo"

    def select(self, queue: RequestQueue, k: int,
               now: float) -> List[Request]:
        if k <= 0 or not len(queue):
            return []
        return queue.pop(k)


class PriorityDeadlineAdmission(AdmissionPolicy):
    """Priority classes + earliest-deadline-first inside a bounded
    arrival window.

    Parameters
    ----------
    arrival_window:
        How many of the *oldest* pending requests compete for the next
        batch.  A later arrival can only jump ahead once it enters the
        window, so head-of-line blocking is relieved without unbounded
        reordering.
    starvation_limit:
        A candidate passed over this many selection rounds is promoted
        ahead of every priority class -- the explicit starvation bound.
        (Within the promoted set, ordering is still priority + EDF.)
    """

    name = "priority_edf"

    def __init__(self, arrival_window: int = 32,
                 starvation_limit: int = 4) -> None:
        if arrival_window < 1:
            raise ValueError(
                f"arrival_window must be >= 1, got {arrival_window}")
        if starvation_limit < 1:
            raise ValueError(
                f"starvation_limit must be >= 1, got {starvation_limit}")
        self.arrival_window = int(arrival_window)
        self.starvation_limit = int(starvation_limit)

    def select(self, queue: RequestQueue, k: int,
               now: float) -> List[Request]:
        if k <= 0:
            return []
        candidates = queue.peek(self.arrival_window)
        if not candidates:
            return []
        ranked = sorted(
            candidates,
            key=lambda r: (0 if r.skips >= self.starvation_limit else 1,
                           *_urgency(r)))
        chosen = ranked[:k]
        taken = set(id(r) for r in chosen)
        for request in candidates:
            if id(request) not in taken:
                request.skips += 1
        queue.take(chosen)
        return chosen


def get_admission_policy(policy) -> AdmissionPolicy:
    """Resolve an admission policy from a name or an instance."""
    if isinstance(policy, AdmissionPolicy):
        return policy
    if policy in (None, "fifo"):
        return FifoAdmission()
    if policy in ("priority_edf", "edf"):
        return PriorityDeadlineAdmission()
    raise ValueError(
        f"unknown admission policy {policy!r}; expected 'fifo', "
        "'priority_edf', or an AdmissionPolicy instance")


class AdaptiveTolerance:
    """Feedback controller for the scheduler's ``bucket_tolerance``.

    Every ``interval`` batches the scheduler hands the controller the
    *window* (since the previous adjustment) compiled-program hit rate
    and padding overhead; the controller answers with the next
    tolerance:

    * overhead above ``max_padding_overhead`` -> halve (padding is
      costing more compute than signature reuse is saving);
    * one raggedness bucket dominating the window's batches (share >=
      ``dominance_hold``, passed as ``dominant_share`` by the scheduler)
      -> hold, even if the hit rate alone would have widened: the
      dominant bucket already recurs, so widening buys little reuse;
    * hit rate below ``target_hit_rate`` (and overhead in budget) ->
      double (traffic is too length-diverse for the current buckets);
    * otherwise hold.

    Moves are power-of-two steps, so successive tolerances form a
    divisibility chain and bucket merging stays monotone (see
    :func:`repro.serving.queue.bucketed_length`).  The exactness rule is
    inherited from the scheduler: tolerances above 1 require causal
    masking, so an unmasked scheduler must keep ``max_tolerance == 1``.
    """

    def __init__(self, min_tolerance: int = 1, max_tolerance: int = 16,
                 interval: int = 8, target_hit_rate: float = 0.5,
                 max_padding_overhead: float = 0.25,
                 dominance_hold: float = 0.75) -> None:
        if min_tolerance < 1:
            raise ValueError(
                f"min_tolerance must be >= 1, got {min_tolerance}")
        if max_tolerance < min_tolerance:
            raise ValueError(
                f"max_tolerance ({max_tolerance}) must be >= min_tolerance "
                f"({min_tolerance})")
        if interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        if not 0.0 <= target_hit_rate <= 1.0:
            raise ValueError(
                f"target_hit_rate must be in [0, 1], got {target_hit_rate}")
        if max_padding_overhead < 0:
            raise ValueError(
                f"max_padding_overhead must be >= 0, got "
                f"{max_padding_overhead}")
        if not 0.0 <= dominance_hold <= 1.0:
            raise ValueError(
                f"dominance_hold must be in [0, 1], got {dominance_hold}")
        self.min_tolerance = int(min_tolerance)
        self.max_tolerance = int(max_tolerance)
        self.interval = int(interval)
        self.target_hit_rate = float(target_hit_rate)
        self.max_padding_overhead = float(max_padding_overhead)
        self.dominance_hold = float(dominance_hold)
        #: one entry per adjustment decision (including holds), each
        #: ``{"batch", "tolerance", "proposed", "hit_rate", "overhead"}``
        self.trajectory: List[Dict[str, Any]] = []

    def propose(self, current: int, hit_rate: float,
                padding_overhead: float,
                dominant_share: float = None) -> int:
        if padding_overhead > self.max_padding_overhead \
                and current > self.min_tolerance:
            return max(current // 2, self.min_tolerance)
        if dominant_share is not None \
                and dominant_share >= self.dominance_hold:
            # One bucket owns the window's traffic: it recurs by
            # definition, so widening cannot buy much reuse.  Hold
            # (narrowing above still applies: the padding budget is a
            # hard constraint).
            return current
        if hit_rate < self.target_hit_rate and current < self.max_tolerance:
            return min(max(current, 1) * 2, self.max_tolerance)
        return current

    def record(self, batch: int, current: int, proposed: int,
               hit_rate: float, padding_overhead: float) -> None:
        self.trajectory.append({
            "batch": int(batch),
            "tolerance": int(current),
            "proposed": int(proposed),
            "hit_rate": float(hit_rate),
            "overhead": float(padding_overhead),
        })


class LatencyHistogram:
    """A bounded log-bucketed latency histogram (seconds).

    Bucket edges are log-spaced between ``min_s`` and ``max_s``;
    everything below the first edge lands in bucket 0, everything above
    the last in the final bucket.  Percentiles are interpolated inside
    the bucket where the cumulative count crosses the quantile (never
    beyond the largest value recorded) -- an estimate off by at most one
    bucket width, at O(buckets) memory however many requests are
    recorded.
    """

    def __init__(self, min_s: float = 1e-5, max_s: float = 1e4,
                 buckets_per_decade: int = 8) -> None:
        if min_s <= 0 or max_s <= min_s:
            raise ValueError(
                f"need 0 < min_s < max_s, got {min_s}, {max_s}")
        if buckets_per_decade < 1:
            raise ValueError(
                f"buckets_per_decade must be >= 1, got {buckets_per_decade}")
        decades = math.log10(max_s / min_s)
        n = max(1, int(round(decades * buckets_per_decade)))
        self.edges = [min_s * (max_s / min_s) ** (i / n)
                      for i in range(n + 1)]
        self.counts = [0] * (n + 1)
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0

    def record(self, value: float) -> None:
        value = float(value)
        if value < 0:
            value = 0.0
        # Bucket i holds (edges[i-1], edges[i]]; the last also the overflow.
        idx = min(bisect_left(self.edges, value), len(self.counts) - 1)
        self.counts[idx] += 1
        self.count += 1
        self.total += value
        if value > self.max_value:
            self.max_value = value

    def percentile(self, q: float) -> float:
        """Estimate of the ``q``-quantile (``q`` in [0, 1]): the crossing
        bucket's share of the count, laid linearly between its edges."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        threshold = q * self.count
        seen = 0
        for idx, count in enumerate(self.counts):
            if count and seen + count >= threshold:
                lo = self.edges[idx - 1] if idx else 0.0
                hi = self.edges[idx]
                if idx == len(self.counts) - 1:     # holds the overflow
                    hi = max(hi, self.max_value)
                return min(lo + (hi - lo) * (threshold - seen) / count,
                           self.max_value)
            seen += count
        return self.max_value

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_s": self.total / self.count if self.count else 0.0,
            "p50_s": self.percentile(0.50),
            "p99_s": self.percentile(0.99),
            "max_s": self.max_value,
        }


class SimulatedClock:
    """An advanceable monotonic clock for replaying traffic traces.

    Callable (so it drops into every ``clock=`` parameter); ``advance``
    moves virtual time forward -- the scheduler's optional service-time
    model calls it during batch execution, and an injected ``sleeper``
    bound to :meth:`advance` turns retry-backoff sleeps into virtual
    time too, so a whole drain replays deterministically with no real
    waiting.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    def now(self) -> float:
        return self._now

    def advance(self, dt: float) -> None:
        if dt < 0:
            raise ValueError(f"cannot advance time backwards (dt={dt})")
        self._now += float(dt)

    def advance_to(self, t: float) -> None:
        if t > self._now:
            self._now = float(t)

    def __repr__(self) -> str:
        return f"SimulatedClock(now={self._now:.6f})"


__all__ = [
    "AdmissionPolicy",
    "FifoAdmission",
    "PriorityDeadlineAdmission",
    "AdaptiveTolerance",
    "LatencyHistogram",
    "SimulatedClock",
    "get_admission_policy",
    "PRIORITY_INTERACTIVE",
    "PRIORITY_STANDARD",
    "PRIORITY_BATCH",
]
