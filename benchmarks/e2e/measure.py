"""Measurement helpers: percentiles, arrivals, spans and Chrome traces.

Nothing here imports ``repro``; everything is plain arithmetic over numbers
the workloads collected, so ``test_selfcheck.py`` can pin it down alone.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: A tail percentile is reported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

_PERCENTILE_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def highest_supported_percentile(n_samples: int) -> float:
    """The highest percentile of the grid with at least
    ``MIN_SAMPLES_BEYOND`` samples beyond it (50 when even p75 has not)."""
    best = _PERCENTILE_GRID[0]
    for q in _PERCENTILE_GRID:
        # round() guards the count against 1 - q/100 not being exact.
        if round(n_samples * (100.0 - q) / 100.0, 6) >= MIN_SAMPLES_BEYOND:
            best = q
    return best


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def poisson_arrivals(rate_per_s: float, seconds: float,
                     seed: int) -> np.ndarray:
    """Due times (seconds from the start) of a seeded Poisson process."""
    rng = np.random.default_rng(seed)
    expected = rate_per_s * seconds
    gaps = rng.exponential(1.0 / rate_per_s,
                           size=int(expected + 6.0 * np.sqrt(expected) + 16))
    times = np.cumsum(gaps)
    return times[times < seconds]


# -- spans --------------------------------------------------------------------

# Span fields, by index (plain lists: a span is appended per plan step).
NAME, LAYER, START, END, PARENT, OP_ID = range(6)


class Tracer:
    """In-memory span log for one single-threaded traced run.

    ``begin``/``end`` bracket a nested span (its parent is the innermost
    open span); ``leaf`` records an already-timed interval, under the
    innermost open span unless a ``parent`` is named (``-1`` for none: a
    request, which overlaps the steps that serve other requests).
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []

    def begin(self, name: str, layer: str, op_id=None) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, layer, time.perf_counter(), None, parent,
                           op_id])
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._open.pop()

    def leaf(self, name: str, layer: str, start: float, end: float,
             op_id=None, parent: Optional[int] = None) -> int:
        if parent is None:
            parent = self._open[-1] if self._open else -1
        self.spans.append([name, layer, start, end, parent, op_id])
        return len(self.spans) - 1


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per span: its duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        lo, hi = span[START], span[END]
        covered, cursor = 0.0, lo
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, hi)
            if end > start:
                covered += end - start
                cursor = end
        out.append((hi - lo) - covered)
    return out


def subtree_self_sums(spans: Sequence[Sequence],
                      selfs: Sequence[float]) -> List[float]:
    """Per span: the sum of self times over it and every span below it
    (a span is always recorded after its parent)."""
    totals = list(selfs)
    for index in range(len(spans) - 1, -1, -1):
        parent = spans[index][PARENT]
        if parent >= 0:
            totals[parent] += totals[index]
    return totals


def write_chrome_trace(path: str, spans: Sequence[Sequence],
                       meta: Optional[dict] = None) -> None:
    """Write spans as Chrome-trace ``X`` events (loadable in Perfetto and
    ``chrome://tracing``).  Nested spans go on thread 0; request spans,
    which overlap each other, on thread 1.  A span without an operation
    id of its own inherits its nearest ancestor's."""
    if not spans:
        origin = 0.0
    else:
        origin = min(span[START] for span in spans)
    selfs = self_times(spans)
    events = []
    for index, span in enumerate(spans):
        op_id, up = span[OP_ID], span[PARENT]
        while op_id is None and up >= 0:
            op_id, up = spans[up][OP_ID], spans[up][PARENT]
        events.append({
            "name": span[NAME], "cat": span[LAYER], "ph": "X",
            "pid": 1, "tid": 1 if span[LAYER] == "request" else 0,
            "ts": (span[START] - origin) * 1e6,
            "dur": (span[END] - span[START]) * 1e6,
            "args": {"span": index, "parent": span[PARENT], "op_id": op_id,
                     "self_us": selfs[index] * 1e6},
        })
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": meta or {}}, fh)
        fh.write("\n")


def durations(spans: Iterable[Sequence], name: str) -> List[float]:
    return [s[END] - s[START] for s in spans if s[NAME] == name]
