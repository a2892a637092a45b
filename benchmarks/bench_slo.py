"""SLO benchmark: admission-controlled serving vs. FIFO at simulated
production scale.

A seeded, replayable traffic trace -- alternating Poisson and bursty
arrival phases over a mixed length distribution, with per-class
deadlines (interactive / standard / batch) -- is replayed in
deterministic *virtual* time against two scheduler configurations over
identical requests:

* ``fifo``: the seed scheduler (arrival-order admission, reject-newest
  shed, fixed bucket tolerance);
* ``slo``: priority + earliest-deadline-first admission within a
  starvation-bounded arrival window, doomed-drop (requests predicted --
  via the live service-time EWMA -- to miss their deadline are shed at
  formation instead of completing late), lowest-priority-latest-deadline
  shed, and the adaptive bucket-tolerance controller starting narrow
  and widening as traffic diversity demands.

Virtual time moves on a :class:`repro.serving.SimulatedClock`: a
deterministic service-time model advances the clock as each batch
executes (the math itself is still executed for real -- outputs are
bit-checked), so queueing dynamics, deadline expiry, and backpressure
replay identically on every run.  Reported per configuration: goodput
(completed within deadline), p50/p99 queue and end-to-end latency per
priority class, the shed/timeout/late breakdown, and the adaptive
tolerance trajectory.

Writes ``benchmarks/results/bench_slo.{txt,json}``; a full run also
refreshes the committed repo-root ``BENCH_SLO.json`` trajectory
artifact (~10^5 requests).  With ``--smoke`` a reduced trace runs and
the CI gate asserts: every request resolves to exactly one terminal
answer, the SLO configuration achieves strictly higher goodput than
FIFO under deadline pressure, and every surviving output is
bit-identical to a direct program execution (``replay_bit_identical``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from repro.core.session import Session
from repro.models.config import TransformerConfig
from repro.models.transformer import EncoderWeights
from repro.serving import (
    AdaptiveTolerance,
    BatchScheduler,
    FailedResult,
    SimulatedClock,
)

from harness import format_row, write_json_result, write_result

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CONFIG = TransformerConfig(hidden_size=16, num_heads=2, head_size=8,
                           ff_size=32, num_layers=2, loop_pad=4, bulk_pad=8,
                           attention_tile=8)

#: Priority classes with their traffic mix and relative deadlines.
CLASSES = (
    {"name": "interactive", "priority": 0, "share": 0.2, "deadline_s": 0.05},
    {"name": "standard", "priority": 1, "share": 0.5, "deadline_s": 0.20},
    {"name": "batch", "priority": 2, "share": 0.3, "deadline_s": 2.0},
)

#: Deterministic service-time model (virtual seconds per batch): a fixed
#: dispatch cost plus a per-padded-token cost, mirroring the compiled
#: program's work.  ~8 requests of mean length ~17 per batch => roughly
#: 1 ms of virtual service per request.
SERVICE_BASE_S = 2e-3
SERVICE_PER_TOKEN_S = 5e-5


def _service_model(batch) -> float:
    return SERVICE_BASE_S + SERVICE_PER_TOKEN_S * sum(batch.padded_lengths)


def generate_trace(num_requests: int, seed: int = 0):
    """The seeded traffic trace: (arrival_time, hidden, priority,
    deadline_s) per request, sorted by arrival.

    Arrivals alternate between a Poisson phase (mean rate just above the
    service capacity, so queues build slowly) and a bursty phase (tight
    request clumps far above capacity, so deadline pressure spikes).
    Lengths are bimodal -- mostly short interactive-style sequences with
    a long tail -- so the raggedness signatures the tolerance controller
    sees are genuinely diverse.
    """
    rng = np.random.default_rng(seed)
    shares = [c["share"] for c in CLASSES]
    trace = []
    now = 0.0
    phase_left = 0
    in_burst = False
    for _ in range(num_requests):
        if phase_left == 0:
            in_burst = not in_burst
            phase_left = int(rng.integers(50, 150)) if in_burst \
                else int(rng.integers(200, 400))
        phase_left -= 1
        if in_burst:
            now += float(rng.exponential(1.0 / 4000.0))
        else:
            now += float(rng.exponential(1.0 / 1100.0))
        if rng.random() < 0.75:
            length = int(rng.integers(4, 17))
        else:
            length = int(rng.integers(24, 49))
        cls = CLASSES[int(rng.choice(len(CLASSES), p=shares))]
        hidden = rng.standard_normal(
            (length, CONFIG.hidden_size)).astype(np.float32)
        trace.append((now, hidden, cls["priority"], cls["deadline_s"]))
    return trace


WEIGHTS = EncoderWeights.random(CONFIG, seed=1)


def make_scheduler(mode: str, clock: SimulatedClock,
                   log_batches: bool = False) -> BatchScheduler:
    session = Session(backend="vector")
    common = dict(session=session, masked=True, n_layers=2,
                  max_batch_size=8, queue_capacity=256, clock=clock,
                  sleeper=clock.advance, service_model=_service_model,
                  log_batches=log_batches)
    if mode == "fifo":
        return BatchScheduler(WEIGHTS, CONFIG, bucket_tolerance=8,
                              admission="fifo", shed_policy="reject_newest",
                              **common)
    # The SLO configuration: priority+EDF admission with doomed-drop,
    # value-aware shedding, and the tolerance controller starting
    # *narrow* (2) and widening only as traffic diversity demands.
    return BatchScheduler(WEIGHTS, CONFIG, bucket_tolerance=2,
                          admission="priority_edf",
                          shed_policy="shed_low_priority",
                          drop_doomed=True,
                          adaptive_tolerance=AdaptiveTolerance(
                              min_tolerance=2, max_tolerance=16,
                              interval=32),
                          **common)


def replay(scheduler: BatchScheduler, trace, clock: SimulatedClock):
    """Drive the trace through the scheduler in virtual time.

    Requests are submitted when the clock reaches their arrival time;
    between arrivals the scheduler steps (each step's service time
    advances the clock), so queue depth, deadline expiry and shed
    pressure evolve exactly as they would on a wall clock -- but
    deterministically.
    """
    results = {}
    ids = []
    next_arrival = 0
    t0 = time.perf_counter()
    while next_arrival < len(trace) or scheduler.pending:
        while next_arrival < len(trace) \
                and trace[next_arrival][0] <= clock.now():
            _, hidden, priority, deadline_s = trace[next_arrival]
            ids.append(scheduler.submit(hidden, priority=priority,
                                        deadline_s=deadline_s))
            next_arrival += 1
        if scheduler.pending:
            results.update(scheduler.step())
        elif next_arrival < len(trace):
            clock.advance_to(trace[next_arrival][0])
    results.update(scheduler.step())  # flush shed-result stragglers
    wall_s = time.perf_counter() - t0
    return ids, results, wall_s


def summarize(scheduler: BatchScheduler, ids, results, wall_s,
              clock: SimulatedClock) -> dict:
    stats = scheduler.stats()
    completed = sum(1 for r in ids
                    if not isinstance(results[r], FailedResult))
    by_class = {}
    for cls in CLASSES:
        hists = stats["latency_by_priority"].get(cls["priority"])
        if hists is None:
            continue
        by_class[cls["name"]] = {
            "completed": hists["total"]["count"],
            "queue_p50_s": hists["queue"]["p50_s"],
            "queue_p99_s": hists["queue"]["p99_s"],
            "total_p50_s": hists["total"]["p50_s"],
            "total_p99_s": hists["total"]["p99_s"],
        }
    return {
        "requests": len(ids),
        "completed": completed,
        "goodput_requests": stats["goodput_requests"],
        "goodput_fraction": stats["goodput_requests"] / len(ids),
        "late_completions": stats["late_completions"],
        "timed_out": stats["timed_out_requests"],
        "doomed_dropped": stats["doomed_dropped"],
        "rejected": stats["rejected_requests"],
        "failed": stats["failed_requests"],
        "num_batches": stats["num_batches"],
        "padding_overhead": stats["padding_overhead"],
        "final_bucket_tolerance": stats["bucket_tolerance"],
        "tolerance_adjustments": stats["tolerance_adjustments"],
        "distinct_signatures": stats["distinct_signatures"],
        "signature_hits": stats["signature_hits"],
        "signature_misses": stats["signature_misses"],
        "virtual_s": clock.now(),
        "wall_s": wall_s,
        "latency_by_class": by_class,
        "exactly_once": sorted(results) == sorted(ids),
    }


def run_benchmark(smoke: bool = False) -> dict:
    num_requests = 400 if smoke else 100_000
    trace = generate_trace(num_requests, seed=0)

    payload = {
        "config": {
            "num_requests": num_requests,
            "classes": [dict(c) for c in CLASSES],
            "service_base_s": SERVICE_BASE_S,
            "service_per_token_s": SERVICE_PER_TOKEN_S,
            "queue_capacity": 256,
            "max_batch_size": 8,
        },
        "modes": {},
    }

    for mode in ("fifo", "slo"):
        clock = SimulatedClock()
        scheduler = make_scheduler(mode, clock, log_batches=smoke)
        ids, results, wall_s = replay(scheduler, trace, clock)
        entry = summarize(scheduler, ids, results, wall_s, clock)
        if smoke:
            entry["replay_bit_identical"] = \
                scheduler.replay_bit_identical(results)
        if mode == "slo" and scheduler.adaptive_tolerance is not None:
            payload["tolerance_trajectory"] = \
                scheduler.adaptive_tolerance.trajectory
        payload["modes"][mode] = entry

    fifo, slo = payload["modes"]["fifo"], payload["modes"]["slo"]
    payload["goodput_gain"] = (slo["goodput_fraction"]
                               - fifo["goodput_fraction"])

    widths = [8, 10, 10, 8, 8, 8, 8, 10, 10]
    rows = [format_row(["mode", "requests", "goodput", "late", "timeout",
                        "shed", "failed", "pad ovhd", "final tol"], widths)]
    for mode in ("fifo", "slo"):
        e = payload["modes"][mode]
        rows.append(format_row(
            [mode, e["requests"], f"{e['goodput_fraction']:.1%}",
             e["late_completions"], e["timed_out"], e["rejected"],
             e["failed"], f"{e['padding_overhead']:.2f}",
             e["final_bucket_tolerance"]], widths))
    rows.append("")
    lat_widths = [8, 14, 12, 12, 12, 12]
    rows.append(format_row(["mode", "class", "queue p50", "queue p99",
                            "e2e p50", "e2e p99"], lat_widths))
    for mode in ("fifo", "slo"):
        for name, lat in payload["modes"][mode]["latency_by_class"].items():
            rows.append(format_row(
                [mode, name, f"{lat['queue_p50_s'] * 1e3:.1f}ms",
                 f"{lat['queue_p99_s'] * 1e3:.1f}ms",
                 f"{lat['total_p50_s'] * 1e3:.1f}ms",
                 f"{lat['total_p99_s'] * 1e3:.1f}ms"], lat_widths))
    rows.append("")
    rows.append(f"goodput gain (slo - fifo): {payload['goodput_gain']:+.1%}")

    write_result("bench_slo", rows)
    write_json_result("bench_slo", payload)
    if not smoke:
        # the committed trajectory artifact tracks the full trace only;
        # CI smoke runs must not clobber it with reduced-trace numbers
        with open(os.path.join(_REPO_ROOT, "BENCH_SLO.json"), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced trace + assert the SLO gate")
    args = parser.parse_args(argv)
    payload = run_benchmark(smoke=args.smoke)
    fifo, slo = payload["modes"]["fifo"], payload["modes"]["slo"]
    if args.smoke:
        for mode, entry in payload["modes"].items():
            assert entry["exactly_once"], (
                f"{mode}: a request resolved zero or multiple times")
            assert entry["replay_bit_identical"], (
                f"{mode}: a survivor's output differs from direct "
                "Session.run execution")
        assert slo["goodput_fraction"] > fifo["goodput_fraction"], (
            "SLO-aware scheduling did not beat FIFO goodput under "
            f"deadline pressure ({slo['goodput_fraction']:.1%} vs "
            f"{fifo['goodput_fraction']:.1%})")
        print("smoke checks passed: exactly-once terminal resolution in "
              "both modes, survivors bit-identical to direct execution, "
              f"goodput {fifo['goodput_fraction']:.1%} (fifo) -> "
              f"{slo['goodput_fraction']:.1%} (slo)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
