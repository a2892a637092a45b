"""Chaos benchmark: the fault-injection matrix over the serving stack.

A mixed ragged request stream is first drained fault-free to establish
the reference outputs, then re-drained once per fault class with a
deterministic :class:`repro.serving.FaultInjector` armed at one named
injection point:

* ``compile``  -- program compilation fails for a signature; the batch
  must degrade to the retained op-by-op path and recover everyone;
* ``run``      -- one poison request makes every batch containing it
  raise; bisection must isolate exactly that request (``FAILED``) while
  its batchmates re-run and complete;
* ``run/corrupt`` -- the same, but via a shape-corrupted batch output
  caught by output validation;
* ``demux``    -- the overlap-demux worker corrupts/raises; the demux
  must retry synchronously and recover everyone.

For every class the drain must *complete*, only the poisoned request may
fail, and every other request's output must be **bit-identical** to the
fault-free reference -- fault isolation may cost extra batch runs (the
``isolation_runs`` column) but never numerics.  A final chaos sweep arms
probability faults at every point simultaneously and reports the
recovery rate and isolation overhead.

Writes ``benchmarks/results/bench_faults.{txt,json}``.  With ``--smoke``
a reduced stream runs and the matrix assertions above are enforced --
this is the CI gate for the fault-tolerance layer.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.core.errors import CompileError, ExecutionError
from repro.core.session import Session
from repro.models.config import TransformerConfig
from repro.models.transformer import EncoderWeights
from repro.serving import BatchScheduler, FailedResult, FaultInjector

from harness import format_row, write_json_result, write_result


def _request_stream(num_requests: int, config: TransformerConfig,
                    seed: int = 0):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(4, 33, size=num_requests)
    return [rng.standard_normal((int(n), config.hidden_size))
            .astype(np.float32) for n in lengths]


def _make_scheduler(weights, config, injector=None, *,
                    overlap_demux=False, max_batch=4, max_retries=0):
    session = Session(backend="vector", fault_injector=injector)
    return BatchScheduler(weights, config, session=session, masked=True,
                          n_layers=2, max_batch_size=max_batch,
                          bucket_tolerance=4, overlap_demux=overlap_demux,
                          max_retries=max_retries)


def _drain(scheduler, stream):
    ids = scheduler.submit_many(stream)
    t0 = time.perf_counter()
    results = scheduler.drain()
    elapsed = time.perf_counter() - t0
    return ids, results, elapsed


def _compare(ref_ids, ref_results, ids, results, expected_failures):
    """Check the matrix invariants of one faulted drain."""
    failed = sorted(rid for rid in ids
                    if isinstance(results[rid], FailedResult))
    identical = 0
    mismatched = 0
    for a, b in zip(ref_ids, ids):
        if b in failed:
            continue
        if isinstance(results[b], np.ndarray) and \
                np.array_equal(ref_results[a], results[b]):
            identical += 1
        else:
            mismatched += 1
    expected = sorted(ids[i] for i in expected_failures)
    return {
        "completed": len(ids) - len(failed),
        "bit_identical": identical,
        "failed": failed,
        "expected_failed": expected,
        "only_expected_failed": failed == expected,
        "others_bit_identical": mismatched == 0,
        "recovery_rate": (len(ids) - len(failed)) / len(ids),
    }


def run_benchmark(smoke: bool = False) -> dict:
    config = TransformerConfig(hidden_size=64, num_heads=4, head_size=16,
                               ff_size=128, num_layers=2, loop_pad=4,
                               bulk_pad=16, attention_tile=8)
    num_requests = 16 if smoke else 48
    weights = EncoderWeights.random(config, seed=1)
    stream = _request_stream(num_requests, config, seed=0)
    poison_slot = 5  # the request the poison fault classes target

    # Fault-free reference drain.
    reference = _make_scheduler(weights, config)
    ref_ids, ref_results, ref_s = _drain(reference, stream)
    assert all(isinstance(ref_results[r], np.ndarray) for r in ref_ids)
    ref_batches = reference.stats()["num_batches"]

    def injected(name):
        injector = FaultInjector(seed=7)
        if name == "compile":
            injector.add("compile", error=CompileError, max_fires=1)
            return injector, _make_scheduler(weights, config, injector), []
        if name == "run":
            injector.add("run", request_id=poison_slot,
                         error=ExecutionError, max_fires=None)
            return injector, _make_scheduler(weights, config, injector), \
                [poison_slot]
        if name == "run/corrupt":
            injector.add("run", request_id=poison_slot, action="corrupt",
                         max_fires=None)
            return injector, _make_scheduler(weights, config, injector), \
                [poison_slot]
        if name == "demux":
            injector.add("demux", action="corrupt", max_fires=1)
            return injector, _make_scheduler(weights, config, injector,
                                             overlap_demux=True), []
        raise ValueError(name)

    payload = {
        "config": {"num_requests": num_requests,
                   "reference_batches": ref_batches,
                   "reference_drain_s": ref_s},
        "matrix": {},
        "chaos": {},
    }

    widths = [18, 10, 8, 10, 10, 10, 10, 12]
    rows = [format_row(["fault class", "completed", "failed", "recovery",
                        "iso runs", "degraded", "recovered", "bitident"],
                       widths)]

    for name in ("compile", "run", "run/corrupt", "demux"):
        injector, scheduler, expected_failures = injected(name)
        ids, results, elapsed = _drain(scheduler, stream)
        stats = scheduler.stats()
        entry = _compare(ref_ids, ref_results, ids, results,
                         expected_failures)
        entry.update({
            "drain_s": elapsed,
            "isolation_runs": stats["isolation_runs"],
            "extra_batches": stats["num_batches"] + stats["isolation_runs"]
            - ref_batches,
            "degraded_batches": stats["degraded_batches"],
            "demux_recoveries": stats["demux_recoveries"],
            "injector_fires": injector.stats()["fires"],
            "drain_completed": True,
        })
        payload["matrix"][name] = entry
        rows.append(format_row(
            [name, entry["completed"], len(entry["failed"]),
             f"{entry['recovery_rate']:.0%}", entry["isolation_runs"],
             entry["degraded_batches"],
             entry["demux_recoveries"],
             "yes" if entry["others_bit_identical"] else "NO"],
            widths))
        scheduler.close()

    # Chaos sweep: probability faults armed at every point at once; every
    # request gets a retry budget.  The drain must still complete with
    # every request terminal.
    chaos = FaultInjector(seed=13)
    chaos.add("compile", error=CompileError, probability=0.2, max_fires=None)
    chaos.add("run", error=ExecutionError, probability=0.1, max_fires=None)
    chaos.add("demux", action="corrupt", probability=0.2, max_fires=None)
    scheduler = _make_scheduler(weights, config, chaos, overlap_demux=True,
                                max_retries=2)
    ids, results, elapsed = _drain(scheduler, stream)
    stats = scheduler.stats()
    failed = [rid for rid in ids if isinstance(results[rid], FailedResult)]
    payload["chaos"] = {
        "drain_completed": True,
        "all_terminal": sorted(results) == sorted(ids),
        "completed": len(ids) - len(failed),
        "failed": len(failed),
        "recovery_rate": (len(ids) - len(failed)) / len(ids),
        "isolation_runs": stats["isolation_runs"],
        "degraded_batches": stats["degraded_batches"],
        "retries": stats["retries"],
        "demux_recoveries": stats["demux_recoveries"],
        "injector_fires": chaos.stats()["fires"],
        "drain_s": elapsed,
    }
    scheduler.close()
    rows.append("")
    rows.append(format_row(
        ["chaos (all)", payload["chaos"]["completed"],
         payload["chaos"]["failed"],
         f"{payload['chaos']['recovery_rate']:.0%}",
         payload["chaos"]["isolation_runs"],
         payload["chaos"]["degraded_batches"],
         payload["chaos"]["retries"] + payload["chaos"]["demux_recoveries"],
         "-"],
        widths))

    write_result("bench_faults", rows)
    write_json_result("bench_faults", payload)
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced stream + assert the fault matrix")
    args = parser.parse_args(argv)
    payload = run_benchmark(smoke=args.smoke)
    if args.smoke:
        for name, entry in payload["matrix"].items():
            assert entry["drain_completed"], f"{name}: drain did not complete"
            assert entry["only_expected_failed"], (
                f"{name}: failed set {entry['failed']} != expected "
                f"{entry['expected_failed']}")
            assert entry["others_bit_identical"], (
                f"{name}: a non-poisoned request's output changed under "
                "fault injection")
        assert payload["matrix"]["compile"]["degraded_batches"] >= 1
        assert payload["matrix"]["run"]["isolation_runs"] >= 1
        assert payload["matrix"]["demux"]["demux_recoveries"] >= 1
        chaos = payload["chaos"]
        assert chaos["all_terminal"], (
            "chaos drain lost a request (not exactly-once)")
        print("smoke checks passed: drain completes under every fault "
              "class, only the poisoned request fails, all other outputs "
              "bit-identical, every recovery counter engaged, chaos drain "
              f"exactly-once (recovery {chaos['recovery_rate']:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
