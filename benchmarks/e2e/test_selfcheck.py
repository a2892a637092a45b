"""Self-test of the benchmark's own arithmetic and bookkeeping.

Run it explicitly (tier-1 collects ``tests/`` only)::

    python -m pytest benchmarks/e2e/test_selfcheck.py -q

The last test runs the whole benchmark in ``--smoke`` mode (about half a minute).
"""

import json
import os
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import worker  # noqa: E402  (puts src/ on sys.path)
import measure  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_percentile_helper_needs_ten_samples_beyond():
    highest = measure.highest_supported_percentile
    assert highest(19) == 50
    assert highest(40) == 75
    assert highest(99) == 75
    assert highest(100) == 90
    assert highest(199) == 90
    assert highest(200) == 95
    assert highest(1000) == 99
    assert highest(10000) == 99.9


def test_arrivals_are_identical_for_a_seed():
    a = measure.poisson_arrivals(700.0, 3.0, [7, 2])
    b = measure.poisson_arrivals(700.0, 3.0, [7, 2])
    assert a.tobytes() == b.tobytes()
    assert a.tobytes() != measure.poisson_arrivals(700.0, 3.0, [8, 2]).tobytes()
    assert np.all(np.diff(a) > 0) and 0 < a[0] and a[-1] < 3.0
    assert abs(len(a) - 2100) < 6 * np.sqrt(2100)


def test_self_time_is_duration_minus_child_coverage():
    tracer = measure.Tracer()
    # operation [0, 10] > run [1, 9] > steps [2, 4], [4, 7]; a request
    # span [0, 12] with a wait [0, 3] stands apart.
    tracer.spans = [
        ["operation", "harness", 0.0, 10.0, -1, 1],
        ["session.run", "session", 1.0, 9.0, 0, None],
        ["L0.proj1", "ops", 2.0, 4.0, 1, None],
        ["L0.sdpa.qkt", "ops", 4.0, 7.0, 1, None],
        ["request", "request", 0.0, 12.0, -1, 42],
        ["queue.wait", "request", 0.0, 3.0, 4, 42],
    ]
    selfs = measure.self_times(tracer.spans)
    assert selfs == [2.0, 3.0, 2.0, 3.0, 9.0, 3.0]
    totals = measure.subtree_self_sums(tracer.spans, selfs)
    assert totals[0] == 10.0 and totals[4] == 12.0
    assert workloads.trace_consistency(tracer, "operation") == 0.0
    # Overlapping children are not counted twice.
    overlapping = [["p", "x", 0.0, 10.0, -1, None],
                   ["a", "x", 1.0, 6.0, 0, None],
                   ["b", "x", 4.0, 8.0, 0, None]]
    assert measure.self_times(overlapping)[0] == 3.0


def test_chrome_trace_round_trips(tmp_path):
    spans = [["operation", "harness", 5.0, 5.5, -1, 3],
             ["session.run", "session", 5.1, 5.4, 0, None]]
    path = tmp_path / "trace.json"
    measure.write_chrome_trace(str(path), spans, {"workload": "x"})
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["operation", "session.run"]
    assert events[1]["args"]["op_id"] == 3      # inherited from the parent
    assert events[0]["ts"] == 0 and abs(events[0]["dur"] - 5e5) < 1e-3


def test_quartile_spread_matches_the_contract():
    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.2, 0.8, 1.0, 1.0]
    import statistics
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert run.quartile_spread(values) == (q3 - q1) / statistics.median(values)


def _tiny_case():
    rng = np.random.default_rng(0)
    config = workloads.SERVE_CONFIG
    weights = workloads.make_weights(config, rng)
    seqs = workloads.random_hidden([5, 9], config.hidden_size, rng)
    layers = [reference.oracle_weights(weights)] * 2
    return reference.encoder_stack(seqs, layers, config.num_heads, True)


def test_corrupted_request_output_counts_as_failed():
    wants = _tiny_case()
    good = [w.astype(np.float32) for w in wants]
    corrupted = good[1].copy()
    corrupted[3, 7] += 1e-2
    results = [good[0], corrupted, object(), None, good[1][:-1]]
    picks = [0, 1, 0, 1, 1]
    completed, wrong, _ = worker.judge_requests(results, picks, wants)
    assert completed.tolist() == [True, False, False, False, False]
    assert wrong == 2                   # the corrupted and the truncated rows
    failed_share = (~completed).sum() / len(results)
    assert failed_share == 0.8
    clean = worker.judge_requests([good[0], good[1]], [0, 1], wants)
    assert clean[0].all() and clean[1] == 0


def test_corrupted_batch_output_fails_every_operation_that_returned_it():
    wants = _tiny_case()
    good = [w.astype(np.float32) for w in wants]
    corrupted = good[1].copy()
    corrupted[0, 0] = np.nan
    assert worker.judge_operations(good, [5, 7], wants)[0] == 0
    assert worker.judge_operations([good[0], corrupted], [5, 7], wants)[0] == 7


def test_smoke_run_prints_exactly_the_declared_names():
    spec = run.load_spec()
    declared_workloads = [w["name"] for w in spec["workloads"]]
    assert set(declared_workloads) == set(workloads.WORKLOADS)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                           "--smoke"], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(os.path.join(HERE, "results", "e2e.json")) as fh:
        runs = json.load(fh)["runs"]
    assert [(r["workload"], r["trace"]) for r in runs] == \
        [(w, t) for w in declared_workloads for t in (0, 1)]
    for r in runs:
        kind = "per_layer" if r["trace"] else "end_to_end"
        assert set(r["metrics"]) == {m["name"] for m in spec[kind]}
        assert r["correct"] and r["failed"] == 0
        assert r["env"]["threads"] == {v: "1" for v in run.THREAD_VARS}
        for m in spec[kind]:      # printed by name, with the declared unit
            assert any(line.split()[:1] == [m["name"]] and m["unit"] in line
                       for line in proc.stdout.splitlines())
        if r["trace"]:
            assert r["metrics"]["executor.vector_fallbacks"] == 0
            assert r["extra"]["trace_self_gap"] <= 0.02
            with open(os.path.join(HERE, "results",
                                   f"trace_{r['workload']}.json")) as fh:
                assert json.load(fh)["traceEvents"]
