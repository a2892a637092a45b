"""Scalar vs. vectorized codegen backend on the Figure 9 / 10 workloads.

Measures, for the executor-backed compiled kernels:

* wall-time speedup of the vector (NumPy slice / matmul) backend over the
  scalar reference backend on the Figure 9 vgemm and Figure 10 trmm
  workloads (scaled down so the scalar interpreter finishes in seconds --
  the *ratio* is what matters, and it grows with the problem size);
* kernel-cache behaviour: a second ``build_and_run`` of the same schedule
  must perform zero re-lowers;
* the vectorization rate (how many kernels took the fast path vs. fell
  back to scalar) on the compiled ragged-softmax chain.

Writes a human-readable table to ``results/backend_speedup.txt`` and a
machine-readable trajectory artifact to ``results/backend_speedup.json``.

Run directly (``python benchmarks/bench_backend_speedup.py``), with
``--smoke`` for the quick CI configuration, or through pytest.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from harness import BACKENDS, format_row, write_json_result, write_result

from repro.core.executor import Executor
from repro.ops import softmax, trmm, vgemm


def _time_runs(executor: Executor, schedule, inputs, repeats: int) -> float:
    """Best-of-``repeats`` wall time of one compiled-kernel execution."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        executor.build_and_run(schedule, inputs)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_workload(name: str, schedule, inputs, repeats: int) -> dict:
    """Compare both backends on one compiled workload, checking the cache."""
    result = {"workload": name}
    for backend in BACKENDS:
        executor = Executor(backend=backend)
        # Warm-up compiles (and, for the vector backend, verifies that the
        # kernel actually vectorized rather than falling back).
        compiled = executor.compile(schedule)
        if backend == "vector":
            result["vectorized"] = compiled.backend_name == "vector"
        result[f"{backend}_s"] = _time_runs(executor, schedule, inputs, repeats)
        result[f"{backend}_lower_count"] = executor.lower_count
        result[f"{backend}_cache_hits"] = executor.cache_hits
    result["speedup"] = result["scalar_s"] / max(result["vector_s"], 1e-12)
    # The warm-up compile plus `repeats` runs all map to one lowering.
    result["cache_ok"] = (result["vector_lower_count"] == 1
                          and result["vector_cache_hits"] >= repeats)
    return result


def vgemm_case(batch: int, low: int, high: int, repeats: int) -> dict:
    """The Figure 9 vgemm workload: uniform multiple-of-8 dims in [low, high]."""
    problem = vgemm.VgemmProblem(
        ms=vgemm.uniform_multiple_lengths(batch, low, high, 8, seed=0),
        ns=vgemm.uniform_multiple_lengths(batch, low, high, 8, seed=1),
        ks=vgemm.uniform_multiple_lengths(batch, low, high, 8, seed=2),
    )
    a_list, b_list = vgemm.random_instances(problem, seed=3)
    schedule = vgemm.make_vgemm_schedule(problem.ms, problem.ns, problem.ks)
    inputs = vgemm.vgemm_ragged_inputs(a_list, b_list)
    result = bench_workload(f"fig09-vgemm-b{batch}", schedule, inputs, repeats)
    result["ragged_flops"] = problem.ragged_flops()
    return result


def trmm_case(n: int, repeats: int) -> dict:
    """The Figure 10 trmm workload: lower-triangular times dense, size n."""
    lower = trmm.make_lower_triangular(n, seed=0)
    dense = np.random.default_rng(1).standard_normal((n, n)).astype(np.float32)
    schedule = trmm.make_trmm_schedule(n)
    inputs = {"L": lower, "B": dense}
    result = bench_workload(f"fig10-trmm-n{n}", schedule, inputs, repeats)
    result["ragged_flops"] = trmm.trmm_ragged_flops(n, tile=1)
    return result


def softmax_vectorization_rate(batch: int, max_len: int) -> dict:
    """Vectorization rate of the 4-kernel compiled ragged-softmax chain."""
    rng = np.random.default_rng(7)
    lengths = rng.integers(2, max_len + 1, size=batch)
    scores = [rng.standard_normal((4, s, s)).astype(np.float32)
              for s in lengths]
    executor = Executor(backend="vector")
    softmax.softmax_compiled(scores, executor=executor)
    vectorized = executor.backend.vectorized_count
    fallback = executor.backend.fallback_count
    return {
        "workload": f"softmax-chain-b{batch}",
        "kernels_vectorized": vectorized,
        "kernels_fallback": fallback,
        "vectorization_rate": vectorized / max(vectorized + fallback, 1),
    }


def compute_results(smoke: bool = False) -> dict:
    if smoke:
        cases = [vgemm_case(batch=4, low=8, high=24, repeats=2),
                 trmm_case(n=32, repeats=2)]
    else:
        cases = [vgemm_case(batch=8, low=16, high=48, repeats=3),
                 vgemm_case(batch=16, low=24, high=64, repeats=3),
                 trmm_case(n=64, repeats=3)]
    return {
        "cases": cases,
        "softmax": softmax_vectorization_rate(batch=4, max_len=12),
        "smoke": smoke,
    }


def report(results: dict) -> None:
    widths = (20, 12, 12, 10, 12, 10)
    lines = ["Backend speedup: scalar vs vectorized codegen "
             "(Figure 9 vgemm / Figure 10 trmm workloads)"]
    lines.append(format_row(["workload", "scalar ms", "vector ms", "speedup",
                             "vectorized", "cache ok"], widths))
    for case in results["cases"]:
        lines.append(format_row(
            [case["workload"], case["scalar_s"] * 1e3, case["vector_s"] * 1e3,
             case["speedup"], str(case["vectorized"]), str(case["cache_ok"])],
            widths))
    sm = results["softmax"]
    lines.append("")
    lines.append(f"{sm['workload']}: {sm['kernels_vectorized']} kernels "
                 f"vectorized, {sm['kernels_fallback']} fell back "
                 f"(rate {sm['vectorization_rate']:.2f})")
    write_result("backend_speedup", lines)
    write_json_result("backend_speedup", results)


def test_backend_speedup():
    results = compute_results(smoke=False)
    report(results)
    for case in results["cases"]:
        assert case["vectorized"], f"{case['workload']} fell back to scalar"
        assert case["cache_ok"], f"{case['workload']} missed the kernel cache"
    # Acceptance criterion: >= 10x on the Figure 9 vgemm workload.
    vgemm_cases = [c for c in results["cases"] if "vgemm" in c["workload"]]
    assert all(c["speedup"] >= 10.0 for c in vgemm_cases), (
        [round(c["speedup"], 1) for c in vgemm_cases])
    assert results["softmax"]["vectorization_rate"] == 1.0


def main(argv) -> int:
    smoke = "--smoke" in argv
    results = compute_results(smoke=smoke)
    report(results)
    failures = [c["workload"] for c in results["cases"]
                if not (c["vectorized"] and c["cache_ok"])]
    if failures:
        print(f"FAILED: {failures}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
