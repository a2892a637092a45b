"""Tests for the simulated devices and the analytical cost model."""

import numpy as np
import pytest

from repro.substrates.costmodel import (
    CostModel,
    KernelLaunch,
    Workload,
    gemm_flops,
    layernorm_flops,
    rank_workloads,
    softmax_flops,
)
from repro.substrates.device import arm_cpu_8core, arm_cpu_64core, intel_cpu, v100_gpu


def launch(flops=1e9, **kw):
    defaults = dict(name="k", flops=flops, bytes_moved=flops / 100.0,
                    parallel_tasks=1 << 20)
    defaults.update(kw)
    return KernelLaunch(**defaults)


class TestDevices:
    def test_presets_sane(self):
        gpu, cpu = v100_gpu(), intel_cpu()
        assert gpu.is_gpu and not cpu.is_gpu
        assert gpu.peak_gflops > cpu.peak_gflops
        assert gpu.parallel_units > 1

    def test_arm_thread_scaling(self):
        assert arm_cpu_64core().peak_gflops > arm_cpu_8core().peak_gflops
        assert arm_cpu_64core(threads=16).parallel_units == 16

    def test_copy_time_zero_on_cpu(self):
        assert intel_cpu().copy_time(1 << 20) == 0.0
        assert v100_gpu().copy_time(1 << 20) > 0.0

    def test_efficiency_classes_ordered(self):
        gpu = v100_gpu()
        assert gpu.efficiency_of("vendor") >= gpu.efficiency_of("handopt")
        assert gpu.efficiency_of("handopt") >= gpu.efficiency_of("compiler")


class TestKernelSeconds:
    def test_monotone_in_flops(self):
        model = CostModel(v100_gpu())
        assert model.kernel_seconds(launch(2e9)) > model.kernel_seconds(launch(1e9))

    def test_memory_bound_kernel(self):
        model = CostModel(v100_gpu())
        small_compute = launch(flops=1e3, bytes_moved=1e9)
        t = model.kernel_seconds(small_compute, include_launch=False)
        assert t == pytest.approx(1e9 / (900.0 * 1e9))

    def test_launch_overhead_only_on_gpu(self):
        gpu = CostModel(v100_gpu())
        cpu = CostModel(intel_cpu())
        k = launch(flops=1.0, bytes_moved=1.0)
        assert gpu.kernel_seconds(k) >= 6e-6
        # CPUs pay no kernel-launch overhead, only the (smaller) thread-pool
        # fork/join cost.
        cpu_dev = intel_cpu()
        expected_sync = cpu_dev.sync_overhead_us_per_unit * cpu_dev.parallel_units * 1e-6
        assert cpu.kernel_seconds(k) == pytest.approx(expected_sync, rel=0.05)

    def test_low_occupancy_penalised(self):
        model = CostModel(v100_gpu())
        full = launch(parallel_tasks=10_000)
        narrow = launch(parallel_tasks=4)
        assert model.kernel_seconds(narrow) > model.kernel_seconds(full)

    def test_indirect_access_overhead(self):
        model = CostModel(v100_gpu())
        plain = launch()
        indirect = launch(indirect_access_overhead=0.5)
        ratio = (model.kernel_seconds(indirect, include_launch=False)
                 / model.kernel_seconds(plain, include_launch=False))
        assert ratio == pytest.approx(1.5, rel=0.05)

    def test_balanced_beats_unbalanced(self):
        """Thread remapping (heavy tasks first) reduces the finish time."""
        model = CostModel(v100_gpu())
        rng = np.random.default_rng(0)
        work = rng.integers(1, 1000, size=200).astype(float)
        # Adversarial order: heaviest tasks last.
        work_sorted_asc = np.sort(work)
        balanced = launch(flops=work.sum(), task_work=work_sorted_asc, balanced=True,
                          parallel_tasks=work.size)
        unbalanced = launch(flops=work.sum(), task_work=work_sorted_asc, balanced=False,
                            parallel_tasks=work.size)
        assert (model.kernel_seconds(balanced, include_launch=False)
                <= model.kernel_seconds(unbalanced, include_launch=False))

    def test_task_work_subsumes_occupancy(self):
        """Few huge tasks cannot use the whole device."""
        model = CostModel(v100_gpu())
        work = np.array([1e9, 1e9])
        k = launch(flops=2e9, task_work=work, parallel_tasks=2)
        dense = launch(flops=2e9)
        assert model.kernel_seconds(k) > model.kernel_seconds(dense)


class TestWorkloads:
    def test_total_is_sum_plus_overheads(self):
        model = CostModel(v100_gpu())
        wl = Workload(name="w", kernels=[launch(), launch()], h2d_bytes=1 << 20,
                      prelude_time_s=1e-3)
        breakdown = model.evaluate(wl)
        assert breakdown.total_s > 2 * model.kernel_seconds(launch(), include_launch=False)
        assert breakdown.copy_s > 0
        assert breakdown.prelude_s == pytest.approx(1e-3)

    def test_dispatch_overhead_scales_with_kernels(self):
        model = CostModel(intel_cpu())
        wl2 = Workload(name="w", kernels=[launch(1e6), launch(1e6)],
                       dispatch_overhead_us=10.0)
        wl4 = Workload(name="w", kernels=[launch(1e6)] * 4,
                       dispatch_overhead_us=10.0)
        assert model.evaluate(wl4).dispatch_s > model.evaluate(wl2).dispatch_s

    def test_hfusion_saves_launches_and_hides_short_kernel(self):
        model = CostModel(v100_gpu())
        big = launch(flops=5e9, parallel_tasks=40, name="big")
        small = launch(flops=1e8, parallel_tasks=10, name="small")
        separate = Workload(name="sep", kernels=[big, small])
        fused_big = launch(flops=5e9, parallel_tasks=40, name="big", hfused_with="g")
        fused_small = launch(flops=1e8, parallel_tasks=10, name="small", hfused_with="g")
        fused = Workload(name="fused", kernels=[fused_big, fused_small])
        assert model.latency_ms(fused) < model.latency_ms(separate)

    def test_hfusion_no_gain_on_cpu(self):
        model = CostModel(arm_cpu_64core())
        a = launch(flops=5e9, parallel_tasks=400, name="a")
        b = launch(flops=5e9, parallel_tasks=400, name="b")
        separate = Workload(name="sep", kernels=[a, b])
        fa = launch(flops=5e9, parallel_tasks=400, name="a", hfused_with="g")
        fb = launch(flops=5e9, parallel_tasks=400, name="b", hfused_with="g")
        fused = Workload(name="fused", kernels=[fa, fb])
        assert model.latency_ms(fused) == pytest.approx(model.latency_ms(separate), rel=1e-6)

    def test_per_kernel_breakdown_keys(self):
        model = CostModel(v100_gpu())
        wl = Workload(name="w", kernels=[launch(name="x"), launch(name="y")])
        breakdown = model.evaluate(wl)
        assert set(breakdown.per_kernel_s) == {"x", "y"}

    def test_workload_totals(self):
        wl = Workload(name="w", kernels=[launch(1e6), launch(2e6)])
        assert wl.total_flops() == pytest.approx(3e6)
        assert wl.total_bytes() > 0


class TestRankingMonotonicity:
    """The monotone relationships analytical schedule ranking
    (:func:`rank_workloads`) relies on: skewing per-task work at
    constant total raises latency, exposing more parallelism never
    raises it, and fewer launches (horizontal fusion) lowers it."""

    def test_more_imbalance_higher_latency(self):
        model = CostModel(intel_cpu())
        total = 1.6e9
        even = np.full(160, total / 160)
        # Same total work concentrated on a handful of tasks.
        skewed = np.zeros(160)
        skewed[:4] = total / 4
        t_even = model.kernel_seconds(
            launch(flops=total, task_work=even, parallel_tasks=160,
                   balanced=False), include_launch=False)
        t_skewed = model.kernel_seconds(
            launch(flops=total, task_work=skewed, parallel_tasks=160,
                   balanced=False), include_launch=False)
        assert t_skewed > t_even

    def test_imbalance_monotone_in_skew(self):
        """Progressively steeper work distributions never get faster."""
        model = CostModel(v100_gpu())
        total = 8e9
        n = 320
        times = []
        for alpha in (0.0, 0.5, 1.0, 2.0, 4.0):
            work = np.linspace(1.0, 1.0 + alpha, n)
            work = work / work.sum() * total
            times.append(model.kernel_seconds(
                launch(flops=total, task_work=work, parallel_tasks=n,
                       balanced=False), include_launch=False))
        assert all(b >= a * (1 - 1e-12)
                   for a, b in zip(times, times[1:]))

    def test_latency_non_increasing_in_parallel_tasks(self):
        model = CostModel(v100_gpu())
        times = [model.kernel_seconds(launch(parallel_tasks=p),
                                      include_launch=False)
                 for p in (1, 4, 16, 64, 80, 1024)]
        assert all(b <= a for a, b in zip(times, times[1:]))

    def test_fewer_launches_lower_latency(self):
        """Splitting one kernel's work across N launches costs (N-1)
        extra launch overheads on the GPU."""
        model = CostModel(v100_gpu())
        one = Workload(name="one", kernels=[launch(flops=4e9)])
        four = Workload(name="four", kernels=[
            launch(flops=1e9, bytes_moved=1e9 / 100.0, name=f"k{i}")
            for i in range(4)])
        assert model.evaluate(four).launch_s > model.evaluate(one).launch_s
        assert model.latency_ms(four) > model.latency_ms(one)

    def test_launch_seconds_counts_groups(self):
        """launch_s is exactly n_groups x launch_overhead_us."""
        device = v100_gpu()
        model = CostModel(device)
        fused = Workload(name="f", kernels=[
            launch(name="a", hfused_with="g"),
            launch(name="b", hfused_with="g"),
            launch(name="c"),
        ])
        assert model.evaluate(fused).launch_s == pytest.approx(
            2 * device.launch_overhead_us * 1e-6)

    def test_rank_workloads_orders_by_latency(self):
        device = v100_gpu()
        slow = Workload(name="slow", kernels=[launch(8e9)])
        fast = Workload(name="fast", kernels=[launch(1e9)])
        mid = Workload(name="mid", kernels=[launch(4e9)])
        order = rank_workloads([slow, fast, mid], device)
        assert order == [1, 2, 0]

    def test_rank_workloads_stable_on_ties(self):
        device = intel_cpu()
        same = [Workload(name=f"w{i}", kernels=[launch(1e9)])
                for i in range(4)]
        assert rank_workloads(same, device) == [0, 1, 2, 3]

    def test_rank_workloads_default_device(self):
        order = rank_workloads([Workload(name="a", kernels=[launch(2e9)]),
                                Workload(name="b", kernels=[launch(1e9)])])
        assert order == [1, 0]


class TestFlopHelpers:
    def test_gemm_flops(self):
        assert gemm_flops(2, 3, 4) == 48

    def test_softmax_and_layernorm_positive(self):
        assert softmax_flops(10, 20) > 0
        assert layernorm_flops(10, 20) > 0
