"""Analytical cost model for multi-kernel workloads.

The operator library and the transformer model describe their execution as a
sequence of :class:`KernelLaunch` objects -- each with a FLOP count, bytes
moved, an implementation class (vendor / hand-optimized / compiler /
framework), the number of independent parallel tasks it exposes and an
optional per-task work distribution for load-imbalance modelling.  A
:class:`Workload` groups launches (with optional host-to-device copies and
framework per-op dispatch overheads), and :class:`CostModel` turns a
workload plus a :class:`~repro.substrates.device.Device` into a latency.

Modelled effects (each tied to a phenomenon discussed in the paper):

* **wasted computation** -- callers pass padded vs. minimal FLOPs
  (Figures 2, 9-11, 22);
* **kernel launch overhead** -- more, smaller kernels cost more on the GPU;
  fusion reduces the launch count (Figure 3, Figure 12);
* **load imbalance** -- a parallel loop whose iterations have very different
  amounts of work finishes when its slowest unit finishes; thread remapping
  (sorting heavy iterations first) reduces the imbalance (Figure 10);
* **occupancy** -- a kernel exposing fewer parallel tasks than the device
  has units cannot use the whole machine; operation splitting reduces
  parallelism, horizontal fusion restores it (Figures 14, 20, 21);
* **indirect-access overhead** -- kernels that read prelude-built auxiliary
  arrays inside their inner loops pay a small per-FLOP penalty, removed by
  load hoisting (Figure 23);
* **host-to-device copies and prelude time** (Section 7.4, Tables 7-8).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.substrates.device import Device


@dataclass
class KernelLaunch:
    """One device kernel in a workload."""

    name: str
    flops: float
    bytes_moved: float
    impl_class: str = "compiler"
    #: number of independent tasks (thread blocks / parallel loop iterations)
    parallel_tasks: int = 1 << 20
    #: optional per-task work (same units as flops); used for imbalance
    task_work: Optional[np.ndarray] = None
    #: whether heavy tasks are scheduled first (thread remapping / sorting)
    balanced: bool = True
    #: fraction of extra work due to indirect auxiliary-array accesses
    indirect_access_overhead: float = 0.0
    #: kernels horizontally fused with this one share a single launch
    hfused_with: Optional[str] = None

    def effective_flops(self) -> float:
        return self.flops * (1.0 + self.indirect_access_overhead)


@dataclass
class Workload:
    """A sequence of kernels plus host-side overheads."""

    name: str
    kernels: List[KernelLaunch] = field(default_factory=list)
    #: bytes of auxiliary data copied host-to-device before the kernels run
    h2d_bytes: float = 0.0
    #: host-side prelude time in seconds (measured, not modelled)
    prelude_time_s: float = 0.0
    #: per-operator framework dispatch overhead (for framework baselines)
    dispatch_overhead_us: float = 0.0

    def add(self, kernel: KernelLaunch) -> "Workload":
        self.kernels.append(kernel)
        return self

    def total_flops(self) -> float:
        return float(sum(k.flops for k in self.kernels))

    def total_bytes(self) -> float:
        return float(sum(k.bytes_moved for k in self.kernels))


@dataclass
class CostBreakdown:
    """Latency of a workload broken down per kernel (seconds)."""

    total_s: float
    per_kernel_s: Dict[str, float]
    launch_s: float
    copy_s: float
    prelude_s: float
    dispatch_s: float

    @property
    def total_ms(self) -> float:
        return self.total_s * 1e3


class CostModel:
    """Evaluates workloads on a simulated device."""

    def __init__(self, device: Device):
        self.device = device

    # -- single kernel ---------------------------------------------------------

    def kernel_seconds(self, kernel: KernelLaunch, include_launch: bool = True) -> float:
        device = self.device
        eff = device.efficiency_of(kernel.impl_class)
        peak = device.peak_gflops * 1e9 * eff

        # Occupancy: a kernel with fewer parallel tasks than units cannot
        # saturate the device.
        tasks = max(int(kernel.parallel_tasks), 1)
        occupancy = min(1.0, tasks / device.parallel_units)

        if kernel.task_work is not None and kernel.task_work.size > 0:
            # Load imbalance: distribute the per-task work w_i over the U
            # units and finish when the most-loaded unit finishes.
            # Scheduling heavy tasks first (LPT -- what thread remapping /
            # sorting by length achieves) approaches the ideal sum/U;
            # unbalanced scheduling assigns tasks greedily in the given
            # order.  The finish time is  max_load / (peak / U), which also
            # subsumes the occupancy penalty when there are fewer tasks than
            # units.
            work = np.asarray(kernel.task_work, dtype=np.float64)
            units = device.parallel_units
            total_work = float(work.sum())
            if total_work > 0:
                order = np.argsort(-work) if kernel.balanced else np.arange(work.size)
                loads = np.zeros(units, dtype=np.float64)
                for w in work[order]:
                    loads[loads.argmin()] += w
                max_load_fraction = float(loads.max()) / total_work
            else:
                max_load_fraction = 1.0 / units
            compute_s = (kernel.effective_flops() * max_load_fraction
                         * units / peak)
        else:
            compute_s = kernel.effective_flops() / (peak * max(occupancy, 1e-9))
        memory_s = kernel.bytes_moved / (device.mem_bandwidth_gbps * 1e9)
        time_s = max(compute_s, memory_s)
        if not device.is_gpu:
            # Fork/join cost of one parallel region (thread-pool barrier).
            time_s += (device.sync_overhead_us_per_unit
                       * device.parallel_units * 1e-6)
        if include_launch and device.is_gpu:
            time_s += device.launch_overhead_us * 1e-6
        return time_s

    # -- whole workload ----------------------------------------------------------

    def evaluate(self, workload: Workload) -> CostBreakdown:
        """Latency of a workload, accounting for horizontal fusion groups."""
        per_kernel: Dict[str, float] = {}
        launch_s = 0.0
        # Group horizontally fused kernels: members of the same group share
        # one launch and run concurrently, so the group costs the maximum of
        # its members' compute time when the device has spare units, else
        # the sum.
        groups: Dict[str, List[KernelLaunch]] = {}
        order: List[str] = []
        for kernel in workload.kernels:
            key = kernel.hfused_with or kernel.name
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(kernel)

        total = 0.0
        for key in order:
            members = groups[key]
            times = [self.kernel_seconds(k, include_launch=False) for k in members]
            if len(members) == 1:
                group_time = times[0]
            else:
                tasks = sum(max(int(k.parallel_tasks), 1) for k in members)
                if self.device.is_gpu and tasks <= 4 * self.device.parallel_units:
                    # The fused kernel has spare (or nearly spare) units:
                    # concurrent execution hides the shorter members behind
                    # the longest one.  This is where horizontal fusion
                    # recovers the parallelism lost by operation splitting.
                    group_time = max(times)
                else:
                    # On a CPU (work-conserving scheduling over few cores) or
                    # on an already saturated GPU the members essentially
                    # serialise; fusion only saves launch overhead.
                    group_time = sum(times)
            if self.device.is_gpu:
                group_time += self.device.launch_overhead_us * 1e-6
                launch_s += self.device.launch_overhead_us * 1e-6
            for k, t in zip(members, times):
                per_kernel[k.name] = per_kernel.get(k.name, 0.0) + t
            total += group_time

        copy_s = self.device.copy_time(workload.h2d_bytes)
        dispatch_s = workload.dispatch_overhead_us * 1e-6 * len(workload.kernels)
        total += copy_s + workload.prelude_time_s + dispatch_s
        return CostBreakdown(
            total_s=total,
            per_kernel_s=per_kernel,
            launch_s=launch_s,
            copy_s=copy_s,
            prelude_s=workload.prelude_time_s,
            dispatch_s=dispatch_s,
        )

    def latency_ms(self, workload: Workload) -> float:
        return self.evaluate(workload).total_ms


# ---------------------------------------------------------------------------
# Candidate ranking
# ---------------------------------------------------------------------------


def rank_workloads(workloads: Sequence[Workload],
                   device: Optional[Device] = None) -> List[int]:
    """Indices of ``workloads`` ordered by modelled latency (fastest first,
    ties kept stable by input order).

    Describe each candidate schedule as a workload to compare them
    analytically, without running any.  The ranking leans on the
    monotonicity of the model's terms (more load imbalance -> higher
    latency, fewer launches -> lower latency, more occupancy -> lower
    latency), which ``tests/test_costmodel.py`` pins.
    """
    if device is None:
        from repro.substrates.device import intel_cpu
        device = intel_cpu()
    model = CostModel(device)
    latencies = [model.latency_ms(w) for w in workloads]
    return sorted(range(len(workloads)), key=lambda i: (latencies[i], i))


# ---------------------------------------------------------------------------
# FLOP helpers shared by the operator library and the analysis module
# ---------------------------------------------------------------------------


def gemm_flops(m: float, n: float, k: float) -> float:
    """FLOPs of a single (m x k) @ (k x n) matrix multiplication."""
    return 2.0 * m * n * k


def softmax_flops(rows: float, cols: float) -> float:
    """FLOPs of a row-wise softmax over a (rows x cols) matrix.

    Per element: max-reduce, subtract, exp (costed as ~4 flops), sum-reduce
    and divide -- about 8 flops.
    """
    return 8.0 * rows * cols


def layernorm_flops(rows: float, cols: float) -> float:
    """FLOPs of layer normalisation over the trailing dimension."""
    return 8.0 * rows * cols


def elementwise_flops(count: float, ops_per_element: float = 1.0) -> float:
    return count * ops_per_element
