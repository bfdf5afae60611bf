"""Analytic timing model for synthesised kernels.

The functional result of a kernel never depends on timing, so the
simulator splits the two: the Python backend computes the table, and
this module prices the execution on the device spec, using the same
quantities the paper's design discussion revolves around:

* the number of partitions (the schedule-search goal, Section 4.6);
* the size of each partition (threads execute cells in warp-wide
  batches; small partitions under-utilise the SM — Section 4.9's
  "wasted execution" remark);
* one barrier per partition (Figure 8's ``sync``);
* where the table lives: the sliding window (Section 4.8) keeps the
  live rows in shared memory when they fit, otherwise reads go to
  global memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..analysis.domain import Domain
from ..ir.kernel import Kernel
from ..schedule.schedule import Schedule
from .spec import CpuSpec, DeviceSpec


def partition_sizes(schedule: Schedule, domain: Domain) -> np.ndarray:
    """Exact cell count of every partition, min partition first.

    The distribution of ``S(x) = sum a_k * x_k`` over the box is the
    convolution of the per-dimension distributions, each of which is
    uniform on an arithmetic progression.
    """
    sizes = np.array([1.0])
    offset = 0
    for coeff, extent in zip(schedule.coefficients, domain.extents):
        if coeff == 0:
            sizes = sizes * extent
            continue
        step = abs(coeff)
        span = step * (extent - 1)
        contrib = np.zeros(span + 1)
        contrib[::step] = 1.0
        sizes = np.convolve(sizes, contrib)
        if coeff < 0:
            offset -= span
    return sizes


@dataclass(frozen=True)
class KernelCost:
    """Priced execution of one kernel launch on one problem."""

    cycles: float
    seconds: float
    partitions: int
    cells: int
    window_in_shared: bool
    compute_cycles: float
    memory_cycles: float
    sync_cycles: float

    @property
    def cells_per_second(self) -> float:
        """Throughput implied by this cost."""
        return self.cells / self.seconds if self.seconds else 0.0


def problems_per_sm(
    kernel: Kernel,
    domain: Domain,
    spec: DeviceSpec,
    schedule: Optional[Schedule] = None,
    sizes: Optional[np.ndarray] = None,
) -> int:
    """How many problems one multiprocessor runs concurrently.

    One block per problem (Section 4.7). When the widest partition
    does not even fill a warp, the device packs co-resident blocks (up
    to the occupancy limit) so the idle lanes are spent on *other*
    problems — this is what lets tiny models (a 6-state gene finder)
    still saturate the device and reach the paper's x60 (Section 6.2).
    ``sizes`` is ``partition_sizes(schedule, domain)`` when the caller
    already holds it.
    """
    if sizes is None:
        sizes = partition_sizes(schedule or kernel.schedule, domain)
    widest = int(sizes.max()) if len(sizes) else 1
    if widest >= spec.warp_size:
        return 1
    return max(
        1, min(spec.blocks_per_sm, spec.warp_size // max(1, widest))
    )


def window_fits_shared(
    kernel: Kernel,
    schedule: Schedule,
    domain: Domain,
    spec: DeviceSpec,
    value_bytes: int = 8,
    sizes: Optional[np.ndarray] = None,
) -> bool:
    """Can the sliding window live in shared memory? (Section 4.8).

    ``sizes`` is ``partition_sizes(schedule, domain)`` when the caller
    already holds it.
    """
    if kernel.window is None:
        return False
    if sizes is None:
        sizes = partition_sizes(schedule, domain)
    widest = int(sizes.max()) if len(sizes) else 0
    rows = kernel.window + 1
    return rows * widest * value_bytes <= spec.shared_memory_bytes


def cell_cost_cycles(
    kernel: Kernel,
    spec: DeviceSpec,
    mean_degree: float = 1.0,
    table_in_shared: bool = False,
) -> Dict[str, float]:
    """Per-cell cost, split into compute and memory cycles."""
    totals = kernel.counts.scaled_total(mean_degree)
    compute = (
        totals["arith"] * spec.arith_cycles
        + totals["compare"] * spec.compare_cycles
        + totals["select"] * spec.select_cycles
        + totals["special"] * spec.special_cycles
    )
    table_read = (
        spec.shared_read_cycles
        if table_in_shared
        else spec.global_read_cycles
    )
    table_write = (
        spec.shared_write_cycles
        if table_in_shared
        else spec.global_write_cycles
    )
    memory = (
        totals["table_reads"] * table_read
        + totals["seq_reads"] * spec.shared_read_cycles
        + totals["matrix_reads"] * spec.shared_read_cycles
        + totals["hmm_reads"] * spec.shared_read_cycles
        + table_write  # one table write per cell
    )
    return {"compute": compute, "memory": memory}


def kernel_cost(
    kernel: Kernel,
    domain: Domain,
    spec: DeviceSpec,
    mean_degree: float = 1.0,
    use_window: bool = True,
    sizes: Optional[np.ndarray] = None,
) -> KernelCost:
    """Price one problem's kernel execution on the device.

    ``sizes`` is ``partition_sizes(kernel.schedule, domain)`` when the
    caller already holds it.
    """
    schedule = kernel.schedule
    if sizes is None:
        sizes = partition_sizes(schedule, domain)
    in_shared = use_window and window_fits_shared(
        kernel, schedule, domain, spec, sizes=sizes
    )
    per_cell = cell_cost_cycles(
        kernel, spec, mean_degree, table_in_shared=in_shared
    )
    cell_cycles = per_cell["compute"] + per_cell["memory"]

    warp = spec.warp_size
    warp_batches = np.ceil(sizes / warp)
    compute_total = float(warp_batches.sum()) * per_cell["compute"]
    memory_total = float(warp_batches.sum()) * per_cell["memory"]
    sync_total = len(sizes) * spec.sync_cycles
    cycles = compute_total + memory_total + sync_total
    return KernelCost(
        cycles=cycles,
        seconds=cycles / spec.clock_hz,
        partitions=len(sizes),
        cells=domain.size,
        window_in_shared=in_shared,
        compute_cycles=compute_total,
        memory_cycles=memory_total,
        sync_cycles=sync_total,
    )


def batched_launch_cost(
    kernel: Kernel,
    domains,
    spec: DeviceSpec,
    mean_degree: float = 1.0,
    threads: int = 1,
) -> KernelCost:
    """Price one *lane-batched* launch of many same-kernel problems.

    The batch executes as a single fused sweep: per global partition,
    every problem contributes its partition's cells (the profiles are
    superposed, aligned on the partition axis), and **one** barrier
    closes the global partition — instead of one barrier per problem
    per partition. That amortised sync (plus the per-launch overhead
    collapsing to one) is the modelled benefit of the functional
    inter-task path; the cell work itself is conserved.

    The batch shares one table layout, so no shared-memory window is
    assumed (the padded batch table lives in global memory).

    ``threads`` models multi-core launches (the batched-native rung's
    OpenMP problem loop): cell work — compute and memory — divides
    across cores, while the per-partition synchronisation cost does
    not (barriers are the serial fraction of the sweep).
    """
    schedule = kernel.schedule
    profiles = [partition_sizes(schedule, d) for d in domains]
    span = max((len(p) for p in profiles), default=1)
    sizes = np.zeros(span)
    for profile in profiles:
        sizes[: len(profile)] += profile
    per_cell = cell_cost_cycles(
        kernel, spec, mean_degree, table_in_shared=False
    )
    share = max(1, int(threads))
    warp_batches = np.ceil(sizes / spec.warp_size)
    compute_total = (
        float(warp_batches.sum()) * per_cell["compute"] / share
    )
    memory_total = (
        float(warp_batches.sum()) * per_cell["memory"] / share
    )
    sync_total = span * spec.sync_cycles
    cycles = compute_total + memory_total + sync_total
    return KernelCost(
        cycles=cycles,
        seconds=cycles / spec.clock_hz,
        partitions=span,
        cells=int(sum(domain.size for domain in domains)),
        window_in_shared=False,
        compute_cycles=compute_total,
        memory_cycles=memory_total,
        sync_cycles=sync_total,
    )


def inter_task_seconds(
    kernel: Kernel,
    domains,
    spec: DeviceSpec,
    mean_degree: float = 1.0,
) -> float:
    """Sequence-per-thread (inter-task) execution of many problems.

    Section 6.1: "generation of a sequence-per-thread kernel ... is
    straight-forward from our DSL code". Each thread walks one
    problem's table serially; threads of a warp run in lock-step, so a
    warp is gated by its largest member (the load-imbalance effect the
    hybrid split exists to avoid). Per-thread rows live in device
    memory (no cooperative shared-memory window).
    """
    sizes = sorted(domain.size for domain in domains)
    if not sizes:
        return spec.launch_overhead_s
    totals = kernel.counts.scaled_total(mean_degree)
    per_cell = (
        totals["arith"] * spec.arith_cycles
        + totals["compare"] * spec.compare_cycles
        + totals["select"] * spec.select_cycles
        + totals["special"] * spec.special_cycles
        + (
            totals["table_reads"]
            + totals["seq_reads"]
            + totals["matrix_reads"]
            + totals["hmm_reads"]
        )
        * spec.global_read_cycles
        + spec.global_write_cycles
    )
    warp = spec.warp_size
    warp_cells = [
        max(sizes[k:k + warp])
        for k in range(0, len(sizes), warp)
    ]
    cycles = sum(warp_cells) * per_cell
    return (
        cycles / spec.sm_count / spec.clock_hz
        + spec.launch_overhead_s
    )


def cpu_cost_seconds(
    kernel: Kernel,
    domain: Domain,
    spec: CpuSpec,
    mean_degree: float = 1.0,
) -> float:
    """Serial CPU execution of the same recurrence (one core).

    Used for the CPU comparisons: the same per-cell operation mix,
    priced with CPU constants, one cell at a time, divided by the
    configuration's SIMD/thread speedup.
    """
    totals = kernel.counts.scaled_total(mean_degree)
    per_cell = (
        totals["arith"] * spec.arith_cycles
        + totals["compare"] * spec.compare_cycles
        + totals["select"] * spec.select_cycles
        + totals["special"] * spec.special_cycles
        + (
            totals["table_reads"]
            + totals["seq_reads"]
            + totals["matrix_reads"]
            + totals["hmm_reads"]
        )
        * spec.memory_read_cycles
        + spec.memory_write_cycles
        + spec.loop_overhead_cycles
    )
    cycles = per_cell * domain.size
    return cycles / spec.clock_hz / spec.effective_speedup()
