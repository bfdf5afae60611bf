"""Tests for the analytic device timing model."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.domain import Domain
from repro.gpu.spec import DeviceSpec, GTX480, XEON_E5520, XEON_E5520_SSE
from repro.gpu.timing import (
    batched_launch_cost,
    cpu_cost_seconds,
    kernel_cost,
    partition_sizes,
    window_fits_shared,
)
from repro.ir.kernel import build_kernel
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.schedule.schedule import Schedule

EN = {"en": "abcdefghijklmnopqrstuvwxyz"}

EDIT_DISTANCE = """
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""


def edit_kernel(coeffs=(1, 1)):
    func = check_function(parse_function(EDIT_DISTANCE.strip()), EN)
    return build_kernel(func, Schedule(("i", "j"), coeffs))


class TestPartitionSizes:
    def test_diagonal_profile(self):
        sizes = partition_sizes(Schedule.of(i=1, j=1), Domain.of(i=3, j=3))
        assert list(sizes) == [1, 2, 3, 2, 1]

    def test_total_is_domain_size(self):
        sizes = partition_sizes(Schedule.of(i=2, j=1), Domain.of(i=5, j=7))
        assert sizes.sum() == 35

    def test_zero_coefficient_dim_multiplies(self):
        sizes = partition_sizes(Schedule.of(i=0, j=1), Domain.of(i=4, j=3))
        assert list(sizes) == [4, 4, 4]

    @settings(deadline=None, max_examples=40)
    @given(
        coeffs=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        extents=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    )
    def test_matches_enumeration(self, coeffs, extents):
        schedule = Schedule(("i", "j"), coeffs)
        domain = Domain(("i", "j"), extents)
        sizes = partition_sizes(schedule, domain)
        from collections import Counter

        counted = Counter(
            schedule.partition_of(p) for p in domain.points()
        )
        expected = [
            counted.get(p, 0)
            for p in range(min(counted), max(counted) + 1)
        ]
        assert [int(s) for s in sizes] == expected


class TestKernelCost:
    def test_more_partitions_cost_more(self):
        domain = Domain.of(i=101, j=101)
        diag = kernel_cost(edit_kernel((1, 1)), domain, GTX480)
        skew = kernel_cost(edit_kernel((2, 1)), domain, GTX480)
        assert skew.partitions > diag.partitions
        assert skew.seconds > diag.seconds

    def test_window_uses_shared_memory(self):
        domain = Domain.of(i=201, j=201)
        kernel = edit_kernel()
        with_window = kernel_cost(kernel, domain, GTX480,
                                  use_window=True)
        without = kernel_cost(kernel, domain, GTX480, use_window=False)
        assert with_window.window_in_shared
        assert not without.window_in_shared
        assert with_window.seconds < without.seconds

    def test_window_overflows_shared_memory(self):
        # 3 rows x ~40k cells x 8B far exceeds 48 KiB.
        domain = Domain.of(i=40001, j=40001)
        kernel = edit_kernel()
        assert not window_fits_shared(
            kernel, kernel.schedule, domain, GTX480
        )

    def test_cost_scales_with_cells(self):
        kernel = edit_kernel()
        small = kernel_cost(kernel, Domain.of(i=51, j=51), GTX480)
        large = kernel_cost(kernel, Domain.of(i=401, j=401), GTX480)
        assert large.seconds > small.seconds * 20

    def test_breakdown_sums_to_total(self):
        kernel = edit_kernel()
        cost = kernel_cost(kernel, Domain.of(i=64, j=64), GTX480)
        assert cost.cycles == pytest.approx(
            cost.compute_cycles + cost.memory_cycles + cost.sync_cycles
        )

    def test_cells_per_second_positive(self):
        cost = kernel_cost(edit_kernel(), Domain.of(i=64, j=64), GTX480)
        assert cost.cells_per_second > 0


class TestBatchedLaunchCost:
    def test_sync_amortised_across_batch(self):
        """One barrier per *global* partition: the batch pays the
        span's syncs once, not once per member."""
        kernel = edit_kernel()
        domains = [Domain.of(i=33, j=33) for _ in range(8)]
        batched = batched_launch_cost(kernel, domains, GTX480)
        singles = [
            kernel_cost(kernel, d, GTX480, use_window=False)
            for d in domains
        ]
        assert batched.sync_cycles == singles[0].sync_cycles
        assert batched.sync_cycles < sum(
            c.sync_cycles for c in singles
        )
        assert batched.seconds < sum(c.seconds for c in singles)

    def test_cells_conserved(self):
        kernel = edit_kernel()
        domains = [
            Domain.of(i=9, j=9),
            Domain.of(i=17, j=5),
            Domain.of(i=5, j=21),
        ]
        cost = batched_launch_cost(kernel, domains, GTX480)
        assert cost.cells == sum(d.size for d in domains)
        assert not cost.window_in_shared  # padded table, global mem

    def test_span_is_largest_member(self):
        kernel = edit_kernel()
        small = Domain.of(i=5, j=5)
        large = Domain.of(i=33, j=17)
        cost = batched_launch_cost(kernel, [small, large], GTX480)
        assert cost.partitions == len(
            partition_sizes(kernel.schedule, large)
        )

    def test_breakdown_sums_to_total(self):
        kernel = edit_kernel()
        cost = batched_launch_cost(
            kernel, [Domain.of(i=12, j=12)] * 4, GTX480
        )
        assert cost.cycles == pytest.approx(
            cost.compute_cycles + cost.memory_cycles + cost.sync_cycles
        )


class TestCostModelProperties:
    """Monotonicity facts of the pricing model."""

    def test_sync_term_linear_in_partitions(self):
        domain = Domain.of(i=64, j=48)
        for coeffs in [(1, 1), (1, 2), (2, 1), (0, 1)]:
            cost = kernel_cost(edit_kernel(coeffs), domain, GTX480)
            assert cost.sync_cycles == (
                cost.partitions * GTX480.sync_cycles
            )

    def test_memory_traffic_monotone_shared_vs_global(self):
        """Swapping the table between shared and global rates moves
        memory cycles in the right direction, compute untouched."""
        kernel = edit_kernel()
        domain = Domain.of(i=128, j=128)
        shared = kernel_cost(kernel, domain, GTX480, use_window=True)
        spilled = kernel_cost(
            kernel, domain, GTX480, use_window=False
        )
        assert shared.window_in_shared
        assert shared.memory_cycles < spilled.memory_cycles
        assert shared.compute_cycles == spilled.compute_cycles
        assert shared.sync_cycles == spilled.sync_cycles

    @settings(deadline=None, max_examples=30)
    @given(
        extents=st.tuples(st.integers(2, 30), st.integers(2, 30)),
    )
    def test_more_memory_ops_cost_more(self, extents):
        """A kernel with strictly more table reads per cell never
        prices cheaper on the same schedule and domain."""
        lean = edit_kernel()
        # The lean recursion plus two extra table reads in the
        # min-chain: identical sequence traffic, strictly more table
        # traffic.
        rich_src = """
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)
        min d(i-1, j-1) min d(i-1, j-1)) + 1
"""
        func = check_function(parse_function(rich_src.strip()), EN)
        rich = build_kernel(func, Schedule(("i", "j"), (1, 1)))
        assert rich.counts.table_reads > lean.counts.table_reads
        assert rich.counts.seq_reads == lean.counts.seq_reads
        domain = Domain(("i", "j"), extents)
        assert (
            kernel_cost(rich, domain, GTX480).memory_cycles
            >= kernel_cost(lean, domain, GTX480).memory_cycles
        )

    def test_threads_divide_cell_work_not_sync(self):
        """``batched_launch_cost(threads=N)`` models the OpenMP
        problem loop: compute and memory split across cores, barriers
        stay serial."""
        kernel = edit_kernel()
        domains = [Domain.of(i=33, j=33) for _ in range(8)]
        serial = batched_launch_cost(kernel, domains, GTX480)
        threaded = batched_launch_cost(
            kernel, domains, GTX480, threads=4
        )
        assert threaded.compute_cycles == pytest.approx(
            serial.compute_cycles / 4
        )
        assert threaded.memory_cycles == pytest.approx(
            serial.memory_cycles / 4
        )
        assert threaded.sync_cycles == serial.sync_cycles
        assert threaded.cycles < serial.cycles

    def test_threads_floor_at_one(self):
        kernel = edit_kernel()
        domains = [Domain.of(i=9, j=9)]
        base = batched_launch_cost(kernel, domains, GTX480)
        clamped = batched_launch_cost(
            kernel, domains, GTX480, threads=0
        )
        assert clamped.cycles == base.cycles

    def test_zero_coefficient_schedule_degenerate(self):
        """``S = j`` runs whole columns as partitions: partition
        count equals the j extent, and the model still decomposes."""
        kernel = edit_kernel((0, 1))
        domain = Domain.of(i=16, j=9)
        cost = kernel_cost(kernel, domain, GTX480)
        assert cost.partitions == 9
        assert cost.cells == domain.size
        assert cost.cycles == pytest.approx(
            cost.compute_cycles + cost.memory_cycles + cost.sync_cycles
        )

    def test_size_one_domain(self):
        kernel = edit_kernel()
        cost = kernel_cost(kernel, Domain.of(i=1, j=1), GTX480)
        assert cost.partitions == 1
        assert cost.cells == 1
        assert cost.cycles > 0


class TestCpuCost:
    def test_cpu_slower_than_gpu_at_scale(self):
        """The headline claim: big problems favour the device."""
        kernel = edit_kernel()
        domain = Domain.of(i=1001, j=1001)
        gpu = kernel_cost(kernel, domain, GTX480)
        cpu = cpu_cost_seconds(kernel, domain, XEON_E5520)
        assert cpu > gpu.seconds * 5

    def test_simd_configuration_faster(self):
        kernel = edit_kernel()
        domain = Domain.of(i=301, j=301)
        plain = cpu_cost_seconds(kernel, domain, XEON_E5520)
        simd = cpu_cost_seconds(kernel, domain, XEON_E5520_SSE)
        assert simd < plain

    def test_linear_in_cells(self):
        kernel = edit_kernel()
        one = cpu_cost_seconds(kernel, Domain.of(i=101, j=101),
                               XEON_E5520)
        four = cpu_cost_seconds(kernel, Domain.of(i=201, j=201),
                                XEON_E5520)
        assert four == pytest.approx(one * 4, rel=0.05)
