"""Tests for the simulated device's placement and accounting."""

import pytest

from repro.gpu.device import (
    LaunchReport,
    ProblemCost,
    SimulatedDevice,
    greedy_makespan,
)
from repro.gpu.spec import DeviceSpec


class TestLaunch:
    def test_single_problem(self):
        device = SimulatedDevice(DeviceSpec(sm_count=4))
        report = device.launch([ProblemCost(1.0)])
        assert report.kernel_seconds == 1.0
        assert report.problems == 1

    def test_parallel_problems_overlap(self):
        """15 equal problems on 15 SMs take one problem's time."""
        device = SimulatedDevice(DeviceSpec(sm_count=15))
        report = device.launch([ProblemCost(0.5)] * 15)
        assert report.kernel_seconds == pytest.approx(0.5)

    def test_oversubscription_queues(self):
        device = SimulatedDevice(DeviceSpec(sm_count=2))
        report = device.launch([ProblemCost(1.0)] * 4)
        assert report.kernel_seconds == pytest.approx(2.0)

    def test_transfer_time_scales_with_bytes(self):
        device = SimulatedDevice()
        small = device.launch([ProblemCost(0.0, bytes_in=1e3)])
        large = device.launch([ProblemCost(0.0, bytes_in=1e9)])
        assert large.transfer_seconds > small.transfer_seconds

    def test_empty_launch(self):
        device = SimulatedDevice()
        report = device.launch([])
        assert report.kernel_seconds == 0.0
        assert report.transfer_seconds == 0.0

    def test_total_includes_overhead(self):
        device = SimulatedDevice()
        report = device.launch([ProblemCost(1.0)])
        assert report.total_seconds > report.kernel_seconds

    def test_utilisation_full_when_balanced(self):
        device = SimulatedDevice(DeviceSpec(sm_count=3))
        report = device.launch([ProblemCost(1.0)] * 3)
        assert report.sm_utilisation == pytest.approx(1.0)

    def test_utilisation_low_when_single(self):
        device = SimulatedDevice(DeviceSpec(sm_count=10))
        report = device.launch([ProblemCost(1.0)])
        assert report.sm_utilisation == pytest.approx(0.1)

    def test_utilisation_empty(self):
        assert LaunchReport("x", 0, 0.0, 0.0, 0.0).sm_utilisation == 0.0


class TestGreedyMakespan:
    def test_balances(self):
        makespan, loads = greedy_makespan([3.0, 3.0, 2.0, 2.0], 2)
        assert makespan == pytest.approx(5.0)
        assert sorted(loads) == [5.0, 5.0]

    def test_empty(self):
        makespan, _ = greedy_makespan([], 4)
        assert makespan == 0.0

    def test_single_machine(self):
        makespan, _ = greedy_makespan([1.0, 2.0, 3.0], 1)
        assert makespan == pytest.approx(6.0)
