"""The simulated CUDA-class device: spec, timing model, placement."""

from .device import LaunchReport, ProblemCost, SimulatedDevice, greedy_makespan
from .spec import CpuSpec, DeviceSpec, GTX480, XEON_E5520, XEON_E5520_SSE
from .timing import (
    KernelCost,
    cell_cost_cycles,
    cpu_cost_seconds,
    kernel_cost,
    partition_sizes,
    window_fits_shared,
)

__all__ = [
    "LaunchReport",
    "ProblemCost",
    "SimulatedDevice",
    "greedy_makespan",
    "CpuSpec",
    "DeviceSpec",
    "GTX480",
    "XEON_E5520",
    "XEON_E5520_SSE",
    "KernelCost",
    "cell_cost_cycles",
    "cpu_cost_seconds",
    "kernel_cost",
    "partition_sizes",
    "window_fits_shared",
]
