"""Fault injection, supervised execution and cross-backend oracles.

This package hardens the paper's execution model against the failure
modes real accelerators exhibit. :mod:`~repro.resilience.faults`
defines the seeded, deterministic injection plane;
:mod:`~repro.resilience.supervisor` the execution layer that commits
the table at partition barriers, detects faults and replays only the
failed partition range; :mod:`~repro.resilience.oracle` the
cross-backend divergence oracle that separates injected corruption
from genuine compiler bugs; and :mod:`~repro.resilience.reference` the serial
interpreter fallback that graceful degradation demotes to.
"""

from .faults import (
    CellCorruption,
    DeviceFault,
    FaultEscalation,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    FaultSite,
    LaunchFault,
)
from .oracle import DivergenceOracle, tables_agree
from .reference import serial_reference_run
from .supervisor import (
    ExecutionSupervisor,
    SupervisionPolicy,
    SupervisorStats,
    partition_ranges,
)

__all__ = [
    "CellCorruption",
    "DeviceFault",
    "DivergenceOracle",
    "ExecutionSupervisor",
    "FaultEscalation",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultSite",
    "LaunchFault",
    "SupervisionPolicy",
    "SupervisorStats",
    "partition_ranges",
    "serial_reference_run",
    "tables_agree",
]
