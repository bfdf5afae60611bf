"""Ablation (Section 4.7): conditional parallelisation.

For a heterogeneous mix of problem shapes, applying the per-problem
minimal schedule (the compile-time candidates plus the per-problem
pick) is compared against forcing any single fixed schedule on every
problem. The paper's motivating example: ``f(x, y) = ..
f(x-1, y-1)`` — ``S = x`` is right when ``nx < ny``, ``S = y``
otherwise.
"""

from __future__ import annotations

import pytest

from repro.analysis.domain import Domain
from repro.gpu.spec import GTX480
from repro.gpu.timing import kernel_cost
from repro.ir.kernel import build_kernel
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.schedule.schedule import Schedule
from repro.schedule.solver import find_schedule, optimal_candidates

from conftest import write_table

EN = {"en": "abcdefghijklmnopqrstuvwxyz"}

SOURCE = (
    "int f(seq[en] a, index[a] x, seq[en] b, index[b] y) = "
    "if x == 0 then 0 else if y == 0 then 0 else f(x - 1, y - 1) + 1"
)

#: A bimodal workload: short-vs-long and long-vs-short problems.
SHAPES = [(64, 2048)] * 40 + [(2048, 64)] * 40


def _total_seconds(func, schedule_for):
    total = 0.0
    kernels = {}
    for nx, ny in SHAPES:
        domain = Domain.of(x=nx + 1, y=ny + 1)
        schedule = schedule_for(domain)
        if schedule.coefficients not in kernels:
            kernels[schedule.coefficients] = build_kernel(func, schedule)
        kernel = kernels[schedule.coefficients]
        total += kernel_cost(kernel, domain, GTX480).seconds
    return total / GTX480.sm_count


def test_multi_schedule_ablation_report(benchmark):
    func = check_function(parse_function(SOURCE), EN)
    candidates = [
        Schedule(func.dim_names, v) for v in optimal_candidates(func)
    ]
    assert len(candidates) == 2

    def compute():
        rows = []
        conditional = _total_seconds(
            func, lambda d: find_schedule(func, d)
        )
        rows.append(("conditional (Section 4.7)", conditional, 1.0))
        for fixed in candidates:
            seconds = _total_seconds(func, lambda d: fixed)
            rows.append(
                (f"fixed {fixed}", seconds, seconds / conditional)
            )
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    write_table(
        "ablation_multi",
        "Ablation - conditional parallelisation (Section 4.7):\n"
        "bimodal workload of 80 problems (64x2048 and 2048x64)",
        ("strategy", "seconds", "vs conditional"),
        rows,
    )

    conditional = rows[0][1]
    for _, seconds, _ in rows[1:]:
        # Any fixed schedule pays on half the workload.
        assert seconds > conditional * 1.5
