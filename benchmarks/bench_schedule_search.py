"""Section 4.6: the schedule-search CSP.

Times both solvers (the paper's sign-orthant decomposition and the
exhaustive reference) on the evaluation recursions, and verifies they
find equally good schedules.
"""

from __future__ import annotations

import pytest

from repro.analysis.domain import Domain
from repro.apps.hmm_algorithms import forward_function
from repro.apps.smith_waterman import smith_waterman_function
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.schedule.solver import find_schedule

from conftest import write_table

EN = {"en": "abcdefghijklmnopqrstuvwxyz"}

CASES = {
    "edit-distance": (
        check_function(
            parse_function(
                "int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =\n"
                "  if i == 0 then j else if j == 0 then i\n"
                "  else if s[i-1] == t[j-1] then d(i-1, j-1)\n"
                "  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1"
            ),
            EN,
        ),
        Domain.of(i=500, j=500),
    ),
    "smith-waterman": (
        smith_waterman_function(),
        Domain.of(i=400, j=400),
    ),
    "hmm-forward": (
        forward_function(),
        Domain.of(s=30, i=400),
    ),
    "3d-recurrence": (
        check_function(
            parse_function(
                "int g(int x, int y, int z) = if x == 0 then 0 else "
                "g(x-1, y-1, z) + g(x, y-1, z-1) + g(x-1, y, z-1)"
            )
        ),
        Domain.of(x=50, y=50, z=50),
    ),
}


@pytest.mark.parametrize("case", list(CASES), ids=list(CASES))
@pytest.mark.parametrize("solver", ["orthant", "enumerative"])
def test_solver_speed(benchmark, case, solver):
    func, domain = CASES[case]

    def solve():
        return find_schedule(func, domain, solver=solver)

    schedule = benchmark(solve)
    reference = find_schedule(func, domain, solver="enumerative")
    assert schedule.num_partitions(domain) == (
        reference.num_partitions(domain)
    )


def test_search_report(benchmark):
    def compute():
        rows = []
        for name, (func, domain) in CASES.items():
            schedule = find_schedule(func, domain)
            rows.append(
                (name, str(schedule),
                 schedule.num_partitions(domain), domain.size)
            )
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    write_table(
        "schedule_search",
        "Section 4.6 - automatically derived schedules",
        ("recursion", "schedule", "partitions", "cells"),
        rows,
    )
