"""Tests for automatic schedule derivation (Section 4.6)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.criteria import schedule_criteria
from repro.analysis.domain import Domain
from repro.lang.errors import ScheduleError
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.schedule.schedule import Schedule
from repro.schedule.solver import (
    EnumerativeSolver,
    OrthantSolver,
    find_schedule,
)
from tests.group_of_one import edges_valid

EN = {"en": "abcdefghijklmnopqrstuvwxyz"}
DNA = {"dna": "acgt"}

EDIT_DISTANCE = """
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""

FORWARD = """
prob forward(hmm h, state[h] s, seq[*] x, index[x] i) =
  if i == 0 then (if s.isstart then 1.0 else 0.0)
  else (if s.isend then 1.0 else s.emission[x[i-1]])
    * sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))
"""


def checked(src, alphabets=EN):
    return check_function(parse_function(src.strip()), alphabets)


def solve_with(solver, func, domain):
    return solver.solve(func.dim_names, schedule_criteria(func), domain)


class TestPaperExamples:
    def test_edit_distance_derives_diagonal(self):
        func = checked(EDIT_DISTANCE)
        schedule = find_schedule(func, Domain.of(i=7, j=8))
        assert schedule == Schedule.of(i=1, j=1)

    def test_fibonacci_is_serial(self):
        func = checked("int fib(int n) = if n < 2 then n else "
                       "fib(n-1) + fib(n-2)")
        schedule = find_schedule(func, Domain.of(n=20))
        assert schedule == Schedule.of(n=1)

    def test_forward_schedules_on_sequence_position(self):
        """Section 5.2: 'our schedule can only be S_forward(s,i) = i'."""
        func = checked(FORWARD, DNA)
        schedule = find_schedule(func, Domain.of(s=8, i=100))
        assert schedule == Schedule.of(s=0, i=1)

    def test_single_diagonal_dependence_picks_shorter_axis(self):
        """Section 4.7's example: with nx < ny the minimum is S = x."""
        func = checked(
            "int f(seq[en] a, index[a] x, seq[en] b, index[b] y) = "
            "if x == 0 then 0 else f(x - 1, y - 1)"
        )
        assert find_schedule(func, Domain.of(x=4, y=50)) == (
            Schedule.of(x=1, y=0)
        )
        assert find_schedule(func, Domain.of(x=50, y=4)) == (
            Schedule.of(x=0, y=1)
        )


class TestSolverProperties:
    def test_no_schedule_raises(self):
        func = checked("int f(int n) = f(n) + 1")
        with pytest.raises(ScheduleError, match="no valid schedule"):
            find_schedule(func, Domain.of(n=5))

    def test_no_recursion_gets_zero_schedule(self):
        func = checked("int f(int n) = n + 1")
        schedule = find_schedule(func, Domain.of(n=5))
        assert schedule.is_zero
        assert schedule.num_partitions(Domain.of(n=5)) == 1

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            EnumerativeSolver(bound=0)
        with pytest.raises(ValueError):
            OrthantSolver(bound=0)

    def test_orthant_solver_refuses_non_uniform_criteria(self):
        func = checked(FORWARD, DNA)
        with pytest.raises(ValueError, match="uniform"):
            solve_with(OrthantSolver(), func, Domain.of(s=4, i=9))

    def test_negative_coefficients_found_when_needed(self):
        # f(x+1, y-1): dependence increases x, so a_x must be <= -1...
        # criteria: -a_x + a_y >= 1.
        func = checked(
            "int f(int x, int y) = if y == 0 then 0 else f(x + 1, y - 1)"
        )
        schedule = find_schedule(func, Domain.of(x=10, y=10))
        coeffs = schedule.coefficient_map()
        assert -coeffs["x"] + coeffs["y"] >= 1
        # The minimal choice spans one dimension only.
        assert schedule.num_partitions(Domain.of(x=10, y=10)) == 10

    def test_result_always_brute_force_valid(self):
        for src, domain in [
            (EDIT_DISTANCE, Domain.of(i=5, j=4)),
            ("int f(int x, int y) = if x == 0 then 0 else f(x-1, y-1)",
             Domain.of(x=4, y=6)),
            ("int g(int x, int y, int z) = if x == 0 then 0 else "
             "g(x-1, y-1, z) + g(x, y-1, z-1)", Domain.of(x=3, y=3, z=3)),
        ]:
            func = checked(src)
            schedule = find_schedule(func, domain)
            assert edges_valid(schedule, func, domain)


class TestSolverAgreement:
    """The candidate pick, the orthant CSP and exhaustive search must
    agree on the goal."""

    CASES = [
        ("int f(int x, int y) = if x == 0 then 0 else f(x-1, y-1)",
         Domain.of(x=4, y=9)),
        (EDIT_DISTANCE, Domain.of(i=6, j=6)),
        ("int f(int x, int y) = if y == 0 then 0 else f(x+1, y-1)",
         Domain.of(x=5, y=5)),
        ("int g(int x, int y, int z) = if x == 0 then 0 else "
         "g(x-1, y-1, z) + g(x, y-1, z-1) + g(x, y, z-1)",
         Domain.of(x=4, y=4, z=4)),
    ]

    @pytest.mark.parametrize("src,domain", CASES)
    def test_same_partition_count(self, src, domain):
        func = checked(src)
        a = find_schedule(func, domain)
        b = solve_with(EnumerativeSolver(), func, domain)
        c = solve_with(OrthantSolver(), func, domain)
        assert a.num_partitions(domain) == b.num_partitions(domain)
        assert c.num_partitions(domain) == b.num_partitions(domain)
        criteria = schedule_criteria(func)
        for schedule in (a, b, c):
            assert schedule.is_valid(criteria, domain)

    @settings(deadline=None, max_examples=30)
    @given(
        offsets=st.lists(
            st.tuples(st.integers(-2, 1), st.integers(-2, 1)),
            min_size=1,
            max_size=3,
        ),
        extents=st.tuples(st.integers(2, 6), st.integers(2, 6)),
    )
    def test_random_uniform_recursions(self, offsets, extents):
        """Generate random uniform 2-D recursions and cross-check."""
        calls = []
        for dx, dy in offsets:
            def fmt(var, d):
                if d == 0:
                    return var
                sign = "+" if d > 0 else "-"
                return f"{var} {sign} {abs(d)}"
            calls.append(f"f({fmt('x', dx)}, {fmt('y', dy)})")
        body = " + ".join(calls)
        src = f"int f(int x, int y) = if x == 0 then 0 else {body}"
        func = checked(src)
        domain = Domain(("x", "y"), extents)

        try:
            a = find_schedule(func, domain)
        except ScheduleError:
            with pytest.raises(ScheduleError):
                solve_with(EnumerativeSolver(), func, domain)
            return
        b = solve_with(EnumerativeSolver(), func, domain)
        assert a.num_partitions(domain) == b.num_partitions(domain)
        assert edges_valid(a, func, domain)
        assert edges_valid(b, func, domain)
