"""Solver determinism (satellite): both solvers break ties identically.

The paper only asks for "the first set of solution coefficients"; we
make the preference total via :func:`tie_break_key` (smaller absolute
values, then positive signs, lexicographically over dimensions) and
require ``EnumerativeSolver`` and ``OrthantSolver`` to agree exactly —
the kernel cache keys on the schedule, so a non-deterministic tie
would silently double compilation work.
"""

import pytest

from repro.analysis import function_plan
from repro.analysis.criteria import schedule_criteria
from repro.analysis.domain import Domain
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.schedule.schedule import Schedule
from repro.schedule.solver import (
    EnumerativeSolver,
    OrthantSolver,
    find_schedule,
    tie_break_key,
)

EN = {"en": "abcdefghijklmnopqrstuvwxyz"}


def checked(src, alphabets=EN):
    return check_function(parse_function(src.strip()), alphabets)


def both_solve(func, extents):
    criteria = schedule_criteria(func)
    domain = Domain(func.dim_names, extents)
    enum = EnumerativeSolver().solve(func.dim_names, criteria, domain)
    orthant = OrthantSolver().solve(func.dim_names, criteria, domain)
    return enum, orthant


class TestTieBreakKey:
    def test_prefers_small_magnitudes(self):
        assert tie_break_key((1, 0)) < tie_break_key((2, 0))

    def test_prefers_positive_at_equal_magnitude(self):
        assert tie_break_key((1, 1)) < tie_break_key((1, -1))

    def test_lexicographic_over_dimensions(self):
        # First dimension dominates: (0, 3) beats (1, 0).
        assert tie_break_key((0, 3)) < tie_break_key((1, 0))

    def test_total_order_on_distinct_vectors(self):
        vectors = [(1, 0), (0, 1), (1, -1), (-1, 1), (0, -1)]
        keys = [tie_break_key(v) for v in vectors]
        assert len(set(keys)) == len(keys)


class TestCraftedTies:
    def test_diagonal_dependence_square_box(self):
        """f(i-1, j-1) on a square box: (1,0) and (0,1) have equal
        goal; the tie-break picks (0,1) (zero first coefficient)."""
        func = checked("""
int f(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then 0
  else if j == 0 then 0
  else f(i - 1, j - 1) + 1
""")
        enum, orthant = both_solve(func, (9, 9))
        assert enum == orthant == Schedule.of(i=0, j=1)

    def test_cross_orthant_tie(self):
        """f(i-1, j+1) on a square box: (1,0) and (0,-1) are both
        minimal but live in different orthants; the shared key picks
        (0,-1), whatever order the orthants are visited in."""
        func = checked("""
int f(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then 0
  else if j > 7 then 0
  else f(i - 1, j + 1) + 1
""")
        enum, orthant = both_solve(func, (9, 9))
        assert enum == orthant == Schedule.of(i=0, j=-1)

    def test_asymmetric_box_breaks_the_tie_by_goal(self):
        """On a non-square box the goal itself decides: the shorter
        axis carries the schedule (Section 4.7)."""
        func = checked("""
int f(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then 0
  else if j == 0 then 0
  else f(i - 1, j - 1) + 1
""")
        enum, orthant = both_solve(func, (5, 9))
        assert enum == orthant == Schedule.of(i=1, j=0)

    def test_solving_twice_is_stable(self):
        func = checked("""
int f(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then 0
  else if j == 0 then 0
  else f(i - 1, j - 1) + 1
""")
        criteria = schedule_criteria(func)
        domain = Domain(func.dim_names, (9, 9))
        solver = OrthantSolver()
        first = solver.solve(func.dim_names, criteria, domain)
        second = solver.solve(func.dim_names, criteria, domain)
        assert first == second


class TestAppCorpusAgreement:
    def cases(self):
        from repro.apps.hmm_algorithms import (
            backward_function,
            forward_function,
            viterbi_function,
        )
        from repro.apps.rna_folding import nussinov_function
        from repro.apps.smith_waterman import smith_waterman_function

        return [
            (forward_function(), (4, 13)),
            (viterbi_function(), (4, 13)),
            (backward_function(), (4, 13, 13)),
            (nussinov_function(), (13, 13)),
            (smith_waterman_function(), (13, 13)),
        ]

    def test_solvers_agree_on_every_app(self):
        """Only Smith-Waterman is uniform, so only it has an orthant
        decomposition; every app's pick is the exhaustive search's."""
        for func, extents in self.cases():
            domain = Domain(func.dim_names, extents)
            enum = EnumerativeSolver().solve(
                func.dim_names, schedule_criteria(func), domain
            )
            assert find_schedule(func, domain) == enum, func.name
            if function_plan(func).is_uniform:
                assert both_solve(func, extents) == (enum, enum)

    def test_agreement_on_a_range_of_boxes(self):
        func = checked("""
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
""")
        for extents in [(2, 2), (2, 9), (9, 2), (7, 8), (13, 13)]:
            enum, orthant = both_solve(func, extents)
            assert enum == orthant, extents
