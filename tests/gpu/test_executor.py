"""Tests for the lock-step evaluator: barriers and race detection.

A single function runs as a group of one.
"""

import numpy as np
import pytest

from repro.analysis.domain import Domain
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.runtime.interpreter import memoised
from repro.runtime.mutual import MutualRaceError
from repro.runtime.values import Bindings, ENGLISH, Sequence
from repro.schedule.schedule import Schedule
from repro.verify import soundness
from tests.group_of_one import edges_valid, lockstep

EN = {"en": ENGLISH.chars}

EDIT_DISTANCE = """
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""


def setup(s_text="abcab", t_text="bcab"):
    func = check_function(parse_function(EDIT_DISTANCE.strip()), EN)
    s = Sequence(s_text, ENGLISH)
    t = Sequence(t_text, ENGLISH)
    bindings = Bindings({"s": s, "t": t})
    domain = Domain.of(i=len(s) + 1, j=len(t) + 1)
    return func, bindings, domain


class TestValidSchedules:
    def test_diagonal_executes_cleanly(self):
        func, bindings, domain = setup()
        table = lockstep(func, bindings, Schedule.of(i=1, j=1))
        oracle = memoised(func, bindings)
        for point in domain.points():
            assert table[point] == oracle(point)

    def test_skewed_schedule_also_valid(self):
        func, bindings, domain = setup()
        table = lockstep(func, bindings, Schedule.of(i=2, j=1))
        oracle = memoised(func, bindings)
        assert table[domain.extents[0] - 1, domain.extents[1] - 1] == (
            oracle((domain.extents[0] - 1, domain.extents[1] - 1))
        )


class TestInvalidSchedules:
    def test_single_axis_races(self):
        """S = i puts d(i, j-1) in the same partition as (i, j)."""
        func, bindings, domain = setup()
        with pytest.raises(MutualRaceError):
            lockstep(func, bindings, Schedule.of(i=1, j=0))

    def test_reversed_schedule_reads_unwritten(self):
        """S = -(i+j) runs the partitions backwards."""
        func, bindings, domain = setup()
        with pytest.raises(MutualRaceError):
            lockstep(func, bindings, Schedule.of(i=-1, j=-1))

    def test_agreement_with_algebraic_criteria(self):
        """Lock-step acceptance == criteria satisfaction == the naive
        edge walk == the vectorised edge check, across many candidate
        schedules (the paper's condition (1) made executable)."""
        from repro.analysis.criteria import schedule_criteria

        func, bindings, domain = setup("abc", "cba")
        criteria = schedule_criteria(func)
        for coeffs in [
            (1, 1), (1, 2), (2, 1), (3, 1), (1, 0), (0, 1),
            (1, -1), (-1, 1), (2, 2),
        ]:
            schedule = Schedule(("i", "j"), coeffs)
            algebraic = schedule.is_valid(criteria)
            try:
                lockstep(func, bindings, schedule)
                executed = True
            except MutualRaceError:
                executed = False
            assert executed == algebraic, coeffs
            walked = edges_valid(schedule, func, domain)
            assert walked == algebraic, coeffs
            vectorised = soundness._brute_force_edges(
                func, schedule, domain
            ) is None
            assert vectorised == algebraic, coeffs


class TestIntegerTables:
    def test_int_cells_above_2p53_stay_exact(self):
        """Cells past 2**53 have no exact float64: an int kernel's
        lock-step table is int64 and equals the oracle exactly."""
        func = check_function(parse_function(
            "int g(int n) = if n == 0 then 9007199254740993 "
            "else g(n-1) + 2"
        ))
        bindings = Bindings({})
        table = lockstep(func, bindings, Schedule.of(n=1), {"n": 3})
        assert table.dtype == np.int64
        oracle = memoised(func, bindings)
        assert [int(v) for v in table] == [oracle((n,)) for n in range(4)]
        assert int(table[3]) == 9007199254740999


class TestNegativePartitions:
    """``S`` is a plain dot product, so valid schedules often give
    negative partitions; a cell written at one is still written."""

    def test_upward_recursion_under_negated_schedule(self):
        """Cell 2 (partition -2) reads cell 3 (partition -3)."""
        func = check_function(parse_function(
            "int f(int n) = if n >= 3 then 0 else f(n+1) + 1"
        ))
        bindings = Bindings({})
        table = lockstep(func, bindings, Schedule.of(n=-1), {"n": 3})
        oracle = memoised(func, bindings)
        assert [int(v) for v in table] == [oracle((n,)) for n in range(4)]

    def test_interval_recursion_under_interval_schedule(self):
        """Under S = j - i, cell (i, i+1) (partition 1) reads cell
        (i+1, i), written at partition -1."""
        func = check_function(parse_function(
            "int h(seq[en] x, index[x] i, index[x] j) = "
            "if j <= i then 0 else h(i+1, j-1) + 1"
        ), EN)
        bindings = Bindings({"x": Sequence("abcab", ENGLISH)})
        table = lockstep(func, bindings, Schedule.of(i=-1, j=1))
        oracle = memoised(func, bindings)
        domain = Domain.of(i=table.shape[0], j=table.shape[1])
        for point in domain.points():
            assert table[point] == oracle(point)
