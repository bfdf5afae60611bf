"""Tests for serial bottom-up tabulation (a function as a group of one)."""

import pytest

from repro.lang.errors import RuntimeDslError
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.runtime.interpreter import memoised
from repro.runtime.values import Bindings, ENGLISH, Sequence
from repro.schedule.schedule import Schedule
from tests.group_of_one import tabulate

EN = {"en": ENGLISH.chars}

EDIT_DISTANCE = """
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""


def checked(src, alphabets=EN):
    return check_function(parse_function(src.strip()), alphabets)


class TestTabulate:
    def test_matches_oracle(self):
        func = checked(EDIT_DISTANCE)
        bindings = Bindings({"s": Sequence("flaw", ENGLISH),
                             "t": Sequence("lawns", ENGLISH)})
        table = tabulate(func, bindings, Schedule.of(i=1, j=1))
        oracle = memoised(func, bindings)
        for i in range(5):
            for j in range(6):
                assert table[i, j] == oracle((i, j))

    def test_reversed_schedule_detected(self):
        """A schedule whose serial order reads unwritten cells fails.

        (Schedules that are invalid for *parallel* execution but
        happen to produce a workable serial order are the lock-step
        executor's job to reject — tabulation is the serial
        baseline.)"""
        func = checked(EDIT_DISTANCE)
        bindings = Bindings({"s": Sequence("ab", ENGLISH),
                             "t": Sequence("cd", ENGLISH)})
        with pytest.raises(RuntimeDslError, match="not valid"):
            tabulate(func, bindings, Schedule.of(i=-1, j=-1))

    def test_int_dimension_with_initial(self):
        func = checked(
            "int fib(int n) = if n < 2 then n else fib(n-1) + fib(n-2)"
        )
        table = tabulate(
            func, Bindings({}), Schedule.of(n=1), initial={"n": 12}
        )
        assert table[12] == 144

    def test_float_table_dtype(self):
        func = checked("float f(float g, seq[en] s, index[s] i) = g")
        table = tabulate(
            func,
            Bindings({"g": 0.5, "s": Sequence("ab", ENGLISH)}),
            Schedule.of(i=0),
        )
        assert table.dtype.kind == "f"
        assert (table == 0.5).all()
