"""Tests for Schedule: partitions, validation, user schedules."""

import pytest

from repro.analysis.criteria import schedule_criteria
from repro.analysis.domain import Domain
from repro.lang.errors import ScheduleError
from repro.lang.parser import parse_expr, parse_function
from repro.lang.typecheck import check_function
from repro.schedule.schedule import Schedule, validate_user_schedule
from tests.group_of_one import edges_valid

EN = {"en": "abcdefghijklmnopqrstuvwxyz"}

EDIT_DISTANCE = """
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""


def edit_distance():
    return check_function(parse_function(EDIT_DISTANCE.strip()), EN)


class TestBasics:
    def test_partition_of(self):
        schedule = Schedule.of(i=1, j=1)
        assert schedule.partition_of((2, 3)) == 5

    def test_num_partitions_diagonal(self):
        # Figure 3: the 3x3 edit distance diagonal schedule has 5
        # partitions.
        schedule = Schedule.of(i=1, j=1)
        assert schedule.num_partitions(Domain.of(i=3, j=3)) == 5

    def test_num_partitions_2x_plus_y(self):
        # Section 2.3: S = 2x + y is valid but less efficient.
        diag = Schedule.of(i=1, j=1)
        skew = Schedule.of(i=2, j=1)
        domain = Domain.of(i=3, j=3)
        assert skew.num_partitions(domain) > diag.num_partitions(domain)

    def test_span_matches_num_partitions(self):
        schedule = Schedule.of(i=2, j=-1)
        domain = Domain.of(i=4, j=5)
        assert (
            schedule.span(domain.extent_map())
            == schedule.num_partitions(domain) - 1
        )

    def test_partitions_grouping(self):
        schedule = Schedule.of(i=1, j=1)
        groups = schedule.partitions(Domain.of(i=3, j=3))
        assert list(groups) == [0, 1, 2, 3, 4]
        assert sorted(groups[2]) == [(0, 2), (1, 1), (2, 0)]
        # Figure 3's partition sizes: 1, 2, 3, 2, 1.
        assert [len(groups[p]) for p in groups] == [1, 2, 3, 2, 1]

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Schedule(("i",), (1, 2))

    def test_str(self):
        assert str(Schedule.of(i=1, j=1)) == "S = i + j"


class TestStrategiesOfFigure4:
    """Figure 4's three parallel strategies over a 7x6 grid."""

    def test_columns(self):
        schedule = Schedule.of(x=1, y=0)
        assert schedule.num_partitions(Domain.of(x=7, y=6)) == 7

    def test_rows(self):
        schedule = Schedule.of(x=0, y=1)
        assert schedule.num_partitions(Domain.of(x=7, y=6)) == 6

    def test_diagonals(self):
        schedule = Schedule.of(x=1, y=1)
        assert schedule.num_partitions(Domain.of(x=7, y=6)) == 12

    def test_partition_four_members(self):
        # Each case in Figure 4 highlights the partition S = 4.
        domain = Domain.of(x=7, y=6)
        diag = Schedule.of(x=1, y=1)
        members = diag.partitions(domain)[4]
        assert sorted(members) == [
            (0, 4), (1, 3), (2, 2), (3, 1), (4, 0)
        ]


class TestValidation:
    def test_diagonal_valid_for_edit_distance(self):
        func = edit_distance()
        schedule = Schedule.of(i=1, j=1)
        schedule.validate(schedule_criteria(func))

    def test_single_axis_invalid_for_edit_distance(self):
        func = edit_distance()
        schedule = Schedule.of(i=1, j=0)  # misses the d(i, j-1) dep
        with pytest.raises(ScheduleError, match="violates"):
            schedule.validate(schedule_criteria(func))

    def test_is_valid_bool(self):
        func = edit_distance()
        criteria = schedule_criteria(func)
        assert Schedule.of(i=1, j=1).is_valid(criteria)
        assert not Schedule.of(i=0, j=1).is_valid(criteria)

    def test_brute_force_agrees_on_edit_distance(self):
        func = edit_distance()
        domain = Domain.of(i=4, j=4)
        criteria = schedule_criteria(func)
        for coeffs in [(1, 1), (2, 1), (1, 2), (1, 0), (0, 1), (1, -1)]:
            schedule = Schedule(("i", "j"), coeffs)
            assert schedule.is_valid(criteria) == edges_valid(
                schedule, func, domain
            ), coeffs


class TestUserSchedules:
    def test_valid_user_schedule_accepted(self):
        func = edit_distance()
        schedule = validate_user_schedule(func, parse_expr("i + j"))
        assert schedule == Schedule.of(i=1, j=1)

    def test_invalid_user_schedule_rejected(self):
        func = edit_distance()
        with pytest.raises(ScheduleError, match="violates"):
            validate_user_schedule(func, parse_expr("i - j"))

    def test_nonaffine_user_schedule_rejected(self):
        func = edit_distance()
        with pytest.raises(ScheduleError, match="affine"):
            validate_user_schedule(func, parse_expr("i * j"))

    def test_constant_term_rejected(self):
        func = edit_distance()
        with pytest.raises(ScheduleError, match="constant"):
            validate_user_schedule(func, parse_expr("i + j + 1"))

    def test_foreign_dimension_rejected(self):
        with pytest.raises(ScheduleError, match="not a recursion"):
            Schedule.from_expr(parse_expr("i + q"), ["i", "j"])
