"""Edge cases of the schedule machinery that real inputs can hit."""

import pytest

from repro.analysis.criteria import schedule_criteria
from repro.analysis.domain import Domain
from repro.lang.errors import ScheduleError
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.schedule.schedule import Schedule
from repro.schedule.solver import find_schedule
from tests.group_of_one import edges_valid


def checked(src):
    return check_function(parse_function(src))


class TestSingleCellDomains:
    def test_degenerate_extent_one(self):
        """A 1x1 domain still schedules and runs."""
        func = checked(
            "int f(int x, int y) = if x == 0 then 0 else f(x-1, y-1)"
        )
        schedule = find_schedule(func, Domain.of(x=1, y=1))
        assert schedule.num_partitions(Domain.of(x=1, y=1)) == 1

    def test_one_by_many(self):
        func = checked(
            "int f(int x, int y) = if x == 0 then 0 else f(x-1, y-1)"
        )
        domain = Domain.of(x=1, y=100)
        schedule = find_schedule(func, domain)
        # x never moves: a single partition suffices... but the
        # criterion a_x + a_y >= 1 still demands a non-zero vector;
        # the minimal valid choice spans the trivial dimension.
        assert schedule.num_partitions(domain) == 1
        assert edges_valid(schedule, func, Domain.of(x=1, y=6))


class TestZeroOffsetCalls:
    def test_identity_component_forces_other_dim(self):
        """f(x, y-1): the x component moves nothing, so the schedule
        must advance on y alone."""
        func = checked(
            "int f(int x, int y) = if y == 0 then 0 else f(x, y-1)"
        )
        schedule = find_schedule(func, Domain.of(x=10, y=10))
        assert schedule == Schedule.of(x=0, y=1)

    def test_pure_self_call_unschedulable(self):
        func = checked("int f(int x, int y) = f(x, y) + 1")
        with pytest.raises(ScheduleError):
            find_schedule(func, Domain.of(x=3, y=3))


class TestMixedDirections:
    @pytest.mark.parametrize(
        "body,expected_sign",
        [
            ("f(x-1, y+1)", (1, -1)),
            ("f(x+1, y-1)", (-1, 1)),
            ("f(x+1, y+1)", (-1, -1)),
        ],
    )
    def test_all_four_quadrants(self, body, expected_sign):
        func = checked(
            f"int f(int x, int y) = if x == 0 then 0 else {body}"
        )
        domain = Domain.of(x=6, y=6)
        schedule = find_schedule(func, domain)
        assert edges_valid(schedule, func, domain)
        # The minimal schedule points against the descent direction:
        # its dot product with the step vector is negative.
        coeffs = schedule.coefficient_map()
        step = {
            "f(x-1, y+1)": (-1, 1),
            "f(x+1, y-1)": (1, -1),
            "f(x+1, y+1)": (1, 1),
        }[body]
        dot = coeffs["x"] * step[0] + coeffs["y"] * step[1]
        assert dot < 0

    def test_opposing_calls_need_skew(self):
        """f(x-1, y-2) and f(x-2, y-1) both valid under S = x + y."""
        func = checked(
            "int f(int x, int y) = if x < 2 then 0 else "
            "f(x-1, y-2) + f(x-2, y-1)"
        )
        domain = Domain.of(x=8, y=8)
        schedule = find_schedule(func, domain)
        assert edges_valid(schedule, func, domain)
        assert schedule.num_partitions(domain) <= 15


class TestUserScheduleWithExtents:
    def test_affine_descent_user_schedule_verified_with_domain(self):
        """Section 4.5: affine descents need the runtime range."""
        from repro.lang.parser import parse_expr
        from repro.schedule.schedule import validate_user_schedule

        func = checked(
            "int f(int x, int y) = if x == 0 then 0 else f(x - 1, x - y)"
        )
        # Valid: only x advances.
        validate_user_schedule(
            func, parse_expr("x"), Domain.of(x=10, y=10)
        )
        # Invalid once y participates.
        with pytest.raises(ScheduleError):
            validate_user_schedule(
                func, parse_expr("x + y"), Domain.of(x=10, y=10)
            )
