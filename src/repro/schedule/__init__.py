"""Schedules: representation, validation, search, windows (Section 4)."""

from .multi import ScheduleSet, derive_schedule_set
from .mutual_rec import (
    FunctionSchedule,
    MutualSchedule,
    brute_force_mutual_valid,
    find_mutual_schedules,
)
from .schedule import (
    Schedule,
    brute_force_valid,
    validate_user_schedule,
)
from .solver import (
    DEFAULT_BOUND,
    EnumerativeSolver,
    OrthantSolver,
    find_schedule,
)
from .window import window_rows, window_size

__all__ = [
    "Schedule",
    "FunctionSchedule",
    "MutualSchedule",
    "brute_force_mutual_valid",
    "find_mutual_schedules",
    "brute_force_valid",
    "validate_user_schedule",
    "ScheduleSet",
    "derive_schedule_set",
    "DEFAULT_BOUND",
    "EnumerativeSolver",
    "OrthantSolver",
    "find_schedule",
    "window_rows",
    "window_size",
]
