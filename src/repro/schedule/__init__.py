"""Schedules: representation, validation, search, windows (Section 4)."""

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
    optimal_candidates,
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
    "DEFAULT_BOUND",
    "EnumerativeSolver",
    "OrthantSolver",
    "find_schedule",
    "optimal_candidates",
    "window_rows",
    "window_size",
]
