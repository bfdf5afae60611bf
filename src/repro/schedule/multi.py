"""Conditional parallelisation for many small problems (Section 4.7).

When ``map`` distributes problems over multiprocessors, problem sizes
differ and so may the optimal schedule: for ``f(x, y) = .. f(x-1, y-1)``
the minimal schedule is ``S = x`` when ``nx < ny`` and ``S = y``
otherwise. The single-problem search (which uses the concrete bounds)
cannot be re-run per problem cheaply, so at *compile time* we derive a
set of candidate schedules plus conditions choosing the minimal one at
run time, per problem.

The method, straight from the paper:

1. descent functions must be uniform (affine descents would need the
   runtime ranges, which are exactly what we do not have);
2. create all ``n!`` permutations of the dimensions;
3. for each permutation, find the lexicographically-first valid
   coefficient vector (minimise each dimension in turn, propagating
   the constraints); each such vector is minimal for *some* extents;
4. deduplicate. At run time, pick the candidate with the smallest
   span ``sum |a_k| * (N_k - 1)`` for the problem's extents.

Coefficients are restricted to ``0..bound`` (the paper derives "a
subset of the minimal schedules with positive coefficients").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from ..analysis.plan import function_plan
from ..lang.errors import ScheduleError
from ..lang.typecheck import CheckedFunction
from .schedule import Schedule
from .solver import DEFAULT_BOUND


@dataclass(frozen=True)
class ScheduleSet:
    """The compile-time product: candidate schedules for one function."""

    dims: Tuple[str, ...]
    schedules: Tuple[Schedule, ...]

    def select(self, extents: Mapping[str, int]) -> Schedule:
        """The runtime condition: smallest span wins (ties: first)."""
        return min(self.schedules, key=lambda s: s.span(extents))

    def selection_index(self, extents: Mapping[str, int]) -> int:
        """Index of the schedule chosen for ``extents``."""
        chosen = self.select(extents)
        return self.schedules.index(chosen)

    def __len__(self) -> int:
        return len(self.schedules)

    def __iter__(self):
        return iter(self.schedules)


def derive_schedule_set(
    func: CheckedFunction, bound: int = DEFAULT_BOUND
) -> ScheduleSet:
    """Derive the candidate schedules of ``func`` at compile time.

    The outcome — the set, or the :class:`ScheduleError` explaining
    why there is none — depends on the function and the bound only,
    and is remembered on the function's analysis plan.
    """
    plan = function_plan(func)
    outcome = plan.schedule_sets.get(bound)
    if outcome is None:
        try:
            outcome = _derive(func.dim_names, plan.criteria, bound)
        except ScheduleError as err:
            outcome = err.with_traceback(None)
        plan.schedule_sets[bound] = outcome
    if isinstance(outcome, ScheduleError):
        # A fresh exception per call: re-raising the stored instance
        # would grow its traceback and pin every caller's frames.
        raise ScheduleError(outcome.message, outcome.span)
    return outcome


def _derive(dims, criteria, bound: int) -> ScheduleSet:
    for criterion in criteria:
        if not criterion.is_uniform:
            raise ScheduleError(
                f"conditional parallelisation requires uniform descent "
                f"functions (Section 4.7), but call "
                f"{criterion.descent.call} is not uniform",
                criterion.descent.call.span,
            )
    offsets = [c.descent.uniform_offsets() for c in criteria]
    found: List[Schedule] = []
    for permutation in itertools.permutations(range(len(dims))):
        vector = _lex_minimal(permutation, len(dims), offsets, bound)
        if vector is None:
            continue
        schedule = Schedule(dims, vector)
        if schedule not in found:
            found.append(schedule)
    if not found:
        raise ScheduleError(
            f"no valid schedule with coefficients in 0..{bound} for "
            f"dimensions {dims}"
        )
    return ScheduleSet(dims, tuple(found))


def _lex_minimal(
    permutation: Sequence[int],
    rank: int,
    offsets: Sequence[Tuple[int, ...]],
    bound: int,
) -> Optional[Tuple[int, ...]]:
    """The lexicographically-first valid vector for one permutation.

    Minimises ``a[permutation[0]]`` first, then ``a[permutation[1]]``
    under that choice, and so on — each choice kept only if the
    remaining coefficients can still satisfy every criterion
    (constraint propagation via an optimistic bound, exact on full
    assignments).
    """
    chosen: List[Optional[int]] = [None] * rank

    def feasible() -> bool:
        for offset in offsets:
            total = 0
            for k in range(rank):
                contrib = -offset[k]
                if chosen[k] is not None:
                    total += chosen[k] * contrib
                elif contrib > 0:
                    total += bound * contrib  # best case for a_k in 0..bound
            if total < 1:
                return False
        return True

    def assign(position: int) -> bool:
        if position == rank:
            return feasible()
        dim = permutation[position]
        for value in range(0, bound + 1):
            chosen[dim] = value
            if feasible() and assign(position + 1):
                return True
        chosen[dim] = None
        return False

    if not assign(0):
        return None
    return tuple(chosen)  # type: ignore[arg-type]
