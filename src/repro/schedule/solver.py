"""Automatic schedule derivation (Section 4.6).

The search for the coefficients ``a1..an`` is a constraint
satisfaction problem: the per-call-site criteria enforce validity,
and the goal

    ``min over a of  max_x(S_f(x)) - min_x(S_f(x))``

selects the schedule with the fewest partitions, maximising the
average partition size. The goal is non-linear in ``a`` (because of
the max/min over the box), which the paper resolves by observing that
a linear function is extremised component-wise: fixing the *sign* of
each ``a_k`` fixes which corner of the box maximises/minimises it,
giving up to ``2^n`` linear sub-problems (Section 4.6).

Two solvers are provided and cross-checked in the test suite:

* :class:`EnumerativeSolver` — exhaustive search over the bounded
  coefficient box, in order of increasing partition count, so the
  first valid vector found is optimal. Handles every criterion kind.
* :class:`OrthantSolver` — the paper's sign-orthant CSP decomposition,
  solved per orthant with a bounded integer linear program. Restricted
  to uniform criteria (general affine criteria make the constraint
  matrix sign-dependent on ``a`` beyond the orthant pattern; the
  solver falls back to enumeration for those).

Coefficients are bounded (default 10, customisable — Section 4.7).

When every descent is uniform the criteria do not mention the extents
at all (Section 4.5), so the set of vectors that can win for *some*
extents is a property of the function: :func:`optimal_candidates`
derives it once per (function, bound) and :func:`find_schedule` then
picks from it per problem — the same vector either solver returns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.criteria import Criterion
from ..analysis.domain import Domain
from ..analysis.plan import function_plan
from ..lang.errors import ScheduleError
from ..lang.typecheck import CheckedFunction
from .schedule import Schedule

#: Default bound on |coefficient| (Section 4.7 uses "a small fixed
#: number (10) that is customisable by the end user").
DEFAULT_BOUND = 10

#: Derive the extent-free candidate set only when the coefficient box
#: ``(2*bound + 1)**rank`` holds at most this many vectors (rank <= 3
#: at the default bound); larger boxes keep the per-extents solver.
CANDIDATE_BOX_CAP = 10_000


def tie_break_key(vector: Tuple[int, ...]) -> Tuple:
    """The canonical preference among equal-goal coefficient vectors.

    Smaller absolute values win, then positive signs, compared
    lexicographically over the dimensions — the paper's preference for
    the "first set of solution coefficients" made total and explicit.
    Both solvers order ties by this key, so for any (criteria, domain)
    they return the *same* schedule; tests and the kernel cache rely
    on that determinism.
    """
    return tuple((abs(a), a < 0) for a in vector)


@dataclass(frozen=True)
class SearchStats:
    """Diagnostics from a schedule search."""

    candidates_checked: int
    orthants_solved: int
    partitions: int


class EnumerativeSolver:
    """Exhaustive bounded search; the reference solver.

    Candidates are generated in order of increasing goal value
    (partition count for the given domain), so the first valid
    candidate is optimal — and ties break towards small, positive
    coefficients, matching the paper's preference for the "first set
    of solution coefficients".
    """

    def __init__(self, bound: int = DEFAULT_BOUND) -> None:
        if bound < 1:
            raise ValueError("coefficient bound must be >= 1")
        self.bound = bound
        self.last_stats: Optional[SearchStats] = None

    def solve(
        self,
        dims: Sequence[str],
        criteria: Iterable[Criterion],
        domain: Domain,
    ) -> Schedule:
        """Find the partition-minimal valid schedule."""
        criteria = tuple(criteria)
        extents = domain.extent_map()
        weights = [extents[d] - 1 for d in dims]
        checked = 0
        for coeffs in self._candidates(len(dims), weights):
            checked += 1
            schedule = Schedule(tuple(dims), coeffs)
            if schedule.is_zero:
                continue
            if all(
                c.is_satisfied(schedule.coefficient_map(), extents)
                for c in criteria
            ):
                self.last_stats = SearchStats(
                    checked, 0, schedule.num_partitions(domain)
                )
                return schedule
        raise ScheduleError(
            f"no valid schedule with |coefficients| <= {self.bound} for "
            f"dimensions {tuple(dims)}; the recursion admits no affine "
            f"parallelisation in this bound"
        )

    def _candidates(
        self, rank: int, weights: Sequence[int]
    ) -> Iterable[Tuple[int, ...]]:
        """All coefficient vectors, sorted by goal then tie-break.

        Ties order by :func:`tie_break_key` (small absolute values,
        then positive signs, lexicographically over the dimensions).
        """
        values = range(-self.bound, self.bound + 1)
        vectors = itertools.product(values, repeat=rank)

        def key(vector: Tuple[int, ...]):
            goal = sum(abs(a) * w for a, w in zip(vector, weights))
            return (goal, tie_break_key(vector))

        return sorted(vectors, key=key)


class OrthantSolver:
    """The paper's 2^n sign-orthant CSP decomposition (Section 4.6).

    Within one orthant (a fixed sign pattern ``s``), the goal becomes
    the linear function ``sum s_k * a_k * (N_k - 1)`` and uniform
    criteria are linear constraints ``sum(-c_k * a_k) >= 1``, so each
    sub-problem is a small bounded ILP. Orthants whose sign pattern is
    already inconsistent with a criterion are skipped — the pruning
    the paper describes.
    """

    def __init__(self, bound: int = DEFAULT_BOUND) -> None:
        if bound < 1:
            raise ValueError("coefficient bound must be >= 1")
        self.bound = bound
        self.last_stats: Optional[SearchStats] = None

    def solve(
        self,
        dims: Sequence[str],
        criteria: Iterable[Criterion],
        domain: Domain,
    ) -> Schedule:
        """Find the partition-minimal valid schedule."""
        criteria = tuple(criteria)
        if any(not c.is_uniform for c in criteria):
            fallback = EnumerativeSolver(self.bound)
            schedule = fallback.solve(dims, criteria, domain)
            self.last_stats = fallback.last_stats
            return schedule

        extents = domain.extent_map()
        weights = [extents[d] - 1 for d in dims]
        offsets = [c.descent.uniform_offsets() for c in criteria]

        # Cross-orthant ties are ordered by the same key the
        # enumerative solver sorts with, not by orthant iteration
        # order — both solvers must return identical schedules.
        best: Optional[Tuple[Tuple, Tuple[int, ...]]] = None
        orthants = 0
        for signs in itertools.product((1, -1), repeat=len(dims)):
            orthants += 1
            solution = self._solve_orthant(signs, weights, offsets)
            if solution is None:
                continue
            goal = sum(
                abs(a) * w for a, w in zip(solution, weights)
            )
            key = (goal, tie_break_key(solution))
            if best is None or key < best[0]:
                best = (key, solution)
        if best is None:
            raise ScheduleError(
                f"no valid schedule with |coefficients| <= {self.bound} "
                f"for dimensions {tuple(dims)}"
            )
        schedule = Schedule(tuple(dims), best[1])
        self.last_stats = SearchStats(0, orthants, best[0][0] + 1)
        return schedule

    def _solve_orthant(
        self,
        signs: Sequence[int],
        weights: Sequence[int],
        offsets: Sequence[Tuple[int, ...]],
    ) -> Optional[Tuple[int, ...]]:
        """Bounded ILP in one orthant, by depth-first branch and bound.

        Variables ``a_k`` range over ``0..bound`` scaled by the
        orthant sign; the objective is separable and monotone in
        ``|a_k|``, so trying small magnitudes first and pruning on the
        incumbent is exact.
        """
        rank = len(signs)
        best_goal = [None]  # type: List[Optional[int]]
        best_vec: List[Optional[Tuple[int, ...]]] = [None]

        def feasible(prefix: Tuple[int, ...]) -> bool:
            """Optimistic check: can the remaining coefficients still
            satisfy every constraint?"""
            for offset in offsets:
                # delta = sum(-a_k * c_k); fixed part from the prefix,
                # optimistic bound for the rest.
                fixed = sum(
                    -a * c for a, c in zip(prefix, offset)
                )
                headroom = 0
                for k in range(len(prefix), rank):
                    # a_k in 0..bound * sign; choose the best case.
                    contrib = -signs[k] * offset[k]
                    if contrib > 0:
                        headroom += contrib * self.bound
                if fixed + headroom < 1:
                    return False
            return True

        def descend(prefix: Tuple[int, ...], goal: int) -> None:
            if best_goal[0] is not None and goal >= best_goal[0]:
                return
            k = len(prefix)
            if not feasible(prefix):
                return
            if k == rank:
                # feasible() on a full vector is the exact constraint
                # check (no headroom remains).
                best_goal[0] = goal
                best_vec[0] = prefix
                return
            for magnitude in range(0, self.bound + 1):
                value = signs[k] * magnitude
                descend(
                    prefix + (value,), goal + magnitude * weights[k]
                )

        descend((), 0)
        return best_vec[0]


def optimal_candidates(
    func: CheckedFunction, bound: int = DEFAULT_BOUND
) -> Optional[Tuple[Tuple[int, ...], ...]]:
    """Every vector that is optimal for *some* extents, best first.

    For all-uniform criteria validity is extent-free and the goal
    ``sum |a_k| * (N_k - 1)`` has non-negative weights, so a valid
    vector ``v`` can never win if another valid ``u`` has
    ``|u_k| <= |v_k|`` in every component and a smaller
    :func:`tie_break_key`: ``u`` is at least as good on every box and
    preferred on ties. What survives is a handful of vectors in
    tie-break order. ``None`` when a descent is not uniform or the
    coefficient box exceeds :data:`CANDIDATE_BOX_CAP`. Memoised on
    the plan per bound.
    """
    plan = function_plan(func)
    if bound not in plan.candidates:
        rank = len(func.dim_names)
        plan.candidates[bound] = (
            _undominated_valid(
                [c.descent.uniform_offsets() for c in plan.criteria],
                rank,
                bound,
            )
            if plan.is_uniform
            and (2 * bound + 1) ** rank <= CANDIDATE_BOX_CAP
            else None
        )
    return plan.candidates[bound]


def _undominated_valid(
    offsets: Sequence[Tuple[int, ...]], rank: int, bound: int
) -> Tuple[Tuple[int, ...], ...]:
    """Enumerate the coefficient box; keep the undominated valid rows."""
    # Per-dimension values in tie_break_key order (0, 1, -1, 2, ...):
    # the row-major grid then lists whole vectors in that order too.
    values = [0]
    for magnitude in range(1, bound + 1):
        values += [magnitude, -magnitude]
    grid = np.stack(
        np.meshgrid(*[np.array(values)] * rank, indexing="ij"), axis=-1
    ).reshape(-1, rank)
    deltas = grid @ -np.array(offsets, dtype=np.int64).reshape(-1, rank).T
    vectors = grid[(deltas >= 1).all(axis=1)]
    magnitudes = np.abs(vectors)
    kept = []
    while len(vectors):
        # The head is preferred to everything after it, so it
        # dominates exactly the rows it is component-wise below.
        kept.append(tuple(int(a) for a in vectors[0]))
        survives = (magnitudes < magnitudes[0]).any(axis=1)
        vectors, magnitudes = vectors[survives], magnitudes[survives]
    return tuple(kept)


def find_schedule(
    func: CheckedFunction,
    domain: Domain,
    bound: int = DEFAULT_BOUND,
    solver: str = "orthant",
) -> Schedule:
    """Derive a valid, partition-minimal schedule for ``func``.

    Fully automatic: the criteria come from the recursion alone
    (Section 4.6). ``solver`` picks the strategy (``"orthant"`` or
    ``"enumerative"``); the default reads the function's extent-free
    candidate set when it has one, ``"enumerative"`` always runs the
    exhaustive reference search.
    """
    plan = function_plan(func)
    dims = func.dim_names
    if not plan.criteria:
        # No recursive calls: every cell is independent and a single
        # partition suffices.
        return Schedule(dims, (0,) * len(dims))
    if solver == "orthant":
        engine = OrthantSolver(bound)
        candidates = optimal_candidates(func, bound)
        if candidates is not None:
            return _pick(dims, candidates, domain, bound)
    elif solver == "enumerative":
        engine = EnumerativeSolver(bound)
    else:
        raise ValueError(f"unknown solver {solver!r}")
    return engine.solve(dims, plan.criteria, domain)


def _pick(
    dims: Tuple[str, ...],
    candidates: Sequence[Tuple[int, ...]],
    domain: Domain,
    bound: int,
) -> Schedule:
    """The candidate with the fewest partitions over ``domain``."""
    if not candidates:
        raise ScheduleError(
            f"no valid schedule with |coefficients| <= {bound} "
            f"for dimensions {tuple(dims)}"
        )
    extents = domain.extent_map()
    weights = [extents[d] - 1 for d in dims]
    # Candidates are in tie-break order and min() keeps the first
    # minimum: this is the argmin of (goal, tie_break_key).
    return Schedule(dims, min(
        candidates,
        key=lambda v: sum(abs(a) * w for a, w in zip(v, weights)),
    ))
