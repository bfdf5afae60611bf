"""Mutual recursion: multiple compatible schedules (Section 9).

The paper's future-work sketch, implemented: for a group of mutually
recursive functions, derive one scheduling function per function,

    ``S_f = a_f . x + o_f``

whose partition time-steps are *compatible*: "if S_f(x) < S_g(y) then
f(x) must be computed before g(y)". Each call site ``f -> g`` with
descent ``r`` contributes the cross criterion

    ``S_f(x) - S_g(r(x)) > 0   for all x in f's domain``

— affine in the caller's dimensions once the coefficient vectors and
offsets are fixed, so the single-function machinery (box minimisation,
range-binder constraints, free worst cases) carries over directly.

The search enumerates the joint space of coefficient vectors (bounded,
like Section 4.6/4.7) and integer offsets (the first function's offset
is pinned to 0), ordered by the *global* partition count, so the first
valid assignment is optimal.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Tuple

from ..analysis.criteria import min_over_binders
from ..analysis.cross import CrossDescent, extract_cross_descents
from ..analysis.affine import Affine
from ..analysis.domain import Domain
from ..lang.errors import ScheduleError
from ..lang.typecheck import CheckedFunction
from .schedule import Schedule
from .solver import tie_break_key

#: Default coefficient bound for the joint search (tighter than the
#: single-function bound: the joint space is a product).
DEFAULT_MUTUAL_BOUND = 2
#: Default bound on |offset|.
DEFAULT_OFFSET_BOUND = 2
#: Guard against combinatorial blow-up of the joint enumeration.
MAX_CANDIDATES = 3_000_000


@dataclass(frozen=True)
class FunctionSchedule:
    """One function's schedule within a mutual group."""

    schedule: Schedule
    offset: int

    def partition_of(self, point) -> int:
        """Global partition of one domain point."""
        return self.schedule.partition_of(point) + self.offset

    def min_partition(self, domain: Domain) -> int:
        """Smallest global partition over ``domain``."""
        return self.schedule.min_partition(domain) + self.offset

    def max_partition(self, domain: Domain) -> int:
        """Largest global partition over ``domain``."""
        return self.schedule.max_partition(domain) + self.offset

    def __str__(self) -> str:
        base = str(self.schedule)
        if self.offset > 0:
            return f"{base} + {self.offset}"
        if self.offset < 0:
            return f"{base} - {-self.offset}"
        return base


@dataclass(frozen=True)
class MutualSchedule:
    """Compatible schedules for a whole group."""

    schedules: Mapping[str, FunctionSchedule]

    def __getitem__(self, name: str) -> FunctionSchedule:
        return self.schedules[name]

    def __iter__(self):
        return iter(self.schedules.items())

    def global_range(
        self, domains: Mapping[str, Domain]
    ) -> Tuple[int, int]:
        """(lowest, highest) global partition over all members."""
        lows = []
        highs = []
        for name, fs in self.schedules.items():
            lows.append(fs.min_partition(domains[name]))
            highs.append(fs.max_partition(domains[name]))
        return min(lows), max(highs)

    def total_partitions(self, domains: Mapping[str, Domain]) -> int:
        """Global partition count (the joint search goal)."""
        low, high = self.global_range(domains)
        return high - low + 1

    def __str__(self) -> str:
        return "; ".join(
            f"S_{name} = {fs}".replace("S = ", "")
            for name, fs in sorted(self.schedules.items())
        )


@dataclass(frozen=True)
class CrossCriterion:
    """The compatibility condition of one cross call site."""

    descent: CrossDescent

    def min_delta(
        self,
        coeffs: Mapping[str, Mapping[str, int]],
        offsets: Mapping[str, int],
        domains: Mapping[str, Domain],
    ) -> float:
        """``min over x of S_caller(x) - S_callee(r(x))``."""
        descent = self.descent
        caller_coeffs = coeffs[descent.caller]
        callee_coeffs = coeffs[descent.callee]
        callee_extents = domains[descent.callee].extent_map()
        caller_extents = domains[descent.caller].extent_map()

        delta = Affine.of(dict(caller_coeffs))
        free_min = 0.0
        for dim, comp in zip(descent.callee_dims, descent.components):
            a_k = callee_coeffs.get(dim, 0)
            if a_k == 0:
                continue
            if comp.is_free:
                top = a_k * (callee_extents[dim] - 1)
                free_min += min(0.0, -top)
                continue
            assert comp.affine is not None
            delta = delta - comp.affine.scale(a_k)

        delta = delta + Affine.constant(
            offsets[descent.caller] - offsets[descent.callee]
        )
        return (
            min_over_binders(delta, descent.binders, caller_extents)
            + free_min
        )

    def is_satisfied(self, coeffs, offsets, domains) -> bool:
        """Does the joint assignment satisfy this edge?"""
        return self.min_delta(coeffs, offsets, domains) > 0

    def __str__(self) -> str:
        return f"S_{self.descent.caller} > S_{self.descent.callee} o r"


def group_criteria(
    funcs: Mapping[str, CheckedFunction]
) -> Tuple[CrossCriterion, ...]:
    """All cross criteria of a mutual group (self-calls included)."""
    criteria: List[CrossCriterion] = []
    for func in funcs.values():
        for descent in extract_cross_descents(func, funcs):
            criteria.append(CrossCriterion(descent))
    return tuple(criteria)


def find_mutual_schedules(
    funcs: Mapping[str, CheckedFunction],
    domains: Mapping[str, Domain],
    coeff_bound: int = DEFAULT_MUTUAL_BOUND,
    offset_bound: int = DEFAULT_OFFSET_BOUND,
) -> MutualSchedule:
    """Derive compatible minimal schedules for a mutual group.

    Candidates are ordered by the global partition count, so the first
    valid joint assignment is optimal (within the bounds).
    """
    names = sorted(funcs)
    criteria = group_criteria(funcs)

    coeff_space: List[List[Tuple[int, ...]]] = []
    for name in names:
        rank = len(funcs[name].dim_names)
        coeff_space.append(
            list(itertools.product(
                range(-coeff_bound, coeff_bound + 1), repeat=rank
            ))
        )
    offset_space = [
        (0,) if k == 0 else tuple(
            range(-offset_bound, offset_bound + 1)
        )
        for k in range(len(names))
    ]

    total = 1
    for space in coeff_space:
        total *= len(space)
    for space in offset_space:
        total *= len(space)
    if total > MAX_CANDIDATES:
        raise ScheduleError(
            f"mutual schedule search space has {total} candidates; "
            f"reduce coeff_bound/offset_bound or split the group"
        )

    # Precompute each vector's partition range per function, so the
    # span key is a cheap lookup (the joint space can reach ~1e6).
    ranges: List[Dict[Tuple[int, ...], Tuple[int, int]]] = []
    for name, space in zip(names, coeff_space):
        table: Dict[Tuple[int, ...], Tuple[int, int]] = {}
        for vector in space:
            schedule = Schedule(funcs[name].dim_names, vector)
            domain = domains[name]
            table[vector] = (
                schedule.min_partition(domain),
                schedule.max_partition(domain),
            )
        ranges.append(table)

    def candidate_key(assignment):
        coeff_vectors, offset_vector = assignment
        lows, highs = [], []
        for table, vector, offset in zip(
            ranges, coeff_vectors, offset_vector
        ):
            lo, hi = table[vector]
            lows.append(lo + offset)
            highs.append(hi + offset)
        span = max(highs) - min(lows)
        tie = tie_break_key(sum(coeff_vectors, ())) + tuple(
            abs(o) for o in offset_vector
        )
        return (span, tie)

    assignments = sorted(
        itertools.product(
            itertools.product(*coeff_space),
            itertools.product(*offset_space),
        ),
        key=candidate_key,
    )

    # min_delta decomposes as base(vectors) + (o_caller - o_callee):
    # cache the expensive base per (criterion, caller vec, callee vec)
    # so offset enumeration costs a dictionary lookup.
    zero_offsets = {name: 0 for name in names}
    index_of = {name: k for k, name in enumerate(names)}
    base_cache: List[Dict[Tuple, float]] = [
        {} for _ in criteria
    ]

    def satisfied(ci, criterion, coeff_vectors, coeffs, offsets):
        caller = criterion.descent.caller
        callee = criterion.descent.callee
        key = (
            coeff_vectors[index_of[caller]],
            coeff_vectors[index_of[callee]],
        )
        base = base_cache[ci].get(key)
        if base is None:
            base = criterion.min_delta(coeffs, zero_offsets, domains)
            base_cache[ci][key] = base
        return base + offsets[caller] - offsets[callee] > 0

    for coeff_vectors, offset_vector in assignments:
        if all(
            all(a == 0 for a in vector) for vector in coeff_vectors
        ):
            continue
        coeffs = {
            name: dict(zip(funcs[name].dim_names, vector))
            for name, vector in zip(names, coeff_vectors)
        }
        offsets = dict(zip(names, offset_vector))
        if all(
            satisfied(ci, criterion, coeff_vectors, coeffs, offsets)
            for ci, criterion in enumerate(criteria)
        ):
            return MutualSchedule(
                {
                    name: FunctionSchedule(
                        Schedule(funcs[name].dim_names, vector),
                        offset,
                    )
                    for name, vector, offset in zip(
                        names, coeff_vectors, offset_vector
                    )
                }
            )
    raise ScheduleError(
        f"no compatible schedules with |coefficients| <= {coeff_bound} "
        f"and |offsets| <= {offset_bound} for group {tuple(names)}"
    )


def brute_force_mutual_valid(
    mutual: MutualSchedule,
    funcs: Mapping[str, CheckedFunction],
    domains: Mapping[str, Domain],
) -> bool:
    """Enumerate every call edge and check the partition ordering."""
    for name, func in funcs.items():
        domain = domains[name]
        caller_sched = mutual[name]
        for descent in extract_cross_descents(func, funcs):
            callee_sched = mutual[descent.callee]
            callee_domain = domains[descent.callee]
            for point in domain.points():
                values = dict(zip(domain.dims, point))
                here = caller_sched.partition_of(point)
                for target in _cross_targets(
                    descent, values, callee_domain
                ):
                    if not callee_domain.contains_tuple(target):
                        continue
                    if not here > callee_sched.partition_of(target):
                        return False
    return True


def _cross_targets(descent: CrossDescent, values, callee_domain):
    binder_ranges = []
    for bound in descent.binders:
        lo = bound.lo.evaluate(values)
        hi = bound.hi.evaluate(values)
        binder_ranges.append((bound.name, range(lo, hi + 1)))
    names = [n for n, _ in binder_ranges]
    for combo in itertools.product(*(r for _, r in binder_ranges)):
        env = dict(values)
        env.update(zip(names, combo))
        fixed = []
        free_dims = []
        for dim, comp in zip(descent.callee_dims, descent.components):
            if comp.is_free:
                fixed.append(None)
                free_dims.append(dim)
            else:
                fixed.append(comp.affine.evaluate(env))
        if not free_dims:
            yield tuple(fixed)
            continue
        extents = callee_domain.extent_map()
        for free_combo in itertools.product(
            *(range(extents[d]) for d in free_dims)
        ):
            result = []
            it = iter(free_combo)
            for value in fixed:
                result.append(next(it) if value is None else value)
            yield tuple(result)
