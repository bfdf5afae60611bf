"""Scheduling functions (Section 4.2) and their validation (4.5).

A schedule for ``f`` is an affine function with integer coefficients

    ``S_f = a1*x1 + ... + an*xn``

mapping each cell of the recursion domain to an integer partition
(time-step). Cells in the same partition are independent and may be
computed concurrently; partitions execute in increasing order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from ..analysis.affine import Affine, vector_to_affine
from ..analysis.criteria import Criterion
from ..analysis.domain import Domain
from ..analysis.plan import function_plan
from ..lang import ast
from ..lang.errors import ScheduleError
from ..lang.typecheck import CheckedFunction


@dataclass(frozen=True)
class Schedule:
    """An affine schedule over the recursion dimensions ``dims``."""

    dims: Tuple[str, ...]
    coefficients: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.dims) != len(self.coefficients):
            raise ValueError("dims and coefficients must match in length")

    # -- construction -------------------------------------------------------

    @staticmethod
    def of(**coefficients: int) -> "Schedule":
        """Build from keyword coefficients (insertion ordered)."""
        return Schedule(tuple(coefficients), tuple(coefficients.values()))

    @staticmethod
    def from_affine(affine: Affine, dims: Sequence[str]) -> "Schedule":
        """Build from an affine function over ``dims``."""
        if affine.const != 0:
            raise ScheduleError(
                f"schedules have no constant term (got {affine})"
            )
        known = set(dims)
        for dim in affine.dims():
            if dim not in known:
                raise ScheduleError(
                    f"schedule mentions {dim!r}, which is not a recursion "
                    f"dimension of {sorted(known)}"
                )
        table = affine.as_dict()
        return Schedule(
            tuple(dims), tuple(table.get(d, 0) for d in dims)
        )

    @staticmethod
    def from_expr(expr: ast.Expr, dims: Sequence[str]) -> "Schedule":
        """Build a schedule from a user expression (``schedule f : ...``)."""
        from ..analysis.affine import affine_from_expr
        from ..lang.errors import AnalysisError

        try:
            affine = affine_from_expr(expr, dims)
        except AnalysisError as err:
            raise ScheduleError(err.message, err.span) from err
        if affine is None:
            raise ScheduleError(
                f"schedule expression is not affine: {expr}", expr.span
            )
        return Schedule.from_affine(affine, dims)

    # -- serialisation -------------------------------------------------------

    def to_json(self) -> Dict[str, list]:
        """A JSON-safe representation (dims + coefficients)."""
        return {
            "dims": list(self.dims),
            "coefficients": list(self.coefficients),
        }

    @staticmethod
    def from_json(data: Mapping[str, Sequence]) -> "Schedule":
        """Rebuild a schedule from :meth:`to_json` output."""
        try:
            dims = tuple(str(d) for d in data["dims"])
            coefficients = tuple(int(c) for c in data["coefficients"])
        except (KeyError, TypeError, ValueError) as err:
            raise ScheduleError(
                f"malformed serialized schedule: {data!r}"
            ) from err
        return Schedule(dims, coefficients)

    # -- basic queries -------------------------------------------------------

    @property
    def affine(self) -> Affine:
        """The schedule as an affine function."""
        return vector_to_affine(self.dims, self.coefficients)

    def coefficient_map(self) -> Dict[str, int]:
        """Dimension name -> coefficient, as a dict."""
        return dict(zip(self.dims, self.coefficients))

    @property
    def is_zero(self) -> bool:
        """Is every coefficient zero (a single partition)?"""
        return all(c == 0 for c in self.coefficients)

    def partition_of(self, point: Sequence[int]) -> int:
        """The partition (time-step) of a domain point."""
        return sum(a * x for a, x in zip(self.coefficients, point))

    def min_partition(self, domain: Domain) -> int:
        """Smallest partition over ``domain``."""
        return self.affine.min_over_box(domain.extent_map())

    def max_partition(self, domain: Domain) -> int:
        """Largest partition over ``domain``."""
        return self.affine.max_over_box(domain.extent_map())

    def num_partitions(self, domain: Domain) -> int:
        """The schedule-search goal (Section 4.6): fewer is better."""
        return self.max_partition(domain) - self.min_partition(domain) + 1

    def span(self, extents: Mapping[str, int]) -> int:
        """``max(S) - min(S)`` over a box given as an extent map."""
        return sum(
            abs(a) * (extents[d] - 1)
            for d, a in zip(self.dims, self.coefficients)
        )

    # -- validation (Section 4.5) -------------------------------------------

    def validate(
        self,
        criteria: Iterable[Criterion],
        domain: Optional[Domain] = None,
    ) -> None:
        """Raise :class:`ScheduleError` unless valid for all criteria."""
        coeffs = self.coefficient_map()
        extents = domain.extent_map() if domain is not None else None
        for criterion in criteria:
            if not criterion.is_satisfied(coeffs, extents):
                raise ScheduleError(
                    f"schedule {self} violates the dependence of call "
                    f"{criterion.descent.call}: need {criterion}, but the "
                    f"minimum of the left-hand side is "
                    f"{criterion.min_delta(coeffs, extents)}",
                    criterion.descent.call.span,
                )

    def is_valid(
        self,
        criteria: Iterable[Criterion],
        domain: Optional[Domain] = None,
    ) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate(criteria, domain)
        except ScheduleError:
            return False
        return True

    def partitions(self, domain: Domain) -> Dict[int, list]:
        """Group all domain points by partition. For small domains."""
        result: Dict[int, list] = {}
        for point in domain.points():
            result.setdefault(self.partition_of(point), []).append(point)
        return dict(sorted(result.items()))

    def __str__(self) -> str:
        if self.is_zero:
            return "S = 0"
        return f"S = {self.affine}"


def validate_user_schedule(
    func: CheckedFunction,
    expr: ast.Expr,
    domain: Optional[Domain] = None,
) -> Schedule:
    """Check a user-provided schedule against ``func``'s dependencies.

    This is the user-verification path of Section 4.5: derive the
    criteria from the recursion and confirm the given schedule
    satisfies every one of them.
    """
    schedule = Schedule.from_expr(expr, func.dim_names)
    schedule.validate(function_plan(func).criteria, domain)
    return schedule


def brute_force_valid(
    schedule: Schedule,
    func: CheckedFunction,
    domain: Domain,
) -> bool:
    """Check validity by enumerating the call graph (testing oracle).

    Walks every domain point and every descent, and confirms
    ``S(c1) > S(c2)`` whenever ``c1 -> c2`` with ``c2`` in-domain —
    the partition ordering condition (1) applied to direct edges,
    which by induction implies it for the transitive closure.
    Exponentially slower than the algebraic criteria; small domains
    only.
    """
    descents = function_plan(func).descents
    extent = domain.extent_map()
    for point in domain.points():
        values = dict(zip(domain.dims, point))
        here = schedule.partition_of(point)
        for descent in descents:
            for target in _descent_targets(descent, values, extent):
                if not domain.contains_tuple(target):
                    continue
                if not here > schedule.partition_of(target):
                    return False
    return True


def _descent_targets(descent, values, extents):
    """All concrete callee points of a descent at ``values``.

    Free components range over their whole dimension; range binders
    range over their (evaluated) bounds.
    """
    import itertools

    binder_ranges = []
    for bound in descent.binders:
        lo = bound.lo.evaluate(values)
        hi = bound.hi.evaluate(values)
        binder_ranges.append((bound.name, range(lo, hi + 1)))
    binder_combos = itertools.product(
        *(r for _, r in binder_ranges)
    )
    binder_names = [name for name, _ in binder_ranges]

    for combo in binder_combos:
        env = dict(values)
        env.update(zip(binder_names, combo))
        fixed = []
        free_dims = []
        for comp in descent.components:
            if comp.is_free:
                fixed.append(None)
                free_dims.append(comp.dim)
            else:
                fixed.append(comp.affine.evaluate(env))
        if not free_dims:
            yield tuple(fixed)
            continue
        ranges = [range(extents[d]) for d in free_dims]
        for free_combo in itertools.product(*ranges):
            result = []
            it = iter(free_combo)
            for value in fixed:
                result.append(next(it) if value is None else value)
            yield tuple(result)
