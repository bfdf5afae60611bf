"""Validity criteria on schedules (Section 4.5).

A schedule ``S_f`` is valid iff for every call site with descent
``r``: ``S_f(x) - S_f(r(x)) > 0`` for all ``x`` in the domain. With
``S_f = a . x`` this becomes

    ``a1*(x1 - r1(x)) + ... + an*(xn - rn(x)) > 0  for all x``

Each call site yields one :class:`Criterion`. For uniform descents
(``r_k = x_k + c_k``) the left-hand side is the constant
``sum(-a_k * c_k)`` and the criterion is domain-independent; general
affine or free components need the runtime extents (Section 4.5/4.9).

Range-reduction descents (Section 5's looping extension) add binder
variables ``lo(x) <= k <= hi(x)``: the delta is affine in ``(x, k)``,
so it is minimised by pinning each binder to one of its (affine)
bounds and minimising the resulting affine functions over the box,
subject to the ranges being non-empty — a small linear program,
solved exactly by enumerating its vertices in rationals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Mapping, Optional, Sequence, Tuple

from ..lang.errors import ScheduleError
from ..lang.typecheck import CheckedFunction
from .affine import Affine
from .descent import BinderBound, DescentFunction, extract_descents


def min_affine_over_box(
    affine: Affine,
    extents: Mapping[str, int],
    constraints: Sequence[Affine] = (),
) -> Optional[float]:
    """``min affine(x)`` over the box, subject to ``c(x) >= 0``.

    Returns ``None`` when the constrained region is empty (a vacuous
    criterion) — including the degenerate boxes: any dimension the
    function (or a constraint) mentions with extent < 1 makes the box
    itself empty. A single-point dimension (extent 1) pins its
    coordinate at 0 and is handled by the ordinary corner formula.
    Without constraints this is the exact corner formula; with
    constraints it is the exact minimum of the real relaxation — a
    safe lower bound for the integer minimum (the criterion only needs
    a positive lower bound).
    """
    names = sorted(
        set(affine.dims()).union(
            *[set(c.dims()) for c in constraints]
        )
    )
    if any(extents[d] < 1 for d in names if d in extents):
        return None
    if not constraints:
        return float(affine.min_over_box(extents))
    # The region is a bounded polytope: when it is non-empty it has a
    # vertex and attains its minimum at one. A vertex is where ``n``
    # linearly independent faces meet — box faces ``x_k = 0``,
    # ``x_k = N_k - 1`` or constraint hyperplanes ``c(x) = 0`` — and
    # lies in the region.
    rank = len(names)
    faces = []
    for k, dim in enumerate(names):
        unit = [int(k == j) for j in range(rank)]
        faces += [(unit, 0), (unit, extents[dim] - 1)]
    rows = [[c.coefficient(d) for d in names] for c in constraints]
    faces += [(row, -c.const) for row, c in zip(rows, constraints)]
    objective = [affine.coefficient(d) for d in names]
    values = [
        _dot(objective, point)
        for point in map(
            _solve_exactly, itertools.combinations(faces, rank)
        )
        if point is not None
        and all(0 <= x <= extents[d] - 1 for x, d in zip(point, names))
        and all(
            _dot(row, point) + c.const >= 0
            for row, c in zip(rows, constraints)
        )
    ]
    return float(min(values) + affine.const) if values else None


def _dot(row: Sequence[int], point: Sequence[Fraction]) -> Fraction:
    return sum((a * x for a, x in zip(row, point)), Fraction(0))


def _solve_exactly(
    equations: Sequence[Tuple[Sequence[int], int]]
) -> Optional[List[Fraction]]:
    """The solution of the square system ``row . x = rhs``, by
    Gauss-Jordan elimination in rationals; ``None`` when singular."""
    m = [
        [Fraction(a) for a in row] + [Fraction(rhs)]
        for row, rhs in equations
    ]
    n = len(m)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col] / m[col][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return [m[k][n] / m[k][k] for k in range(n)]


def min_over_binders(
    delta: Affine,
    binders: Sequence[BinderBound],
    extents: Mapping[str, int],
) -> float:
    """``min delta`` over the box and its binders ``lo <= k <= hi``.

    An affine function of a binder is extremised at one of its ends,
    so every used binder is pinned to ``lo`` or ``hi`` and the true
    minimum is among those pinnings, each minimised subject to every
    range being non-empty (``hi - lo >= 0``). ``math.inf`` when the
    ranges are empty everywhere: the dependence never materialises.
    """
    used = [b for b in binders if delta.coefficient(b.name)]
    constraints = [b.hi - b.lo for b in binders]
    minima = [
        min_affine_over_box(
            delta.substitute({
                b.name: b.hi if end else b.lo
                for b, end in zip(used, ends)
            }),
            extents,
            constraints,
        )
        for ends in itertools.product((0, 1), repeat=len(used))
    ]
    return min((m for m in minima if m is not None), default=math.inf)


@dataclass(frozen=True)
class Criterion:
    """The schedule condition contributed by one recursive call site.

    ``delta(a) = S(x) - S(r(x))`` decomposes into an affine part (over
    the dimensions and any range binders) plus free terms whose worst
    case is ``-|a_k| * (N_k - 1)``.
    """

    dims: Tuple[str, ...]
    descent: DescentFunction

    @property
    def is_uniform(self) -> bool:
        """Are all of the descent's components uniform?"""
        return self.descent.is_uniform

    @property
    def requires_extents(self) -> bool:
        """Does evaluating this criterion need the runtime box?"""
        return not self.is_uniform

    def delta_affine(self, coeffs: Mapping[str, int]) -> Affine:
        """The affine part of ``S(x) - S(r(x))`` for schedule ``a``.

        May mention range-binder names as extra variables; free
        components are handled separately (:meth:`min_delta`).
        """
        total = Affine.constant(0)
        for comp in self.descent.components:
            a_k = coeffs.get(comp.dim, 0)
            if a_k == 0:
                continue
            if comp.is_free:
                continue  # handled by _free_minimum
            assert comp.affine is not None
            difference = Affine.variable(comp.dim) - comp.affine
            total = total + difference.scale(a_k)
        return total

    def _free_minimum(
        self, coeffs: Mapping[str, int], extents: Optional[Mapping[str, int]]
    ) -> int:
        total = 0
        for comp in self.descent.components:
            if not comp.is_free:
                continue
            a_k = coeffs.get(comp.dim, 0)
            if a_k == 0:
                continue
            if extents is None:
                raise ScheduleError(
                    f"criterion for call {self.descent.call} has a free "
                    f"component in dimension {comp.dim!r}; validity needs "
                    f"the runtime extents (or a zero coefficient)"
                )
            # x_k - fresh, both in 0..N_k-1: worst case -(N_k - 1),
            # scaled by |a_k| whatever the sign of a_k.
            total -= abs(a_k) * (extents[comp.dim] - 1)
        return total

    def min_delta(
        self,
        coeffs: Mapping[str, int],
        extents: Optional[Mapping[str, int]] = None,
    ) -> float:
        """``min over x of S(x) - S(r(x))``; needs extents unless uniform."""
        delta = self.delta_affine(coeffs)
        free_part = self._free_minimum(coeffs, extents)
        if delta.is_constant and not self.descent.binders:
            return delta.const + free_part
        if extents is None:
            raise ScheduleError(
                f"criterion for call {self.descent.call} is not "
                f"uniform; validity needs the runtime extents"
            )
        return (
            min_over_binders(delta, self.descent.binders, extents)
            + free_part
        )

    def is_satisfied(
        self,
        coeffs: Mapping[str, int],
        extents: Optional[Mapping[str, int]] = None,
    ) -> bool:
        """Does schedule ``coeffs`` satisfy this criterion?"""
        return self.min_delta(coeffs, extents) > 0

    def __str__(self) -> str:
        terms = []
        for comp in self.descent.components:
            if comp.is_free:
                terms.append(f"a_{comp.dim}*({comp.dim} - *)")
            else:
                assert comp.affine is not None
                diff = Affine.variable(comp.dim) - comp.affine
                if diff.is_constant and diff.const == 0:
                    continue
                terms.append(f"a_{comp.dim}*({diff})")
        body = " + ".join(terms) if terms else "0"
        text = f"{body} > 0"
        if self.descent.binders:
            text += " for " + ", ".join(
                str(b) for b in self.descent.binders
            )
        return text


def schedule_criteria(func: CheckedFunction) -> Tuple[Criterion, ...]:
    """One criterion per recursive call site of ``func``."""
    dims = func.dim_names
    return tuple(
        Criterion(dims, descent) for descent in extract_descents(func)
    )
