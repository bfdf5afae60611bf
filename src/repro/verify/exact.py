"""Exact integer min/max of affine functions over constrained boxes.

This is the verifier's arithmetic core, written independently of
:func:`repro.analysis.criteria.min_affine_over_box` (which feeds the
schedule *solver*): the unconstrained case enumerates the box vertices
outright instead of using the per-term corner shortcut, and the
constrained case prefers exact integer enumeration — the whole box
evaluated at once in NumPy — falling back to an LP relaxation only
when the region is too large — and then rounding the bound up, which
is sound because affine functions with integer coefficients take
integer values at integer points.

All functions speak :class:`~repro.analysis.affine.Affine` (the shared
*representation* — the proofs are what must not be shared) and treat a
constraint ``c`` as ``c(x) >= 0``.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..analysis.affine import Affine

#: Enumerate the integer region exactly when it has at most this many
#: points; beyond it, fall back to the LP relaxation.
ENUMERATION_CAP = 200_000


class MinResult(NamedTuple):
    """Outcome of a constrained minimisation.

    ``value is None`` means the region is provably empty (LP
    infeasibility implies integer infeasibility, so emptiness is
    always exact). ``exact`` is False when ``value`` is only the
    rounded LP lower bound. ``witness`` is an integer point attaining
    the minimum when enumeration found one.
    """

    value: Optional[float]
    exact: bool
    witness: Optional[Dict[str, int]] = None

    @property
    def empty(self) -> bool:
        """Is the constrained region provably empty?"""
        return self.value is None


def _used_names(
    objective: Affine, constraints: Sequence[Affine]
) -> Tuple[str, ...]:
    names = set(objective.dims())
    for con in constraints:
        names.update(con.dims())
    return tuple(sorted(names))


def _bounds_of(
    names: Iterable[str],
    extents: Mapping[str, int],
    var_bounds: Optional[Mapping[str, Tuple[int, int]]],
) -> Optional[Dict[str, Tuple[int, int]]]:
    """Inclusive integer bounds per variable; None when any is empty."""
    bounds: Dict[str, Tuple[int, int]] = {}
    for name in names:
        if var_bounds is not None and name in var_bounds:
            lo, hi = var_bounds[name]
        else:
            lo, hi = 0, extents[name] - 1
        if hi < lo:
            return None
        bounds[name] = (lo, hi)
    return bounds


def corner_values(
    affine: Affine, bounds: Mapping[str, Tuple[int, int]]
) -> Iterable[int]:
    """``affine`` evaluated at every vertex of the (bounded) box."""
    names = [n for n in affine.dims() if n in bounds]
    if not names:
        yield affine.const
        return
    for choice in itertools.product(
        *[bounds[n] for n in names]
    ):
        yield affine.evaluate(dict(zip(names, choice)))


def vertex_min(
    affine: Affine,
    extents: Mapping[str, int],
    var_bounds: Optional[Mapping[str, Tuple[int, int]]] = None,
) -> Optional[int]:
    """Exact unconstrained minimum over box vertices; None if empty."""
    bounds = _bounds_of(affine.dims(), extents, var_bounds)
    if bounds is None:
        return None
    return min(corner_values(affine, bounds))


def vertex_max(
    affine: Affine,
    extents: Mapping[str, int],
    var_bounds: Optional[Mapping[str, Tuple[int, int]]] = None,
) -> Optional[int]:
    """Exact unconstrained maximum over box vertices; None if empty."""
    bounds = _bounds_of(affine.dims(), extents, var_bounds)
    if bounds is None:
        return None
    return max(corner_values(affine, bounds))


def constrained_min(
    objective: Affine,
    extents: Mapping[str, int],
    constraints: Sequence[Affine] = (),
    var_bounds: Optional[Mapping[str, Tuple[int, int]]] = None,
    cap: int = ENUMERATION_CAP,
) -> MinResult:
    """``min objective(x)`` over integer box points with ``c(x) >= 0``.

    ``var_bounds`` overrides the default ``0 <= v < extents[v]`` range
    for selected variables (range binders live outside the dimension
    box). Every variable mentioned by the objective or a constraint
    must have a range one way or the other.
    """
    names = _used_names(objective, constraints)
    bounds = _bounds_of(names, extents, var_bounds)
    if bounds is None:
        return MinResult(None, True)
    if not names:
        for con in constraints:
            if con.const < 0:
                return MinResult(None, True)
        return MinResult(float(objective.const), True, {})

    # Quick necessary condition: a constraint whose vertex maximum is
    # negative can never be satisfied.
    for con in constraints:
        if max(corner_values(con, bounds)) < 0:
            return MinResult(None, True)

    if not constraints:
        # Affine => extremised at a vertex: enumerate the vertices.
        best = None
        witness = None
        obj_names = [n for n in objective.dims() if n in bounds]
        if not obj_names:
            return MinResult(float(objective.const), True, {})
        for choice in itertools.product(
            *[bounds[n] for n in obj_names]
        ):
            point = dict(zip(obj_names, choice))
            value = objective.evaluate(point)
            if best is None or value < best:
                best, witness = value, point
        return MinResult(float(best), True, witness)

    if math.prod(hi - lo + 1 for lo, hi in bounds.values()) <= cap:
        return _lattice_min(objective, constraints, bounds)

    return _lp_min(objective, constraints, bounds)


def _lattice_min(
    objective: Affine,
    constraints: Sequence[Affine],
    bounds: Mapping[str, Tuple[int, int]],
) -> MinResult:
    """Exact minimum by evaluating the whole integer box at once.

    One axis per variable, in ``bounds`` order, so the box in C order
    is the lexicographic order of its points and the witness is the
    first minimiser in it. An affine function is built by broadcasting
    its terms, so it is only as large as the variables it mentions;
    what can be as large as the box are the feasibility mask, the
    objective at the feasible points and, after it, their positions.
    """
    # int64 unless a value could leave it; Python integers (exact at
    # any size, through the same NumPy expressions) otherwise.
    reach = max(
        abs(a.const)
        + sum(abs(c) * max(map(abs, bounds[n])) for n, c in a.coeffs)
        for a in (objective, *constraints)
    )
    dtype = np.int64 if reach < 2 ** 62 else object
    shape = tuple(hi - lo + 1 for lo, hi in bounds.values())
    axes = {}
    for k, (name, (lo, _hi)) in enumerate(bounds.items()):
        side = [1] * len(shape)
        side[k] = shape[k]
        axes[name] = (
            np.arange(shape[k]).astype(dtype) + lo
        ).reshape(side)

    def lattice(affine: Affine):
        total = np.full([1] * len(shape), affine.const, dtype=dtype)
        for name, coeff in affine.coeffs:
            total = total + coeff * axes[name]
        return total

    mask = np.ones(shape, dtype=bool)
    for con in constraints:
        mask &= lattice(con) >= 0
    values = np.broadcast_to(lattice(objective), shape)[mask]
    if not values.size:
        return MinResult(None, True)
    first = int(np.argmin(values))
    point = np.unravel_index(np.flatnonzero(mask)[first], shape)
    witness = {
        name: lo + int(x)
        for (name, (lo, _hi)), x in zip(bounds.items(), point)
    }
    return MinResult(float(values[first]), True, witness)


def _lp_min(
    objective: Affine,
    constraints: Sequence[Affine],
    bounds: Mapping[str, Tuple[int, int]],
) -> MinResult:
    """LP-relaxation lower bound, rounded up to the integer lattice.

    The relaxation's minimum is <= the integer minimum; because the
    objective is integer-valued at integer points, ``ceil`` of the LP
    value is still a valid lower bound. LP infeasibility is exact
    (the relaxation contains every integer point).
    """
    from scipy.optimize import linprog

    names = sorted(bounds)
    cost = [objective.coefficient(n) for n in names]
    a_ub = [[-con.coefficient(n) for n in names] for con in constraints]
    b_ub = [float(con.const) for con in constraints]
    box = [
        (float(bounds[n][0]), float(bounds[n][1])) for n in names
    ]
    result = linprog(
        cost, A_ub=a_ub, b_ub=b_ub, bounds=box, method="highs"
    )
    if result.status == 2:  # infeasible
        return MinResult(None, True)
    if not result.success:
        # Unbounded/other failures cannot happen on a box, but never
        # let the verifier claim soundness it did not prove.
        return MinResult(float("-inf"), False)
    value = float(result.fun) + objective.const
    return MinResult(float(math.ceil(value - 1e-9)), False)


def feasible(
    constraints: Sequence[Affine],
    extents: Mapping[str, int],
    var_bounds: Optional[Mapping[str, Tuple[int, int]]] = None,
    cap: int = ENUMERATION_CAP,
) -> MinResult:
    """Is there an integer box point satisfying every constraint?

    Returns a :class:`MinResult` whose ``value`` is None when the
    region is empty; when non-empty and found by enumeration,
    ``witness`` holds one satisfying point and ``exact`` is True. An
    inexact non-empty result means only the LP relaxation is feasible
    — the integer region *may* still be empty.
    """
    return constrained_min(
        Affine.constant(0), extents, constraints,
        var_bounds=var_bounds, cap=cap,
    )
