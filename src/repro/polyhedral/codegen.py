"""CLooG-style loop generation from a domain and a schedule.

Section 4.3 of the paper: the recursion domain is a polyhedron, the
schedule an affine *scattering* function, and code generation produces
a loop nest whose outermost loop runs over the time-step partitions
and whose inner loops enumerate each partition's cells.

The generator builds the target polyhedron over ``(t, x1, ..., xn)``
with the scattering equality ``t == S(x)``, then emits one level per
dimension, outside-in:

* a dimension pinned by the equality (the last dimension with a
  non-zero schedule coefficient) becomes an assignment, with a
  divisibility guard when its coefficient is not ±1;
* every other dimension becomes a loop whose bounds come from
  projecting away all inner dimensions (equality substitution first,
  then Fourier–Motzkin — exact for box-plus-one-equality systems).

For the edit distance with ``S = x + y`` this reproduces Figure 9
token for token.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..analysis.affine import Affine
from ..analysis.domain import Domain
from ..lang.errors import CodegenError
from .loopast import Assign, Bound, Div, Guard, Loop, LoopNest, Node, Stmt
from .polyhedron import Constraint, Polyhedron

#: Name of the time (partition) dimension in generated nests.
TIME_VAR = "p"
#: Name of the generated statement (CLooG convention).
STMT_NAME = "S1"


def scattering_polyhedron(
    dims: Sequence[str],
    upper_bounds: Sequence[Affine],
    coefficients: Sequence[int],
    time_var: str = TIME_VAR,
) -> Polyhedron:
    """The target polyhedron: domain box plus ``t == S(x)``."""
    if len(dims) != len(upper_bounds) or len(dims) != len(coefficients):
        raise ValueError("dims, bounds and coefficients must align")
    poly = Polyhedron.box(list(zip(dims, upper_bounds)))
    poly = poly.with_dim(time_var, front=True)
    schedule = Affine.of(dict(zip(dims, coefficients)))
    equality = Constraint(
        Affine.variable(time_var) - schedule, is_equality=True
    )
    return poly.with_constraint(equality)


def generate_loops(
    dims: Sequence[str],
    upper_bounds: Sequence[Affine],
    coefficients: Sequence[int],
    time_var: str = TIME_VAR,
    stmt_name: str = STMT_NAME,
) -> LoopNest:
    """Generate the loop nest for one schedule.

    ``upper_bounds`` are inclusive upper bounds per dimension, affine
    in symbolic parameters (or constants); every dimension starts at
    0. The time loop is outermost;
    space dimensions keep their declaration order; the last dimension
    with a non-zero coefficient is pinned by the scattering equality.
    """
    dims = tuple(dims)
    if time_var in dims:
        raise CodegenError(
            f"time variable {time_var!r} collides with a dimension"
        )
    coefficients = tuple(coefficients)
    poly = scattering_polyhedron(
        dims, upper_bounds, coefficients, time_var
    )

    pinned = _pinned_dim(dims, coefficients)
    order = (time_var,) + dims
    body: Tuple[Node, ...] = (
        Stmt(stmt_name, tuple(Affine.variable(d) for d in dims)),
    )

    # Build the nest inside-out.
    for level in range(len(order) - 1, -1, -1):
        var = order[level]
        inner = [
            d for d in order[level + 1:]
        ]
        if var == pinned:
            body = _pin(var, dims, coefficients, time_var, body)
        elif var == time_var and pinned is None:
            # Zero schedule: a single partition.
            zero = Div(Affine.constant(0), 1, "floor")
            body = (
                Loop(var, Bound("max", (zero,)), Bound("min", (zero,)), body),
            )
        else:
            body = (_loop_for(poly, var, inner, pinned, body),)

    return LoopNest(body, time_var, dims)


def generate_for_domain(
    domain: Domain,
    coefficients: Sequence[int],
    time_var: str = TIME_VAR,
    stmt_name: str = STMT_NAME,
) -> LoopNest:
    """Generate loops for a concrete (numeric) domain."""
    bounds = [Affine.constant(e - 1) for e in domain.extents]
    return generate_loops(
        domain.dims, bounds, coefficients, time_var, stmt_name
    )


def _pinned_dim(
    dims: Tuple[str, ...], coefficients: Tuple[int, ...]
) -> Optional[str]:
    for dim, coeff in reversed(list(zip(dims, coefficients))):
        if coeff != 0:
            return dim
    return None


def _pin(
    var: str,
    dims: Tuple[str, ...],
    coefficients: Tuple[int, ...],
    time_var: str,
    body: Tuple[Node, ...],
) -> Tuple[Node, ...]:
    """Emit ``var = (t - sum others) / a_var`` with guards as needed."""
    table = dict(zip(dims, coefficients))
    a = table[var]
    numerator = Affine.variable(time_var)
    for dim, coeff in table.items():
        if dim == var or coeff == 0:
            continue
        numerator = numerator - Affine.variable(dim).scale(coeff)
    if a < 0:
        numerator = -numerator
        a = -a
    node: Tuple[Node, ...] = (
        Assign(var, Div(numerator, a, "floor"), body),
    )
    if a != 1:
        node = (Guard(numerator, a, node),)
    return node


def _loop_for(
    poly: Polyhedron,
    var: str,
    inner: List[str],
    pinned: Optional[str],
    body: Tuple[Node, ...],
) -> Loop:
    """A loop for ``var``: project away inner dims, read the bounds."""
    # Eliminate the pinned dimension first (equality substitution is
    # exact), then the remaining box dimensions.
    elimination_order = sorted(
        inner, key=lambda d: (d != pinned,)
    )
    projected = poly.eliminate_all(elimination_order)
    lowers, uppers = projected.bounds_for(var)
    if not lowers or not uppers:
        raise CodegenError(
            f"could not derive finite bounds for dimension {var!r}"
        )
    lower = Bound(
        "max",
        tuple(
            Div(num, div, "ceil") for div, num in _dedup(lowers)
        ),
    )
    upper = Bound(
        "min",
        tuple(
            Div(num, div, "floor") for div, num in _dedup(uppers)
        ),
    )
    return Loop(var, lower, upper, body)


def _dedup(
    bounds: List[Tuple[int, Affine]]
) -> List[Tuple[int, Affine]]:
    seen = []
    for item in bounds:
        if item not in seen:
            seen.append(item)
    return seen
