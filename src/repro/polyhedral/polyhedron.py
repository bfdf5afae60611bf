"""Integer polyhedra and Fourier–Motzkin projection.

The polyhedral model (Section 4.3): the recursion domain is a convex
polyhedron, the schedule an affine transformation of it, and code
generation iterates the transformed polyhedron. This module provides
the small polyhedral library the code generator sits on — constraints
are affine inequalities ``e >= 0`` / equalities ``e == 0`` over named
dimensions and symbolic parameters.

Fourier–Motzkin elimination over rationals is exact for the *rational*
shadow; for the structures the generator builds (a box plus one
scattering equality) the integer projection coincides with it, which
the test-suite checks by enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, List, Optional, Sequence, Tuple

from ..analysis.affine import Affine


@dataclass(frozen=True)
class Constraint:
    """``expr >= 0`` (inequality) or ``expr == 0`` (equality)."""

    expr: Affine
    is_equality: bool = False

    def normalised(self) -> "Constraint":
        """Divide through by the gcd of all coefficients.

        For inequalities the constant may round down (integer
        tightening: ``2x - 3 >= 0`` becomes ``x - 2 >= 0`` ... it is
        ``x >= 3/2`` i.e. ``x >= 2``); for equalities a non-divisible
        constant makes the constraint unsatisfiable, which the caller
        detects via :meth:`Polyhedron.is_trivially_empty`.
        """
        coeffs = [c for _, c in self.expr.coeffs]
        if not coeffs:
            return self
        g = 0
        for c in coeffs:
            g = gcd(g, abs(c))
        if g <= 1:
            return self
        if self.is_equality:
            if self.expr.const % g != 0:
                return self  # unsatisfiable; kept as-is for detection
            new_const = self.expr.const // g
        else:
            # floor division tightens e >= 0 correctly for integers.
            new_const = self.expr.const // g
        return Constraint(
            Affine(
                tuple((d, c // g) for d, c in self.expr.coeffs), new_const
            ),
            self.is_equality,
        )

    def __str__(self) -> str:
        op = "==" if self.is_equality else ">="
        return f"{self.expr} {op} 0"


@dataclass(frozen=True)
class Polyhedron:
    """A conjunction of constraints over ``dims`` (and free parameters).

    ``dims`` are the dimensions that projection and enumeration range
    over; any other name appearing in a constraint is a symbolic
    parameter.
    """

    dims: Tuple[str, ...]
    constraints: Tuple[Constraint, ...]

    @staticmethod
    def box(bounds: Sequence[Tuple[str, Affine]]) -> "Polyhedron":
        """``0 <= dim <= ub`` for each ``(dim, ub)`` (both inclusive)."""
        constraints: List[Constraint] = []
        for dim, upper in bounds:
            constraints.append(Constraint(Affine.variable(dim)))
            constraints.append(
                Constraint(upper - Affine.variable(dim))
            )
        return Polyhedron(
            tuple(d for d, _ in bounds), tuple(constraints)
        )

    def with_constraint(self, constraint: Constraint) -> "Polyhedron":
        """A copy with one more constraint."""
        return Polyhedron(self.dims, self.constraints + (constraint,))

    def with_dim(self, dim: str, front: bool = False) -> "Polyhedron":
        """A copy with an extra dimension (front or back)."""
        if dim in self.dims:
            return self
        dims = (dim,) + self.dims if front else self.dims + (dim,)
        return Polyhedron(dims, self.constraints)

    @property
    def equalities(self) -> Tuple[Constraint, ...]:
        """The equality constraints."""
        return tuple(c for c in self.constraints if c.is_equality)

    @property
    def inequalities(self) -> Tuple[Constraint, ...]:
        """The inequality constraints."""
        return tuple(c for c in self.constraints if not c.is_equality)

    def is_trivially_empty(self) -> bool:
        """Detect constant-infeasible constraints (after elimination)."""
        for c in self.constraints:
            if c.expr.is_constant:
                if c.is_equality and c.expr.const != 0:
                    return True
                if not c.is_equality and c.expr.const < 0:
                    return True
        return False

    def eliminate(self, dim: str) -> "Polyhedron":
        """Project ``dim`` away (Fourier–Motzkin).

        Equalities involving ``dim`` are used as substitutions first
        (exact); remaining inequalities are combined pairwise.
        """
        if dim not in self.dims:
            raise ValueError(f"{dim!r} is not a dimension of {self.dims}")
        remaining = tuple(d for d in self.dims if d != dim)

        equality = self._equality_with(dim)
        if equality is not None:
            substituted = self._substitute_equality(dim, equality)
            return Polyhedron(remaining, substituted)

        lowers: List[Tuple[int, Affine]] = []  # a*dim >= -e  (a > 0)
        uppers: List[Tuple[int, Affine]] = []  # a*dim <= e   (a > 0)
        others: List[Constraint] = []
        for con in self.constraints:
            coeff = con.expr.coefficient(dim)
            rest = con.expr - Affine.variable(dim).scale(coeff)
            if coeff == 0:
                others.append(con)
            elif coeff > 0:
                lowers.append((coeff, rest))
            else:
                uppers.append((-coeff, rest))
        for a, lower_rest in lowers:
            for b, upper_rest in uppers:
                # a*dim + lr >= 0 and -b*dim + ur >= 0
                # => b*lr + a*ur >= 0
                combined = lower_rest.scale(b) + upper_rest.scale(a)
                others.append(Constraint(combined).normalised())
        return Polyhedron(remaining, tuple(others))

    def eliminate_all(self, dims: Iterable[str]) -> "Polyhedron":
        """Project away several dimensions, in order."""
        poly = self
        for dim in dims:
            poly = poly.eliminate(dim)
        return poly

    def _equality_with(self, dim: str) -> Optional[Constraint]:
        for con in self.equalities:
            if con.expr.coefficient(dim) != 0:
                return con
        return None

    def _substitute_equality(
        self, dim: str, equality: Constraint
    ) -> Tuple[Constraint, ...]:
        """Eliminate ``dim`` using ``equality`` (coefficient-cleared).

        With ``a*dim + r == 0``, any ``c*dim + s (op) 0`` becomes
        ``|a|*s - sign(a)*c*r (op) 0`` after multiplying through by
        ``|a|`` — exact over the rationals and sign-preserving.
        """
        a = equality.expr.coefficient(dim)
        r = equality.expr - Affine.variable(dim).scale(a)
        out: List[Constraint] = []
        for con in self.constraints:
            if con is equality:
                continue
            c = con.expr.coefficient(dim)
            if c == 0:
                out.append(con)
                continue
            s = con.expr - Affine.variable(dim).scale(c)
            # dim = -r / a; c*dim + s = (-c*r + a*s) / a.
            combined = s.scale(abs(a)) - r.scale(c if a > 0 else -c)
            out.append(Constraint(combined, con.is_equality).normalised())
        return tuple(out)

    def bounds_for(
        self, dim: str
    ) -> Tuple[List[Tuple[int, Affine]], List[Tuple[int, Affine]]]:
        """Lower/upper bound pairs ``(positive divisor, numerator)``.

        Lower: ``dim >= ceil(numerator / divisor)``;
        upper: ``dim <= floor(numerator / divisor)``.
        Only inequalities contribute; use :meth:`eliminate` on inner
        dimensions first so all bounds mention outer names only.
        """
        lowers: List[Tuple[int, Affine]] = []
        uppers: List[Tuple[int, Affine]] = []
        for con in self.inequalities:
            coeff = con.expr.coefficient(dim)
            if coeff == 0:
                continue
            rest = con.expr - Affine.variable(dim).scale(coeff)
            if coeff > 0:
                lowers.append((coeff, -rest))
            else:
                uppers.append((-coeff, rest))
        return lowers, uppers

    def __str__(self) -> str:
        return (
            "{ [" + ", ".join(self.dims) + "] : "
            + " and ".join(str(c) for c in self.constraints)
            + " }"
        )
