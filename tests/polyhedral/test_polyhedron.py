"""Tests for the integer polyhedron library."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.affine import Affine
from repro.polyhedral.polyhedron import Constraint, Polyhedron


def enumerate_poly(poly, ranges):
    """All integer points of ``poly`` within explicit search ranges."""
    dims = poly.dims
    points = []
    for combo in itertools.product(*(ranges[d] for d in dims)):
        env = dict(zip(dims, combo))
        ok = True
        for con in poly.constraints:
            value = con.expr.evaluate(env)
            if con.is_equality and value != 0:
                ok = False
                break
            if not con.is_equality and value < 0:
                ok = False
                break
        if ok:
            points.append(combo)
    return points


class TestConstruction:
    def test_box(self):
        poly = Polyhedron.box([("x", Affine.constant(2))])
        assert len(poly.constraints) == 2
        assert enumerate_poly(poly, {"x": range(-3, 6)}) == [(0,), (1,), (2,)]

    def test_with_constraint_and_dim(self):
        poly = Polyhedron.box([("x", Affine.constant(3))])
        poly = poly.with_dim("t", front=True)
        assert poly.dims == ("t", "x")
        poly = poly.with_constraint(
            Constraint(
                Affine.variable("t") - Affine.variable("x"),
                is_equality=True,
            )
        )
        assert len(poly.equalities) == 1

    def test_with_dim_idempotent(self):
        poly = Polyhedron.box([("x", Affine.constant(3))])
        assert poly.with_dim("x").dims == ("x",)


class TestNormalisation:
    def test_inequality_tightening(self):
        # 2x - 3 >= 0 over integers means x >= 2.
        con = Constraint(Affine.of({"x": 2}, -3)).normalised()
        assert con.expr == Affine.of({"x": 1}, -2)

    def test_unit_gcd_unchanged(self):
        con = Constraint(Affine.of({"x": 2, "y": 3}, -1))
        assert con.normalised() == con

    def test_equality_divisible(self):
        con = Constraint(Affine.of({"x": 2}, -4), True).normalised()
        assert con.expr == Affine.of({"x": 1}, -2)

    def test_equality_indivisible_kept(self):
        con = Constraint(Affine.of({"x": 2}, -3), True)
        assert con.normalised() == con


class TestElimination:
    def test_eliminate_box_dim(self):
        poly = Polyhedron.box(
            [("x", Affine.constant(4)), ("y", Affine.constant(2))]
        )
        projected = poly.eliminate("y")
        assert projected.dims == ("x",)
        assert enumerate_poly(projected, {"x": range(-2, 8)}) == [
            (x,) for x in range(5)
        ]

    def test_eliminate_unknown_dim(self):
        poly = Polyhedron.box([("x", Affine.constant(1))])
        with pytest.raises(ValueError):
            poly.eliminate("zz")

    def test_equality_substitution(self):
        # x in 0..4, y in 0..4, x + y == 4; eliminating y leaves
        # 0 <= x <= 4 (twice over).
        poly = Polyhedron.box(
            [("x", Affine.constant(4)), ("y", Affine.constant(4))]
        ).with_constraint(
            Constraint(
                Affine.of({"x": 1, "y": 1}, -4), is_equality=True
            )
        )
        projected = poly.eliminate("y")
        assert enumerate_poly(projected, {"x": range(-3, 9)}) == [
            (x,) for x in range(5)
        ]

    def test_projection_is_shadow(self):
        """Projection equals the shadow of the original point set."""
        poly = Polyhedron.box(
            [("x", Affine.constant(3)), ("y", Affine.constant(5))]
        ).with_constraint(
            Constraint(Affine.of({"x": 1, "y": -1}))  # x >= y
        )
        full = enumerate_poly(poly, {"x": range(-1, 6), "y": range(-1, 8)})
        shadow = sorted({(x,) for x, _ in full})
        projected = poly.eliminate("y")
        assert enumerate_poly(projected, {"x": range(-1, 6)}) == shadow

    @settings(deadline=None, max_examples=40)
    @given(
        ub=st.tuples(st.integers(0, 4), st.integers(0, 4)),
        coeffs=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
        const=st.integers(-4, 4),
    )
    def test_random_halfspace_projection_sound(self, ub, coeffs, const):
        """FM projection never loses points (soundness direction)."""
        poly = Polyhedron.box(
            [("x", Affine.constant(ub[0])), ("y", Affine.constant(ub[1]))]
        ).with_constraint(
            Constraint(Affine.of({"x": coeffs[0], "y": coeffs[1]}, const))
        )
        rng = {"x": range(-2, 8), "y": range(-2, 8)}
        full = enumerate_poly(poly, rng)
        projected = poly.eliminate("y")
        shadow = {(x,) for x, _ in full}
        got = set(enumerate_poly(projected, {"x": range(-2, 8)}))
        assert shadow <= got


class TestEmptiness:
    def test_trivially_empty_inequality(self):
        poly = Polyhedron((), (Constraint(Affine.constant(-1)),))
        assert poly.is_trivially_empty()

    def test_trivially_empty_equality(self):
        poly = Polyhedron((), (Constraint(Affine.constant(2), True),))
        assert poly.is_trivially_empty()

    def test_nonempty(self):
        poly = Polyhedron.box([("x", Affine.constant(1))])
        assert not poly.is_trivially_empty()


class TestBounds:
    def test_bounds_for(self):
        poly = Polyhedron.box([("x", Affine.constant(5))])
        lowers, uppers = poly.bounds_for("x")
        assert lowers == [(1, Affine.constant(0))]
        assert uppers == [(1, Affine.constant(5))]

    def test_str(self):
        poly = Polyhedron.box([("x", Affine.constant(1))])
        assert ">=" in str(poly)
