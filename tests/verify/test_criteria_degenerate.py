"""Degenerate-box minimisation + non-uniform criterion tests (satellite).

``min_affine_over_box`` underpins both the solver's validity check and
the independent verifier; its behaviour on empty and single-point
boxes is load-bearing (an empty box means a vacuous criterion, which
must read as "satisfied", not as a crash or a spurious failure).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.affine import Affine
from repro.analysis.criteria import min_affine_over_box, schedule_criteria
from repro.analysis.domain import Domain
from repro.lang.errors import ScheduleError
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function

EN = {"en": "abcdefghijklmnopqrstuvwxyz"}
DNA = {"dna": "acgt"}

FORWARD = """
prob forward(hmm h, state[h] s, seq[*] x, index[x] i) =
  if i == 0 then (if s.isstart then 1.0 else 0.0)
  else (if s.isend then 1.0 else s.emission[x[i-1]])
    * sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))
"""


class TestMinAffineOverBox:
    def test_corner_formula(self):
        affine = Affine.of({"i": 1, "j": -1})
        assert min_affine_over_box(affine, {"i": 5, "j": 5}) == -4.0

    def test_zero_extent_dimension_is_empty_box(self):
        affine = Affine.of({"i": 1})
        assert min_affine_over_box(affine, {"i": 0}) is None

    def test_zero_extent_only_matters_if_mentioned(self):
        # j has extent 0 but the function never mentions it.
        affine = Affine.of({"i": 1})
        assert min_affine_over_box(affine, {"i": 3, "j": 0}) == 0.0

    def test_single_point_dimension_pins_at_zero(self):
        affine = Affine.of({"i": 2}, const=3)
        assert min_affine_over_box(affine, {"i": 1}) == 3.0

    def test_constraint_mentioning_empty_dim_is_empty(self):
        affine = Affine.constant(7)
        constraint = Affine.of({"k": 1})  # k >= 0, extent 0
        assert (
            min_affine_over_box(affine, {"k": 0}, [constraint]) is None
        )

    def test_constrained_minimum(self):
        # min i subject to i - 3 >= 0 over i in 0..9.
        affine = Affine.of({"i": 1})
        constraint = Affine.of({"i": 1}, const=-3)
        assert (
            min_affine_over_box(affine, {"i": 10}, [constraint]) == 3.0
        )

    def test_infeasible_constraints_return_none(self):
        affine = Affine.of({"i": 1})
        constraint = Affine.of({"i": 1}, const=-100)
        assert (
            min_affine_over_box(affine, {"i": 10}, [constraint]) is None
        )

    def test_constant_function_with_constant_constraints(self):
        affine = Affine.constant(5)
        ok = Affine.constant(0)
        bad = Affine.constant(-1)
        assert min_affine_over_box(affine, {}, [ok]) == 5.0
        assert min_affine_over_box(affine, {}, [bad]) is None


@st.composite
def constrained_boxes(draw):
    """``(objective, extents, constraints)``: rank 1-3, extents from 1
    (a single-point dimension) to 12, one to three constraints with
    coefficients in -3..3, and sometimes a redundant copy, a parallel
    shift or the opposite half-space of the first constraint."""
    dims = "xyz"[:draw(st.integers(1, 3))]

    def affine():
        return Affine.of(
            {d: draw(st.integers(-3, 3)) for d in dims},
            draw(st.integers(-6, 6)),
        )

    extents = {d: draw(st.integers(1, 12)) for d in dims}
    constraints = [affine() for _ in range(draw(st.integers(1, 3)))]
    first = constraints[0]
    extra = draw(st.sampled_from(["none", "copy", "parallel", "opposite"]))
    if extra == "copy":
        constraints.append(first)
    elif extra == "parallel":
        scale = draw(st.integers(1, 3))
        constraints.append(Affine.of(
            {d: c * scale for d, c in first.coeffs},
            draw(st.integers(-6, 6)),
        ))
    elif extra == "opposite":
        constraints.append(-first)
    return affine(), extents, constraints


class TestVertexMinimumIsTheLinearProgram:
    """The constrained minimum is exact: it is what an LP solver finds,
    and empty exactly when the LP is infeasible."""

    @settings(deadline=None, max_examples=300)
    @given(case=constrained_boxes())
    def test_matches_linprog(self, case):
        linprog = pytest.importorskip("scipy.optimize").linprog
        objective, extents, constraints = case
        names = sorted(extents)
        lp = linprog(
            [objective.coefficient(d) for d in names],
            A_ub=[[-c.coefficient(d) for d in names] for c in constraints],
            b_ub=[c.const for c in constraints],
            bounds=[(0, extents[d] - 1) for d in names],
            method="highs",
        )
        got = min_affine_over_box(objective, extents, constraints)
        if lp.status == 2:
            assert got is None
        else:
            assert lp.status == 0
            assert got == pytest.approx(lp.fun + objective.const, abs=1e-9)


class TestNonUniformCriteria:
    def nussinov_criteria(self):
        from repro.apps.rna_folding import nussinov_function

        func = nussinov_function()
        return func, schedule_criteria(func)

    def test_ranged_criterion_requires_extents(self):
        func, criteria = self.nussinov_criteria()
        ranged = [c for c in criteria if c.descent.binders]
        assert ranged
        with pytest.raises(ScheduleError):
            ranged[0].is_satisfied({"i": -1, "j": 1})

    def test_ranged_criterion_with_extents(self):
        func, criteria = self.nussinov_criteria()
        extents = {"i": 13, "j": 13}
        assert all(
            c.is_satisfied({"i": -1, "j": 1}, extents)
            for c in criteria
        )
        assert not all(
            c.is_satisfied({"i": 1, "j": 1}, extents)
            for c in criteria
        )

    def test_empty_box_makes_ranged_criterion_vacuous(self):
        func, criteria = self.nussinov_criteria()
        ranged = [c for c in criteria if c.descent.binders][0]
        assert ranged.min_delta(
            {"i": -1, "j": 1}, {"i": 0, "j": 0}
        ) == math.inf

    def test_single_point_box_empties_the_binder_range(self):
        # At i == j == 0 the range i+1 .. j-1 is 1 .. -1: empty, so
        # the split dependence never fires.
        func, criteria = self.nussinov_criteria()
        ranged = [c for c in criteria if c.descent.binders][0]
        assert ranged.min_delta(
            {"i": -1, "j": 1}, {"i": 1, "j": 1}
        ) == math.inf

    def test_free_descent_needs_extents_only_when_weighted(self):
        func = check_function(
            parse_function(FORWARD.strip()), DNA
        )
        criteria = schedule_criteria(func)
        free = [
            c for c in criteria
            if any(comp.is_free for comp in c.descent.components)
        ]
        assert free
        crit = free[0]
        # a_s = 0 silences the free component: no extents needed.
        assert crit.is_satisfied({"s": 0, "i": 1})
        # a_s != 0 needs the box...
        with pytest.raises(ScheduleError):
            crit.is_satisfied({"s": 1, "i": 1})
        # ...and the worst case -|a_s|*(N_s - 1) then loses.
        assert not crit.is_satisfied(
            {"s": 1, "i": 1}, {"s": 4, "i": 13}
        )
        # A single-state model has no free slack at all.
        assert crit.is_satisfied({"s": 1, "i": 1}, {"s": 1, "i": 13})
