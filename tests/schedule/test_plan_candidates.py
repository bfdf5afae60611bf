"""The extent-free candidate set picks what the solvers search for.

``find_schedule`` on an all-uniform function reads a handful of
candidate vectors off the function's analysis plan; these tests pin it
to ``OrthantSolver`` and ``EnumerativeSolver`` — same vector, same
error — and pin the plan to the function object it was derived from.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import function_plan, schedule_criteria
from repro.analysis.domain import Domain
from repro.lang.errors import ScheduleError
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.schedule.multi import derive_schedule_set
from repro.schedule.solver import (
    CANDIDATE_BOX_CAP,
    EnumerativeSolver,
    OrthantSolver,
    find_schedule,
    optimal_candidates,
    tie_break_key,
)

DIMS = ("x", "y", "z", "w")


def uniform_function(offsets, name="f"):
    """``int f(int x, ...) = if x == 0 then 0 else f(x+c, ...) + ...``"""
    rank = len(offsets[0])
    dims = DIMS[:rank]

    def arg(var, c):
        return var if c == 0 else f"{var} {'+' if c > 0 else '-'} {abs(c)}"

    calls = " + ".join(
        f"{name}(" + ", ".join(arg(v, c) for v, c in zip(dims, off)) + ")"
        for off in offsets
    )
    params = ", ".join(f"int {d}" for d in dims)
    return check_function(
        parse_function(
            f"int {name}({params}) = if x == 0 then 0 else {calls}"
        ),
        {},
    )


def solve(solver, func, domain):
    """``(schedule, None)`` or ``(None, error message)``."""
    try:
        return solver.solve(
            func.dim_names, schedule_criteria(func), domain
        ), None
    except ScheduleError as err:
        return None, str(err)


def offsets_and_extents(rank):
    return st.tuples(
        st.lists(
            st.tuples(*[st.integers(-3, 3)] * rank),
            min_size=1, max_size=4,
        ),
        st.tuples(*[st.integers(1, 12)] * rank),
    )


class TestPickEqualsSolvers:
    """Offsets drawn from -3..3 cover dependences that force negative
    coefficients, contradictory ones with no schedule at all, and the
    zero offset; extents cover 1, equal and unequal sides."""

    def check(self, offsets, extents, bound):
        func = uniform_function(offsets)
        domain = Domain(func.dim_names, extents)
        assert optimal_candidates(func, bound) is not None
        orthant, orthant_error = solve(OrthantSolver(bound), func, domain)
        reference, reference_error = solve(
            EnumerativeSolver(bound), func, domain
        )
        assert orthant == reference
        assert (orthant_error is None) == (reference_error is None)
        if orthant is None:
            with pytest.raises(ScheduleError) as exc:
                find_schedule(func, domain, bound=bound)
            assert str(exc.value) == orthant_error
        else:
            assert find_schedule(func, domain, bound=bound) == orthant

    @settings(deadline=None, max_examples=150)
    @given(case=offsets_and_extents(2), bound=st.sampled_from([1, 2, 3, 10]))
    def test_rank_two(self, case, bound):
        self.check(*case, bound)

    @settings(deadline=None, max_examples=60)
    @given(case=offsets_and_extents(3), bound=st.sampled_from([1, 2, 4]))
    def test_rank_three(self, case, bound):
        self.check(*case, bound)

    @pytest.mark.parametrize("extents", [(1, 1, 1), (9, 2, 9), (5, 5, 5)])
    def test_rank_three_at_the_default_bound(self, extents):
        self.check([(-1, -1, 0), (0, -1, 1), (0, 0, -1)], extents, 10)

    def test_unit_extents_zero_a_weight(self):
        """With ``N_k = 1`` dimension ``k`` weighs nothing, so every
        magnitude there has the same goal and only the canonical key
        separates them; equal sides tie across dimensions."""
        for extents in [(6, 1), (1, 6), (1, 1), (6, 6)]:
            self.check([(-1, 1)], extents, 10)
            self.check([(1, -1), (-1, -2)], extents, 10)


class TestCandidateSet:
    def test_smith_waterman_shape_has_one_candidate(self):
        func = uniform_function([(-1, -1), (-1, 0), (0, -1)])
        assert optimal_candidates(func, 10) == ((1, 1),)

    def test_single_diagonal_keeps_both_axes(self):
        func = uniform_function([(-1, -1)])
        assert optimal_candidates(func, 10) == ((0, 1), (1, 0))

    def test_candidates_come_in_tie_break_order(self):
        func = uniform_function([(-2, 1), (1, -3)])
        candidates = optimal_candidates(func, 10)
        assert list(candidates) == sorted(candidates, key=tie_break_key)

    def test_infeasible_function_has_an_empty_set(self):
        func = uniform_function([(-1, 0), (1, 0)])
        assert optimal_candidates(func, 10) == ()

    def test_large_coefficient_boxes_keep_the_solver(self):
        """The derivation is bounded by a property of the input — the
        size of the coefficient box — not by a knob."""
        func = uniform_function([(-1, 0, 0, -1), (0, -1, -1, 0)])
        assert 21 ** 4 > CANDIDATE_BOX_CAP
        assert optimal_candidates(func, 10) is None
        assert optimal_candidates(func, 2) is not None
        domain = Domain(func.dim_names, (3, 4, 5, 2))
        expected, _ = solve(OrthantSolver(10), func, domain)
        assert find_schedule(func, domain) == expected

    def test_non_uniform_functions_have_no_candidates(self):
        from repro.apps.hmm_algorithms import forward_function
        from repro.apps.rna_folding import nussinov_function

        for func in (forward_function(), nussinov_function()):
            assert not function_plan(func).is_uniform
            assert optimal_candidates(func, 10) is None


class TestPlanIdentity:
    """A plan belongs to one function object and one definition — the
    id-reuse class of bug cannot occur because nothing is keyed by
    ``id()``."""

    def test_same_name_different_bodies_never_share(self):
        schedules = []
        for _ in range(20):
            # Each pair is garbage before the next is built, so the
            # allocator is free to hand out the same addresses again.
            a = uniform_function([(-1, -1)], name="f")
            b = uniform_function([(-1, 1)], name="f")
            assert function_plan(a) is not function_plan(b)
            domain = Domain(("x", "y"), (3, 9))
            schedules.append(
                (find_schedule(a, domain), find_schedule(b, domain))
            )
        assert {s[0].coefficients for s in schedules} == {(1, 0)}
        assert {s[1].coefficients for s in schedules} == {(1, 0)}
        tall = Domain(("x", "y"), (9, 3))
        assert find_schedule(a, tall).coefficients == (0, 1)
        assert find_schedule(b, tall).coefficients == (0, -1)

    def test_replacing_the_definition_recomputes_the_plan(self):
        func = uniform_function([(-1, -1)])
        other = uniform_function([(-1, 1)])
        domain = Domain(("x", "y"), (9, 3))
        before = function_plan(func)
        assert function_plan(func) is before
        assert find_schedule(func, domain).coefficients == (0, 1)
        assert len(derive_schedule_set(func)) == 2
        func.definition = other.definition
        after = function_plan(func)
        assert after is not before
        assert after.definition is other.definition
        assert find_schedule(func, domain).coefficients == (0, -1)
        assert len(derive_schedule_set(func)) == 1

    def test_plan_is_not_pickled_with_the_function(self):
        import pickle

        func = uniform_function([(-1, -1)])
        function_plan(func)
        clone = pickle.loads(pickle.dumps(func))
        assert "_function_plan" not in clone.__dict__
        assert clone.dim_names == func.dim_names
        assert clone.recursive_params == func.recursive_params
        assert clone.calling_params == func.calling_params

    def test_schedule_set_error_is_remembered_and_fresh(self):
        from repro.apps.hmm_algorithms import forward_function

        func = forward_function()
        errors = []
        for _ in range(2):
            with pytest.raises(ScheduleError) as exc:
                derive_schedule_set(func)
            errors.append(exc.value)
        assert errors[0] is not errors[1]
        assert str(errors[0]) == str(errors[1])
        assert errors[0].span == errors[1].span
