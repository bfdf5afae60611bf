"""Tests for the range-reduction looping extension (Section 5)."""

import pytest

from repro.lang import ast
from repro.lang.errors import TypeCheckError
from repro.lang.parser import parse_expr, parse_function
from repro.lang.typecheck import check_function

EN = {"en": "abcdefghijklmnopqrstuvwxyz"}


class TestParsing:
    def test_range_reduction(self):
        expr = parse_expr("max(k in i+1 .. j-1 : k)")
        assert isinstance(expr, ast.Reduce)
        assert isinstance(expr.source, ast.RangeExpr)

    def test_range_bounds_are_expressions(self):
        expr = parse_expr("sum(k in 2*i .. j : k)")
        assert isinstance(expr.source.lo, ast.BinOp)

    def test_dots_lex_as_one_token(self):
        expr = parse_expr("sum(k in 1..3 : k)")
        assert isinstance(expr.source, ast.RangeExpr)
        assert expr.source.lo.value == 1
        assert expr.source.hi.value == 3

    def test_range_str(self):
        expr = parse_expr("sum(k in 1 .. 3 : k)")
        assert ".." in str(expr)


class TestTypechecking:
    def test_binder_is_int(self):
        func = check_function(
            parse_function("int f(int n) = sum(k in 0 .. n : k)")
        )
        assert func.return_type.is_numeric

    def test_non_integer_bounds_rejected(self):
        with pytest.raises(TypeCheckError, match="integers"):
            check_function(
                parse_function(
                    "int f(int n) = sum(k in 0 .. 1.5 : k)"
                )
            )

    def test_binder_usable_in_indexing(self):
        func = check_function(
            parse_function(
                "int f(seq[en] s, index[s] i) = "
                "sum(k in 0 .. i - 1 : if s[k] == 'a' then 1 else 0)"
            ),
            EN,
        )
        assert func.dim_names == ("i",)

    def test_range_binder_shadowing_rejected(self):
        with pytest.raises(TypeCheckError, match="shadows"):
            check_function(
                parse_function("int f(int n) = sum(n in 0 .. 3 : n)")
            )


class TestDescentAnalysis:
    def test_ranged_component(self):
        from repro.analysis.descent import extract_descents

        func = check_function(
            parse_function(
                "int f(int i, int j) = if j < i + 2 then 0 else "
                "max(k in i+1 .. j-1 : f(i, k) + f(k, j))"
            )
        )
        descents = extract_descents(func)
        assert len(descents) == 2
        first, second = descents
        assert first.component("j").is_ranged
        assert second.component("i").is_ranged
        assert not first.is_uniform
        (binder,) = first.binders
        assert binder.name == "k"
        assert str(binder.lo) == "i + 1"
        assert str(binder.hi) == "j - 1"

    def test_unused_binders_dropped(self):
        from repro.analysis.descent import extract_descents

        func = check_function(
            parse_function(
                "int f(int i) = if i == 0 then 0 else "
                "sum(k in 0 .. 3 : f(i - 1))"
            )
        )
        (descent,) = extract_descents(func)
        assert descent.binders == ()
        assert descent.is_uniform

    def test_interval_schedule_derived(self):
        from repro.analysis.criteria import schedule_criteria
        from repro.analysis.domain import Domain
        from repro.schedule.schedule import Schedule, brute_force_valid
        from repro.schedule.solver import EnumerativeSolver

        func = check_function(
            parse_function(
                "int f(int i, int j) = if j < i + 2 then 0 else "
                "f(i+1, j) max f(i, j-1) max "
                "max(k in i+1 .. j-1 : f(i, k) + f(k, j))"
            )
        )
        domain = Domain.of(i=10, j=10)
        schedule = EnumerativeSolver().solve(
            func.dim_names, schedule_criteria(func), domain
        )
        assert schedule == Schedule.of(i=-1, j=1)
        assert brute_force_valid(schedule, func, domain)

    def test_invalid_schedule_detected_with_ranges(self):
        from repro.analysis.criteria import schedule_criteria
        from repro.analysis.domain import Domain
        from repro.schedule.schedule import Schedule

        func = check_function(
            parse_function(
                "int f(int i, int j) = if j < i + 2 then 0 else "
                "max(k in i+1 .. j-1 : f(i, k) + f(k, j))"
            )
        )
        criteria = schedule_criteria(func)
        domain = Domain.of(i=10, j=10)
        assert Schedule.of(i=-1, j=1).is_valid(criteria, domain)
        # S = i + j breaks the f(k, j) dependence: k > i raises the
        # partition of the callee above the caller's.
        assert not Schedule.of(i=1, j=1).is_valid(criteria, domain)

    def test_vacuous_range_criterion(self):
        """A range that is empty over the whole box never constrains."""
        from repro.analysis.criteria import schedule_criteria
        from repro.analysis.domain import Domain
        from repro.schedule.schedule import Schedule

        func = check_function(
            parse_function(
                "int f(int i, int j) = if i == 0 then 0 else "
                "f(i - 1, j) + sum(k in j + 5 .. j + 2 : f(i, k))"
            )
        )
        criteria = schedule_criteria(func)
        domain = Domain.of(i=6, j=6)
        # Only the f(i-1, j) dependence bites; S = i is fine even
        # though the (never-executed) range call mentions dimension j.
        assert Schedule.of(i=1, j=0).is_valid(criteria, domain)


class TestEvaluation:
    def test_interpreter_sum(self):
        from repro.runtime.interpreter import memoised
        from repro.runtime.values import Bindings

        func = check_function(
            parse_function("int f(int n) = sum(k in 1 .. n : k)")
        )
        call = memoised(func, Bindings({}))
        assert call((10,)) == 55

    def test_interpreter_empty_sum_is_zero(self):
        from repro.runtime.interpreter import memoised
        from repro.runtime.values import Bindings

        func = check_function(
            parse_function("int f(int n) = sum(k in 1 .. 0 - 1 : k)")
        )
        call = memoised(func, Bindings({}))
        assert call((0,)) == 0

    def test_compiled_kernel_matches_oracle(self):
        import numpy as np

        from repro.ir.kernel import build_kernel
        from repro.ir.pybackend import compile_kernel
        from repro.runtime.interpreter import memoised
        from repro.runtime.values import Bindings
        from repro.schedule.schedule import Schedule

        func = check_function(
            parse_function(
                "int f(int i, int j) = if j < i + 2 then 0 else "
                "1 + max(k in i+1 .. j-1 : f(i, k) + f(k, j))"
            )
        )
        kernel = build_kernel(func, Schedule.of(i=-1, j=1))
        fn, source = compile_kernel(kernel)
        assert "range(" in source
        table = np.zeros((8, 8), dtype=np.int64)
        fn(table, {"ub_i": 7, "ub_j": 7})
        oracle = memoised(func, Bindings({}))
        for i in range(8):
            for j in range(8):
                assert table[i, j] == oracle((i, j))

    def test_cuda_emits_range_loop(self):
        from repro.ir.cuda import emit_cuda
        from repro.ir.kernel import build_kernel
        from repro.schedule.schedule import Schedule

        func = check_function(
            parse_function(
                "int f(int i, int j) = if j < i + 2 then 0 else "
                "max(k in i+1 .. j-1 : f(i, k) + f(k, j))"
            )
        )
        text = emit_cuda(build_kernel(func, Schedule.of(i=-1, j=1)))
        assert "for (long k =" in text
