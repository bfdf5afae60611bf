"""Tests for the type checker."""

import pytest

from repro.lang import types as ty
from repro.lang.errors import TypeCheckError
from repro.lang.parser import parse_function, parse_program
from repro.lang.typecheck import check_function, check_program

EN = {"en": "abcdefghijklmnopqrstuvwxyz"}
DNA = {"dna": "acgt"}

EDIT_DISTANCE = """
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""

FORWARD = """
prob forward(hmm h, state[h] s, seq[*] x, index[x] i) =
  if i == 0 then
    (if s.isstart then 1.0 else 0.0)
  else
    (if s.isend then 1.0 else s.emission[x[i-1]])
    * sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))
"""


def check(src, alphabets=EN):
    return check_function(parse_function(src.strip()), alphabets)


class TestParameterClassification:
    def test_edit_distance_dims(self):
        func = check(EDIT_DISTANCE)
        assert func.dim_names == ("i", "j")
        assert [p.name for p in func.calling_params] == ["s", "t"]

    def test_int_param_is_recursive(self):
        func = check("int fib(int n) = if n < 2 then n else fib(n-1) + fib(n-2)")
        assert func.dim_names == ("n",)

    def test_state_param_is_recursive(self):
        func = check(FORWARD, DNA)
        assert func.dim_names == ("s", "i")

    def test_float_param_is_calling(self):
        func = check("float f(float g, seq[en] s, index[s] i) = g")
        assert func.dim_names == ("i",)
        assert [p.name for p in func.calling_params] == ["g", "s"]

    def test_every_parameter_type_spelled_as_declared(self):
        """Each calling and recursive type is accepted and prints in
        its DSL spelling (type errors name parameters this way)."""
        func = check(
            "prob f(prob p, char[en] c, matrix[en, en] m, hmm h, "
            "state[h] q) = p"
        )
        assert [p.name for p in func.calling_params] == [
            "p", "c", "m", "h"
        ]
        assert [str(p.type) for p in func.params] == [
            "prob", "char[en]", "matrix[en, en]", "hmm", "state[h]"
        ]
        func = check("prob g(hmm h, transition[h] t) = t.prob")
        assert func.dim_names == ("t",)
        assert str(func.params[1].type) == "transition[h]"

    def test_no_recursive_params_rejected(self):
        with pytest.raises(TypeCheckError, match="no recursive parameters"):
            check("float f(seq[en] s) = 1.0")

    def test_duplicate_param_rejected(self):
        with pytest.raises(TypeCheckError, match="duplicate parameter"):
            check("int f(int x, int x) = x")

    def test_index_must_reference_earlier_seq(self):
        with pytest.raises(TypeCheckError, match="earlier"):
            check("int f(index[s] i, seq[en] s) = i")

    def test_index_referencing_non_seq_rejected(self):
        with pytest.raises(TypeCheckError):
            check("int f(int s, index[s] i) = i")

    def test_state_must_reference_hmm(self):
        with pytest.raises(TypeCheckError):
            check("prob f(seq[en] h, state[h] s) = 1.0")

    def test_unknown_alphabet_rejected(self):
        with pytest.raises(TypeCheckError, match="unknown alphabet"):
            check("int f(seq[xx] s, index[s] i) = i")


class TestExpressionTyping:
    def test_body_type_recorded(self):
        func = check(EDIT_DISTANCE)
        assert func.type_of(func.body) == ty.INT

    def test_return_widening_int_to_float(self):
        func = check("float f(seq[en] s, index[s] i) = 1")
        assert func.return_type == ty.FLOAT

    def test_return_narrowing_rejected(self):
        with pytest.raises(TypeCheckError, match="return type"):
            check("int f(seq[en] s, index[s] i) = 1.5")

    def test_float_literal_adopts_prob_context(self):
        func = check("prob f(seq[en] s, index[s] i) = 1.0")
        assert func.type_of(func.body) == ty.PROB

    def test_char_comparison(self):
        func = check(
            "int f(seq[en] s, index[s] i) = if s[i] == s[i] then 1 else 0"
        )
        assert func.return_type == ty.INT

    def test_char_ordering_rejected(self):
        with pytest.raises(TypeCheckError, match="== and !="):
            check("int f(seq[en] s, index[s] i) = if s[i] < s[i] then 1 else 0")

    def test_char_vs_int_comparison_rejected(self):
        with pytest.raises(TypeCheckError, match="cannot compare"):
            check("int f(seq[en] s, index[s] i) = if s[i] == 1 then 1 else 0")

    def test_condition_must_be_bool(self):
        with pytest.raises(TypeCheckError, match="must be bool"):
            check("int f(seq[en] s, index[s] i) = if i then 1 else 0")

    def test_incompatible_branches_rejected(self):
        with pytest.raises(TypeCheckError, match="incompatible"):
            check(
                "int f(seq[en] s, index[s] i) = "
                "if i == 0 then 1 else s[i]"
            )

    def test_arith_on_chars_rejected(self):
        with pytest.raises(TypeCheckError, match="numeric"):
            check("int f(seq[en] s, index[s] i) = s[i] + 1")

    def test_unknown_variable(self):
        with pytest.raises(TypeCheckError, match="unknown variable"):
            check("int f(seq[en] s, index[s] i) = k")

    def test_seq_index_gives_alphabet_char(self):
        func = check("int f(seq[en] s, index[s] i) = if s[i] == 'a' then 1 else 0")
        assert func.return_type == ty.INT

    def test_indexing_non_sequence_rejected(self):
        with pytest.raises(TypeCheckError, match="not a sequence"):
            check("int f(int n) = n[0]")

    def test_script_only_forms_rejected_in_body(self):
        with pytest.raises(TypeCheckError, match="script"):
            check('int f(seq[en] s, index[s] i) = |s|')
        with pytest.raises(TypeCheckError, match='^"abc" is only allowed'):
            check('int f(int n) = "abc"')
        with pytest.raises(TypeCheckError, match="^_ is only allowed"):
            check("int f(int n) = _")

    def test_transition_set_named_in_body_type_error(self):
        with pytest.raises(TypeCheckError, match=r"type transitionset\[h\]"):
            check("prob f(hmm h, state[h] s) = s.transitionsto")


class TestRecursiveCalls:
    def test_wrong_arity(self):
        with pytest.raises(TypeCheckError, match="2 recursive"):
            check(
                "int d(seq[en] s, index[s] i, seq[en] t, index[t] j) = "
                "if i == 0 then 0 else d(i - 1)"
            )

    def test_call_to_unknown_function(self):
        with pytest.raises(TypeCheckError, match="unknown function"):
            check("int f(int n) = g(n - 1)")

    def test_cross_calls_typecheck_in_programs(self):
        """Mutual groups type-check (two-pass); the single-function
        *analysis* rejects them (Section 9 pipeline handles them)."""
        from repro.analysis.descent import extract_descents
        from repro.lang.errors import AnalysisError

        program = parse_program(
            'alphabet en = "ab"\n'
            "int g(int n) = if n == 0 then 0 else f(n - 1)\n"
            "int f(int n) = if n == 0 then 0 else g(n - 1)\n"
        )
        checked = check_program(program)  # forward reference resolves
        with pytest.raises(AnalysisError, match="mutual"):
            extract_descents(checked.function("g"))

    def test_cross_call_wrong_arity_rejected(self):
        program = parse_program(
            "int f(int n, int m) = if n == 0 then 0 else f(n-1, m)\n"
            "int g(int n) = f(n - 1)\n"
        )
        with pytest.raises(TypeCheckError, match="2 recursive"):
            check_program(program)

    def test_call_inside_single_function_still_rejected(self):
        with pytest.raises(TypeCheckError, match="unknown function"):
            check("int f(int n) = g(n - 1)")

    def test_bad_argument_type(self):
        with pytest.raises(TypeCheckError, match="recursive argument"):
            check(FORWARD.replace("forward(t.start, i - 1)",
                                  "forward(i - 1, i - 1)"), DNA)


class TestHmmTyping:
    def test_forward_types(self):
        func = check(FORWARD, DNA)
        assert func.return_type == ty.PROB

    def test_transition_fields(self):
        func = check(
            "prob f(hmm h, transition[h] t, seq[*] x, index[x] i) = t.prob",
            DNA,
        )
        assert func.return_type == ty.PROB

    def test_state_has_no_prob_field(self):
        with pytest.raises(TypeCheckError, match="states have no field"):
            check(
                "prob f(hmm h, state[h] s, seq[*] x, index[x] i) = s.prob",
                DNA,
            )

    def test_transition_has_no_isstart(self):
        with pytest.raises(TypeCheckError, match="transitions have no field"):
            check(
                "prob f(hmm h, transition[h] t, seq[*] x, index[x] i) = "
                "if t.isstart then 1.0 else 0.0",
                DNA,
            )

    def test_reduce_over_non_set_rejected(self):
        with pytest.raises(TypeCheckError, match="transition sets"):
            check(
                "prob f(hmm h, state[h] s, seq[*] x, index[x] i) = "
                "sum(t in s.isstart : 1.0)",
                DNA,
            )

    def test_reduce_shadowing_rejected(self):
        with pytest.raises(TypeCheckError, match="shadows"):
            check(
                "prob f(hmm h, state[h] s, seq[*] x, index[x] i) = "
                "sum(s in s.transitionsto : 1.0)",
                DNA,
            )

    def test_reduce_var_out_of_scope_after(self):
        with pytest.raises(TypeCheckError, match="unknown variable"):
            check(
                "prob f(hmm h, state[h] s, seq[*] x, index[x] i) = "
                "sum(t in s.transitionsto : 1.0) * t.prob",
                DNA,
            )

    def test_emission_needs_char(self):
        with pytest.raises(TypeCheckError, match="character"):
            check(
                "prob f(hmm h, state[h] s, seq[*] x, index[x] i) = "
                "s.emission[i]",
                DNA,
            )


class TestProgramChecking:
    def test_full_program(self):
        program = parse_program(
            'alphabet en = "abcdefghijklmnopqrstuvwxyz"\n' + EDIT_DISTANCE
        )
        checked = check_program(program)
        assert "d" in checked.functions

    def test_duplicate_function_rejected(self):
        src = 'alphabet en = "ab"\nint f(int n) = n\nint f(int n) = n'
        with pytest.raises(TypeCheckError, match="twice"):
            check_program(parse_program(src))

    def test_duplicate_alphabet_rejected(self):
        src = 'alphabet a = "xy"\nalphabet a = "zw"'
        with pytest.raises(TypeCheckError, match="twice"):
            check_program(parse_program(src))

    def test_matrix_validation_missing_rows(self):
        src = (
            'alphabet ab = "ab"\n'
            "matrix cost[ab, ab] { header a b row a : 0 1 }"
        )
        with pytest.raises(TypeCheckError, match="missing rows"):
            check_program(parse_program(src))

    def test_matrix_row_width_mismatch(self):
        src = (
            'alphabet ab = "ab"\n'
            "matrix cost[ab, ab] { header a b default 0 row a : 0 }"
        )
        with pytest.raises(TypeCheckError, match="columns"):
            check_program(parse_program(src))

    def test_hmm_needs_start_and_end(self):
        src = (
            'alphabet dna = "acgt"\n'
            "hmm h [dna] { state a emits { a: 1.0 } }"
        )
        with pytest.raises(TypeCheckError, match="start"):
            check_program(parse_program(src))

    def test_hmm_unknown_transition_state(self):
        src = (
            'alphabet dna = "acgt"\n'
            "hmm h [dna] {\n"
            "  state b : start\n  state e : end\n"
            "  trans b -> nowhere : 1.0\n}"
        )
        with pytest.raises(TypeCheckError, match="unknown"):
            check_program(parse_program(src))

    def test_hmm_bad_emission_char(self):
        src = (
            'alphabet dna = "acgt"\n'
            "hmm h [dna] {\n"
            "  state b : start\n  state m emits { z: 1.0 }\n  state e : end\n}"
        )
        with pytest.raises(TypeCheckError, match="alphabet"):
            check_program(parse_program(src))

    def test_schedule_decl_registered(self):
        program = parse_program(
            'alphabet en = "ab"\n' + EDIT_DISTANCE + "\nschedule d : i + j"
        )
        checked = check_program(program)
        assert "d" in checked.schedules

    def test_schedule_for_unknown_function(self):
        with pytest.raises(TypeCheckError, match="unknown function"):
            check_program(parse_program("schedule nope : x"))
