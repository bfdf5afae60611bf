"""Tests for the Python backend against the memoised oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.domain import Domain
from repro.extensions.hmm import HmmBuilder
from repro.ir.kernel import build_kernel
from repro.ir.pybackend import (
    _PRELUDE,
    compile_kernel,
    emit_kernel_source,
)
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.runtime.interpreter import memoised
from repro.runtime.values import Bindings, DNA, ENGLISH, Sequence
from repro.schedule.schedule import Schedule
from repro.schedule.solver import find_schedule

EN = {"en": ENGLISH.chars}

EDIT_DISTANCE = """
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""

FORWARD = """
prob forward(hmm h, state[h] s, seq[*] x, index[x] i) =
  if i == 0 then (if s.isstart then 1.0 else 0.0)
  else (if s.isend then 1.0 else s.emission[x[i-1]])
    * sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))
"""


def checked(src, alphabets=EN):
    return check_function(parse_function(src.strip()), alphabets)


def run_kernel(func, schedule, ctx, extents, kind="int",
               prob_mode="direct"):
    kernel = build_kernel(func, schedule, prob_mode)
    fn, source = compile_kernel(kernel)
    dtype = np.int64 if kind == "int" else np.float64
    table = np.zeros(extents, dtype=dtype)
    fn(table, ctx)
    return table, source


def toy_hmm():
    return (
        HmmBuilder("h", DNA)
        .start("begin")
        .add_state("a_rich", {"a": 0.6, "c": 0.1, "g": 0.1, "t": 0.2})
        .add_state("g_rich", {"a": 0.1, "c": 0.2, "g": 0.6, "t": 0.1})
        .end("fin")
        .transition("begin", "a_rich", 0.6)
        .transition("begin", "g_rich", 0.4)
        .transition("a_rich", "a_rich", 0.7)
        .transition("a_rich", "g_rich", 0.2)
        .transition("a_rich", "fin", 0.1)
        .transition("g_rich", "g_rich", 0.6)
        .transition("g_rich", "a_rich", 0.3)
        .transition("g_rich", "fin", 0.1)
        .build()
    )


class TestEditDistance:
    def test_matches_oracle(self):
        func = checked(EDIT_DISTANCE)
        s = Sequence("kitten", ENGLISH)
        t = Sequence("sitting", ENGLISH)
        ctx = {
            "ub_i": len(s), "ub_j": len(t),
            "seq_s": s.codes, "seq_t": t.codes,
        }
        table, _ = run_kernel(
            func, Schedule.of(i=1, j=1), ctx, (len(s) + 1, len(t) + 1)
        )
        oracle = memoised(func, Bindings({"s": s, "t": t}))
        for i in range(len(s) + 1):
            for j in range(len(t) + 1):
                assert table[i, j] == oracle((i, j))

    def test_generated_source_is_deterministic(self):
        func = checked(EDIT_DISTANCE)
        kernel = build_kernel(func, Schedule.of(i=1, j=1))
        assert emit_kernel_source(kernel) == emit_kernel_source(kernel)

    @settings(deadline=None, max_examples=20)
    @given(
        s_text=st.text(alphabet="ab", min_size=0, max_size=6),
        t_text=st.text(alphabet="ab", min_size=0, max_size=6),
        coeffs=st.sampled_from([(1, 1), (2, 1), (1, 2)]),
    )
    def test_random_strings_any_valid_schedule(
        self, s_text, t_text, coeffs
    ):
        func = checked(EDIT_DISTANCE)
        s = Sequence(s_text, ENGLISH)
        t = Sequence(t_text, ENGLISH)
        ctx = {
            "ub_i": len(s), "ub_j": len(t),
            "seq_s": s.codes, "seq_t": t.codes,
        }
        table, _ = run_kernel(
            func, Schedule(("i", "j"), coeffs), ctx,
            (len(s) + 1, len(t) + 1),
        )
        oracle = memoised(func, Bindings({"s": s, "t": t}))
        assert table[len(s), len(t)] == oracle((len(s), len(t)))


class TestForward:
    def _context(self, hmm, x, logspace):
        arrays = hmm.arrays(logspace=logspace)
        return {
            "ub_s": hmm.n_states - 1,
            "ub_i": len(x),
            "seq_x": x.codes,
            "hmm_h_isstart": arrays.is_start,
            "hmm_h_isend": arrays.is_end,
            "hmm_h_emis": arrays.emissions,
            "hmm_h_symidx": arrays.sym_index,
            "hmm_h_tprob": arrays.trans_prob,
            "hmm_h_tsrc": arrays.trans_source,
            "hmm_h_ttgt": arrays.trans_target,
            "hmm_h_inoff": arrays.in_offsets,
            "hmm_h_inids": arrays.in_ids,
            "hmm_h_outoff": arrays.out_offsets,
            "hmm_h_outids": arrays.out_ids,
        }

    def test_direct_matches_oracle(self):
        func = checked(FORWARD, {"dna": DNA.chars})
        hmm = toy_hmm()
        x = Sequence("acgtgact", DNA)
        table, _ = run_kernel(
            func,
            Schedule.of(s=0, i=1),
            self._context(hmm, x, False),
            (hmm.n_states, len(x) + 1),
            kind="prob",
        )
        oracle = memoised(func, Bindings({"h": hmm, "x": x}))
        for s in range(hmm.n_states):
            for i in range(len(x) + 1):
                assert table[s, i] == pytest.approx(oracle((s, i)))

    def test_logspace_matches_direct(self):
        func = checked(FORWARD, {"dna": DNA.chars})
        hmm = toy_hmm()
        x = Sequence("acgtgactacgt", DNA)
        direct, _ = run_kernel(
            func, Schedule.of(s=0, i=1),
            self._context(hmm, x, False),
            (hmm.n_states, len(x) + 1), kind="prob",
        )
        logged, _ = run_kernel(
            func, Schedule.of(s=0, i=1),
            self._context(hmm, x, True),
            (hmm.n_states, len(x) + 1), kind="prob",
            prob_mode="logspace",
        )
        for s in range(hmm.n_states):
            for i in range(len(x) + 1):
                expected = direct[s, i]
                got = math.exp(logged[s, i]) if logged[s, i] != -math.inf \
                    else 0.0
                assert got == pytest.approx(expected, abs=1e-12)

    def test_logspace_survives_underflow(self):
        """Long sequences underflow doubles; log space does not."""
        func = checked(FORWARD, {"dna": DNA.chars})
        hmm = toy_hmm()
        x = Sequence("acgt" * 300, DNA)  # 1200 symbols
        logged, _ = run_kernel(
            func, Schedule.of(s=0, i=1),
            self._context(hmm, x, True),
            (hmm.n_states, len(x) + 1), kind="prob",
            prob_mode="logspace",
        )
        final = logged[hmm.end_state.index, len(x)]
        assert final < -1000.0           # deeply underflowed as prob
        assert final != -math.inf        # but perfectly representable


class TestGeneratedSource:
    def test_source_unpacks_only_referenced_names(self):
        func = checked(EDIT_DISTANCE)
        kernel = build_kernel(func, Schedule.of(i=1, j=1))
        source = emit_kernel_source(kernel)
        assert "seq_s" in source
        assert "hmm_" not in source
        assert "mat_" not in source

    def test_source_compiles(self):
        func = checked(EDIT_DISTANCE)
        kernel = build_kernel(func, Schedule.of(i=1, j=1))
        fn, source = compile_kernel(kernel)
        assert callable(fn)
        compile(source, "<check>", "exec")

    def test_scalar_args_threaded(self):
        func = checked("float f(float g, seq[en] s, index[s] i) = g")
        schedule = find_schedule(func, Domain.of(i=4))
        kernel = build_kernel(func, schedule)
        fn, _ = compile_kernel(kernel)
        table = np.zeros(4, dtype=np.float64)
        fn(table, {"ub_i": 3, "arg_g": 2.5})
        assert (table == 2.5).all()

    def test_guard_emitted_for_nonunit_pinned(self):
        func = checked(EDIT_DISTANCE)
        kernel = build_kernel(func, Schedule.of(i=1, j=2))
        source = emit_kernel_source(kernel)
        assert "% 2 == 0" in source


class TestLogaddexp:
    """The prelude spends one ``exp``; the two-``exp`` formula it
    replaced lives on here as the reference."""

    @staticmethod
    def two_exps(a, b):
        if a == -math.inf:
            return b
        if b == -math.inf:
            return a
        m = a if a > b else b
        return m + math.log(math.exp(a - m) + math.exp(b - m))

    doubles = st.floats(allow_nan=False, max_value=1e308) | st.just(
        -math.inf
    )

    @pytest.fixture(scope="class")
    def logaddexp(self):
        namespace = {}
        exec(_PRELUDE, namespace)
        return namespace["logaddexp"]

    @settings(max_examples=2000, deadline=None)
    @given(doubles, doubles)
    def test_bit_equal_to_the_two_exp_formula(self, logaddexp, a, b):
        assert logaddexp(a, b).hex() == self.two_exps(a, b).hex()

    def test_close_pairs_and_signed_zeros(self, logaddexp):
        for a, b in [
            (0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0),
            (-745.2, -745.1), (1e-320, 2e-320), (-1e308, -1e308),
            (700.0, 700.0), (-3.5, -3.5 + 2**-50),
        ]:
            assert logaddexp(a, b).hex() == self.two_exps(a, b).hex()

    def test_positive_infinity_no_longer_nan(self, logaddexp):
        assert math.isnan(self.two_exps(math.inf, 1.0))
        assert logaddexp(math.inf, 1.0) == math.inf
