"""Integration: every execution path agrees on every program.

For a battery of DSL programs the four evaluation routes must agree:

1. the memoised recursive interpreter (oracle);
2. serial bottom-up tabulation in schedule order;
3. the compiled Python kernel on the simulated device;
4. the lock-step evaluator (barrier semantics).

The two interpreted routes run the function as a group of one.
"""

import math

import numpy as np
import pytest

from repro.analysis.domain import Domain
from repro.extensions.hmm import HmmBuilder
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.runtime.engine import Engine
from repro.runtime.interpreter import domain_extents, memoised
from repro.runtime.values import Bindings, DNA, ENGLISH, Sequence
from tests.group_of_one import lockstep, tabulate

EN = {"en": ENGLISH.chars}


def agree_everywhere(func, bindings, initial=None, rel=1e-9):
    """Assert all four routes produce the same table."""
    engine = Engine()
    bound = Bindings(dict(bindings))
    domain = Domain(
        func.dim_names, domain_extents(func, bound, initial)
    )
    run = engine.run(func, bindings, initial=initial)
    schedule = run.schedule

    oracle = memoised(func, bound)
    serial = tabulate(func, bound, schedule, initial=initial)
    barrier = lockstep(func, bound, schedule, initial=initial)

    for point in domain.points():
        want = oracle(point)
        assert serial[point] == pytest.approx(want, rel=rel)
        assert run.table[point] == pytest.approx(want, rel=rel)
        assert barrier[point] == pytest.approx(want, rel=rel)
    return run


EDIT_DISTANCE = """
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""

LCS = """
int lcs(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then 0
  else if j == 0 then 0
  else if s[i-1] == t[j-1] then lcs(i-1, j-1) + 1
  else lcs(i-1, j) max lcs(i, j-1)
"""

NEEDLEMAN = """
int nw(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then 0 - j
  else if j == 0 then 0 - i
  else (nw(i-1, j-1) + (if s[i-1] == t[j-1] then 1 else 0 - 1))
       max (nw(i-1, j) - 1)
       max (nw(i, j-1) - 1)
"""

FORWARD = """
prob forward(hmm h, state[h] s, seq[*] x, index[x] i) =
  if i == 0 then (if s.isstart then 1.0 else 0.0)
  else (if s.isend then 1.0 else s.emission[x[i-1]])
    * sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))
"""

VITERBI = """
prob viterbi(hmm h, state[h] s, seq[*] x, index[x] i) =
  if i == 0 then (if s.isstart then 1.0 else 0.0)
  else (if s.isend then 1.0 else s.emission[x[i-1]])
    * max(t in s.transitionsto : t.prob * viterbi(t.start, i - 1))
"""


def checked(src, alphabets=EN):
    return check_function(parse_function(src.strip()), alphabets)


def toy_hmm():
    return (
        HmmBuilder("h", DNA)
        .start("b")
        .add_state("p", {"a": 0.5, "c": 0.2, "g": 0.2, "t": 0.1})
        .add_state("q", {"a": 0.1, "c": 0.3, "g": 0.3, "t": 0.3})
        .end("e")
        .transition("b", "p", 0.7)
        .transition("b", "q", 0.3)
        .transition("p", "p", 0.6)
        .transition("p", "q", 0.3)
        .transition("p", "e", 0.1)
        .transition("q", "q", 0.5)
        .transition("q", "p", 0.4)
        .transition("q", "e", 0.1)
        .build()
    )


class TestStringRecursions:
    def test_edit_distance(self):
        run = agree_everywhere(
            checked(EDIT_DISTANCE),
            {"s": Sequence("kitten", ENGLISH),
             "t": Sequence("sitting", ENGLISH)},
        )
        assert run.value == 3

    def test_lcs(self):
        run = agree_everywhere(
            checked(LCS),
            {"s": Sequence("nematode", ENGLISH),
             "t": Sequence("empty", ENGLISH)},
        )
        assert run.value == 3  # e, m, t

    def test_needleman_wunsch(self):
        run = agree_everywhere(
            checked(NEEDLEMAN),
            {"s": Sequence("gattaca", ENGLISH),
             "t": Sequence("gcatgcu", ENGLISH)},
        )
        assert run.value == 0

    def test_degenerate_empty_inputs(self):
        agree_everywhere(
            checked(EDIT_DISTANCE),
            {"s": Sequence("", ENGLISH), "t": Sequence("", ENGLISH)},
        )

    def test_one_dimensional(self):
        func = checked(
            "int tri(int n) = if n == 0 then 0 else tri(n-1) + n"
        )
        run = agree_everywhere(func, {}, initial={"n": 12})
        assert run.value == 78


class TestHmmRecursions:
    def test_forward(self):
        hmm = toy_hmm()
        agree_everywhere(
            checked(FORWARD, {"dna": DNA.chars}),
            {"h": hmm, "x": Sequence("acgtac", DNA)},
        )

    def test_viterbi(self):
        hmm = toy_hmm()
        agree_everywhere(
            checked(VITERBI, {"dna": DNA.chars}),
            {"h": hmm, "x": Sequence("gacgta", DNA)},
        )

    def test_viterbi_bounded_by_forward(self):
        """max over paths <= sum over paths, cell by cell."""
        hmm = toy_hmm()
        x = Sequence("acgt", DNA)
        engine = Engine()
        fwd = engine.run(
            checked(FORWARD, {"dna": DNA.chars}), {"h": hmm, "x": x}
        )
        vit = engine.run(
            checked(VITERBI, {"dna": DNA.chars}), {"h": hmm, "x": x}
        )
        assert (vit.table <= fwd.table + 1e-12).all()


class TestCrossBackendProbability:
    def test_direct_and_logspace_tables_correspond(self):
        hmm = toy_hmm()
        x = Sequence("acgtgca", DNA)
        func = checked(FORWARD, {"dna": DNA.chars})
        direct = Engine(prob_mode="direct").run(
            func, {"h": hmm, "x": x}
        )
        logged = Engine(prob_mode="logspace").run(
            func, {"h": hmm, "x": x}
        )
        with np.errstate(divide="ignore"):
            expected = np.log(direct.table)
        assert np.allclose(
            logged.table, expected, atol=1e-9, equal_nan=False
        )
