"""Property-based integration: random uniform recursions.

Hypothesis generates random 2-D uniform recurrences (random descent
offsets, random combinators); for each one the whole pipeline must

* find a schedule the brute-force checker accepts, or prove none
  exists in bound;
* produce a compiled kernel whose table equals the memoised oracle;
* survive the lock-step barrier check.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.domain import Domain
from repro.gpu.executor import LockStepExecutor
from repro.lang.errors import ScheduleError
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.runtime.engine import Engine
from repro.runtime.interpreter import domain_extents, memoised
from repro.runtime.values import Bindings, ENGLISH, Sequence

EN = {"en": ENGLISH.chars}


def offset_text(var: str, offset: int) -> str:
    if offset == 0:
        return var
    sign = "+" if offset > 0 else "-"
    return f"{var} {sign} {abs(offset)}"


@st.composite
def recursion_programs(draw):
    """A random guarded 2-D recurrence over two sequences."""
    n_calls = draw(st.integers(1, 3))
    combiner = draw(st.sampled_from(["+", "min", "max"]))
    calls = []
    for _ in range(n_calls):
        di = draw(st.integers(-2, 0))
        dj = draw(st.integers(-2, 0))
        if di == 0 and dj == 0:
            di = -1
        calls.append(f"f({offset_text('i', di)}, {offset_text('j', dj)})")
    body = f" {combiner} ".join(calls)
    # Guard far enough from the boundary that every descent stays in
    # the domain (offsets reach -2).
    src = (
        "int f(seq[en] s, index[s] i, seq[en] t, index[t] j) =\n"
        "  if i < 2 then i + j\n"
        "  else if j < 2 then i + j\n"
        f"  else ({body}) + 1"
    )
    return src


@settings(deadline=None, max_examples=25)
@given(
    src=recursion_programs(),
    s_text=st.text(alphabet="abc", min_size=2, max_size=6),
    t_text=st.text(alphabet="abc", min_size=2, max_size=6),
)
def test_random_recurrences_agree(src, s_text, t_text):
    func = check_function(parse_function(src), EN)
    bindings = {"s": Sequence(s_text, ENGLISH),
                "t": Sequence(t_text, ENGLISH)}
    bound = Bindings(dict(bindings))
    domain = Domain(func.dim_names, domain_extents(func, bound))

    engine = Engine()
    try:
        run = engine.run(func, bindings)
    except ScheduleError:
        # If the solver says no schedule exists, the enumerative
        # solver must agree.
        from repro.analysis.criteria import schedule_criteria
        from repro.schedule.solver import EnumerativeSolver

        with pytest.raises(ScheduleError):
            EnumerativeSolver().solve(
                func.dim_names, schedule_criteria(func), domain
            )
        return

    oracle = memoised(func, bound)
    for point in domain.points():
        assert run.table[point] == oracle(point), (src, point)

    # Lock-step execution must pass the barrier check too.
    LockStepExecutor(func, run.schedule, bound, domain).run()


@settings(deadline=None, max_examples=15)
@given(
    s_text=st.text(alphabet="ab", min_size=0, max_size=8),
    t_text=st.text(alphabet="ab", min_size=0, max_size=8),
)
def test_edit_distance_metric_properties(s_text, t_text):
    """The synthesised edit distance is a genuine metric."""
    src = (
        "int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =\n"
        "  if i == 0 then j else if j == 0 then i\n"
        "  else if s[i-1] == t[j-1] then d(i-1, j-1)\n"
        "  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1"
    )
    func = check_function(parse_function(src), EN)
    engine = Engine()

    def distance(a, b):
        return engine.run(
            func,
            {"s": Sequence(a, ENGLISH), "t": Sequence(b, ENGLISH)},
        ).value

    d_st = distance(s_text, t_text)
    assert d_st >= 0
    assert (d_st == 0) == (s_text == t_text)
    assert d_st == distance(t_text, s_text)
    assert abs(len(s_text) - len(t_text)) <= d_st
    assert d_st <= max(len(s_text), len(t_text))
