"""Every rung computes the operation table's semantics.

Two programs whose values hinge on a row of
:data:`repro.ir.cell.OPS`, run through ``Engine(backend=...)`` on the
scalar, vector and (with a compiler) native rungs and compared under
the :mod:`repro.runtime.parity` policy: ``safelog`` of a subnormal,
and ``min`` of a NaN. Each rung once answered one of them differently.
"""

import math

import numpy as np
import pytest

from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.runtime import native
from repro.runtime.engine import Engine
from repro.runtime.interpreter import memoised
from repro.runtime.parity import tables_agree
from repro.runtime.values import ENGLISH, Bindings, Sequence

EN = {"en": ENGLISH.chars}
S = Sequence(("gattaca" * 20)[:128], ENGLISH)
T = Sequence(("tacgcat" * 20)[:128], ENGLISH)
RUNGS = ["scalar", "vector"] + (
    ["native"] if native.available().ok else []
)


def checked(src):
    return check_function(parse_function(src), EN)


def tables_by_rung(func, bindings, prob_mode="direct"):
    return {
        rung: Engine(backend=rung, prob_mode=prob_mode)
        .run(func, dict(bindings)).table
        for rung in RUNGS
    }


def test_safelog_does_not_clamp_tiny_inputs():
    """``log(1e-310)`` is -713.80 on every rung; the vector prelude
    once clamped every input below 1e-300, giving -690.78."""
    func = checked(
        "prob f(seq[en] s, index[s] i, seq[en] t, index[t] j, "
        "float w) = if i == 0 then 1.0 else if j == 0 then 1.0 "
        "else f(i-1, j) * w + f(i, j-1) * 0.0"
    )
    tables = tables_by_rung(func, {"s": S, "t": T, "w": 1e-310}, "logspace")
    for rung, table in tables.items():
        assert table[1, 1] == pytest.approx(math.log(1e-310)), rung
        assert tables_agree(table, tables["scalar"]), rung


def test_min_of_nan_is_the_second_operand_on_every_rung():
    """Row 0 is ``inf * 0.0``, NaN; ``NaN min 2.0`` is 2.0 (C's
    ``a < b ? a : b``), so only row 0 is NaN — on every rung and in
    the reference interpreter."""
    func = checked(
        "float f(seq[en] s, index[s] i, seq[en] t, index[t] j, "
        "float w) = if i == 0 then w * 0.0 else if j == 0 then 2.0 "
        "else f(i-1, j) min f(i, j-1)"
    )
    bindings = {"s": S, "t": T, "w": math.inf}
    tables = tables_by_rung(func, bindings)
    for rung, table in tables.items():
        assert int(np.isnan(table).sum()) == len(T) + 1, rung
        assert tables_agree(table, tables["scalar"]), rung
    oracle = memoised(func, Bindings(bindings))
    assert oracle((1, 1)) == 2.0
