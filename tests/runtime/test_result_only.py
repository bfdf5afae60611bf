"""Result-only launches through ``Engine.run``.

A blocked-wavefront kernel on the native rung hands back the value
without materialising its table; ``RunResult.table`` fills on first
read. These tests pin the engine's side of that bargain: what is
asked for is settled *before* anything launches, a value-only caller
never allocates a table, a table reader gets the parent's table from
exactly one extra launch, and every launch that needs its table up
front (supervised, sanitized, sandboxed, other rungs) still has it.
The kernel's side — the value equals the table's, tile by tile — is
``tests/ir/test_tiling.py`` section (f).
"""

import numpy as np
import pytest

from repro.apps.smith_waterman import smith_waterman_function
from repro.extensions.submatrix import blosum62
from repro.ir import cbackend
from repro.lang.errors import RuntimeDslError
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.runtime import ladder, native, sandbox
from repro.runtime.engine import Engine
from repro.runtime.values import PROTEIN, Bindings, Sequence

#: The engine fuses only an in-process native launch: no compiler,
#: ``REPRO_NATIVE_SANDBOX=1`` and a sanitizer build (always sandboxed)
#: all keep the table path these tests are not about.
needs_cc = pytest.mark.skipif(
    not native.available().ok
    or sandbox.enabled()
    or native.sanitize_active(),
    reason="no in-process native rung in this environment",
)

EDIT = """
int d(seq[al] s, index[s] i, seq[al] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""

# tests/corpus/ring-schedule-collision.dsl's kernel: f(i - 2, j - 1)
# needs a two-row halo and its corner.
REACH2 = """
int f(seq[al] s, index[s] i, seq[al] t, index[t] j) =
  if i < 2 then i + j
  else if j < 2 then i + j
  else (f(i - 1, j) max f(i - 2, j - 1)) + 1
"""


def checked(text):
    return check_function(parse_function(text.strip()), {"al": "acgt"})


def dna(n, salt):
    return Sequence(
        "".join("acgt"[(i * i + salt * i + salt) % 4] for i in range(n)),
        "acgt",
    )


def protein(n, salt):
    chars = PROTEIN.chars
    return Sequence(
        "".join(
            chars[(i * i + salt * i + salt) % len(chars)]
            for i in range(n)
        ),
        PROTEIN,
    )


def sw_args(n=40, m=33):
    return {
        "m": blosum62(PROTEIN), "q": protein(n, 5), "d": protein(m, 6),
    }


class Spy:
    """Counts calls of ``owner.name`` and passes them through."""

    def __init__(self, monkeypatch, owner, name):
        self.calls = 0
        inner = getattr(owner, name)

        def counted(*args, **kwargs):
            self.calls += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)


def is_lazy(result):
    """Has this result not materialised its table (yet)?"""
    return callable(result._table)


# -- the request is settled before the launch -------------------------------


@pytest.mark.parametrize("backend", ["scalar", "auto"])
def test_a_bad_request_launches_nothing(backend, monkeypatch):
    func = checked(EDIT)
    args = {"s": dna(6, 1), "t": dna(7, 2)}
    engine = Engine(backend=backend)
    good = engine.run(func, args)  # warm: products exist either way
    launches = Spy(monkeypatch, ladder, "launch")
    fused = Spy(monkeypatch, native.NativeRun, "result")
    tables = Spy(monkeypatch, Engine, "_table_for")
    with pytest.raises(RuntimeDslError) as err:
        engine.run(func, args, reduce="sum")
    assert err.value.message == "unknown reduction 'sum'"
    with pytest.raises(IndexError) as err:
        engine.run(func, args, at={"i": 7})
    assert str(err.value) == (
        "index 7 is out of bounds for axis 0 with size 7"
    )
    with pytest.raises(IndexError):
        engine.run(func, args, at={"j": -9})
    assert launches.calls == fused.calls == tables.calls == 0
    # in range, negative included, as NumPy wraps it
    assert engine.run(func, args, at={"i": -1, "j": -1}).value == (
        good.value
    )
    assert engine.run(func, args, at={"i": -7, "j": 3}).value == 3
    # an out-of-range coordinate nobody reads is nobody's error
    assert engine.run(
        func, args, at={"i": 99}, reduce="max"
    ).value == good.table.max()


# -- the fused path ----------------------------------------------------------


@needs_cc
def test_a_value_only_caller_never_sees_a_table(monkeypatch):
    func, args = smith_waterman_function(), sw_args()
    eager = Engine(backend="scalar").run(func, args, reduce="max")
    engine = Engine()
    engine.run(func, args, reduce="max")  # warm
    tables = Spy(monkeypatch, Engine, "_table_for")
    launches = Spy(monkeypatch, ladder, "launch")
    fused = Spy(monkeypatch, native.NativeRun, "result")
    result = engine.run(func, args, reduce="max")
    assert result.value == eager.value
    assert (tables.calls, launches.calls, fused.calls) == (0, 0, 1)
    assert is_lazy(result)
    # pricing stayed eager
    assert result.cost == eager.cost and result.seconds == eager.seconds
    # first read: the full-table entry, once, through ladder.launch
    table = result.table
    assert (tables.calls, launches.calls, fused.calls) == (1, 1, 1)
    assert table.dtype == eager.table.dtype
    assert np.array_equal(table, eager.table)
    assert result.table is table and result.table is table
    assert (tables.calls, launches.calls) == (1, 1)
    assert not is_lazy(result)


@needs_cc
@pytest.mark.parametrize(
    "text, user", [(EDIT, None), (EDIT, "2*i + j"), (REACH2, "i")]
)
def test_every_request_agrees_with_the_scalar_rung(text, user):
    from repro.lang.parser import parse_expr

    func = checked(text)
    schedule = parse_expr(user) if user else None
    native_engine, scalar = Engine(), Engine(backend="scalar")
    for n, m in [(0, 0), (1, 1), (9, 7), (130, 127)]:
        args = {"s": dna(n, 3), "t": dna(m, 4)}
        for want in (
            {"reduce": "max"}, {"reduce": "min"}, {},
            {"at": {"i": n // 2, "j": m // 3}},
            {"at": {"i": -1}},
        ):
            got = native_engine.run(
                func, args, user_schedule=schedule, **want
            )
            assert is_lazy(got)
            assert got.value == scalar.run(
                func, args, user_schedule=schedule, **want
            ).value, (n, m, want)


@needs_cc
def test_a_reach_past_the_tile_edge_runs_on_the_table(monkeypatch):
    monkeypatch.setattr(cbackend, "TILE", (1, 4))
    func = checked(REACH2)
    args = {"s": dna(9, 3), "t": dna(7, 4)}
    result = Engine().run(func, args, user_schedule=None, reduce="max")
    assert not is_lazy(result)
    assert result.value == Engine(backend="scalar").run(
        func, args, reduce="max"
    ).value


# -- launches that need their table keep it ---------------------------------


@needs_cc
def test_supervised_sanitized_and_sandboxed_runs_get_their_table():
    from repro.resilience import ExecutionSupervisor

    func, args = smith_waterman_function(), sw_args(20, 17)
    eager = Engine(backend="scalar").run(func, args, reduce="max")

    engine = Engine()
    assert is_lazy(engine.run(func, args, reduce="max"))
    supervised = ExecutionSupervisor(engine).run(
        func, args, reduce="max"
    )
    sanitized = Engine(sanitize=True).run(func, args, reduce="max")
    sandbox.configure(True)
    sandbox.reset()
    try:
        boxed_engine = Engine()
        boxed = boxed_engine.run(func, args, reduce="max")
        compiled = boxed_engine._cache.values()[0]
        assert compiled.run.sandboxed
        # the proxy itself can launch result-only (the ASan CI leg)
        ctx = boxed_engine.build_context(
            compiled, Bindings(args), boxed.domain
        )
        assert compiled.run.result(ctx, "max", ()) == eager.value
    finally:
        sandbox.configure(None)
        sandbox.reset()
    for result in (supervised, sanitized, boxed):
        assert not is_lazy(result)
        assert result.value == eager.value
        assert np.array_equal(result.table, eager.table)


def test_python_rungs_fill_their_table_up_front():
    func = checked(EDIT)
    args = {"s": dna(6, 1), "t": dna(7, 2)}
    for backend in ("scalar", "vector"):
        result = Engine(backend=backend).run(func, args)
        assert not is_lazy(result)
        assert result.table[6, 7] == result.value
