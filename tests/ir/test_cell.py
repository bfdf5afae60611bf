"""The one cell printer's operation table, on every target.

Every row of :data:`repro.ir.cell.OPS`, and every reduction's init and
fold, is evaluated by its Python, NumPy and C spelling on the edge
inputs ``runtime/parity.py`` names. Python and C agree bitwise; NumPy
agrees with Python bitwise except ``logaddexp`` (``np.exp``/``np.log``
are not the platform libm), which is held to ``parity.FLOAT_RTOL``.
The C side is one translation unit — the C prelude plus one wrapper
per row — built as a program by the toolchain the native backend
probes, so it also runs under ``REPRO_NATIVE_SANITIZE``.
"""

import itertools
import math
import os
import struct
import subprocess

import numpy as np
import pytest

from repro.ir import expr as ir
from repro.ir.cell import OPS, CCell, prelude, reduction
from repro.ir.npbackend import _VectorCell
from repro.ir.pybackend import PyCell
from repro.runtime import native
from repro.runtime.parity import tables_agree

INT64_MAX, INT64_MIN = 2**63 - 1, -(2**63)

#: The edge inputs of a float operand, and of an integer one.
FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-310,
          float(2**53 + 1)]
INTS = [0, 1, -1, 3, 2**53 + 1, -(2**53 + 1), INT64_MAX, INT64_MIN]

#: Each row's operand types and result type (``d`` double, ``l`` long).
SIGNATURES = {
    "min": ("dd", "d"), "max": ("dd", "d"),
    "lmin": ("ll", "l"), "lmax": ("ll", "l"),
    "idiv": ("ll", "l"), "log": ("d", "d"),
    "logaddexp": ("dd", "d"), "inf": ("", "d"),
    "select": ("ldd", "d"),
}

#: Every reduction the IR has: (kind, logspace, prob).
REDUCTIONS = {
    "sum": ("sum", False, False),
    "logsum": ("sum", True, True),
    "min": ("min", False, False),
    "max": ("max", False, False),
    "probmax": ("max", False, True),
}

CTYPES = {"d": "double", "l": "long"}


def samples(row):
    """Every operand tuple of ``row``; undefined ones are left out."""
    args, _ = SIGNATURES[row]
    domain = [FLOATS if t == "d" else INTS for t in args]
    for values in itertools.product(*domain):
        if row == "idiv":
            a, b = values
            if b == 0 or abs(float(a) / float(b)) >= 2.0**63:
                continue  # undefined by the row's semantics line
        yield values


def bits(value, kind):
    """A result as an exactly comparable value: a double's bit
    pattern, except that every NaN is one NaN — its sign and payload
    come from the order the hardware takes two NaN operands in, which
    a compiler may swap (IEEE addition commutes) and no target fixes."""
    if kind == "l":
        return int(value)
    if math.isnan(value):
        return "nan"
    return struct.unpack("<q", struct.pack("<d", float(value)))[0]


def from_bits(pattern):
    """The double :func:`bits` gave ``pattern`` for."""
    if pattern == "nan":
        return math.nan
    return struct.unpack("<d", struct.pack("<q", pattern))[0]


def from_word(word):
    """A double printed by the C program as 16 hex digits."""
    return struct.unpack("<d", bytes.fromhex(word)[::-1])[0]


def call_text(row, target):
    arity = len(SIGNATURES[row][0])
    return getattr(OPS[row], target)[0].format(
        *(f"x{k}" for k in range(arity))
    )


def reduction_node(spec):
    kind, logspace, prob = spec
    zero = ir.Const(0, "int")
    return ir.RangeReduce(kind, "k", zero, zero, zero, logspace, prob)


def python_namespace(target):
    namespace = {}
    exec(prelude(target), namespace)
    return namespace


def python_results(row):
    namespace = python_namespace("py")
    text = call_text(row, "py")
    kind = SIGNATURES[row][1]
    return [
        bits(eval(text, namespace, {f"x{k}": v for k, v in enumerate(xs)}),
             kind)
        for xs in samples(row)
    ]


def python_fold(spec, xs, cell_class=PyCell, live=None):
    """Fold ``xs`` with a dialect's own accumulator and fold text."""
    init, row = reduction(reduction_node(spec))
    cell = cell_class(None)
    namespace = python_namespace(cell.TARGET)
    namespace["acc"] = eval(cell.literal(init, wrap=False), namespace)
    statement = cell.fold("acc", row, "x", live)
    with np.errstate(all="ignore"):
        for x in xs:
            namespace["x"] = x
            exec(statement, namespace)
    return bits(namespace["acc"], "d")


class TestTable:
    def test_every_row_has_a_signature(self):
        assert set(SIGNATURES) == set(OPS)

    def test_every_row_has_a_semantics_line_and_three_spellings(self):
        for row, op in OPS.items():
            assert op.semantics, row
            for target in ("py", "np", "c"):
                call, _ = getattr(op, target)
                assert call, (row, target)

    def test_python_helpers_do_not_shadow_builtins(self):
        """``bound_py`` renders multi-term loop bounds through the
        builtin variadic ``min``/``max``."""
        for target in ("py", "np"):
            namespace = python_namespace(target)
            assert "min" not in namespace and "max" not in namespace

    def test_c_prelude_declares_what_it_uses(self):
        text = prelude("c")
        assert "#include" not in text
        for name in ("log", "exp", "trunc"):
            assert f"double {name}(double);" in text


class TestNumpyMatchesPython:
    @pytest.mark.parametrize("row", sorted(SIGNATURES))
    def test_row(self, row):
        expected = python_results(row)
        args, kind = SIGNATURES[row]
        columns = list(zip(*samples(row))) or [()]
        namespace = python_namespace("np")
        operands = {
            f"x{k}": np.array(column, dtype=np.float64 if t == "d"
                              else np.int64)
            for k, (t, column) in enumerate(zip(args, columns))
        }
        with np.errstate(all="ignore"):
            got = eval(call_text(row, "np"), namespace, operands)
        got = np.broadcast_to(got, (len(expected),))
        if row == "logaddexp":
            py = np.array([from_bits(b) for b in expected])
            assert tables_agree(np.asarray(got, dtype=np.float64), py)
        else:
            assert [bits(v, kind) for v in got] == expected

    @pytest.mark.parametrize("name", sorted(REDUCTIONS))
    def test_reduction(self, name):
        spec = REDUCTIONS[name]
        for xs in (FLOATS, FLOATS[::-1]):
            py = python_fold(spec, xs)
            vec = python_fold(spec, xs, _VectorCell, live="True")
            if name == "logsum":
                assert tables_agree(
                    np.array([from_bits(vec)]), np.array([from_bits(py)])
                )
            else:
                assert vec == py


def c_program():
    """The C prelude, one wrapper per row and per reduction, and a
    ``main`` that evaluates ``<row> <operands...>`` lines from stdin
    (doubles as their bit patterns) and prints each result."""
    cell = CCell(None)
    lines = ["#include <stdio.h>", "#include <string.h>", prelude("c")]
    for row, (args, kind) in SIGNATURES.items():
        params = ", ".join(
            f"{CTYPES[t]} x{k}" for k, t in enumerate(args)
        ) or "void"
        lines.append(
            f"static {CTYPES[kind]} w_{row}({params}) "
            f"{{ return {call_text(row, 'c')}; }}"
        )
    for name, spec in REDUCTIONS.items():
        init, row = reduction(reduction_node(spec))
        lines += [
            f"static double r_{name}(const double* xs, long n) {{",
            "  " + cell.ACCUMULATOR.format(
                "acc", cell.literal(init, wrap=False)
            ),
            "  for (long k = 0; k < n; k++) "
            + cell.fold("acc", row, "xs[k]", None) + ";",
            "  return acc;",
            "}",
        ]
    lines += [
        "static double rd(void) {",
        "  unsigned long long u = 0; double d;",
        "  if (scanf(\"%llx\", &u) != 1) return 0.0;",
        "  memcpy(&d, &u, sizeof d); return d;",
        "}",
        "static long rl(void) { long v = 0; scanf(\"%ld\", &v); return v; }",
        "static void pd(double d) {",
        "  unsigned long long u; memcpy(&u, &d, sizeof u);",
        "  printf(\"%016llx\\n\", u);",
        "}",
        "static void pl(long v) { printf(\"%ld\\n\", v); }",
        "int main(void) {",
        "  char name[32];",
        "  while (scanf(\"%31s\", name) == 1) {",
    ]
    for row, (args, kind) in SIGNATURES.items():
        reads = " ".join(
            f"{CTYPES[t]} x{k} = r{t}();" for k, t in enumerate(args)
        )
        call = ", ".join(f"x{k}" for k in range(len(args)))
        lines.append(
            f"    if (!strcmp(name, \"{row}\")) {{ {reads} "
            f"p{kind}(w_{row}({call})); continue; }}"
        )
    for name in REDUCTIONS:
        lines.append(
            f"    if (!strcmp(name, \"r_{name}\")) {{ double xs[64]; "
            f"long n = rl(); for (long k = 0; k < n; k++) xs[k] = rd(); "
            f"pd(r_{name}(xs, n)); continue; }}"
        )
    lines += ["    return 2;", "  }", "  return 0;", "}", ""]
    return "\n".join(lines)


def c_operand(value, kind):
    if kind == "l":
        return str(value)
    return struct.pack("<d", value)[::-1].hex()


@pytest.fixture(scope="module")
def c_eval(tmp_path_factory):
    """Run request lines through the TU; returns the output lines."""
    cc, _, detail = native.toolchain()
    if cc is None or os.environ.get("REPRO_NATIVE_DISABLE"):
        pytest.skip(detail)
    directory = tmp_path_factory.mktemp("cell-table")
    source = directory / "table.c"
    program = directory / "table"
    source.write_text(c_program())
    subprocess.run(
        [cc, "-std=c99", "-O2", *native.sanitize_flags(), "-o",
         str(program), str(source), "-lm"],
        check=True, capture_output=True, timeout=120,
    )
    env = dict(os.environ, UBSAN_OPTIONS="halt_on_error=1")

    def run(requests):
        done = subprocess.run(
            [str(program)], input="\n".join(requests) + "\n",
            capture_output=True, text=True, timeout=120, env=env,
            check=True,
        )
        assert done.stderr == ""
        return done.stdout.split()

    return run


class TestCMatchesPython:
    @pytest.mark.parametrize("row", sorted(SIGNATURES))
    def test_row(self, c_eval, row):
        args, kind = SIGNATURES[row]
        requests = [
            " ".join([row] + [c_operand(v, t) for v, t in zip(xs, args)])
            for xs in samples(row)
        ]
        out = c_eval(requests)
        got = [
            int(word) if kind == "l" else bits(from_word(word), "d")
            for word in out
        ]
        assert got == python_results(row)

    @pytest.mark.parametrize("name", sorted(REDUCTIONS))
    def test_reduction(self, c_eval, name):
        for xs in (FLOATS, FLOATS[::-1]):
            request = " ".join(
                [f"r_{name}", str(len(xs))]
                + [c_operand(x, "d") for x in xs]
            )
            (word,) = c_eval([request])
            assert bits(from_word(word), "d") == python_fold(
                REDUCTIONS[name], xs
            )
