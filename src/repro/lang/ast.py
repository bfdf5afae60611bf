"""Abstract syntax tree for the recursion DSL.

The base language follows Figure 6 of the paper: pure first-order
functions built from arithmetic, comparisons, ``min``/``max``,
``if .. then .. else``, sequence indexing and recursive calls. Domain
extensions (Section 5) contribute matrix lookups (``m[a, b]``), HMM
field accesses (``t.start``, ``s.emission[c]`` ...) and bounded
reductions (``sum(t in s.transitionsto : e)``).

Nodes are plain frozen dataclasses; every node carries a source
:class:`~repro.lang.source.Span`. Construction helpers for synthetic
trees live in :mod:`repro.lang.build`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

from .source import Span, SYNTHETIC


# ---------------------------------------------------------------------------
# Type expressions (surface syntax; resolved by the type checker)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TypeExpr:
    """A surface-syntax type, e.g. ``int``, ``seq[en]``, ``index[s]``.

    ``name`` is the head (``int``, ``seq``, ``index``, ``char``,
    ``matrix``, ``hmm``, ``state``, ``transition``, ``float``, ``prob``,
    ``bool``); ``args`` are the bracketed references, which name an
    alphabet (for ``seq``/``char``, possibly ``*`` for "any"), a
    sequence parameter (for ``index``), an HMM parameter (for
    ``state``/``transition``) or two alphabets (for ``matrix``).
    """

    name: str
    args: Tuple[str, ...] = ()
    span: Span = SYNTHETIC

    def __str__(self) -> str:
        if not self.args:
            return self.name
        return f"{self.name}[{', '.join(self.args)}]"


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base class for all expressions."""

    span: Span = field(default=SYNTHETIC, kw_only=True)


@dataclass(frozen=True)
class IntLit(Expr):
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class FloatLit(Expr):
    value: float

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class CharLit(Expr):
    """A character literal, written ``'a'``."""

    value: str

    def __str__(self) -> str:
        return f"'{self.value}'"


@dataclass(frozen=True)
class StrLit(Expr):
    """A string literal; used in script statements (``load``/``let``)."""

    value: str

    def __str__(self) -> str:
        return f'"{self.value}"'


@dataclass(frozen=True)
class Var(Expr):
    name: str

    def __str__(self) -> str:
        return self.name


class BinOpKind(Enum):
    """Binary operators of Figure 6 (plus ``<=``/``>=`` for symmetry)."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    EQ = "=="
    NE = "!="
    MIN = "min"
    MAX = "max"

    @property
    def is_comparison(self) -> bool:
        """Is this one of the six comparison operators?"""
        return self in (
            BinOpKind.LT,
            BinOpKind.GT,
            BinOpKind.LE,
            BinOpKind.GE,
            BinOpKind.EQ,
            BinOpKind.NE,
        )


@dataclass(frozen=True)
class BinOp(Expr):
    op: BinOpKind
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left} {self.op.value} {self.right})"


@dataclass(frozen=True)
class If(Expr):
    """``if cond then then_branch else else_branch``."""

    cond: Expr
    then_branch: Expr
    else_branch: Expr

    def __str__(self) -> str:
        # Self-parenthesised so the rendering stays faithful inside
        # operator operands (the else-branch is greedy otherwise).
        return (
            f"(if {self.cond} then {self.then_branch} "
            f"else {self.else_branch})"
        )


@dataclass(frozen=True)
class Call(Expr):
    """A call ``f(e1, ..., en)``.

    Inside a recursive function body, calls to the enclosing function
    pass only the *recursive* parameters; calling parameters are
    implicit (they are invariant over a run). At script level, calls
    pass all parameters.
    """

    func: str
    args: Tuple[Expr, ...]

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        return f"{self.func}({args})"


@dataclass(frozen=True)
class SeqIndex(Expr):
    """Sequence element access ``s[e]``; sequences are immutable."""

    seq: str
    index: Expr

    def __str__(self) -> str:
        return f"{self.seq}[{self.index}]"


@dataclass(frozen=True)
class MatrixIndex(Expr):
    """Substitution-matrix lookup ``m[a, b]`` (Section 5.1)."""

    matrix: str
    row: Expr
    col: Expr

    def __str__(self) -> str:
        return f"{self.matrix}[{self.row}, {self.col}]"


@dataclass(frozen=True)
class Field(Expr):
    """HMM field access (Section 5.2): ``t.start``, ``s.isend`` ...

    Valid field names: ``start``, ``end``, ``isstart``, ``isend``,
    ``prob``, ``transitionsto``, ``transitionsfrom``, ``index``.
    """

    subject: Expr
    name: str

    def __str__(self) -> str:
        return f"{self.subject}.{self.name}"


@dataclass(frozen=True)
class Emission(Expr):
    """Emission probability lookup ``s.emission[c]`` (Section 5.2)."""

    state: Expr
    symbol: Expr

    def __str__(self) -> str:
        return f"{self.state}.emission[{self.symbol}]"


@dataclass(frozen=True)
class RangeExpr(Expr):
    """An inclusive integer range ``lo .. hi`` (Section 5's looping
    extension): only valid as the source of a reduction, e.g.
    ``max(k in i+1 .. j-1 : ...)``."""

    lo: Expr
    hi: Expr

    def __str__(self) -> str:
        return f"{self.lo} .. {self.hi}"


class ReduceKind(Enum):
    """The reduction operators: sum, min and max."""

    SUM = "sum"
    MIN = "min"
    MAX = "max"


@dataclass(frozen=True)
class Reduce(Expr):
    """Bounded reduction ``sum(v in set : body)`` (Section 5.2).

    ``source`` must denote a finite set known to the extension — for
    HMMs, a transition set (``s.transitionsto``/``s.transitionsfrom``)
    or the model's state set.
    """

    kind: ReduceKind
    var: str
    source: Expr
    body: Expr

    def __str__(self) -> str:
        return f"{self.kind.value}({self.var} in {self.source} : {self.body})"


@dataclass(frozen=True)
class Len(Expr):
    """Sequence length ``|s|``; used at script level to seed indices."""

    seq: str

    def __str__(self) -> str:
        return f"|{self.seq}|"


@dataclass(frozen=True)
class Placeholder(Expr):
    """The ``_`` hole in a ``map`` statement's call template."""

    def __str__(self) -> str:
        return "_"


# ---------------------------------------------------------------------------
# Declarations and statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """A function parameter: surface type plus name."""

    type: TypeExpr
    name: str
    span: Span = SYNTHETIC

    def __str__(self) -> str:
        return f"{self.type} {self.name}"


@dataclass(frozen=True)
class Stmt:
    """Base class for top-level statements."""

    span: Span = field(default=SYNTHETIC, kw_only=True)


@dataclass(frozen=True)
class AlphabetDecl(Stmt):
    """``alphabet en = "abc..."`` — declares a finite character set."""

    name: str
    chars: str


@dataclass(frozen=True)
class FuncDef(Stmt):
    """``<type> f(<params>) = <expr>``."""

    return_type: TypeExpr
    name: str
    params: Tuple[Param, ...]
    body: Expr

    def __str__(self) -> str:
        params = ", ".join(str(p) for p in self.params)
        return f"{self.return_type} {self.name}({params}) = {self.body}"


@dataclass(frozen=True)
class MatrixRow:
    """One ``row <char> : v1 v2 ...`` line of a matrix declaration."""

    char: str
    values: Tuple[int, ...]
    span: Span = SYNTHETIC


@dataclass(frozen=True)
class MatrixDecl(Stmt):
    """Substitution matrix declaration (Section 5.1).

    ::

        matrix cost[en, en] {
          header a b c
          default 1
          row a : 0 1 1
          row b : 1 0 1
          row c : 1 1 0
        }
    """

    name: str
    row_alphabet: str
    col_alphabet: str
    header: Tuple[str, ...]
    default: Optional[int]
    rows: Tuple[MatrixRow, ...]


@dataclass(frozen=True)
class StateDecl:
    """One state of an HMM declaration.

    ``kind`` is ``"start"``, ``"end"`` or ``"emit"``; start/end states
    are silent. ``emissions`` maps characters to probabilities.
    """

    name: str
    kind: str
    emissions: Tuple[Tuple[str, float], ...] = ()
    span: Span = SYNTHETIC


@dataclass(frozen=True)
class TransDecl:
    """One ``trans a -> b : p`` line of an HMM declaration."""

    source: str
    target: str
    prob: float
    span: Span = SYNTHETIC


@dataclass(frozen=True)
class HmmDecl(Stmt):
    """Hidden Markov Model declaration (Section 5.2)."""

    name: str
    alphabet: str
    states: Tuple[StateDecl, ...]
    transitions: Tuple[TransDecl, ...]


@dataclass(frozen=True)
class ScheduleDecl(Stmt):
    """``schedule f : <affine expr>`` — a user-specified schedule.

    Section 4.5: users may provide a schedule, which the compiler then
    verifies against the dependence criteria instead of searching.
    The expression must be affine in the recursive parameters of ``f``.
    """

    func: str
    expr: Expr


@dataclass(frozen=True)
class LetStmt(Stmt):
    """``let x = <expr>`` — bind a script-level value."""

    name: str
    value: Expr


@dataclass(frozen=True)
class LoadStmt(Stmt):
    """``load db = fasta("path")`` — load a sequence collection."""

    name: str
    format: str
    path: str


@dataclass(frozen=True)
class PrintStmt(Stmt):
    """``print <expr>`` — evaluate and print a script expression."""

    value: Expr


@dataclass(frozen=True)
class MapStmt(Stmt):
    """``map out = f(..., _, ...) over db`` — the map primitive.

    Applies the call template once per element of ``db``, with ``_``
    (and ``|_|``) standing for the element. This is the inter-task
    parallel primitive: each problem is assigned to a multiprocessor.
    """

    name: str
    template: Call
    over: str


@dataclass(frozen=True)
class Program:
    """A full script: an ordered sequence of statements."""

    statements: Tuple[Stmt, ...]

    def function(self, name: str) -> FuncDef:
        """Look a function definition up by name."""
        for stmt in self.statements:
            if isinstance(stmt, FuncDef) and stmt.name == name:
                return stmt
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Generic traversal
# ---------------------------------------------------------------------------


def children(expr: Expr) -> Tuple[Expr, ...]:
    """The direct sub-expressions of ``expr``, in evaluation order."""
    if isinstance(expr, BinOp):
        return (expr.left, expr.right)
    if isinstance(expr, If):
        return (expr.cond, expr.then_branch, expr.else_branch)
    if isinstance(expr, Call):
        return expr.args
    if isinstance(expr, SeqIndex):
        return (expr.index,)
    if isinstance(expr, MatrixIndex):
        return (expr.row, expr.col)
    if isinstance(expr, Field):
        return (expr.subject,)
    if isinstance(expr, Emission):
        return (expr.state, expr.symbol)
    if isinstance(expr, Reduce):
        return (expr.source, expr.body)
    if isinstance(expr, RangeExpr):
        return (expr.lo, expr.hi)
    return ()


def walk(expr: Expr):
    """Yield ``expr`` and all its descendants, pre-order."""
    yield expr
    for child in children(expr):
        yield from walk(child)


def find_calls(expr: Expr, func: str) -> Tuple[Call, ...]:
    """All calls to ``func`` anywhere inside ``expr``."""
    return tuple(
        e for e in walk(expr) if isinstance(e, Call) and e.func == func
    )
