"""The low-level intermediate representation (Section 3.3).

The IR abstracts over the massively-parallel target: a kernel is a
loop structure (from the polyhedral generator) whose innermost
statement evaluates one *cell expression* — the function body with
recursive calls replaced by dynamic-programming table reads. Backends
render the same IR as CUDA C text (:mod:`repro.ir.cuda`) or as
executable Python for the simulated device (:mod:`repro.ir.pybackend`).

Kinds: ``int``, ``float``, ``bool``, ``char`` (a raw character code)
and ``prob``. Under the log-space probability representation (chosen
by the compiler for the ``prob`` type, Section 3.2), probability
multiplication lowers to ``+`` and addition to ``logaddexp`` — that
rewriting happens in :mod:`repro.ir.lower`, so the IR itself is
representation-neutral.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Node:
    """Base class of IR expressions."""


@dataclass(frozen=True)
class Const(Node):
    value: object
    kind: str  # int | float | bool

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class DimRef(Node):
    """The current cell's coordinate along one recursion dimension."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class VarRef(Node):
    """A reduction binder (holds a transition id)."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArgRef(Node):
    """A scalar calling parameter (float/int/char constant per run)."""

    name: str
    kind: str


@dataclass(frozen=True)
class Binary(Node):
    """Arithmetic or comparison; ``op`` uses DSL spellings plus
    ``logaddexp`` for log-space probability addition. ``kind`` is the
    result kind — it decides division semantics (int division
    truncates, as in C/CUDA)."""

    op: str
    left: Node
    right: Node
    kind: str = "float"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Log(Node):
    """Natural log — converts a linear operand into log space."""

    operand: Node


@dataclass(frozen=True)
class Select(Node):
    """``cond ? then : else`` — the branching if expression."""

    cond: Node
    then: Node
    otherwise: Node

    def __str__(self) -> str:
        return f"({self.cond} ? {self.then} : {self.otherwise})"


@dataclass(frozen=True)
class TableRead(Node):
    """Read a DP table at the given coordinates (a recursive call).

    ``table`` names the callee's table for cross-calls within a
    mutual group (Section 9); empty means the function's own table.
    """

    indices: Tuple[Node, ...]
    table: str = ""

    def __str__(self) -> str:
        inner = ", ".join(str(i) for i in self.indices)
        name = f"farr_{self.table}" if self.table else "farr"
        return f"{name}[{inner}]"


@dataclass(frozen=True)
class SeqRead(Node):
    """The raw character code of ``seq[index]``."""

    seq: str
    index: Node

    def __str__(self) -> str:
        return f"{self.seq}[{self.index}]"


@dataclass(frozen=True)
class MatrixRead(Node):
    """Substitution matrix lookup; operands are character codes."""

    matrix: str
    row: Node
    col: Node


@dataclass(frozen=True)
class StateFlag(Node):
    """``isstart``/``isend`` of a state id."""

    which: str  # "isstart" | "isend"
    hmm: str
    state: Node


@dataclass(frozen=True)
class EmissionRead(Node):
    """Emission probability of a state for a character code."""

    hmm: str
    state: Node
    symbol: Node


@dataclass(frozen=True)
class TransField(Node):
    """A transition attribute: ``prob``, ``start`` or ``end``."""

    which: str  # "prob" | "start" | "end"
    hmm: str
    trans: Node

    def __str__(self) -> str:
        return f"{self.hmm}.{self.which}({self.trans})"


@dataclass(frozen=True)
class ReduceLoop(Node):
    """A bounded reduction over a transition set.

    ``source`` is ``"to"`` (``transitionsto``) or ``"from"``; ``var``
    is bound to each transition id while evaluating ``body``.
    ``logspace`` selects ``logaddexp`` accumulation for sums.
    """

    kind: str  # "sum" | "min" | "max"
    var: str
    source: str  # "to" | "from"
    hmm: str
    state: Node
    body: Node
    logspace: bool = False
    #: The reduction produces a probability: an empty set then means
    #: "no path", whose max is 0 (or -inf in log space).
    prob: bool = False


@dataclass(frozen=True)
class RangeReduce(Node):
    """A bounded reduction over an inclusive integer range.

    Section 5's looping extension: ``max(k in lo .. hi : body)``.
    Semantics of empty ranges match transition-set reductions: sums
    are 0, a max of probabilities is 0 (no path).
    """

    kind: str  # "sum" | "min" | "max"
    var: str
    lo: Node
    hi: Node
    body: Node
    logspace: bool = False
    prob: bool = False

    def __str__(self) -> str:
        return (
            f"{self.kind}({self.var} in {self.lo} .. {self.hi} : "
            f"{self.body})"
        )


def children(node: Node) -> Tuple[Node, ...]:
    """Direct sub-expressions of an IR node."""
    if isinstance(node, Binary):
        return (node.left, node.right)
    if isinstance(node, Log):
        return (node.operand,)
    if isinstance(node, Select):
        return (node.cond, node.then, node.otherwise)
    if isinstance(node, TableRead):
        return node.indices
    if isinstance(node, SeqRead):
        return (node.index,)
    if isinstance(node, MatrixRead):
        return (node.row, node.col)
    if isinstance(node, StateFlag):
        return (node.state,)
    if isinstance(node, EmissionRead):
        return (node.state, node.symbol)
    if isinstance(node, TransField):
        return (node.trans,)
    if isinstance(node, ReduceLoop):
        return (node.state, node.body)
    if isinstance(node, RangeReduce):
        return (node.lo, node.hi, node.body)
    return ()


def walk(node: Node):
    """Yield ``node`` and all of its descendants, pre-order."""
    yield node
    for child in children(node):
        yield from walk(child)


@dataclass
class OpCounts:
    """Static per-cell operation counts, for the device cost model.

    ``reduce_body`` counts operations *per reduction iteration*; the
    cost model multiplies by the model's mean transition degree.
    """

    arith: int = 0
    compare: int = 0
    select: int = 0
    table_reads: int = 0
    seq_reads: int = 0
    matrix_reads: int = 0
    hmm_reads: int = 0
    special: int = 0  # log / logaddexp (multi-cycle transcendental)
    reduce_body: "OpCounts" = None  # type: ignore[assignment]
    reduce_count: int = 0

    def scaled_total(self, per_iteration: float) -> Dict[str, float]:
        """Flatten into effective per-cell counts, with reductions
        weighted by ``per_iteration`` expected iterations."""
        totals = {
            "arith": float(self.arith),
            "compare": float(self.compare),
            "select": float(self.select),
            "table_reads": float(self.table_reads),
            "seq_reads": float(self.seq_reads),
            "matrix_reads": float(self.matrix_reads),
            "hmm_reads": float(self.hmm_reads),
            "special": float(self.special),
        }
        if self.reduce_body is not None and self.reduce_count:
            inner = self.reduce_body.scaled_total(per_iteration)
            for key, value in inner.items():
                totals[key] += (
                    self.reduce_count * per_iteration * value
                )
            # Accumulator update per iteration.
            totals["arith"] += self.reduce_count * per_iteration
        return totals


def count_ops(node: Node) -> OpCounts:
    """Walk ``node`` and tally static operation counts."""
    counts = OpCounts()
    _count(node, counts)
    return counts


def _count(node: Node, counts: OpCounts) -> None:
    if isinstance(node, Binary):
        if node.op in ("==", "!=", "<", ">", "<=", ">="):
            counts.compare += 1
        elif node.op == "logaddexp":
            counts.special += 1
        else:
            counts.arith += 1
    elif isinstance(node, Log):
        counts.special += 1
    elif isinstance(node, Select):
        counts.select += 1
    elif isinstance(node, TableRead):
        counts.table_reads += 1
    elif isinstance(node, SeqRead):
        counts.seq_reads += 1
    elif isinstance(node, MatrixRead):
        counts.matrix_reads += 1
    elif isinstance(node, (StateFlag, EmissionRead, TransField)):
        counts.hmm_reads += 1
    if isinstance(node, (ReduceLoop, RangeReduce)):
        # Every reduction's body adds to the one per-iteration record;
        # the state or bounds are evaluated once, outside the loop.
        counts.reduce_count += 1
        if counts.reduce_body is None:
            counts.reduce_body = OpCounts()
        _count(node.body, counts.reduce_body)
        outside = (
            (node.state,) if isinstance(node, ReduceLoop)
            else (node.lo, node.hi)
        )
        for child in outside:
            _count(child, counts)
        return
    for child in children(node):
        _count(child, counts)

