"""One cell printer, three dialects (Section 4.3, Figures 8 and 10).

Every backend renders the same lowered cell expression — the function
body with its recursive calls replaced by table reads — into its loop
template. :class:`CellPrinter` is that rendering, written once over
every IR node kind: an expression inline, statements that leave a
node's value in a target, a spill to a temporary, and the two
reductions. A dialect supplies only what really differs by target:
how tables, sequences, matrices and emissions are addressed, how a
temporary is declared, block syntax and the two reduction loops. The
C dialect (:class:`CCell`) is here, shared by the native backend
(:mod:`repro.ir.cbackend`) and the CUDA text (:mod:`repro.ir.cuda`);
the scalar Python dialect is in :mod:`repro.ir.pybackend` and the
NumPy lane dialect in :mod:`repro.ir.npbackend`.

The operations whose spelling differs by target are one table,
:data:`OPS`: a semantics line per operation, then its Python, NumPy
and C spelling. Every target's prelude is built from it
(:func:`prelude`), the reference interpreter calls its Python helpers
(:data:`PY_HELPERS`), and ``tests/ir/test_cell.py`` evaluates every
row on every target. Where targets once disagreed the semantics line
is C's: it is what ``minsd``/``maxsd`` compute and what the native
rung has always computed, so the goldens keep their bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Dict, List, Optional, Tuple

from ..lang.errors import CodegenError
from . import expr as ir
from .kernel import Kernel


@dataclass(frozen=True)
class Op:
    """One operation: what it computes, then per target a call
    template (``{0}``, ``{1}``, ... are the operands) and the helper
    source that template needs (empty when it needs none)."""

    semantics: str
    py: Tuple[str, str]
    np: Tuple[str, str]
    c: Tuple[str, str]


OPS: Dict[str, Op] = {
    "min": Op(
        "a < b ? a : b: a NaN operand, or two equal ones, give b",
        ("min2({0}, {1})",
         "def min2(a, b):\n    return a if a < b else b\n"),
        ("min2({0}, {1})",
         "def min2(a, b):\n    return np.where(a < b, a, b)\n"),
        ("min({0}, {1})",
         "static inline double min(double a, double b) "
         "{ return a < b ? a : b; }\n"),
    ),
    "max": Op(
        "a > b ? a : b: a NaN operand, or two equal ones, give b",
        ("max2({0}, {1})",
         "def max2(a, b):\n    return a if a > b else b\n"),
        ("max2({0}, {1})",
         "def max2(a, b):\n    return np.where(a > b, a, b)\n"),
        ("max({0}, {1})",
         "static inline double max(double a, double b) "
         "{ return a > b ? a : b; }\n"),
    ),
    "lmin": Op(
        "min of two integers, exact over all of int64",
        ("min2({0}, {1})", ""),
        ("min2({0}, {1})", ""),
        ("lmin({0}, {1})",
         "static inline long lmin(long a, long b) "
         "{ return a < b ? a : b; }\n"),
    ),
    "lmax": Op(
        "max of two integers, exact over all of int64",
        ("max2({0}, {1})", ""),
        ("max2({0}, {1})", ""),
        ("lmax({0}, {1})",
         "static inline long lmax(long a, long b) "
         "{ return a > b ? a : b; }\n"),
    ),
    "idiv": Op(
        "integer a / b: trunc(a / b) in double, exact while |a| and |b| "
        "are at most 2**53; b == 0, or a quotient outside int64, is "
        "undefined",
        ("idiv({0}, {1})",
         "def idiv(a, b):\n    return int(float(a) / b)\n"),
        ("idiv({0}, {1})",
         "def idiv(a, b):\n    return np.trunc(np.asarray(a, "
         "dtype=np.float64) / b).astype(np.int64)\n"),
        ("idiv({0}, {1})",
         "static inline double idiv(double a, double b) "
         "{ return trunc(a / b); }\n"),
    ),
    "log": Op(
        "x > 0 ? log(x) : -inf: zero, negatives and NaN give -inf, and "
        "nothing positive is clamped",
        ("safelog({0})",
         "def safelog(x):\n    return log(x) if x > 0.0 else -inf\n"),
        ("safelog({0})",
         "def safelog(x):\n    x = np.asarray(x, dtype=np.float64)\n"
         "    return np.log(x, out=np.full(x.shape, -inf), "
         "where=x > 0.0)\n"),
        ("safelog({0})",
         "static inline double safelog(double x) "
         "{ return x > 0.0 ? log(x) : -INFINITY; }\n"),
    ),
    "logaddexp": Op(
        "log(exp(a) + exp(b)): a == -inf gives b, b == -inf gives a, "
        "else hi + log(1 + exp(lo - hi)) with hi = a > b ? a : b",
        ("logaddexp({0}, {1})",
         "def logaddexp(a, b):\n"
         "    if a == -inf:\n        return b\n"
         "    if b == -inf:\n        return a\n"
         "    hi, lo = (a, b) if a > b else (b, a)\n"
         "    return hi + log(1.0 + exp(lo - hi))\n"),
        ("logaddexp({0}, {1})",
         "def logaddexp(a, b):\n"
         "    hi, lo = np.where(a > b, a, b), np.where(a > b, b, a)\n"
         "    out = hi + np.log(1.0 + np.exp(lo - hi))\n"
         "    return np.where(a == -inf, b, np.where(b == -inf, a, out))\n"),
        ("logaddexp({0}, {1})",
         "static inline double logaddexp(double a, double b) {\n"
         "  if (a == -INFINITY) return b;\n"
         "  if (b == -INFINITY) return a;\n"
         "  double hi = a > b ? a : b;\n"
         "  double lo = a > b ? b : a;\n"
         "  return hi + log(1.0 + exp(lo - hi));\n"
         "}\n"),
    ),
    "inf": Op(
        "positive infinity; -inf is its negation",
        ("inf", ""), ("inf", ""), ("INFINITY", ""),
    ),
    "select": Op(
        "c ? a : b; NumPy evaluates both arms, so its gathers clamp",
        ("({1} if {0} else {2})", ""),
        ("np.where({0}, {1}, {2})", ""),
        ("({0} ? {1} : {2})", ""),
    ),
}


def reduction(node) -> Tuple[float, Optional[str]]:
    """A reduction's init — its value over an empty set — and the
    :data:`OPS` row that folds in one more value (``None``: ``+``).
    The fold takes the ``double`` helpers whatever the cell's kind:
    the accumulator is a ``double`` in C."""
    if node.kind == "sum":
        return (-inf, "logaddexp") if node.logspace else (0.0, None)
    if node.kind == "min":
        return inf, "min"
    # An empty max of direct-mode probabilities is "no path": 0.
    return (0.0 if node.prob and not node.logspace else -inf), "max"


#: CLooG's integer-division helpers, used by every rendered loop bound.
C_HELPERS = """\
#define ceild(n, d) (((n) < 0) ? -((-(n)) / (d)) : ((n) + (d) - 1) / (d))
#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))
"""

#: What each prelude opens with. A C translation unit includes
#: nothing: it declares the libm functions the table uses and spells
#: infinity as ``math.h`` would expand it (parsing headers was 8-15 ms
#: of every ``cc``, docs/PERFORMANCE.md).
_HEADERS = {
    "py": "from math import exp, inf, log\n",
    "np": "from math import inf\n\nimport numpy as np\n",
    "c": C_HELPERS + "double log(double);\ndouble exp(double);\n"
    "double trunc(double);\n#define INFINITY (__builtin_inff())\n",
}


def prelude(target: str) -> str:
    """The helpers of every :data:`OPS` row, spelled for ``target``
    (``"py"``, ``"np"`` or ``"c"``)."""
    helpers = [getattr(op, target)[1] for op in OPS.values()]
    if target == "c":
        return _HEADERS["c"] + "\n" + "".join(helpers)
    return _HEADERS[target] + "".join(f"\n\n{h}" for h in helpers if h)


#: The Python helpers as callables: the reference interpreter computes
#: ``min``/``max`` with the scalar backend's own ``min2``/``max2``.
PY_HELPERS: Dict[str, object] = {}
exec(prelude("py"), PY_HELPERS)  # noqa: S102 - the table's own text


def csr_arrays(node: ir.ReduceLoop) -> Tuple[str, str]:
    """The id and offset arrays of a transition reduction's CSR list."""
    way = "in" if node.source == "to" else "out"
    return f"hmm_{node.hmm}_{way}ids", f"hmm_{node.hmm}_{way}off"


_TRANS_ARRAYS = {"prob": "tprob", "start": "tsrc", "end": "ttgt"}


class CellPrinter:
    """The one walk over a cell expression.

    :meth:`inline` renders a node as an expression, or returns
    ``None`` when a reduction sits inside it; :meth:`emit_to` appends
    the statements that leave a node's value in ``target``;
    :meth:`_force` is inline or a spill to a fresh temporary. A
    dialect sets the class attributes and addresses its arrays
    (:meth:`table`, :meth:`seq`, :meth:`index2`, :meth:`open_loop`).
    """

    #: Which spelling of :data:`OPS` the dialect takes.
    TARGET = ""
    #: One block level, and what ends a statement.
    INDENT = "    "
    END = ""
    BOOLS = ("False", "True")
    #: A spilled temporary's declaration (``None``: assigning declares).
    DECLARE: Optional[str] = None
    #: A reduction accumulator's declaration (name, init).
    ACCUMULATOR = "{} = {}"
    #: Block syntax of a branching select; ``IF = None`` evaluates
    #: both arms and selects (NumPy lanes).
    IF: Optional[str] = "if {}:"
    ELSE = "else:"
    FI = ""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.counter = 0

    def fresh(self) -> str:
        name = f"_t{self.counter}"
        self.counter += 1
        return name

    def call(self, row: str, *args: str) -> str:
        """Row ``row`` of :data:`OPS` applied to ``args``."""
        return getattr(OPS[row], self.TARGET)[0].format(*args)

    def literal(self, value, wrap: bool = True) -> str:
        """A constant; ``wrap`` parenthesises a negated infinity."""
        if isinstance(value, bool):
            return self.BOOLS[value]
        if value in (inf, -inf):
            text = self.call("inf")
            if value > 0:
                return text
            return f"(-{text})" if wrap else f"-{text}"
        return repr(value)

    def _minmax(self, node: ir.Binary) -> str:
        """The row of a ``min``/``max`` node. Integer nodes take the
        ``long`` pair: C99 has no overloads, and the ``double``
        helpers would round every operand above 2**53."""
        return f"l{node.op}" if node.kind == "int" else node.op

    # -- the walk ------------------------------------------------------------

    def inline(self, node: ir.Node) -> Optional[str]:
        if isinstance(node, (ir.ReduceLoop, ir.RangeReduce)):
            return None
        kids = [self.inline(child) for child in ir.children(node)]
        if None in kids:
            return None
        return self.render(node, kids)

    def render(
        self, node: ir.Node, kids: List[str], spilled: bool = False
    ) -> str:
        """``node`` over its already-rendered children. ``spilled`` is
        a statement's right-hand side: an operator goes bare, and
        ``min``/``max`` take the ``double`` helpers, because a spilled
        operand sits in a ``double`` temporary (a reduction's, which
        starts at an infinity)."""
        if isinstance(node, ir.Const):
            return self.literal(node.value)
        if isinstance(node, (ir.DimRef, ir.VarRef)):
            return node.name
        if isinstance(node, ir.ArgRef):
            return f"arg_{node.name}"
        if isinstance(node, ir.Binary):
            if node.op in ("min", "max"):
                row = node.op if spilled else self._minmax(node)
                return self.call(row, *kids)
            if node.op == "logaddexp":
                return self.call("logaddexp", *kids)
            if node.op == "/" and node.kind == "int":
                return self.call("idiv", *kids)
            text = f"{kids[0]} {node.op} {kids[1]}"
            return text if spilled else f"({text})"
        if isinstance(node, ir.Log):
            return self.call("log", *kids)
        if isinstance(node, ir.Select):
            return self.call("select", *kids)
        if isinstance(node, ir.TableRead):
            return self.table(node, kids)
        if isinstance(node, ir.SeqRead):
            return self.seq(f"seq_{node.seq}", kids[0])
        if isinstance(node, ir.MatrixRead):
            m = node.matrix
            return self.index2(
                f"mat_{m}", f"rowidx_{m}[{kids[0]}]", f"{m}_cols",
                f"colidx_{m}[{kids[1]}]",
            )
        if isinstance(node, ir.EmissionRead):
            h = node.hmm
            return self.index2(
                f"hmm_{h}_emis", kids[0], f"{h}_nsym",
                f"hmm_{h}_symidx[{kids[1]}]",
            )
        if isinstance(node, ir.StateFlag):
            return f"hmm_{node.hmm}_{node.which}[{kids[0]}]"
        if isinstance(node, ir.TransField):
            array = _TRANS_ARRAYS[node.which]
            return f"hmm_{node.hmm}_{array}[{kids[0]}]"
        raise CodegenError(f"cannot render IR node {node!r}")

    def emit_to(
        self, node: ir.Node, target: str, lines: List[str], pad: str
    ) -> None:
        text = self.inline(node)
        if text is None and isinstance(
            node, (ir.ReduceLoop, ir.RangeReduce)
        ):
            self._reduce(node, target, lines, pad)
            return
        if text is None and isinstance(node, ir.Select) and self.IF:
            inner = pad + self.INDENT
            lines.append(pad + self.IF.format(
                self._force(node.cond, lines, pad)
            ))
            self.emit_to(node.then, target, lines, inner)
            lines.append(pad + self.ELSE)
            self.emit_to(node.otherwise, target, lines, inner)
            if self.FI:
                lines.append(pad + self.FI)
            return
        if text is None:
            kids = [
                self._force(child, lines, pad)
                for child in ir.children(node)
            ]
            text = self.render(node, kids, spilled=True)
        lines.append(f"{pad}{target} = {text}{self.END}")

    def _force(self, node: ir.Node, lines: List[str], pad: str) -> str:
        """Render inline, or spill to a temporary."""
        text = self.inline(node)
        if text is not None:
            return text
        temp = self.fresh()
        if self.DECLARE:
            lines.append(pad + self.DECLARE.format(temp))
        self.emit_to(node, temp, lines, pad)
        return temp

    def _reduce(self, node, target: str, lines: List[str], pad: str):
        """Both reductions: the dialect opens the loop over the range
        or the transition list, the walk folds the body in."""
        if isinstance(node, ir.RangeReduce):
            over = (
                self._force(node.lo, lines, pad),
                self._force(node.hi, lines, pad),
            )
        else:
            over = (self._force(node.state, lines, pad),)
        init, row = reduction(node)
        acc = self.fresh()
        lines.append(pad + self.ACCUMULATOR.format(
            acc, self.literal(init, wrap=False)
        ))
        live = self.open_loop(node, over, lines, pad)
        inner = pad + self.INDENT
        body = self._force(node.body, lines, inner)
        lines.append(inner + self.fold(acc, row, body, live) + self.END)
        if self.FI:
            lines.append(pad + self.FI)
        lines.append(f"{pad}{target} = {acc}{self.END}")

    def fold(
        self, acc: str, row: Optional[str], body: str, live: Optional[str]
    ) -> str:
        """The statement folding ``body`` into ``acc`` (``live``: the
        lanes still inside the loop, for dialects that mask)."""
        if row is None:
            return f"{acc} += {body}"
        return f"{acc} = {self.call(row, acc, body)}"

    # -- what a dialect addresses --------------------------------------------

    def table(self, node: ir.TableRead, kids: List[str]) -> str:
        """The table cell at the rendered coordinates ``kids``."""
        raise NotImplementedError

    def seq(self, name: str, index: str) -> str:
        """Character ``index`` of sequence array ``name``."""
        return f"{name}[{index}]"

    def index2(self, array: str, row: str, cols: str, col: str) -> str:
        """``array[row, col]`` of a row-major matrix ``cols`` wide."""
        raise NotImplementedError

    def open_loop(self, node, over, lines: List[str], pad: str):
        """Append a reduction's loop header; returns the live-lane
        mask, or ``None`` when every iteration is live."""
        raise NotImplementedError


class CCell(CellPrinter):
    """The C dialect, for the native and CUDA texts.

    ``windowed`` switches table accesses to the Section 4.8 ring
    buffer ``swin`` (``window + 1`` rows of ``win_cols`` cells,
    addressed by partition modulo the row count); otherwise accesses
    linearise row-major into ``farr``.

    ``strides`` overrides the linearisation extents: by default a
    dimension's row length is its own inclusive bound plus one
    (``ub_<dim> + 1``), but a *batched* entry point addresses one
    problem's slice of a padded ``(B, d0max, ...)`` table, whose row
    lengths are the shared padded extents — the caller passes their C
    spellings (one per dimension, e.g. ``pad_<dim>``) here.
    """

    TARGET = "c"
    INDENT = "  "
    END = ";"
    BOOLS = ("0", "1")
    DECLARE = "double {};"
    ACCUMULATOR = "double {} = {};"
    IF = "if ({}) {{"
    ELSE = "} else {"
    FI = "}"

    def __init__(
        self,
        kernel: Kernel,
        windowed: bool = False,
        strides: Optional[Tuple[str, ...]] = None,
    ) -> None:
        super().__init__(kernel)
        self.windowed = windowed
        self.strides = tuple(strides) if strides is not None else None

    def _dim_size(self, k: int) -> str:
        """C text of dimension ``k``'s row length in the table."""
        if self.strides is not None:
            return self.strides[k]
        return f"ub_{self.kernel.dims[k]} + 1"

    @property
    def window_col(self) -> int:
        """Which dimension indexes the ring buffer's columns.

        Within one partition the ring needs an injective cell
        address. When some dimension has schedule coefficient zero it
        is a pure *space* dimension — it alone varies inside a
        partition, so it must be the column (the partition fixes the
        others). When every coefficient is nonzero (e.g. the diagonal
        ``S = i + j``), fixing the partition makes any single
        dimension determine the rest, so the first works.
        """
        for k, a in enumerate(self.kernel.schedule.coefficients):
            if a == 0:
                return k
        return 0

    def table(self, node: ir.TableRead, kids: List[str]) -> str:
        """The own table's cell; a mutual group's cross read refuses."""
        if node.table:
            raise CodegenError(
                f"cross-table read of {node.table!r}: mutual-group "
                f"members have no single-kernel C rendering"
            )
        return self.address(kids)

    def address(self, rendered) -> str:
        """The table cell at the rendered coordinates, row-major.

        Windowed kernels address the shared ring buffer instead: the
        row is the cell's partition modulo the resident row count,
        the column its :attr:`window_col` coordinate (Section 4.8).
        """
        if self.windowed:
            rows = self.kernel.window + 1
            coeffs = self.kernel.schedule.coefficients
            terms = [
                f"({a})*({idx})"
                for a, idx in zip(coeffs, rendered)
                if a != 0
            ]
            partition = " + ".join(terms) if terms else "0"
            row = f"((({partition}) % {rows}) + {rows}) % {rows}"
            col = rendered[self.window_col]
            return f"swin[({row}) * win_cols + ({col})]"
        text = rendered[0]
        for k in range(1, len(rendered)):
            text = f"({text}) * ({self._dim_size(k)}) + {rendered[k]}"
        return f"farr[{text}]"

    def index2(self, array: str, row: str, cols: str, col: str) -> str:
        """Linearised by hand: C arrays arrive flat."""
        return f"{array}[{row} * {cols} + {col}]"

    def open_loop(self, node, over, lines: List[str], pad: str):
        """A counted ``for``; a transition loop binds ``var`` from the
        CSR ids."""
        var = node.var
        if isinstance(node, ir.RangeReduce):
            lo, hi = over
            lines.append(
                f"{pad}for (long {var} = {lo}; {var} <= {hi}; {var}++) {{"
            )
            return None
        (state,) = over
        ids, offsets = csr_arrays(node)
        lines.append(
            f"{pad}for (int _e = {offsets}[{state}]; "
            f"_e < {offsets}[{state} + 1]; _e++) {{"
        )
        lines.append(f"{pad}  int {var} = {ids}[_e];")
        return None
