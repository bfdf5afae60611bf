"""Shared C expression/statement printer for the C-family backends.

Both C targets — the CUDA text emitter (:mod:`repro.ir.cuda`,
Figure 10's ``__global__`` template) and the native compiled backend
(:mod:`repro.ir.cbackend`, portable C99 built with the system ``cc``)
— render the *same* lowered cell expression with the same spellings:
``min``/``max``/``logaddexp`` helpers, ternary selects (with an
if/else fallback when a reduction hides inside an arm), CSR reduction
loops over the HMM transition lists, and row-major linearised table
accesses with the Section 4.8 ring-buffer variant. This module holds
that common printer; the backends only differ in how the surrounding
function (signature, loop striding, barriers) is emitted.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..lang.errors import CodegenError
from . import expr as ir
from .kernel import Kernel

#: CLooG's integer-division helpers, used by every rendered loop bound.
C_HELPERS = """\
#define ceild(n, d) (((n) < 0) ? -((-(n)) / (d)) : ((n) + (d) - 1) / (d))
#define floord(n, d) (((n) < 0) ? -((-(n) + (d) - 1) / (d)) : (n) / (d))
"""


def ctype_of(kind: str) -> str:
    """The C value type of a DSL kind (table cells, scalars)."""
    return {"int": "long", "bool": "int"}.get(kind, "double")


class CCellEmitter:
    """Emits the cell expression as C statements.

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

    def __init__(
        self,
        kernel: Kernel,
        windowed: bool = False,
        strides: Optional[Tuple[str, ...]] = None,
    ) -> None:
        self.kernel = kernel
        self.windowed = windowed
        self.strides = tuple(strides) if strides is not None else None
        self.counter = 0

    def _dim_size(self, k: int) -> str:
        """C text of dimension ``k``'s row length in the table."""
        if self.strides is not None:
            return self.strides[k]
        return f"ub_{self.kernel.dims[k]} + 1"

    def fresh(self) -> str:
        name = f"_t{self.counter}"
        self.counter += 1
        return name

    def _minmax(self, node: ir.Binary) -> str:
        """Helper name for a ``min``/``max`` node. C99 has no
        overloads, so integer nodes go through the ``long`` pair
        ``lmin``/``lmax``: the ``double`` helpers would round every
        operand above 2**53 and promote the surrounding ``?:``."""
        return f"l{node.op}" if node.kind == "int" else node.op

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

    def inline(self, node: ir.Node) -> Optional[str]:
        if isinstance(node, ir.Const):
            if node.value == float("-inf"):
                return "(-INFINITY)"
            if node.value == float("inf"):
                return "INFINITY"
            if isinstance(node.value, bool):
                return "1" if node.value else "0"
            return repr(node.value)
        if isinstance(node, (ir.DimRef, ir.VarRef)):
            return node.name
        if isinstance(node, ir.ArgRef):
            return f"arg_{node.name}"
        if isinstance(node, ir.Binary):
            left = self.inline(node.left)
            right = self.inline(node.right)
            if left is None or right is None:
                return None
            if node.op in ("min", "max"):
                return f"{self._minmax(node)}({left}, {right})"
            if node.op == "logaddexp":
                return f"logaddexp({left}, {right})"
            if node.op == "/" and node.kind == "int":
                # Truncating division, matching the scalar backend's
                # ``_idiv`` (operands may sit in double temporaries).
                return f"idiv({left}, {right})"
            return f"({left} {node.op} {right})"
        if isinstance(node, ir.Log):
            operand = self.inline(node.operand)
            return None if operand is None else f"safelog({operand})"
        if isinstance(node, ir.Select):
            cond = self.inline(node.cond)
            then = self.inline(node.then)
            other = self.inline(node.otherwise)
            if cond is None or then is None or other is None:
                return None
            return f"({cond} ? {then} : {other})"
        if isinstance(node, ir.TableRead):
            if node.table:
                raise CodegenError(
                    f"cross-table read of {node.table!r}: mutual-group "
                    f"members have no single-kernel C rendering"
                )
            return self._table_ref(node.indices)
        if isinstance(node, ir.SeqRead):
            index = self.inline(node.index)
            return None if index is None else f"seq_{node.seq}[{index}]"
        if isinstance(node, ir.MatrixRead):
            row = self.inline(node.row)
            col = self.inline(node.col)
            if row is None or col is None:
                return None
            return (
                f"mat_{node.matrix}[rowidx_{node.matrix}[{row}] * "
                f"{node.matrix}_cols + colidx_{node.matrix}[{col}]]"
            )
        if isinstance(node, ir.StateFlag):
            state = self.inline(node.state)
            if state is None:
                return None
            return f"hmm_{node.hmm}_{node.which}[{state}]"
        if isinstance(node, ir.EmissionRead):
            state = self.inline(node.state)
            symbol = self.inline(node.symbol)
            if state is None or symbol is None:
                return None
            return (
                f"hmm_{node.hmm}_emis[{state} * {node.hmm}_nsym + "
                f"hmm_{node.hmm}_symidx[{symbol}]]"
            )
        if isinstance(node, ir.TransField):
            trans = self.inline(node.trans)
            if trans is None:
                return None
            suffix = {"prob": "tprob", "start": "tsrc", "end": "ttgt"}[
                node.which
            ]
            return f"hmm_{node.hmm}_{suffix}[{trans}]"
        if isinstance(node, (ir.ReduceLoop, ir.RangeReduce)):
            return None
        raise CodegenError(f"cannot render IR node {node!r}")

    def _table_ref(self, indices: Tuple[ir.Node, ...]) -> Optional[str]:
        """Row-major linearised table access.

        Windowed kernels address the shared ring buffer instead: the
        row is the cell's partition modulo the resident row count,
        the column its :attr:`window_col` coordinate (Section 4.8).
        """
        rendered = [self.inline(i) for i in indices]
        if any(r is None for r in rendered):
            return None
        dims = self.kernel.dims
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
        for k in range(1, len(dims)):
            text = f"({text}) * ({self._dim_size(k)}) + {rendered[k]}"
        return f"farr[{text}]"

    def emit_to(
        self, node: ir.Node, target: str, lines: List[str], pad: str
    ) -> None:
        text = self.inline(node)
        if text is not None:
            lines.append(f"{pad}{target} = {text};")
            return
        if isinstance(node, ir.Select):
            cond = self._force(node.cond, lines, pad)
            lines.append(f"{pad}if ({cond}) {{")
            self.emit_to(node.then, target, lines, pad + "  ")
            lines.append(f"{pad}}} else {{")
            self.emit_to(node.otherwise, target, lines, pad + "  ")
            lines.append(f"{pad}}}")
            return
        if isinstance(node, ir.Binary):
            left = self._force(node.left, lines, pad)
            right = self._force(node.right, lines, pad)
            if node.op in ("min", "max", "logaddexp"):
                # Reached only when an operand did not inline, i.e.
                # sits in a ``double`` temporary (a reduction, which
                # starts at +-INFINITY): the ``double`` helpers, not
                # ``lmin``/``lmax``, whatever the node's kind.
                lines.append(
                    f"{pad}{target} = {node.op}({left}, {right});"
                )
            elif node.op == "/" and node.kind == "int":
                lines.append(
                    f"{pad}{target} = idiv({left}, {right});"
                )
            else:
                lines.append(
                    f"{pad}{target} = {left} {node.op} {right};"
                )
            return
        if isinstance(node, ir.ReduceLoop):
            self._emit_reduce(node, target, lines, pad)
            return
        if isinstance(node, ir.RangeReduce):
            self._emit_range_reduce(node, target, lines, pad)
            return
        raise CodegenError(f"cannot emit IR node {node!r}")

    def _force(self, node: ir.Node, lines: List[str], pad: str) -> str:
        text = self.inline(node)
        if text is not None:
            return text
        temp = self.fresh()
        lines.append(f"{pad}double {temp};")
        self.emit_to(node, temp, lines, pad)
        return temp

    @staticmethod
    def _reduce_init(node) -> str:
        if node.kind == "sum":
            return "-INFINITY" if node.logspace else "0.0"
        if node.kind == "min":
            return "INFINITY"
        if node.prob and not node.logspace:
            return "0.0"
        return "-INFINITY"

    def _emit_range_reduce(
        self, node: ir.RangeReduce, target: str, lines: List[str],
        pad: str,
    ) -> None:
        lo = self._force(node.lo, lines, pad)
        hi = self._force(node.hi, lines, pad)
        acc = self.fresh()
        lines.append(f"{pad}double {acc} = {self._reduce_init(node)};")
        lines.append(
            f"{pad}for (long {node.var} = {lo}; {node.var} <= {hi}; "
            f"{node.var}++) {{"
        )
        inner = pad + "  "
        body = self._force(node.body, lines, inner)
        if node.kind == "sum" and node.logspace:
            lines.append(f"{inner}{acc} = logaddexp({acc}, {body});")
        elif node.kind == "sum":
            lines.append(f"{inner}{acc} += {body};")
        else:
            lines.append(f"{inner}{acc} = {node.kind}({acc}, {body});")
        lines.append(f"{pad}}}")
        lines.append(f"{pad}{target} = {acc};")

    def _emit_reduce(
        self, node: ir.ReduceLoop, target: str, lines: List[str], pad: str
    ) -> None:
        state = self._force(node.state, lines, pad)
        prefix = f"hmm_{node.hmm}"
        ids = "inids" if node.source == "to" else "outids"
        offsets = "inoff" if node.source == "to" else "outoff"
        acc = self.fresh()
        lines.append(f"{pad}double {acc} = {self._reduce_init(node)};")
        lines.append(
            f"{pad}for (int _e = {prefix}_{offsets}[{state}]; "
            f"_e < {prefix}_{offsets}[{state} + 1]; _e++) {{"
        )
        inner = pad + "  "
        lines.append(f"{inner}int {node.var} = {prefix}_{ids}[_e];")
        body = self._force(node.body, lines, inner)
        if node.kind == "sum" and node.logspace:
            lines.append(f"{inner}{acc} = logaddexp({acc}, {body});")
        elif node.kind == "sum":
            lines.append(f"{inner}{acc} += {body};")
        else:
            lines.append(f"{inner}{acc} = {node.kind}({acc}, {body});")
        lines.append(f"{pad}}}")
        lines.append(f"{pad}{target} = {acc};")
