"""Python backend: compile a kernel into executable Python source.

The generated function fills the dynamic-programming table exactly as
the synthesised GPU program would — partition by partition, cells
within a partition in arbitrary order — so it serves as the
*functional* half of the simulated device (timing is analytic, see
:mod:`repro.gpu.timing`). Generating real source (rather than
interpreting the IR) is what makes paper-scale workloads feasible.

The generated module expects a context dict prepared by the engine:

======================  ====================================
``ub_<dim>``            inclusive upper bound of a dimension
``seq_<param>``         int64 character-code array
``arg_<param>``         scalar calling parameter
``mat_<param>``         matrix score table (2-D int64)
``rowidx_/colidx_<p>``  char code -> dense index tables
``hmm_<p>_...``         model arrays (see HmmArrays)
======================  ====================================
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..analysis.affine import Affine
from ..lang.errors import CodegenError
from ..polyhedral import loopast
from . import expr as ir
from .kernel import Kernel

_PRELUDE = '''\
from math import exp, inf, log


def _log(x):
    return log(x) if x > 0.0 else -inf


def _logaddexp(a, b):
    """``log(exp(a) + exp(b))``, spelled exactly as the C prelude's.

    Bit-equal to ``m + log(exp(a - m) + exp(b - m))`` with
    ``m = max(a, b)`` on every finite/-inf pair: one of those two
    arguments is always exactly 0 and ``exp(0.0) == 1.0``. The one
    difference: (+inf, finite) now yields +inf where ``inf - inf``
    gave NaN.
    """
    if a == -inf:
        return b
    if b == -inf:
        return a
    if a > b:
        hi, lo = a, b
    else:
        hi, lo = b, a
    return hi + log(1.0 + exp(lo - hi))


def _idiv(a, b):
    return int(a / b)
'''


def affine_py(affine: Affine) -> str:
    """Render an affine function as a Python expression."""
    parts: List[str] = []
    for dim, coeff in affine.coeffs:
        if coeff == 1:
            term = dim
        elif coeff == -1:
            term = f"-{dim}"
        else:
            term = f"{coeff}*{dim}"
        if parts and not term.startswith("-"):
            parts.append(f"+ {term}")
        else:
            parts.append(term)
    if affine.const != 0 or not parts:
        if parts and affine.const > 0:
            parts.append(f"+ {affine.const}")
        else:
            parts.append(str(affine.const))
    return " ".join(parts)


def div_py(div: loopast.Div) -> str:
    """Render a ceil/floor division as a Python expression."""
    num = affine_py(div.numerator)
    if div.divisor == 1:
        return f"({num})"
    if div.mode == "ceil":
        return f"(-((-({num})) // {div.divisor}))"
    return f"(({num}) // {div.divisor})"


def bound_py(bound: loopast.Bound) -> str:
    """Render a loop bound as a Python expression."""
    texts = [div_py(t) for t in bound.terms]
    if len(texts) == 1:
        return texts[0]
    return f"{bound.kind}({', '.join(texts)})"


class _CellEmitter:
    """Emits the cell expression as Python statements.

    ``own_table`` is the Python name of the function's own DP table;
    cross-table reads (mutual groups) render as ``T_<callee>``.
    """

    def __init__(
        self, own_table: str = "T", sanitize: bool = False
    ) -> None:
        self.own_table = own_table
        self.sanitize = sanitize
        self.counter = 0

    def _table_name(self, node) -> str:
        return f"T_{node.table}" if node.table else self.own_table

    def fresh(self) -> str:
        name = f"_t{self.counter}"
        self.counter += 1
        return name

    # -- inline expression rendering (None when a reduce is inside) ----

    def inline(self, node: ir.Node) -> Optional[str]:
        if isinstance(node, ir.Const):
            if node.value == float("-inf"):
                return "(-inf)"
            if node.value == float("inf"):
                return "inf"
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
            return self._binary_text(node.op, node.kind, left, right)
        if isinstance(node, ir.Log):
            operand = self.inline(node.operand)
            return None if operand is None else f"_log({operand})"
        if isinstance(node, ir.Select):
            cond = self.inline(node.cond)
            then = self.inline(node.then)
            other = self.inline(node.otherwise)
            if cond is None or then is None or other is None:
                return None
            return f"({then} if {cond} else {other})"
        if isinstance(node, ir.TableRead):
            indices = [self.inline(i) for i in node.indices]
            if any(i is None for i in indices):
                return None
            return self._table_read_text(node, indices)
        if isinstance(node, ir.SeqRead):
            index = self.inline(node.index)
            if index is None:
                return None
            if self.sanitize:
                return f"_san.sread(seq_{node.seq}, {index})"
            return f"seq_{node.seq}[{index}]"
        if isinstance(node, ir.MatrixRead):
            row = self.inline(node.row)
            col = self.inline(node.col)
            if row is None or col is None:
                return None
            return (
                f"mat_{node.matrix}[rowidx_{node.matrix}[{row}], "
                f"colidx_{node.matrix}[{col}]]"
            )
        if isinstance(node, ir.StateFlag):
            state = self.inline(node.state)
            if state is None:
                return None
            suffix = "isstart" if node.which == "isstart" else "isend"
            return f"hmm_{node.hmm}_{suffix}[{state}]"
        if isinstance(node, ir.EmissionRead):
            state = self.inline(node.state)
            symbol = self.inline(node.symbol)
            if state is None or symbol is None:
                return None
            return (
                f"hmm_{node.hmm}_emis[{state}, "
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

    def _table_read_text(self, node, indices: List[str]) -> str:
        name = self._table_name(node)
        if self.sanitize:
            own = "True" if not node.table else "False"
            return (
                f"_san.tread({name}, ({', '.join(indices)},), "
                f"own={own})"
            )
        return f"{name}[{', '.join(indices)}]"

    @staticmethod
    def _binary_text(op: str, kind: str, left: str, right: str) -> str:
        if op == "min":
            return f"min({left}, {right})"
        if op == "max":
            return f"max({left}, {right})"
        if op == "logaddexp":
            return f"_logaddexp({left}, {right})"
        if op == "/":
            if kind == "int":
                return f"_idiv({left}, {right})"
            return f"({left} / {right})"
        return f"({left} {op} {right})"

    # -- statement emission --------------------------------------------------

    def emit_to(
        self, node: ir.Node, target: str, lines: List[str], pad: str
    ) -> None:
        text = self.inline(node)
        if text is not None:
            lines.append(f"{pad}{target} = {text}")
            return
        if isinstance(node, ir.Select):
            cond = self._force(node.cond, lines, pad)
            lines.append(f"{pad}if {cond}:")
            self.emit_to(node.then, target, lines, pad + "    ")
            lines.append(f"{pad}else:")
            self.emit_to(node.otherwise, target, lines, pad + "    ")
            return
        if isinstance(node, ir.Binary):
            left = self._force(node.left, lines, pad)
            right = self._force(node.right, lines, pad)
            text = self._binary_text(node.op, node.kind, left, right)
            lines.append(f"{pad}{target} = {text}")
            return
        if isinstance(node, ir.Log):
            operand = self._force(node.operand, lines, pad)
            lines.append(f"{pad}{target} = _log({operand})")
            return
        if isinstance(node, ir.ReduceLoop):
            self._emit_reduce(node, target, lines, pad)
            return
        if isinstance(node, ir.RangeReduce):
            self._emit_range_reduce(node, target, lines, pad)
            return
        if isinstance(node, ir.TableRead):
            indices = [self._force(i, lines, pad) for i in node.indices]
            lines.append(
                f"{pad}{target} = "
                f"{self._table_read_text(node, indices)}"
            )
            return
        raise CodegenError(f"cannot emit IR node {node!r}")

    def _force(self, node: ir.Node, lines: List[str], pad: str) -> str:
        """Render inline, or spill to a temporary."""
        text = self.inline(node)
        if text is not None:
            return text
        temp = self.fresh()
        self.emit_to(node, temp, lines, pad)
        return temp

    @staticmethod
    def _reduce_init(node) -> str:
        if node.kind == "sum":
            return "-inf" if node.logspace else "0.0"
        if node.kind == "min":
            return "inf"
        if node.prob and not node.logspace:
            # max over an empty set of path probabilities is 0.
            return "0.0"
        return "-inf"

    def _reduce_update(self, node, acc: str, body: str) -> str:
        if node.kind == "sum" and node.logspace:
            return f"_logaddexp({acc}, {body})"
        if node.kind == "sum":
            return f"{acc} + {body}"
        if node.kind == "min":
            return f"min({acc}, {body})"
        return f"max({acc}, {body})"

    def _emit_range_reduce(
        self, node: ir.RangeReduce, target: str, lines: List[str],
        pad: str,
    ) -> None:
        lo = self._force(node.lo, lines, pad)
        hi = self._force(node.hi, lines, pad)
        acc = self.fresh()
        lines.append(f"{pad}{acc} = {self._reduce_init(node)}")
        lines.append(
            f"{pad}for {node.var} in range({lo}, {hi} + 1):"
        )
        inner = pad + "    "
        body = self._force(node.body, lines, inner)
        lines.append(f"{inner}{acc} = {self._reduce_update(node, acc, body)}")
        lines.append(f"{pad}{target} = {acc}")

    def _emit_reduce(
        self, node: ir.ReduceLoop, target: str, lines: List[str], pad: str
    ) -> None:
        state = self._force(node.state, lines, pad)
        prefix = f"hmm_{node.hmm}"
        table = "inids" if node.source == "to" else "outids"
        offsets = "inoff" if node.source == "to" else "outoff"
        ids = (
            f"{prefix}_{table}[{prefix}_{offsets}[{state}]:"
            f"{prefix}_{offsets}[{state} + 1]]"
        )
        acc = self.fresh()
        lines.append(f"{pad}{acc} = {self._reduce_init(node)}")
        lines.append(f"{pad}for {node.var} in {ids}:")
        inner = pad + "    "
        body = self._force(node.body, lines, inner)
        lines.append(f"{inner}{acc} = {self._reduce_update(node, acc, body)}")
        lines.append(f"{pad}{target} = {acc}")


def emit_kernel_source(
    kernel: Kernel, func_name: str = "kernel", sanitize: bool = False
) -> str:
    """Emit the full Python module source for one kernel.

    The generated function takes optional ``part_lo``/``part_hi``
    arguments that clamp the outer time loop to a partition range —
    the execution supervisor uses this to replay only the failed
    span of the schedule after a device fault. With both left at
    ``None`` the kernel runs every partition, exactly as before.

    With ``sanitize`` the emitted code routes every table/sequence
    access and every cell write through a
    :class:`~repro.verify.sanitizer.TableSanitizer` taken from
    ``ctx['_san']``, and announces each partition at its barrier.
    """
    refs = kernel.referenced_names()
    lines: List[str] = [_PRELUDE, ""]
    lines.append(f"def {func_name}(T, ctx, part_lo=None, part_hi=None):")
    pad = "    "
    if sanitize:
        lines.append(f"{pad}_san = ctx['_san']")
    for ub in kernel.ub_params():
        lines.append(f"{pad}{ub} = ctx['{ub}']")
    for seq in sorted(refs["seqs"]):
        lines.append(f"{pad}seq_{seq} = ctx['seq_{seq}']")
    for scalar in sorted(refs["scalars"]):
        lines.append(f"{pad}arg_{scalar} = ctx['arg_{scalar}']")
    for matrix in sorted(refs["matrices"]):
        for piece in ("mat", "rowidx", "colidx"):
            lines.append(
                f"{pad}{piece}_{matrix} = ctx['{piece}_{matrix}']"
            )
    for hmm in sorted(refs["hmms"]):
        for piece in (
            "isstart", "isend", "emis", "symidx", "tprob", "tsrc",
            "ttgt", "inoff", "inids", "outoff", "outids",
        ):
            lines.append(
                f"{pad}hmm_{hmm}_{piece} = ctx['hmm_{hmm}_{piece}']"
            )
    emitter = _CellEmitter(sanitize=sanitize)
    roots = kernel.nest.roots
    if (
        len(roots) == 1
        and isinstance(roots[0], loopast.Loop)
        and roots[0].var == kernel.nest.time_var
    ):
        time_loop = roots[0]
        lines.append(f"{pad}_plo = {bound_py(time_loop.lower)}")
        lines.append(f"{pad}_phi = {bound_py(time_loop.upper)}")
        lines.append(f"{pad}if part_lo is not None and part_lo > _plo:")
        lines.append(f"{pad}    _plo = part_lo")
        lines.append(f"{pad}if part_hi is not None and part_hi < _phi:")
        lines.append(f"{pad}    _phi = part_hi")
        lines.append(f"{pad}for {time_loop.var} in range(_plo, _phi + 1):")
        if sanitize:
            lines.append(f"{pad}    _san.barrier({time_loop.var})")
        _emit_nest(kernel, time_loop.body, emitter, lines, pad + "    ")
        if sanitize:
            lines.append(f"{pad}_san.finish(T)")
    elif sanitize:
        raise CodegenError(
            "the sanitizer requires a partition-major time loop; "
            "this kernel's nest has no time dimension"
        )
    else:
        _emit_nest(kernel, roots, emitter, lines, pad)
    lines.append(f"{pad}return T")
    return "\n".join(lines)


def _emit_nest(
    kernel: Kernel,
    nodes: Tuple[loopast.Node, ...],
    emitter: _CellEmitter,
    lines: List[str],
    pad: str,
) -> None:
    for node in nodes:
        if isinstance(node, loopast.Loop):
            lines.append(
                f"{pad}for {node.var} in range({bound_py(node.lower)}, "
                f"{bound_py(node.upper)} + 1):"
            )
            _emit_nest(kernel, node.body, emitter, lines, pad + "    ")
        elif isinstance(node, loopast.Assign):
            lines.append(f"{pad}{node.var} = {div_py(node.value)}")
            _emit_nest(kernel, node.body, emitter, lines, pad)
        elif isinstance(node, loopast.Guard):
            lines.append(
                f"{pad}if ({affine_py(node.expr)}) % {node.divisor} == 0:"
            )
            _emit_nest(kernel, node.body, emitter, lines, pad + "    ")
        elif isinstance(node, loopast.Stmt):
            target = emitter.fresh()
            emitter.emit_to(kernel.body.cell, target, lines, pad)
            index = ", ".join(kernel.dims)
            if emitter.sanitize:
                lines.append(
                    f"{pad}_san.twrite(T, ({index},), {target})"
                )
            else:
                lines.append(f"{pad}T[{index}] = {target}")
        else:
            raise CodegenError(f"unknown nest node {node!r}")


def compile_kernel(
    kernel: Kernel, func_name: str = "kernel", sanitize: bool = False
):
    """Compile the generated source; returns ``(callable, source)``."""
    source = emit_kernel_source(kernel, func_name, sanitize=sanitize)
    namespace: Dict[str, object] = {}
    code = compile(source, f"<kernel:{kernel.name}>", "exec")
    exec(code, namespace)  # noqa: S102 - our own generated code
    return namespace[func_name], source
