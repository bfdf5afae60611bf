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

The cell expression is printed by :class:`PyCell`, the Python dialect
of :mod:`repro.ir.cell`. The same nest walk emits the mutual-group
module (:func:`emit_group_source`, Section 9), and the vector backend
reuses the context unpacking and partition clipping.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from ..analysis.affine import Affine
from ..lang.errors import CodegenError
from ..polyhedral import loopast
from . import expr as ir
from .cell import CellPrinter, csr_arrays, prelude
from .kernel import Kernel

_PRELUDE = prelude("py")


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


#: Context pieces unpacked per referenced HMM parameter.
_HMM_PIECES = (
    "isstart", "isend", "emis", "symidx", "tprob", "tsrc",
    "ttgt", "inoff", "inids", "outoff", "outids",
)


def unpack_ctx(kernel: Kernel, lines: List[str], pad: str) -> None:
    """Bind every context entry the kernel reads to a local name —
    the first lines of every generated Python function."""
    refs = kernel.referenced_names()
    names = list(kernel.ub_params())
    names += [f"seq_{seq}" for seq in sorted(refs["seqs"])]
    names += [f"arg_{scalar}" for scalar in sorted(refs["scalars"])]
    for matrix in sorted(refs["matrices"]):
        names += [f"{p}_{matrix}" for p in ("mat", "rowidx", "colidx")]
    for hmm in sorted(refs["hmms"]):
        names += [f"hmm_{hmm}_{piece}" for piece in _HMM_PIECES]
    lines.extend(f"{pad}{name} = ctx['{name}']" for name in names)


class PyCell(CellPrinter):
    """The scalar Python dialect of :mod:`repro.ir.cell`.

    ``own_table`` is the Python name of the function's own DP table;
    cross-table reads (mutual groups) render as ``T_<callee>``. With
    ``sanitize`` every table and sequence read goes through the
    :class:`~repro.verify.sanitizer.TableSanitizer` ``_san``.
    """

    TARGET = "py"

    def __init__(
        self, kernel: Kernel, own_table: str = "T", sanitize: bool = False
    ) -> None:
        super().__init__(kernel)
        self.own_table = own_table
        self.sanitize = sanitize

    def table(self, node: ir.TableRead, kids: List[str]) -> str:
        """Own or callee table, through the sanitizer when on."""
        name = f"T_{node.table}" if node.table else self.own_table
        if self.sanitize:
            return (
                f"_san.tread({name}, ({', '.join(kids)},), "
                f"own={not node.table})"
            )
        return f"{name}[{', '.join(kids)}]"

    def seq(self, name: str, index: str) -> str:
        """Sequence read, through the sanitizer when on."""
        if self.sanitize:
            return f"_san.sread({name}, {index})"
        return f"{name}[{index}]"

    def index2(self, array: str, row: str, cols: str, col: str) -> str:
        """A 2-D NumPy index."""
        return f"{array}[{row}, {col}]"

    def open_loop(self, node, over, lines: List[str], pad: str):
        """A ``range`` loop, or a loop over the CSR slice of ids."""
        if isinstance(node, ir.RangeReduce):
            lo, hi = over
            lines.append(f"{pad}for {node.var} in range({lo}, {hi} + 1):")
            return None
        (state,) = over
        ids, offsets = csr_arrays(node)
        lines.append(
            f"{pad}for {node.var} in "
            f"{ids}[{offsets}[{state}]:{offsets}[{state} + 1]]:"
        )
        return None


def clip_partitions(lower: str, upper: str, lines: List[str], pad: str):
    """``_plo``/``_phi``: the time loop's bounds, clipped to the
    generated function's ``part_lo``/``part_hi`` arguments."""
    lines += [
        f"{pad}_plo = {lower}",
        f"{pad}_phi = {upper}",
        f"{pad}if part_lo is not None and part_lo > _plo:",
        f"{pad}    _plo = part_lo",
        f"{pad}if part_hi is not None and part_hi < _phi:",
        f"{pad}    _phi = part_hi",
    ]


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
    lines: List[str] = [_PRELUDE, ""]
    lines.append(f"def {func_name}(T, ctx, part_lo=None, part_hi=None):")
    pad = "    "
    if sanitize:
        lines.append(f"{pad}_san = ctx['_san']")
    unpack_ctx(kernel, lines, pad)
    cell = PyCell(kernel, sanitize=sanitize)
    roots = kernel.nest.roots
    if (
        len(roots) == 1
        and isinstance(roots[0], loopast.Loop)
        and roots[0].var == kernel.nest.time_var
    ):
        time_loop = roots[0]
        clip_partitions(
            bound_py(time_loop.lower), bound_py(time_loop.upper),
            lines, pad,
        )
        lines.append(f"{pad}for {time_loop.var} in range(_plo, _phi + 1):")
        if sanitize:
            lines.append(f"{pad}    _san.barrier({time_loop.var})")
        _emit_nest(time_loop.body, cell, lines, pad + "    ")
        if sanitize:
            lines.append(f"{pad}_san.finish(T)")
    elif sanitize:
        raise CodegenError(
            "the sanitizer requires a partition-major time loop; "
            "this kernel's nest has no time dimension"
        )
    else:
        _emit_nest(roots, cell, lines, pad)
    lines.append(f"{pad}return T")
    return "\n".join(lines)


def _emit_nest(
    nodes: Tuple[loopast.Node, ...],
    cell: PyCell,
    lines: List[str],
    pad: str,
) -> None:
    """The scattering nest, one cell per statement, stored into the
    printer's own table."""
    for node in nodes:
        if isinstance(node, loopast.Loop):
            lines.append(
                f"{pad}for {node.var} in range({bound_py(node.lower)}, "
                f"{bound_py(node.upper)} + 1):"
            )
            _emit_nest(node.body, cell, lines, pad + "    ")
        elif isinstance(node, loopast.Assign):
            lines.append(f"{pad}{node.var} = {div_py(node.value)}")
            _emit_nest(node.body, cell, lines, pad)
        elif isinstance(node, loopast.Guard):
            lines.append(
                f"{pad}if ({affine_py(node.expr)}) % {node.divisor} == 0:"
            )
            _emit_nest(node.body, cell, lines, pad + "    ")
        elif isinstance(node, loopast.Stmt):
            target = cell.fresh()
            cell.emit_to(cell.kernel.body.cell, target, lines, pad)
            index = ", ".join(cell.kernel.dims)
            if cell.sanitize:
                lines.append(
                    f"{pad}_san.twrite(T, ({index},), {target})"
                )
            else:
                lines.append(f"{pad}{cell.own_table}[{index}] = {target}")
        else:
            raise CodegenError(f"unknown nest node {node!r}")


def emit_group_source(
    kernels: Mapping[str, Kernel], mutual, func_name: str = "kernel"
) -> str:
    """Emit the module source for one mutual group (Section 9).

    One generated module drives the whole group: a single global time
    loop interleaves the members' partitions (each shifted by its
    schedule offset in ``mutual``), and each member's space loops run
    in a per-partition step function. Cross-calls read the callee's
    table directly — all writes from earlier global partitions, by the
    joint schedules' compatibility. The entry point is
    ``kernel(tables, ctxs, global_lo, global_hi)`` over name-keyed
    dicts; the caller computes the global partition range.
    """
    names = sorted(kernels)
    tables = ", ".join(f"T_{name}" for name in names)
    lines: List[str] = [_PRELUDE, ""]
    for name in names:
        kernel = kernels[name]
        roots = kernel.nest.roots
        if len(roots) != 1 or not isinstance(roots[0], loopast.Loop):
            raise CodegenError(
                f"group member {name!r}: unexpected nest shape"
            )
        time_loop = roots[0]
        p = time_loop.var
        lines.append(f"def _step_{name}({tables}, {p}, ctx):")
        unpack_ctx(kernel, lines, "    ")
        lines.append(
            f"    if {p} < {bound_py(time_loop.lower)} or "
            f"{p} > {bound_py(time_loop.upper)}:"
        )
        lines.append("        return")
        cell = PyCell(kernel, own_table=f"T_{name}")
        _emit_nest(time_loop.body, cell, lines, "    ")
        lines.append("")
    lines.append(f"def {func_name}(tables, ctxs, global_lo, global_hi):")
    lines += [f"    T_{name} = tables['{name}']" for name in names]
    lines.append("    for _gp in range(global_lo, global_hi + 1):")
    lines += [
        f"        _step_{name}({tables}, _gp - ({mutual[name].offset}), "
        f"ctxs['{name}'])"
        for name in names
    ]
    lines.append("    return tables")
    return "\n".join(lines)


def exec_source(source: str, tag: str, func_name: str = "kernel"):
    """Execute generated module source; returns its ``func_name``."""
    namespace: Dict[str, object] = {}
    exec(compile(source, tag, "exec"), namespace)  # noqa: S102 - ours
    return namespace[func_name]


def compile_kernel(
    kernel: Kernel, func_name: str = "kernel", sanitize: bool = False
):
    """Compile the generated source; returns ``(callable, source)``."""
    source = emit_kernel_source(kernel, func_name, sanitize=sanitize)
    return exec_source(source, f"<kernel:{kernel.name}>", func_name), source


def compile_group(
    kernels: Mapping[str, Kernel], mutual, func_name: str = "kernel"
):
    """Compile the group module; returns ``(callable, source)``."""
    source = emit_group_source(kernels, mutual, func_name)
    return exec_source(source, "<groupkernel>", func_name), source
