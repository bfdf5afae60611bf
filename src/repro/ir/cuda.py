"""CUDA C backend: renders a kernel as ``__global__`` source text.

This is the target-code view of the synthesis (Figures 8 and 10): the
outer space loop is strided across the block's threads (``+ t`` start,
``+= tn`` step) and a ``__syncthreads()`` barrier separates
partitions. The text is what the compiler *would* hand to nvcc on real
hardware; in this reproduction it is emitted for inspection, examples
and tests (no GPU is assumed — see DESIGN.md §2). The cell expression
is printed by the C dialect of :mod:`repro.ir.cell`, the one the
*executable* native C backend (:mod:`repro.ir.cbackend`) uses.
"""

from __future__ import annotations

from typing import List

from ..lang.errors import CodegenError
from ..polyhedral import loopast
from .cell import C_HELPERS, CCell
from .kernel import Kernel


def _ctype(kind: str) -> str:
    """The C value type of a DSL kind (table cells, scalars)."""
    return {"int": "long", "bool": "int"}.get(kind, "double")


class _CudaCell(CCell):
    """The C dialect with CUDA's overloaded ``min``/``max`` (already
    typed per operand, so no ``lmin``/``lmax``)."""

    def _minmax(self, node) -> str:
        return node.op


def emit_cuda(kernel: Kernel, windowed: bool = False) -> str:
    """Render the full ``__global__`` kernel (Figure 10 template).

    ``windowed=True`` applies the sliding-window optimisation of
    Section 4.8: the kernel keeps only ``window + 1`` partitions of
    the table in a shared-memory ring buffer (indexed by partition
    modulo the row count and by the strided space coordinate), almost
    eliminating global-memory latency on the recursion's reads. Only
    available when the descent functions are uniform (the paper's
    restriction — ``kernel.window`` is ``None`` otherwise).
    """
    if windowed and kernel.window is None:
        raise CodegenError(
            "the sliding window requires uniform descent functions "
            "(Section 4.8)"
        )
    refs = kernel.referenced_names()
    value_type = _ctype(kernel.body.return_kind)

    params = [f"{value_type}* farr"]
    params += [f"long ub_{d}" for d in kernel.dims]
    if windowed:
        params += ["long win_cols"]
    params += [f"const long* seq_{s}" for s in sorted(refs["seqs"])]
    params += [f"double arg_{a}" for a in sorted(refs["scalars"])]
    for m in sorted(refs["matrices"]):
        params += [
            f"const long* mat_{m}",
            f"const long* rowidx_{m}",
            f"const long* colidx_{m}",
            f"long {m}_cols",
        ]
    for h in sorted(refs["hmms"]):
        params += [
            f"const int* hmm_{h}_isstart",
            f"const int* hmm_{h}_isend",
            f"const double* hmm_{h}_emis",
            f"const long* hmm_{h}_symidx",
            f"long {h}_nsym",
            f"const double* hmm_{h}_tprob",
            f"const long* hmm_{h}_tsrc",
            f"const long* hmm_{h}_ttgt",
            f"const long* hmm_{h}_inoff",
            f"const long* hmm_{h}_inids",
            f"const long* hmm_{h}_outoff",
            f"const long* hmm_{h}_outids",
        ]

    lines: List[str] = [C_HELPERS]
    suffix = "_windowed" if windowed else ""
    lines.append(
        f"__global__ void {kernel.name}_kernel{suffix}("
        + ", ".join(params)
        + ") {"
    )
    lines.append("  const int t = threadIdx.x;")
    lines.append("  const int tn = blockDim.x;")
    if windowed:
        rows = kernel.window + 1
        lines.append(
            f"  // Section 4.8: ring buffer of the last {rows} "
            f"partitions (window {kernel.window})."
        )
        lines.append(
            f"  extern __shared__ {value_type} swin[];"
            f"  // [{rows} rows x win_cols]"
        )
    cell = _CudaCell(kernel, windowed=windowed)
    _emit_nest(
        kernel, kernel.nest.roots, cell, lines, "  ",
        value_type=value_type, thread_strided=False,
    )
    lines.append("}")
    return "\n".join(lines)


def _emit_nest(
    kernel: Kernel,
    nodes,
    cell: _CudaCell,
    lines: List[str],
    pad: str,
    value_type: str,
    thread_strided: bool,
) -> None:
    for node in nodes:
        if isinstance(node, loopast.Loop):
            is_time = node.var == kernel.nest.time_var
            # Figure 10: the first space loop is strided over threads.
            stride_this = not is_time and not thread_strided
            low = node.lower.c_text()
            high = node.upper.c_text()
            if stride_this:
                lines.append(
                    f"{pad}for (long {node.var} = ({low}) + t; "
                    f"{node.var} <= {high}; {node.var} += tn) {{"
                )
            else:
                lines.append(
                    f"{pad}for (long {node.var} = {low}; "
                    f"{node.var} <= {high}; {node.var}++) {{"
                )
            _emit_nest(
                kernel, node.body, cell, lines, pad + "  ",
                value_type, thread_strided or stride_this,
            )
            if is_time:
                # Figure 8/10: barrier between partitions.
                lines.append(pad + "  __syncthreads();")
            lines.append(pad + "}")
        elif isinstance(node, loopast.Assign):
            lines.append(
                f"{pad}long {node.var} = {node.value.c_text()};"
            )
            _emit_nest(
                kernel, node.body, cell, lines, pad,
                value_type, thread_strided,
            )
        elif isinstance(node, loopast.Guard):
            lines.append(
                f"{pad}if (({loopast.affine_c_text(node.expr)}) % "
                f"{node.divisor} == 0) {{"
            )
            _emit_nest(
                kernel, node.body, cell, lines, pad + "  ",
                value_type, thread_strided,
            )
            lines.append(pad + "}")
        elif isinstance(node, loopast.Stmt):
            target = cell.fresh()
            lines.append(f"{pad}{value_type} {target};")
            cell.emit_to(kernel.body.cell, target, lines, pad)
            store = cell.address(kernel.dims)
            lines.append(f"{pad}{store} = {target};")
            if cell.windowed:
                # Results still need to reach global memory: write
                # back the cells of the last `window + 1` partitions
                # (everything an caller could still ask for).
                dims = kernel.dims
                text = dims[0]
                for k in range(1, len(dims)):
                    text = (
                        f"({text}) * (ub_{dims[k]} + 1) + {dims[k]}"
                    )
                time_var = kernel.nest.time_var
                root = kernel.nest.roots[0]
                upper = root.upper.c_text()
                lines.append(
                    f"{pad}if ({time_var} >= ({upper}) - "
                    f"{kernel.window}) farr[{text}] = {target};"
                )
        else:
            raise CodegenError(f"unknown nest node {node!r}")
