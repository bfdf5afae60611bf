"""CUDA C backend: renders a kernel as ``__global__`` source text.

This is the target-code view of the synthesis (Figures 8 and 10): the
outer space loop is strided across the block's threads (``+ t`` start,
``+= tn`` step) and a ``__syncthreads()`` barrier separates
partitions. The text is what the compiler *would* hand to nvcc on real
hardware; in this reproduction it is emitted for inspection, examples
and tests (no GPU is assumed — see DESIGN.md §2). The text is the
kernel's loop nest under one rewrite (:func:`_figure10`), printed by
the one C nest printer of :mod:`repro.ir.cell` — the printer and
cell dialect the *executable* native C backend
(:mod:`repro.ir.cbackend`) uses.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from ..lang.errors import CodegenError
from ..polyhedral import loopast
from .cell import C_HELPERS, Block, CCell, Store
from .kernel import Kernel


def _ctype(kind: str) -> str:
    """The C value type of a DSL kind (table cells, scalars)."""
    return {"int": "long", "bool": "int"}.get(kind, "double")


class _CudaCell(CCell):
    """The C dialect with CUDA's overloaded ``min``/``max`` (already
    typed per operand, so no ``lmin``/``lmax``)."""

    BOUND = ""

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
    from .cbackend import model_params

    params += [f"{p.ctext} {p.name}" for p in model_params(kernel, refs)]

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
    cell.print_nest(
        _figure10(kernel, kernel.nest.roots, windowed), value_type,
        lines, "  ",
    )
    lines.append("}")
    return "\n".join(lines)


def _figure10(kernel: Kernel, nodes, windowed: bool, strided=False):
    """The Figure 10 template over ``nodes``: the first space loop
    strided over the block's threads, a barrier closing each
    partition, and — ``windowed`` — every store of the last
    ``window + 1`` partitions also written back to global memory."""
    out = []
    for node in nodes:
        if isinstance(node, loopast.Loop):
            is_time = node.var == kernel.nest.time_var
            stride = not (is_time or strided)
            body = _figure10(
                kernel, node.body, windowed, strided or stride
            )
            if is_time:
                body += ("__syncthreads();",)
            if stride:
                v = node.var
                node = Block(
                    f"for (long {v} = ({node.lower.c_text()}) + t; "
                    f"{v} <= {node.upper.c_text()}; {v} += tn)",
                    body,
                )
            else:
                node = replace(node, body=body)
        elif isinstance(node, (loopast.Assign, loopast.Guard)):
            node = replace(
                node,
                body=_figure10(kernel, node.body, windowed, strided),
            )
        elif isinstance(node, loopast.Stmt) and windowed:
            # Results still need to reach global memory: write back
            # the cells of the last `window + 1` partitions
            # (everything a caller could still ask for).
            dims = kernel.dims
            text = dims[0]
            for k in range(1, len(dims)):
                text = f"({text}) * (ub_{dims[k]} + 1) + {dims[k]}"
            upper = kernel.nest.roots[0].upper.c_text()
            node = Store((
                f"if ({kernel.nest.time_var} >= ({upper}) - "
                f"{kernel.window}) farr[{text}] = {{0}};",
            ))
        out.append(node)
    return tuple(out)
