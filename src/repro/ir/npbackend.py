"""Vectorised NumPy backend: whole partitions as array operations.

The scalar Python backend walks cells one at a time; this backend
evaluates *an entire partition at once* — the cells of a partition are
independent by construction (that is the whole point of the schedule),
so they map exactly onto NumPy's element-wise lanes. The result is an
order-of-magnitude faster functional simulation for the dense 2-D
recurrences (edit distance, Smith-Waterman, alignment scoring) and,
since reductions vectorise too, for the HMM recurrences of
Figs. 13–15 (forward, Viterbi, profile search, gene finding).

Reductions vectorise because their trip counts are *lane-uniform up
to a mask*: a ``sum(t in s.transitionsto : ...)`` runs a serial
Python loop over the maximum in-degree of the partition's states,
with a per-lane mask ``k < degree(s)`` discarding the lanes whose
transition list is shorter; a ``RangeReduce`` runs over the global
``[min(lo), max(hi)]`` envelope with the analogous per-lane range
mask. Accumulation folds with the rows of :data:`repro.ir.cell.OPS`
(C's formulas, elementwise) — always through
``np.where(mask, update, acc)`` so masked lanes keep their
accumulator untouched.

Eligibility (otherwise the engine falls back to the scalar backend)
is reported as a machine-readable :class:`Eligibility` record:

* two-dimensional kernels with a unit-coefficient pinned dimension
  (the common case; non-unit pins need per-lane divisibility masks);
* no cross-table reads (mutual groups run the scalar group module,
  :func:`repro.ir.pybackend.compile_group`).

Branch semantics: ``np.where`` evaluates both branches eagerly, so
guarded out-of-domain table reads *would* be attempted; all gather
indices are therefore clamped into the table (``_ix``) — the values
read through a clamped index only ever feed discarded lanes. The
whole sweep runs under ``np.errstate(...ignore...)`` because those
discarded lanes may legitimately compute ``inf - inf`` garbage.

The *batched* variant (:func:`emit_batched_source`) generalises the
same code to a table with a leading problem axis ``(B, d0, d1)``:
bounds come from ``(B, 1)``-shaped context arrays, sequences from
padded ``(B, Lmax)`` arrays, and stores go through a per-lane
validity mask so a problem never writes outside its own (possibly
smaller) domain — the functional analogue of the paper's inter-task
parallelism (§6.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..lang.errors import CodegenError
from ..polyhedral import loopast
from . import expr as ir
from .cell import csr_arrays, prelude
from .kernel import Kernel
from .pybackend import (
    PyCell,
    bound_py,
    clip_partitions,
    div_py,
    exec_source,
    unpack_ctx,
)

_PRELUDE = prelude("np") + '''

def _ix(index, ub):
    """Clamp gather indices into the table (see module doc)."""
    return np.clip(index, 0, ub)


def _gather(arr, index):
    """Clamped sequence gather; empty sequences yield dummy zeros
    (only ever read under a guard whose lanes are discarded)."""
    if len(arr) == 0:
        return np.zeros_like(np.asarray(index))
    return arr[np.clip(index, 0, len(arr) - 1)]
'''

#: Extra helpers of the batched (leading problem axis) variant.
_BATCH_PRELUDE = '''\

def _bread(T, b, i0, i1):
    """Batched table gather: per-problem rows of a (B, d0, d1) table."""
    bb, x0, x1 = np.broadcast_arrays(b, i0, i1)
    return T[bb, x0, x1]


def _bgather(arr, b, index):
    """Batched clamped sequence gather over a padded (B, Lmax) array.

    Clamping is global (to Lmax); a shorter problem's lanes past its
    own length read padding zeros, which only ever feed lanes the
    validity mask (or a guard's np.where) discards."""
    if arr.shape[1] == 0:
        bb, ii = np.broadcast_arrays(b, np.asarray(index))
        return np.zeros_like(ii)
    bb, ii = np.broadcast_arrays(b, np.clip(index, 0, arr.shape[1] - 1))
    return arr[bb, ii]


def _bstore(T, b, i0, i1, valid, cell):
    """Masked batched store: write only the lanes valid for their
    problem (everything else is padding and must stay zero)."""
    bb, x0, x1, vv, cc = np.broadcast_arrays(b, i0, i1, valid, cell)
    T[bb[vv], x0[vv], x1[vv]] = cc[vv]
'''

_ERRSTATE = (
    'np.errstate(invalid="ignore", over="ignore", divide="ignore")'
)


# -- eligibility --------------------------------------------------------------


@dataclass(frozen=True)
class Eligibility:
    """Machine-readable verdict of the vector-backend eligibility check.

    ``rule`` is a short stable identifier of the *failed* rule
    (``"ok"`` when eligible); ``detail`` is the human sentence the
    engine raises / the ``explain`` subcommand prints.
    """

    ok: bool
    rule: str
    detail: str

    def __bool__(self) -> bool:
        return self.ok


def eligibility(kernel: Kernel) -> Eligibility:
    """Why (or why not) this kernel can use the vectorised backend."""
    if kernel.rank != 2:
        return Eligibility(
            False, "rank",
            f"kernel {kernel.name!r} is {kernel.rank}-dimensional; the "
            f"vector backend evaluates 2-D partition sweeps only",
        )
    for node in ir.walk(kernel.body.cell):
        if isinstance(node, ir.TableRead) and node.table:
            return Eligibility(
                False, "cross-table-read",
                f"kernel {kernel.name!r} reads the table of "
                f"{node.table!r}; mutual groups use the group backend",
            )
    if _nest_shape(kernel) is None:
        return Eligibility(
            False, "nest-shape",
            f"kernel {kernel.name!r} does not lower to a "
            f"time-loop/space-loop nest with a unit-coefficient pinned "
            f"dimension (non-unit pins need per-lane divisibility "
            f"masks)",
        )
    return Eligibility(
        True, "ok",
        f"kernel {kernel.name!r} vectorises: 2-D nest with a "
        f"unit-coefficient pinned dimension"
        + (
            "; reductions run as masked lane-uniform loops"
            if any(
                isinstance(n, (ir.ReduceLoop, ir.RangeReduce))
                for n in ir.walk(kernel.body.cell)
            )
            else ""
        ),
    )


def eligible(kernel: Kernel) -> bool:
    """Can this kernel use the vectorised backend?"""
    return eligibility(kernel).ok


def _nest_shape(kernel: Kernel):
    """Recognise ``Loop(p) { Loop(d) { [Assign(e)] Stmt } }``."""
    roots = kernel.nest.roots
    if len(roots) != 1 or not isinstance(roots[0], loopast.Loop):
        return None
    time_loop = roots[0]
    if len(time_loop.body) != 1 or not isinstance(
        time_loop.body[0], loopast.Loop
    ):
        return None
    space_loop = time_loop.body[0]
    inner = space_loop.body
    if (
        len(inner) == 1
        and isinstance(inner[0], loopast.Assign)
        and inner[0].value.divisor == 1
        and len(inner[0].body) == 1
        and isinstance(inner[0].body[0], loopast.Stmt)
    ):
        return time_loop, space_loop, inner[0]
    return None


def bound_np(bound: loopast.Bound) -> str:
    """Render a loop bound array-safely (``min``/``max`` of Python
    break on NumPy operands; fold through np.minimum/np.maximum)."""
    texts = [div_py(t) for t in bound.terms]
    if len(texts) == 1:
        return texts[0]
    fold = "np.minimum" if bound.kind == "min" else "np.maximum"
    expr = texts[0]
    for text in texts[1:]:
        expr = f"{fold}({expr}, {text})"
    return expr


# -- the emitter --------------------------------------------------------------


class _VectorCell(PyCell):
    """The NumPy lane dialect of :mod:`repro.ir.cell`: every value is
    an array over the partition's lanes, selects evaluate both arms,
    and reductions become masked serial loops.

    ``batch=True`` targets the leading-problem-axis layout: table
    reads go through ``_bread`` with the ``_pb`` batch index column,
    sequence gathers through ``_bgather``.
    """

    TARGET = "np"
    IF = None

    def __init__(self, kernel: Kernel, batch: bool = False) -> None:
        super().__init__(kernel)
        self.batch = batch

    def table(self, node: ir.TableRead, kids: List[str]) -> str:
        if node.table:
            raise CodegenError(
                f"cross-table read of {node.table!r}: the vector "
                f"backend runs single kernels"
            )
        indices = ", ".join(
            f"_ix({kid}, ub_{dim})"
            for dim, kid in zip(self.kernel.dims, kids)
        )
        if self.batch:
            return f"_bread(T, _pb, {indices})"
        return f"T[{indices}]"

    def seq(self, name: str, index: str) -> str:
        if self.batch:
            return f"_bgather({name}, _pb, {index})"
        return f"_gather({name}, {index})"

    def open_loop(self, node, over, lines: List[str], pad: str) -> str:
        """A range reduction runs over the global ``[min(lo),
        max(hi)]`` envelope; a transition reduction to the maximum
        in/out-degree of the lanes' states (lane-uniform, from the
        bindings, never from cell data). The returned mask keeps the
        lanes whose own range or transition list the step is inside."""
        var = node.var
        if isinstance(node, ir.RangeReduce):
            lo, hi = over
            lines.append(
                f"{pad}for {var} in range(int(np.min({lo})), "
                f"int(np.max({hi})) + 1):"
            )
            return f"({var} >= {lo}) & ({var} <= {hi})"
        (state,) = over
        ids, offsets = csr_arrays(node)
        base, deg, step = self.fresh(), self.fresh(), self.fresh()
        lines += [
            f"{pad}{base} = {offsets}[{state}]",
            f"{pad}{deg} = {offsets}[{state} + 1] - {base}",
            f"{pad}for {step} in range(int(np.max({deg}))):",
            f"{pad}    {var} = {ids}[np.clip({base} + {step}, 0, "
            f"{ids}.size - 1)]",
        ]
        return f"{step} < {deg}"

    def fold(self, acc, row, body, live) -> str:
        """Masked lanes keep their accumulator untouched."""
        update = f"{acc} + {body}" if row is None else self.call(
            row, acc, body
        )
        return f"{acc} = np.where({live}, {update}, {acc})"


# -- module emission ----------------------------------------------------------


def emit_vector_source(
    kernel: Kernel, func_name: str = "kernel"
) -> str:
    """Emit the vectorised module source (single problem)."""
    return _emit_sweep(kernel, func_name, batch=False)


def emit_batched_source(
    kernel: Kernel, func_name: str = "kernel"
) -> str:
    """Emit the lane-batched module source.

    The generated kernel fills a ``(B, d0max, d1max)`` table — one
    padded problem per leading row. Per-problem bounds come from
    ``(B, 1)``-shaped ``ub_*``/``arg_*`` context arrays and padded
    ``(B, Lmax)`` sequences; every store is masked by the per-lane
    validity ``(space in own range) & (partition in own range)``, so
    padding cells are never written. ``part_lo``/``part_hi`` clamp
    the *global* partition loop (the supervisor's replay unit); each
    problem's own range is narrower or equal and enforced by the mask.
    """
    return _emit_sweep(kernel, func_name, batch=True)


def _emit_sweep(kernel: Kernel, func_name: str, batch: bool) -> str:
    """The time loop over partitions, each partition's cells one
    array of lanes: bounds are scalars, or with ``batch`` ``(B, 1)``
    columns whose envelope the loops run over."""
    shape = _nest_shape(kernel)
    if shape is None:
        verdict = eligibility(kernel)
        raise CodegenError(
            f"kernel shape not eligible for the "
            f"{'batched ' if batch else ''}vector backend "
            f"[{verdict.rule}]: {verdict.detail}"
        )
    time_loop, space_loop, assign = shape
    p, x = time_loop.var, space_loop.var
    bound = bound_np if batch else bound_py
    lines: List[str] = [_PRELUDE + (_BATCH_PRELUDE if batch else ""), ""]
    lines.append(f"def {func_name}(T, ctx, part_lo=None, part_hi=None):")
    if batch:
        lines.append("    _pb = np.arange(T.shape[0]).reshape(-1, 1)")
    unpack_ctx(kernel, lines, "    ")
    lines.append(f"    with {_ERRSTATE}:")
    pad, inner = " " * 8, " " * 12
    lo, hi = bound(time_loop.lower), bound(time_loop.upper)
    if batch:
        lines += [f"{pad}_bplo = {lo}", f"{pad}_bphi = {hi}"]
        lo, hi = "int(np.min(_bplo))", "int(np.max(_bphi))"
    clip_partitions(lo, hi, lines, pad)
    lines.append(f"{pad}for {p} in range(_plo, _phi + 1):")
    lines.append(f"{inner}_lo = {bound(space_loop.lower)}")
    lines.append(f"{inner}_hi = {bound(space_loop.upper)}")
    lo, hi, lanes = "_lo", "_hi", ""
    if batch:
        lines.append(f"{inner}_lo_g = int(np.min(_lo))")
        lines.append(f"{inner}_hi_g = int(np.max(_hi))")
        lo, hi, lanes = "_lo_g", "_hi_g", ".reshape(1, -1)"
    lines += [
        f"{inner}if {lo} > {hi}:",
        f"{inner}    continue",
        f"{inner}{x} = np.arange({lo}, {hi} + 1){lanes}",
        f"{inner}{assign.var} = {div_py(assign.value)}",
    ]
    if batch:
        lines.append(
            f"{inner}_valid = ({x} >= _lo) & ({x} <= _hi) "
            f"& ({p} >= _bplo) & ({p} <= _bphi)"
        )
    cell = _VectorCell(kernel, batch=batch)
    cell.emit_to(kernel.body.cell, "_cell", lines, inner)
    store = ", ".join(kernel.dims)
    if batch:
        lines.append(f"{inner}_bstore(T, _pb, {store}, _valid, _cell)")
    else:
        lines.append(f"{inner}T[{store}] = _cell")
    lines.append("    return T")
    return "\n".join(lines)


def compile_vector_kernel(
    kernel: Kernel, func_name: str = "kernel"
):
    """Compile the vector source; returns ``(callable, source)``."""
    source = emit_vector_source(kernel, func_name)
    run = exec_source(source, f"<npkernel:{kernel.name}>", func_name)
    return run, source


def compile_batched_kernel(
    kernel: Kernel, func_name: str = "kernel"
):
    """Compile the lane-batched source into its callable."""
    source = emit_batched_source(kernel, func_name)
    return exec_source(source, f"<npbatched:{kernel.name}>", func_name)
