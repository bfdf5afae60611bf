"""Native C backend: emit portable C99 for the system ``cc``.

Where :mod:`repro.ir.cuda` renders the kernel as ``__global__`` text
for inspection, this module emits a *compilable* C99 translation unit
of the same synthesised program: the time loop over partitions and
the space loop over a partition's cells both live in C, so a whole
run — every partition, every cell — is one shared library call.

The TU is the kernel's own loop nest (Figure 9) under a chain of
rewrites, printed by the one C nest printer
(:meth:`repro.ir.cell.CCell.print_nest`, which the CUDA text shares):

* :func:`sweep` — the partition sweep, Figure 9 literally: the time
  loop over the whole box, clipped to ``[part_lo, part_hi]``;
* :func:`walk` — a tile-licensed kernel's serial order: rows outer,
  the unit-stride dimension inner, each row clipped to ``[part_lo,
  part_hi]``, the left neighbour carried in a register;
* :func:`tile` — the blocked wavefront: the box cut into :data:`TILE`
  blocks, block anti-diagonals in order, the walk over each block's
  box ``[lo_<dim>, hi_<dim>]`` inside;
  :func:`result_only` lays out its storage — the caller's table, or
  (``_res`` non-null, no table) a private halo tile per thread, block
  edges travelling through two boundary strips and
  ``max``/``min``/one coordinate folded in C;
* :func:`batch` — ``repro_<name>_batched``'s problem loop over a
  padded map group, each member running the per-problem entry's
  serial order (walk or sweep) over its own bounds: no masking, no
  clamping, bitwise the per-problem cells;
* :func:`parallel` — an OpenMP pragma on the first space loop of each
  partition, on the problem loop, or over the blocks of each block
  diagonal.

A rewrite that adds a pragma or changes the order takes its licence
as a required argument of its own type — ``parallel(loop,
SpaceLicence)``, ``parallel(problem_loop, BatchLicence)``,
``tile(kernel, TileLicence, edges)``, ``walk(kernel, TileLicence,
box, ...)``, ``result_only(tiled, TileLicence)`` — and only
:mod:`repro.verify.races` grants one, from a CONFIRMED verdict.
Anything else is a ``TypeError`` at the call, so an unproved pragma
or block order cannot be written at all.
:func:`emit_native_source` reads the kernel's licences once and
composes.

Either order keeps the table the only storage: Section 4.8's sliding
window is a shared-memory device and stays in the CUDA text; on a
CPU the tile is the resident window. The entry takes ``(table,
part_lo, part_hi, bounds, context arrays...)`` in the order of
:func:`native_param_spec` — :mod:`repro.runtime.native` builds the
matching ``ctypes`` call from the same spec — and computes exactly
the cells whose partition lies in ``[part_lo, part_hi]``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from ..analysis.affine import Affine
from ..lang.types import IntType
from ..polyhedral import loopast
from ..verify import races
from . import expr as ir
from .cell import Block, CCell, Parallel, Store, for_head, prelude
from .kernel import Kernel
from .npbackend import Eligibility

#: Block edge per dimension of the blocked wavefront. A constant, not
#: a tuning dimension: edges from 64 to 256 measure within 10 % of
#: each other at 2048x2048 (docs/PERFORMANCE.md), and a 128x128 int64
#: block is 128 KB — resident in L2 while its three look-backs are
#: re-read.
TILE = (128, 128)


@dataclass(frozen=True)
class Param:
    """One formal parameter of the emitted entry points.

    ``kind`` tells the runtime how to marshal the argument:

    ==============  ====================================================
    ``table``       the DP table buffer (``<vt>*``)
    ``part``        partition-range clamp (``long``; sentinel when None)
    ``ub``          inclusive dimension bound (``long``, from ``ctx``)
    ``i64[]``       ``const long*`` int64 array from ``ctx[key]``
    ``i32[]``       ``const int*`` int32 array from ``ctx[key]``
    ``f64[]``       ``const double*`` float64 array from ``ctx[key]``
    ``scalar_int``  ``long`` scalar from ``ctx[key]``
    ``scalar_f64``  ``double`` scalar from ``ctx[key]``
    ``cols``        trailing dimension of the 2-D array at ``ctx[key]``
    ``nprob``       batch size ``B`` (``long``, from ``table.shape[0]``)
    ``pad``         one padded table extent (``long``, from
                    ``table.shape[1 + k]`` in dimension order)
    ``result``      result-only scratch (``<vt>*``; null = fill the
                    table), cell 0 receives the value
    ``reduce``      what a result-only launch returns (``long``, a
                    :data:`REDUCTIONS` code; 0 = the ``at`` cell)
    ``at``          one coordinate of that cell (``long``)
    ==============  ====================================================

    ``nprob``/``pad`` appear only in
    :func:`native_batched_param_spec`; the last three close the
    per-problem spec of a blocked-wavefront kernel.
    """

    name: str
    ctext: str
    kind: str
    key: Optional[str] = None


def value_ctype(kernel: Kernel) -> str:
    """C element type of the DP table (mirrors
    :meth:`repro.runtime.engine.Engine._table_for`: int kernels fill
    int64 tables, everything else float64)."""
    return "long" if kernel.body.return_kind == "int" else "double"


def entry_symbol(kernel: Kernel, batched: bool = False) -> str:
    """Exported symbol name of an entry point."""
    return f"repro_{kernel.name}{'_batched' if batched else ''}"


#: ``reduce=`` spellings a result-only launch folds in C, as the
#: ``_red`` codes of the emitted entry (0 reads the ``_at`` cell).
REDUCTIONS = {None: 0, "max": 1, "min": 2}


def result_scratch_cells(reach, extents) -> int:
    """How many table cells of scratch a result-only launch needs,
    given the tile verdict's ``reach`` and the table's extents.

    The result cell, one partial per block row, the top strip (the
    last ``h0`` rows of every column) and the left strips (the last
    ``h1`` columns of every table row, plus ``h0`` corner rows per
    block row) — laid out in that order by :func:`result_only`.
    Sized for *any* block shape, since the dispatcher does not see
    the tile a translation unit was built with: a launch has at most
    one block row per table row, which bounds the partials by ``n0``
    and the left strips' rows by ``n0 + n0 * h0``.
    """
    (h0, h1), (n0, n1) = reach, extents
    return 1 + n0 + h0 * n1 + h1 * n0 * (1 + h0)


def _scalar_kinds(kernel: Kernel) -> dict:
    kinds = {}
    for param in kernel.func.calling_params:
        kinds[param.name] = (
            "scalar_int"
            if isinstance(param.type, IntType)
            else "scalar_f64"
        )
    return kinds


def native_param_spec(kernel: Kernel) -> List[Param]:
    """The (ordered) formal parameters of the per-problem entry.

    The emitter renders the C declarations from this list and the
    ``ctypes`` dispatcher marshals arguments from the same list, so
    the two can never disagree on the calling convention. A
    blocked-wavefront kernel's list closes with the result-only
    parameters (all zero on a table launch).

    A blocked-wavefront kernel's TU declares every pointer formal of
    both entries ``restrict`` (the spec's ``ctext`` stays as listed).
    That is sound because no written buffer is ever passed twice: the
    table (or, in a result-only launch, the ``_res`` scratch, with a
    null table) is the only buffer an entry writes, and every other
    pointer is a read-only context array — two of which may share a
    buffer (one sequence bound twice), which ``restrict`` allows of
    what is not modified.
    """
    vt = value_ctype(kernel)
    params: List[Param] = [
        Param("farr", f"{vt}*", "table"),
        Param("part_lo", "long", "part"),
        Param("part_hi", "long", "part"),
    ]
    for d in kernel.dims:
        params.append(Param(f"ub_{d}", "long", "ub", f"ub_{d}"))
    refs = kernel.referenced_names()
    for s in sorted(refs["seqs"]):
        params.append(
            Param(f"seq_{s}", "const long*", "i64[]", f"seq_{s}")
        )
    scalar_kinds = _scalar_kinds(kernel)
    for a in sorted(refs["scalars"]):
        kind = scalar_kinds.get(a, "scalar_f64")
        ctext = "long" if kind == "scalar_int" else "double"
        params.append(Param(f"arg_{a}", ctext, kind, f"arg_{a}"))
    params += model_params(kernel, refs)
    if races.tile_licence(kernel) is not None:
        params.append(Param("_res", f"{vt}*", "result"))
        params.append(Param("_red", "long", "reduce"))
        params += [Param(f"_at_{d}", "long", "at") for d in kernel.dims]
    return params


def model_params(kernel: Kernel, refs: dict) -> List[Param]:
    """Matrix and HMM parameters, identical in the per-problem and
    batched entries (and spelled the same in the CUDA text): every
    member of a map group shares one scoring model (the batch plan
    groups by model identity), so these marshal once, not per
    problem."""
    params: List[Param] = []
    for m in sorted(refs["matrices"]):
        params += [
            Param(f"mat_{m}", "const long*", "i64[]", f"mat_{m}"),
            Param(f"rowidx_{m}", "const long*", "i64[]", f"rowidx_{m}"),
            Param(f"colidx_{m}", "const long*", "i64[]", f"colidx_{m}"),
            Param(f"{m}_cols", "long", "cols", f"mat_{m}"),
        ]
    for h in sorted(refs["hmms"]):
        hp = f"hmm_{h}"
        params += [
            Param(f"{hp}_isstart", "const int*", "i32[]", f"{hp}_isstart"),
            Param(f"{hp}_isend", "const int*", "i32[]", f"{hp}_isend"),
            Param(f"{hp}_emis", "const double*", "f64[]", f"{hp}_emis"),
            Param(f"{hp}_symidx", "const long*", "i64[]", f"{hp}_symidx"),
            Param(f"{h}_nsym", "long", "cols", f"{hp}_emis"),
            Param(f"{hp}_tprob", "const double*", "f64[]", f"{hp}_tprob"),
            Param(f"{hp}_tsrc", "const long*", "i64[]", f"{hp}_tsrc"),
            Param(f"{hp}_ttgt", "const long*", "i64[]", f"{hp}_ttgt"),
            Param(f"{hp}_inoff", "const long*", "i64[]", f"{hp}_inoff"),
            Param(f"{hp}_inids", "const long*", "i64[]", f"{hp}_inids"),
            Param(f"{hp}_outoff", "const long*", "i64[]", f"{hp}_outoff"),
            Param(f"{hp}_outids", "const long*", "i64[]", f"{hp}_outids"),
        ]
    return params


def native_batched_param_spec(kernel: Kernel) -> List[Param]:
    """The (ordered) formal parameters of the batched entry point.

    The padded ``(B, d0max, ...)`` table arrives with its batch size
    and padded extents (``nprob``/``pad`` kinds, both read off
    ``table.shape`` by the dispatcher); per-problem context arrives as
    ``pack_group``'s stacked buffers — ``(B, 1)`` bounds, ``(B, Lmax)``
    zero-padded sequences with their stride, ``(B, 1)`` scalar
    columns — keyed by the *member* context names so the dispatcher
    reads straight from ``pack_group``'s ctx. Shared matrices and
    HMMs marshal exactly as in :func:`native_param_spec`.
    """
    vt = value_ctype(kernel)
    params: List[Param] = [
        Param("btab", f"{vt}*", "table"),
        Param("nprob", "long", "nprob"),
        Param("part_lo", "long", "part"),
        Param("part_hi", "long", "part"),
    ]
    for d in kernel.dims:
        params.append(Param(f"pad_{d}", "long", "pad"))
    for d in kernel.dims:
        params.append(
            Param(f"b_ub_{d}", "const long*", "i64[]", f"ub_{d}")
        )
    refs = kernel.referenced_names()
    for s in sorted(refs["seqs"]):
        params += [
            Param(f"b_seq_{s}", "const long*", "i64[]", f"seq_{s}"),
            Param(f"b_seq_{s}_cols", "long", "cols", f"seq_{s}"),
        ]
    scalar_kinds = _scalar_kinds(kernel)
    for a in sorted(refs["scalars"]):
        if scalar_kinds.get(a, "scalar_f64") == "scalar_int":
            params.append(
                Param(f"b_arg_{a}", "const long*", "i64[]", f"arg_{a}")
            )
        else:
            params.append(
                Param(f"b_arg_{a}", "const double*", "f64[]", f"arg_{a}")
            )
    params += model_params(kernel, refs)
    return params


def native_eligibility(kernel: Kernel) -> Eligibility:
    """Why (or why not) this kernel can use the native backend.

    The rewrites handle every nest shape and rank the polyhedral
    generator produces, and the C dialect of :mod:`repro.ir.cell`
    renders every cell construct but one: a cross-table read
    (mutual-group members compile through the scalar group module of
    :mod:`repro.ir.pybackend`). A map group batches through the same
    TU whenever this verdict is ok.
    """
    for node in ir.walk(kernel.body.cell):
        if isinstance(node, ir.TableRead) and node.table:
            return Eligibility(
                False, "cross-table-read",
                f"kernel {kernel.name!r} reads the table of "
                f"{node.table!r}; mutual groups use the group backend",
            )
    licence = races.tile_licence(kernel)
    shape = ""
    if licence is not None:
        shape = (
            f"; blocked wavefront, tile "
            f"{'×'.join(str(t) for t in TILE)}"
            + (", result-only launches" if licence.result_only else "")
        )
    return Eligibility(
        True, "ok",
        f"kernel {kernel.name!r} compiles to portable C99 "
        f"(whole-run dispatch, partition loop in C{shape})",
    )


#: Thread-control exports, one pair per translation unit. The cap is
#: the library's own: ``repro_set_threads`` writes it (``n < 1``
#: clears it) and every parallel region opens with :data:`_TEAM`, so
#: it holds on whichever thread launches (``omp_set_num_threads``
#: would set only the calling thread's control variable, and a
#: service worker's launch would still open a team on every core).
#: Serial builds keep the symbols (so the dispatcher can always
#: resolve them) but make them report a fixed single thread.
_THREAD_HELPERS = """\
#ifdef _OPENMP
int omp_get_max_threads(void);
static long repro_cap;
void repro_set_threads(long n) {
  repro_cap = n >= 1 ? n : 0;
}
long repro_max_threads(void) {
  return repro_cap ? repro_cap : omp_get_max_threads();
}
#else
void repro_set_threads(long n) { (void) n; }
long repro_max_threads(void) { return 1; }
#endif
"""

#: The team-size clause of every ``omp parallel``.
_TEAM = "num_threads(repro_max_threads())"


#: The result-only half of a blocked entry, typed by the table's
#: element (``{vt}``): everything a block does besides its cells.
#: ``repro_block(s, 0, ...)`` loads the block's halo before its nest
#: runs; ``repro_block(s, 1, ...)`` stores its last rows and columns
#: afterwards and takes the block's share of the result. One
#: ``noinline, cold`` function: the entry's cell body is emitted once
#: and what stands beside it is priced in ``cc`` time — a function
#: costs the compiler ~25 ms whatever its size, ``cold`` (optimise
#: for size) takes ~10 ms off that and ~1 % of a 2048x2048 launch
#: (docs/PERFORMANCE.md prices the alternatives).
#:
#: ``farr`` is the thread's halo tile shifted so that the global
#: ``(i, j)`` address it. ``top`` holds the last ``h0`` rows of every
#: column; ``left`` holds, per block row, the last ``h1`` columns of
#: its ``th`` tile rows — halo rows included: the corner a diagonal
#: look-back needs, which ``top`` no longer has once the block
#: above-left's right neighbour overwrote it. A strip segment is
#: written by one block and read by its neighbour a block diagonal
#: later, on the far side of the barrier. ``acc`` is the running
#: ``max``/``min`` of every cell the thread has computed so far;
#: ``res[1 + b0]`` collects it per block row, written by one block
#: per diagonal, and the launch's last block folds the rows into
#: ``res[0]``. The comparison is ``ndarray.max()``/``min()``'s: a
#: NaN wins from then on (the ``{nan}``/``{nanv}`` clauses are left out
#: for integer tables, where a self-comparison is a ``-Wtautological-compare``).
_RESULT_HELPERS = """\
#define LONG_MAX __LONG_MAX__
#define LONG_MIN (-__LONG_MAX__ - 1L)
typedef __SIZE_TYPE__ size_t;
void* memcpy(void*, const void*, size_t);
typedef struct {{
  {vt}* res; {vt}* top; {vt}* left;
  long h0, h1, th, cols, nb0, nb1, red, at0, at1;
}} repro_strips;
static __attribute__((noinline, cold)) void repro_block(
    const repro_strips* s, int out, {vt}* farr, long ts, long b0, long b1,
    long lo0, long hi0, long lo1, long hi1, {vt} acc) {{
  const long r0 = b0 > 0 ? lo0 - s->h0 : lo0;
  if (out ? b0 < s->nb0 - 1 : b0 > 0) {{
    {vt}* tile = farr + (out ? hi0 - s->h0 + 1 : r0) * ts + lo1;
    {vt}* strip = s->top + lo1;
    for (long r = 0; r < s->h0; r++, tile += ts, strip += s->cols)
      memcpy(out ? strip : tile, out ? tile : strip,
             (size_t) (hi1 - lo1 + 1) * sizeof({vt}));
  }}
  if (out ? b1 < s->nb1 - 1 : b1 > 0) {{
    {vt}* tile = farr + r0 * ts + (out ? hi1 - s->h1 + 1 : lo1 - s->h1);
    {vt}* strip = s->left + (b0 * s->th + r0 - (lo0 - s->h0)) * s->h1;
    for (long r = r0; r <= hi0; r++, tile += ts, strip += s->h1)
      memcpy(out ? strip : tile, out ? tile : strip,
             (size_t) s->h1 * sizeof({vt}));
  }}
  if (!out) return;
  if (s->red) {{
    {vt}* const row = s->res + 1 + b0;
    if (b1 == 0 || (s->red == 1 ? acc > *row : acc < *row){nan})
      *row = acc;
    if (b0 == s->nb0 - 1 && b1 == s->nb1 - 1) {{
      /* the last diagonal's only block: every row has reported */
      acc = s->res[1];
      for (long r = 2; r <= s->nb0; r++) {{
        const {vt} v = s->res[r];
        if ((s->red == 1 ? v > acc : v < acc){nanv}) acc = v;
      }}
      s->res[0] = acc;
    }}
  }} else if (lo0 <= s->at0 && s->at0 <= hi0
             && lo1 <= s->at1 && s->at1 <= hi1)
    s->res[0] = farr[s->at0 * ts + s->at1];
}}
"""


def _require(licence, kind):
    if not isinstance(licence, kind):
        raise TypeError(
            f"needs a {kind.__name__} granted by repro.verify.races, "
            f"not {licence!r}"
        )


def sweep(nest: loopast.LoopNest) -> tuple:
    """The partition sweep, Figure 9 literally: ``nest``'s time loop
    over the whole box, clipped to ``[part_lo, part_hi]`` (a nest
    without one runs as generated)."""
    time = nest.time_loop
    if time is None:
        return nest.roots
    return (
        f"long _plo = {time.lower.c_text('l')};",
        f"long _phi = {time.upper.c_text('l')};",
        "if (part_lo > _plo) _plo = part_lo;",
        "if (part_hi < _phi) _phi = part_hi;",
        Block(for_head(time.var, "_plo", "_phi"), time.body),
    )


def _partition_loops(nest: loopast.LoopNest, rewrite) -> loopast.LoopNest:
    """``nest`` with ``rewrite`` applied to the first space loops of
    each partition: under the time loop (at the root of a nest
    without one), through pins and guards."""

    def descend(nodes):
        return tuple(
            rewrite(node) if isinstance(node, loopast.Loop)
            else replace(node, body=descend(node.body))
            if isinstance(node, (loopast.Assign, loopast.Guard))
            else node
            for node in nodes
        )

    time = nest.time_loop
    if time is None:
        return replace(nest, roots=descend(nest.roots))
    return replace(nest, roots=(replace(time, body=descend(time.body)),))


def batch(kernel: Kernel, licence=None) -> tuple:
    """``repro_<name>_batched``'s body, ``(setup, problem loop)``.

    Inside the loop over the ``B`` problems, locals shadow the
    per-problem entry's formals (``farr`` points at this member's
    padded slice, ``ub_<dim>``/``seq_<s>``/``arg_<a>`` are this
    member's row of the stacked context), so the body is the
    per-problem entry's serial order over the member's whole box,
    linearising with the padded extents: the :func:`walk` under the
    kernel's :class:`~repro.verify.races.TileLicence` ``licence``,
    else the :func:`sweep`. Each member therefore computes bitwise the
    cells the per-problem entry would — at any thread count, since
    the parallel axis is the problem loop and the per-member nest
    stays serial.
    """
    vt = value_ctype(kernel)
    restrict = " restrict" if licence is not None else ""
    member = [f"{vt}*{restrict} farr = btab + _b * _tsz;"]
    member += [f"const long ub_{d} = b_ub_{d}[_b];" for d in kernel.dims]
    refs = kernel.referenced_names()
    member += [
        f"const long* seq_{s} = b_seq_{s} + _b * b_seq_{s}_cols;"
        for s in sorted(refs["seqs"])
    ]
    scalar_kinds = _scalar_kinds(kernel)
    for a in sorted(refs["scalars"]):
        ctext = (
            "long"
            if scalar_kinds.get(a, "scalar_f64") == "scalar_int"
            else "double"
        )
        member.append(f"const {ctext} arg_{a} = b_arg_{a}[_b];")
    tsz = " * ".join(f"pad_{d}" for d in kernel.dims)
    if licence is None:
        nest = sweep(kernel.nest)
    else:
        box = [(Affine.constant(0), Affine.variable(f"ub_{d}"))
               for d in kernel.dims]
        nest = walk(kernel, licence, box, f"pad_{kernel.dims[1]}")
    return (
        f"const long _tsz = {tsz};",
        Block("for (long _b = 0; _b < nprob; _b++)", (*member, *nest)),
    )


def walk(kernel: Kernel, licence, box, stride: str, then=()) -> tuple:
    """A tile-licensed kernel's serial nest over ``box`` (per
    dimension an :class:`Affine` ``(low, high)``), clipped to
    ``[part_lo, part_hi]``, as a **row walk**: rows ``d0`` outer,
    ``d1`` innermost at unit stride.

    The clip is a per-row ``d1`` segment solved from ``S = a·d0 +
    b·d1``: ``ceild``/``floord`` bounds when ``b > 0``, flipped when
    ``b < 0``; when ``b = 0`` a whole row is in or out. ``licence``
    (``R-TILE-ORDER``) is what makes the order sound: every callee
    ``x + c`` has ``c ≤ 0`` in both dimensions and ``S(c) < 0``, so it
    is lexicographically earlier — this walk computed it already, or
    (the clip cut it) a launch of an earlier range did. Each cell is
    the same expression over the same inputs as in the partition
    sweep, so the values are bitwise the sweep's.

    The own-table read at ``(0, -1)`` is the cell just stored, so it
    is carried in the local ``_left`` instead of re-read: loaded from
    ``farr`` (row stride ``stride``) only at a segment's first cell,
    and only when that cell has a left neighbour (``d1 > 0``; in a
    halo tile the ``h1 ≥ 1`` columns left of the block hold it). Each
    leaf stores its cell, sets ``_left`` and runs ``then`` (lines in
    which ``{0}`` is the stored value).
    """
    _require(licence, races.TileLicence)
    (d0, d1), (a, b) = kernel.dims, kernel.schedule.coefficients
    (lo0, hi0), (lo1, hi1) = box
    smin = lo0.scale(a) if a >= 0 else hi0.scale(a)
    smax = hi0.scale(a) if a >= 0 else lo0.scale(a)
    smin += lo1.scale(b) if b >= 0 else hi1.scale(b)
    smax += hi1.scale(b) if b >= 0 else lo1.scale(b)
    row, plo, phi = (
        Affine.variable(d0).scale(a), Affine.variable("_plo"),
        Affine.variable("_phi"),
    )
    text = loopast.affine_c_text

    def bound(helper, numerator, divisor):
        if divisor == 1:
            return text(numerator)
        return f"{helper}({text(numerator)}, {divisor})"

    first, last = text(lo1), text(hi1)
    if b > 0:
        first = f"lmax({first}, {bound('ceild', plo - row, b)})"
        last = f"lmin({last}, {bound('floord', phi - row, b)})"
    elif b < 0:
        first = f"lmax({first}, {bound('ceild', row - phi, -b)})"
        last = f"lmin({last}, {bound('floord', row - plo, -b)})"
    left = tuple(dict.fromkeys(
        read for read, offsets in races.own_read_offsets(kernel)
        if offsets == (0, -1)
    ))
    segment = [
        f"const long _first = {first};",
        f"const long _last = {last};",
    ]
    if left:
        load = CCell(kernel, strides=(None, stride)).address(
            (d0, "_first - 1")
        )
        segment.append(
            f"{value_ctype(kernel)} _left = _first > 0 && "
            f"_first <= _last ? {load} : 0;"
        )
    leaf = Store(
        ("_left = {0};",) * bool(left) + tuple(then),
        tuple((read, "_left") for read in left),
    )
    segment.append(Block(for_head(d1, "_first", "_last"), (leaf,)))
    if b == 0:
        segment = [Block(
            f"if (_plo <= {text(row)} && {text(row)} <= _phi)",
            tuple(segment),
        )]
    return (
        f"const long _plo = lmax({text(smin)}, part_lo);",
        f"const long _phi = lmin({text(smax)}, part_hi);",
        Block(
            for_head(d0, text(lo0), text(hi0)), tuple(segment)
        ),
    )


@dataclass(frozen=True)
class _Tiled:
    """A :func:`tile`-d kernel, before :func:`result_only` lays out
    its storage. ``blocks`` is the licence to run the blocks of one
    block diagonal in parallel, once :func:`parallel` added it."""

    kernel: Kernel
    edges: Tuple[int, int]
    blocks: Optional[races.TileLicence] = None


def tile(kernel: Kernel, licence, edges: Tuple[int, int]) -> _Tiled:
    """The blocked wavefront of ``kernel``'s nest, which ``licence``
    (the kernel's :class:`~repro.verify.races.TileLicence`) permits.

    The box is cut into ``edges`` blocks; block anti-diagonals run in
    order and inside a block the :func:`walk` runs over the block's
    box, serially, row by row. ``R-TILE-ORDER`` is the proof that
    every read's callee sits in the reader's block, lexicographically
    earlier, or on an earlier block diagonal, and that two blocks of
    one diagonal never reach each other.
    """
    _require(licence, races.TileLicence)
    return _Tiled(kernel, tuple(edges))


def result_only(tiled: _Tiled, licence) -> tuple:
    """The blocked entry's body, with its result-only mode.

    The nest addresses ``farr[i * _ts + j]``, with ``(farr, _ts)``
    chosen per block. A table launch points them at the caller's
    table and its row stride. A *result-only* launch (``_res``
    non-null) points them at the thread's private halo tile — the
    block's box plus ``reach`` rows above and columns to the left —
    so nothing the size of the table exists. ``licence``'s reach is
    the halo: a cell reads at most ``reach`` cells back. The halo
    travels through the strips of :data:`_RESULT_HELPERS`, laid out in
    the caller's scratch as :func:`result_scratch_cells` sizes it, and
    every stored cell is folded into the running ``_amax``/``_amin``.
    """
    _require(licence, races.TileLicence)
    kernel = tiled.kernel
    vt = value_ctype(kernel)
    (d0, d1), (t0, t1), (h0, h1) = kernel.dims, tiled.edges, licence.reach
    # ndarray.max()/min(): a NaN cell wins from then on.
    nan = " || {0} != {0}" if vt == "double" else ""
    lowest, highest = (
        ("-INFINITY", "INFINITY") if vt == "double"
        else ("LONG_MIN", "LONG_MAX")
    )
    fold = (
        f"if ({{0}} > _amax{nan}) _amax = {{0}};",
        f"if ({{0}} < _amin{nan}) _amin = {{0}};",
    )
    block = (
        f"farr, _ts, _b, _bd - _b, lo_{d0}, hi_{d0}, lo_{d1}, hi_{d1}"
    )
    bounds = []
    for dim, edge, index in ((d0, t0, "_b"), (d1, t1, "(_bd - _b)")):
        bounds += [
            f"const long lo_{dim} = {index} * {edge};",
            f"const long hi_{dim} = lmin(ub_{dim}, lo_{dim} + {edge - 1});",
        ]
    box = [(Affine.variable(f"lo_{d}"), Affine.variable(f"hi_{d}"))
           for d in kernel.dims]
    blocks = Block("for (long _b = _b0; _b <= _b1; _b++)", (
        *bounds,
        f"{vt}* restrict farr = _tab;",
        f"long _ts = ub_{d1} + 1;",
        Block("if (_res)", (
            "_ts = _tw;",
            f"farr = _tile - (lo_{d0} - {h0}) * _ts - (lo_{d1} - {h1});",
            f"repro_block(&_s, 0, {block}, 0);",
        )),
        *walk(kernel, licence, box, "_ts", fold),
        f"if (_res) repro_block(&_s, 1, {block}, "
        f"_red == 1 ? _amax : _amin);",
    ))
    diagonals = Block(
        f"for (long _bd = 0; _bd <= _nb_{d0} + _nb_{d1} - 2; _bd++)",
        (
            f"const long _b0 = lmax(0, _bd - _nb_{d1} + 1);",
            f"const long _b1 = lmin(_nb_{d0} - 1, _bd);",
            blocks if tiled.blocks is None
            else Parallel(blocks, "for schedule(static)", tiled.blocks),
        ),
    )
    region = Block("", (
        f"{vt} _tile[_res ? _s.th * _tw : 1];",
        f"{vt} _amax = {lowest}, _amin = {highest};",
        diagonals,
    ))
    return (
        f"const long _nb_{d0} = (ub_{d0} + {t0}) / {t0};",
        f"const long _nb_{d1} = (ub_{d1} + {t1}) / {t1};",
        f"{vt}* const _tab = farr;",
        f"const long _tw = lmin(ub_{d1} + 1, {t1}) + {h1};",
        f"repro_strips _s = {{_res, 0, 0, {h0}, {h1}, "
        f"lmin(ub_{d0} + 1, {t0}) + {h0}, ub_{d1} + 1, "
        f"_nb_{d0}, _nb_{d1}, _red, _at_{d0}, _at_{d1}}};",
        Block("if (_res)", (
            f"_s.top = _res + 1 + _nb_{d0};",
            f"_s.left = _s.top + {h0} * (ub_{d1} + 1);",
        )),
        region if tiled.blocks is None
        else Parallel(region, f"parallel {_TEAM}", tiled.blocks),
    )


def parallel(node, licence):
    """``node`` run in parallel, as ``licence`` permits.

    A partition's space loop (a nest ``Loop``) takes a
    :class:`~repro.verify.races.SpaceLicence`; :func:`batch`'s problem
    loop a :class:`~repro.verify.races.BatchLicence`; a :func:`tile`-d
    kernel its :class:`~repro.verify.races.TileLicence`, for one
    region round the diagonal loop whose ``omp for`` shares out the
    blocks of a diagonal — its implicit barrier is the only
    synchronisation, ``nb_0 + nb_1 - 1`` rounds per launch. Any other
    pairing is a ``TypeError``: there is no serial fallback.
    """
    if isinstance(licence, races.SpaceLicence) and isinstance(
        node, loopast.Loop
    ):
        return Parallel(node, f"parallel for {_TEAM}", licence)
    if isinstance(licence, races.BatchLicence) and isinstance(node, Block):
        return Parallel(
            node, f"parallel for schedule(static) {_TEAM}", licence
        )
    if isinstance(licence, races.TileLicence) and isinstance(node, _Tiled):
        return replace(node, blocks=licence)
    raise TypeError(
        f"parallel() needs the licence of this loop's own axis, granted "
        f"by repro.verify.races; got {licence!r} for a "
        f"{type(node).__name__}"
    )


#: :func:`tile`, for the caller whose ``tile=`` parameter shadows it.
_tile = tile


def emit_native_source(
    kernel: Kernel,
    openmp: bool = False,
    tile: Optional[Tuple[int, int]] = None,
) -> str:
    """Emit the complete C99 translation unit for one kernel.

    A composition of the rewrites above under the kernel's licences
    (:func:`repro.verify.races.licences`), read once. A tile licence
    selects the blocked wavefront — an order, not a threading
    choice, so serial builds take it too — and its absence the
    partition sweep. ``openmp=True`` adds every pragma the licences
    permit; without it they are dropped and the TU is pragma-free, so
    its content hash differs and the build cache keeps the variants
    apart. The pragmas are inert unless the library is built with
    ``-fopenmp``.

    ``tile`` overrides :data:`TILE` — a test seam like the race
    analyser's mutation knobs, so block-edge clipping and multi-block
    order can be exercised at small extents.
    """
    certificate = races.parallelism_certificate(kernel)
    licences = certificate.licences
    # Without OpenMP the pragma licences go; the order stays.
    pragmas = licences if openmp else races.Licences(None, None, None)
    vt = value_ctype(kernel)
    lines: List[str] = [
        f"/* native kernel: {kernel.name} "
        f"(schedule {kernel.schedule}) */",
        prelude("c"),
        _THREAD_HELPERS,
    ]
    if openmp:
        lines.insert(1, f"/* parallel-safety: {certificate.summary} */")
    if licences.tile is not None:
        lines.append(
            _RESULT_HELPERS.format(
                vt=vt,
                nan=" || acc != acc" if vt == "double" else "",
                nanv=" || v != v" if vt == "double" else "",
            )
        )
        blocked = _tile(kernel, licences.tile, tile or TILE)
        if pragmas.tile is not None:
            blocked = parallel(blocked, pragmas.tile)
        body = result_only(blocked, licences.tile)
        cell = CCell(kernel, strides=(None, "_ts"))
    else:
        nest = kernel.nest
        if pragmas.space is not None:
            nest = _partition_loops(
                nest, lambda loop: parallel(loop, pragmas.space)
            )
        body, cell = sweep(nest), CCell(kernel)
    restrict = licences.tile is not None
    _entry(lines, entry_symbol(kernel), native_param_spec(kernel),
           body, cell, vt, restrict)
    setup, loop = batch(kernel, licences.tile)
    if pragmas.batch is not None:
        loop = parallel(loop, pragmas.batch)
    strides = tuple(f"pad_{d}" for d in kernel.dims)
    _entry(lines, entry_symbol(kernel, batched=True),
           native_batched_param_spec(kernel), (setup, loop),
           CCell(kernel, strides=strides), vt, restrict)
    return "\n".join(lines)


def _entry(lines, symbol, params, body, cell, vt, restrict) -> None:
    """Append ``void <symbol>(<params>) { <body> }``, every pointer
    formal ``restrict`` when ``restrict`` is set."""
    text: List[str] = []
    cell.print_nest(body, vt, text, "  ")
    printed = "\n".join(text)
    # A shared model marshals every column of its context whether or
    # not this kernel's equations read them all; silence the
    # (correct) -Wunused-parameter so -Wall -Wextra -Werror and
    # sanitizer builds stay noise-free.
    unused = [
        f"  (void) {p.name};"
        for p in params
        if not re.search(rf"\b{re.escape(p.name)}\b", printed)
    ]
    decl = ", ".join(
        f"{p.ctext}{' restrict' if restrict and '*' in p.ctext else ''} "
        f"{p.name}"
        for p in params
    )
    lines += [f"void {symbol}({decl}) {{", *unused, *text, "}", ""]
