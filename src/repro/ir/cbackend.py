"""Native C backend: emit portable C99 for the system ``cc``.

Where :mod:`repro.ir.cuda` renders the kernel as ``__global__`` text
for inspection, this module emits a *compilable* C99 translation unit
of the same synthesised program (Figure 9's loop nest): the time loop
over partitions and the space loop over a partition's cells both live
in C, so a whole run — every partition, every cell — is one shared
library call instead of millions of interpreted Python steps. The
cell expression is printed by the C dialect of the one cell printer
(:mod:`repro.ir.cell`), shared with the CUDA emitter; only the
surrounding function differs.

``repro_<name>`` reads and writes the caller's table, in one of two
orders picked by the ``tile`` axis of the kernel's parallel-safety
certificate (:func:`native_entries` is the one place that decides):

* **blocked wavefront** (``R-TILE-ORDER`` CONFIRMED: every own-table
  read looks backward in every dimension — Smith-Waterman, edit
  distance) — the box is cut into :data:`TILE` blocks, block
  anti-diagonals run in order under *one* ``#pragma omp parallel``,
  the blocks of a diagonal are shared out by ``#pragma omp for`` (its
  implicit barrier is the only synchronisation), and inside a block
  runs the kernel's own scattering nest over the block's box
  ``[lo_<dim>, hi_<dim>]``, serially. A problem no larger than one
  tile is one block: one region, one barrier. The same entry has a
  *result-only* mode (``_res`` non-null, no table): every thread
  keeps one private halo tile, block edges travel through two
  boundary strips, and ``max``/``min``/one coordinate is folded in C
  — see :func:`_emit_tiled_body`.
* **partition sweep** (everything else) — Figure 9 literally: the
  time loop over the whole box, ``#pragma omp parallel for`` on the
  first space loop of each partition.

Either way the table is the only storage: Section 4.8's sliding
window is a shared-memory device and stays in the CUDA text
(:func:`repro.ir.cuda.emit_cuda`); on a CPU the tile is the resident
window. The entry takes ``(table, part_lo, part_hi, bounds, context
arrays...)`` with a fixed parameter order described by
:func:`native_param_spec` — :mod:`repro.runtime.native` builds the
matching ``ctypes`` call from the same spec — and computes exactly
the cells whose partition lies in ``[part_lo, part_hi]``.

The translation unit's second and last entry point serves the
lane-batched ``map`` path (the native mirror of the vector batcher
in :mod:`repro.ir.npbackend`):

* ``repro_<name>_batched`` — runs a whole same-kernel map group as
  one call over a padded ``(B, d0max, ...)`` table with ``(B, 1)``
  bounds, ``(B, Lmax)`` sequence buffers and length-``B`` scalar
  columns (:func:`native_batched_param_spec`). Where the NumPy
  batcher needs explicit validity masks (`_bread`/`_bgather`/
  `_bstore`) because every lane executes every global partition, the
  C entry simply runs each member's *own* loop nest over its own
  bounds inside an outer problem loop — no masking, no clamping, and
  bitwise-identical cells to the per-problem entry. The problem loop
  is the parallel axis; with OpenMP it carries ``#pragma omp parallel
  for`` *when* :mod:`repro.verify.races` has proved the members'
  padded slices disjoint (``R-BATCH-OVERLAP``) — race freedom is a
  per-kernel certificate, not an assumption — and the serial build of
  the identical loop produces identical bits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..analysis.affine import Affine
from ..lang.errors import CodegenError
from ..lang.types import IntType
from ..polyhedral import loopast
from ..polyhedral.codegen import generate_loops
from . import expr as ir
from .cell import CCell, prelude
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


@dataclass(frozen=True)
class Entries:
    """What a kernel's per-problem entry ``repro_<name>`` is (the
    batched entry is always the whole-box sweep)."""

    #: ``repro_<name>`` is the blocked wavefront, and this is its tile
    #: verdict's reach — the halo of a result-only launch (``None``:
    #: the partition sweep).
    reach: Optional[Tuple[int, ...]] = None

    @property
    def tiled(self) -> bool:
        """Is ``repro_<name>`` the blocked wavefront?"""
        return self.reach is not None

    @property
    def result_only(self) -> bool:
        """May ``repro_<name>`` be launched without a table? Every
        blocked entry has the mode; it is *used* while the reach fits
        the block edge, which caps a thread's private halo tile
        (``(T0 + h0) x (T1 + h1)`` cells of stack) at four blocks."""
        return self.tiled and all(
            h <= t for h, t in zip(self.reach, TILE)
        )


def native_entries(kernel: Kernel, certificate=None) -> Entries:
    """The one answer to "which order and modes does ``repro_<name>``
    have".

    The emitter, :class:`repro.runtime.native.NativeRun`, both
    eligibility sentences and ``explain --json`` read it, so none can
    describe an entry the others do not emit or load. ``certificate``
    is the kernel's
    :class:`~repro.verify.races.ParallelismCertificate` (the memoised
    one when omitted): a CONFIRMED ``tile`` axis selects the blocked
    wavefront, anything else the partition sweep.
    """
    if certificate is None:
        from ..verify.races import parallelism_certificate

        certificate = parallelism_certificate(kernel)
    tile = certificate.tile
    return Entries(reach=tile.reach if tile.confirmed else None)


#: ``reduce=`` spellings a result-only launch folds in C, as the
#: ``_red`` codes of the emitted entry (0 reads the ``_at`` cell).
REDUCTIONS = {None: 0, "max": 1, "min": 2}


def result_scratch_cells(reach, extents) -> int:
    """How many table cells of scratch a result-only launch needs,
    given the tile verdict's ``reach`` and the table's extents.

    The result cell, one partial per block row, the top strip (the
    last ``h0`` rows of every column) and the left strips (the last
    ``h1`` columns of every table row, plus ``h0`` corner rows per
    block row) — laid out in that order by :func:`_emit_tiled_body`.
    Sized for *any* block shape, since the dispatcher does not see
    the tile a translation unit was built with: a launch has at most
    one block row per table row, which bounds the partials by ``n0``
    and the left strips' rows by ``n0 + n0 * h0``.
    """
    (h0, h1), (n0, n1) = reach, extents
    return 1 + n0 + h0 * n1 + h1 * n0 * (1 + h0)


def _tile_nest(kernel: Kernel) -> loopast.LoopNest:
    """The kernel's own scattering nest over one block's box
    ``[lo_<dim>, hi_<dim>]`` instead of ``[0, ub_<dim>]``."""
    return generate_loops(
        kernel.dims,
        [Affine.variable(f"hi_{d}") for d in kernel.dims],
        kernel.schedule.coefficients,
        time_var=kernel.nest.time_var,
        lower_bounds=[Affine.variable(f"lo_{d}") for d in kernel.dims],
    )


def _scalar_kinds(kernel: Kernel) -> dict:
    kinds = {}
    for param in kernel.func.calling_params:
        kinds[param.name] = (
            "scalar_int"
            if isinstance(param.type, IntType)
            else "scalar_f64"
        )
    return kinds


def native_param_spec(kernel: Kernel, certificate=None) -> List[Param]:
    """The (ordered) formal parameters of the per-problem entry.

    The emitter renders the C declarations from this list and the
    ``ctypes`` dispatcher marshals arguments from the same list, so
    the two can never disagree on the calling convention. A
    blocked-wavefront kernel's list closes with the result-only
    parameters (all zero on a table launch).
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
    params += _shared_model_params(kernel, refs)
    if native_entries(kernel, certificate).tiled:
        params.append(Param("_res", f"{vt}*", "result"))
        params.append(Param("_red", "long", "reduce"))
        params += [Param(f"_at_{d}", "long", "at") for d in kernel.dims]
    return params


def _shared_model_params(kernel: Kernel, refs: dict) -> List[Param]:
    """Matrix and HMM parameters, identical in the per-problem and
    batched entries: every member of a map group shares one scoring
    model (the batcher groups by model identity), so these marshal
    once, not per problem."""
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
    the batcher's stacked buffers — ``(B, 1)`` bounds, ``(B, Lmax)``
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
    params += _shared_model_params(kernel, refs)
    return params


def native_eligibility(kernel: Kernel) -> Eligibility:
    """Why (or why not) this kernel can use the native backend.

    The emitter handles every nest shape and rank the polyhedral
    generator produces; the hard exclusions are cross-table reads
    (mutual-group members compile through the scalar group module of
    :mod:`repro.ir.pybackend`) and any cell construct the C dialect
    of :mod:`repro.ir.cell` cannot render.
    """
    for node in ir.walk(kernel.body.cell):
        if isinstance(node, ir.TableRead) and node.table:
            return Eligibility(
                False, "cross-table-read",
                f"kernel {kernel.name!r} reads the table of "
                f"{node.table!r}; mutual groups use the group backend",
            )
    try:
        emit_native_source(kernel)
    except CodegenError as err:
        return Eligibility(
            False, "codegen",
            f"kernel {kernel.name!r} has no C99 rendering: {err}",
        )
    entries = native_entries(kernel)
    shape = ""
    if entries.tiled:
        shape = (
            f"; blocked wavefront, tile "
            f"{'×'.join(str(t) for t in TILE)}"
            + (", result-only launches" if entries.result_only else "")
        )
    return Eligibility(
        True, "ok",
        f"kernel {kernel.name!r} compiles to portable C99 "
        f"(whole-run dispatch, partition loop in C{shape})",
    )


def batched_eligibility(kernel: Kernel) -> Eligibility:
    """Why (or why not) a map group of this kernel can run as one
    batched native launch.

    The batched entry reuses the per-problem body verbatim (each
    member runs its own nest over its own bounds), so it is eligible
    exactly when the per-problem native path is — with one named
    nuance: a kernel whose per-problem entry is blocked batches
    through the *plain* whole-box body (``ok-plain-body``), because
    blocks are a single-problem device: the batch's parallel axis is
    the problem loop, and the batched table's member slices are
    written in full regardless.
    """
    base = native_eligibility(kernel)
    if not base.ok:
        return base
    if native_entries(kernel).tiled:
        return Eligibility(
            True, "ok-plain-body",
            f"kernel {kernel.name!r} batches natively with the plain "
            f"(unblocked) body; the blocked wavefront parallelises "
            f"one problem, a batched launch parallelises over "
            f"problems",
        )
    return Eligibility(
        True, "ok-batched",
        f"kernel {kernel.name!r} runs whole map groups as one native "
        f"launch: outer problem loop over the padded (B, ...) table, "
        f"each member's own loop nest inside",
    )


#: Thread-control exports, one pair per translation unit. Serial
#: builds keep the symbols (so the dispatcher can always resolve
#: them) but make them report a fixed single thread.
_THREAD_HELPERS = """\
#ifdef _OPENMP
void omp_set_num_threads(int);
int omp_get_max_threads(void);
void repro_set_threads(long n) {
  if (n >= 1) omp_set_num_threads((int) n);
}
long repro_max_threads(void) { return omp_get_max_threads(); }
#else
void repro_set_threads(long n) { (void) n; }
long repro_max_threads(void) { return 1; }
#endif
"""


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


def emit_native_source(
    kernel: Kernel,
    openmp: bool = False,
    certificate=None,
    tile: Optional[Tuple[int, int]] = None,
) -> str:
    """Emit the complete C99 translation unit for one kernel.

    ``openmp=True`` requests the pragmas — over the blocks of a block
    diagonal (blocked wavefront) or the first space loop of each
    partition (partition sweep), and over the batched entry's problem
    loop — but a pragma is only *emitted* for an axis the
    parallel-safety verifier CONFIRMED (:mod:`repro.verify.races`
    re-proves intra-partition disjointness, batched-slice
    disjointness and the block order per kernel; the emitter no
    longer trusts the schedule's independence claim as a comment).
    An axis without a certificate degrades to serial emission — the
    TU is simply pragma-free there, so its content hash differs from
    the proved TU's and the build cache keeps the variants apart.
    The pragmas are inert unless the library is built with
    ``-fopenmp``.

    Which order ``repro_<name>`` runs in is :func:`native_entries`'
    decision, serial builds included: the blocked wavefront is an
    order, not a threading choice.

    ``certificate`` overrides the verifier's own judgement (tests use
    it to force refusals); when ``None``, the memoised certificate is
    computed on demand. ``tile`` overrides :data:`TILE` — a test seam
    like the race analyser's mutation knobs, so block-edge clipping
    and multi-block order can be exercised at small extents.
    """
    # A serial TU emitted on the verifier's own judgement carries no
    # header comment, as before there was an order to certify.
    annotate = bool(openmp) or certificate is not None
    if certificate is None:
        from ..verify.races import parallelism_certificate

        certificate = parallelism_certificate(kernel)
    entries = native_entries(kernel, certificate)

    def _unused_casts(params, body_lines, pad="  "):
        # A shared model marshals every column of its context whether
        # or not this kernel's equations read them all; silence the
        # (correct) -Wunused-parameter so -Wall -Wextra -Werror and
        # sanitizer builds stay noise-free.
        text = "\n".join(body_lines)
        return [
            f"{pad}(void) {p.name};"
            for p in params
            if not re.search(rf"\b{re.escape(p.name)}\b", text)
        ]
    space_omp = bool(openmp) and certificate.space.confirmed
    batch_omp = bool(openmp) and certificate.batch.confirmed
    vt = value_ctype(kernel)
    params = native_param_spec(kernel, certificate)
    decl = ", ".join(f"{p.ctext} {p.name}" for p in params)
    lines: List[str] = [
        f"/* native kernel: {kernel.name} "
        f"(schedule {kernel.schedule}) */",
        prelude("c"),
        _THREAD_HELPERS,
    ]
    if annotate:
        lines.insert(1, f"/* parallel-safety: {certificate.summary} */")
    body: List[str] = []
    if entries.tiled:
        lines.append(
            _RESULT_HELPERS.format(
                vt=vt,
                nan=" || acc != acc" if vt == "double" else "",
                nanv=" || v != v" if vt == "double" else "",
            )
        )
        _emit_tiled_body(
            kernel, body, vt, openmp=bool(openmp), tile=tile or TILE,
            reach=entries.reach,
        )
    else:
        _emit_body(kernel, body, vt, openmp=space_omp)
    lines.append(f"void {entry_symbol(kernel)}({decl}) {{")
    lines.extend(_unused_casts(params, body))
    lines.extend(body)
    lines.append("}")
    lines.append("")
    _emit_batched_entry(
        kernel, lines, vt, openmp=batch_omp,
        unused_casts=_unused_casts,
    )
    lines.append("")
    return "\n".join(lines)


def _emit_batched_entry(
    kernel: Kernel,
    lines: List[str],
    vt: str,
    openmp: bool,
    unused_casts=None,
) -> None:
    """Emit ``repro_<name>_batched``: a whole map group in one call.

    An outer loop over the ``B`` problems; inside it, locals shadow
    the per-problem entry's formals (``farr`` points at this member's
    padded slice, ``ub_<dim>``/``seq_<s>``/``arg_<a>`` are this
    member's row of the stacked context), so the body below is the
    *same* emission as the per-problem entry, only linearising with
    the padded extents. Each member therefore computes bitwise the
    cells the per-problem loop would — at any thread count, since the
    parallel axis is the problem loop and the per-member nest stays
    serial.
    """
    params = native_batched_param_spec(kernel)
    decl = ", ".join(f"{p.ctext} {p.name}" for p in params)
    pad = "  "
    body: List[str] = []
    tsz = " * ".join(f"pad_{d}" for d in kernel.dims)
    body.append(f"{pad}const long _tsz = {tsz};")
    if openmp:
        body.append(
            f"{pad}#pragma omp parallel for schedule(static)"
        )
    body.append(f"{pad}for (long _b = 0; _b < nprob; _b++) {{")
    inner = pad + "  "
    body.append(f"{inner}{vt}* farr = btab + _b * _tsz;")
    for d in kernel.dims:
        body.append(f"{inner}const long ub_{d} = b_ub_{d}[_b];")
    refs = kernel.referenced_names()
    for s in sorted(refs["seqs"]):
        body.append(
            f"{inner}const long* seq_{s} = "
            f"b_seq_{s} + _b * b_seq_{s}_cols;"
        )
    scalar_kinds = _scalar_kinds(kernel)
    for a in sorted(refs["scalars"]):
        ctext = (
            "long"
            if scalar_kinds.get(a, "scalar_f64") == "scalar_int"
            else "double"
        )
        body.append(f"{inner}const {ctext} arg_{a} = b_arg_{a}[_b];")
    cell = CCell(
        kernel, strides=tuple(f"pad_{d}" for d in kernel.dims)
    )
    _emit_body(kernel, body, vt, openmp=False, cell=cell, pad=inner)
    body.append(f"{pad}}}")
    lines.append(
        f"void {entry_symbol(kernel, batched=True)}({decl}) {{"
    )
    if unused_casts is not None:
        lines.extend(unused_casts(params, body))
    lines.extend(body)
    lines.append("}")


def _emit_tiled_body(
    kernel: Kernel,
    lines: List[str],
    vt: str,
    openmp: bool,
    tile: Tuple[int, int],
    reach: Tuple[int, int],
) -> None:
    """The blocked wavefront: block anti-diagonals in order, the
    blocks of one diagonal in parallel, the kernel's own nest inside
    each block.

    ``openmp`` may be passed unconditionally: this body is only
    emitted under a CONFIRMED ``tile`` axis, which is the proof that
    two blocks of one diagonal never reach each other. Every thread
    of the one region walks the diagonal loop; ``omp for`` shares out
    a diagonal's blocks and its implicit barrier is the only
    synchronisation — ``nb_0 + nb_1 - 1`` rounds per launch, one for
    a problem that fits a single tile.

    The nest is emitted once and addresses ``farr[i * _ts + j]``;
    ``(farr, _ts)`` is chosen per block. A table launch points them
    at the caller's table and its row stride. A *result-only* launch
    (``_res`` non-null) points them at the thread's private halo tile
    — the block's box plus ``reach`` rows above and columns to the
    left — so nothing the size of the table exists. ``R-TILE-ORDER``'s
    offsets are the licence: a cell reads at most ``reach`` cells
    back, so the halo is all a block needs of its neighbours; it
    travels through the strips of :data:`_RESULT_HELPERS`, laid out
    in the caller's scratch as :func:`result_scratch_cells` sizes it.
    """
    (d0, d1), (t0, t1), (h0, h1) = kernel.dims, tile, reach
    pad = "  "
    lines.append(f"{pad}const long _nb_{d0} = (ub_{d0} + {t0}) / {t0};")
    lines.append(f"{pad}const long _nb_{d1} = (ub_{d1} + {t1}) / {t1};")
    lines += [
        f"{pad}{vt}* const _tab = farr;",
        f"{pad}const long _tw = lmin(ub_{d1} + 1, {t1}) + {h1};",
        f"{pad}repro_strips _s = {{_res, 0, 0, {h0}, {h1}, "
        f"lmin(ub_{d0} + 1, {t0}) + {h0}, ub_{d1} + 1, "
        f"_nb_{d0}, _nb_{d1}, _red, _at_{d0}, _at_{d1}}};",
        f"{pad}if (_res) {{",
        f"{pad}  _s.top = _res + 1 + _nb_{d0};",
        f"{pad}  _s.left = _s.top + {h0} * (ub_{d1} + 1);",
        f"{pad}}}",
    ]
    if openmp:
        lines.append(f"{pad}#pragma omp parallel")
    lines.append(f"{pad}{{")
    lines.append(f"{pad}{vt} _tile[_res ? _s.th * _tw : 1];")
    lowest, highest = (
        ("-INFINITY", "INFINITY") if vt == "double"
        else ("LONG_MIN", "LONG_MAX")
    )
    lines.append(f"{pad}{vt} _amax = {lowest}, _amin = {highest};")
    lines.append(
        f"{pad}for (long _bd = 0; _bd <= _nb_{d0} + _nb_{d1} - 2; "
        f"_bd++) {{"
    )
    mid = pad * 2
    lines.append(f"{mid}const long _b0 = lmax(0, _bd - _nb_{d1} + 1);")
    lines.append(f"{mid}const long _b1 = lmin(_nb_{d0} - 1, _bd);")
    if openmp:
        lines.append(f"{mid}#pragma omp for schedule(static)")
    lines.append(f"{mid}for (long _b = _b0; _b <= _b1; _b++) {{")
    inner = pad * 3
    for dim, edge, block in ((d0, t0, "_b"), (d1, t1, "(_bd - _b)")):
        lines.append(f"{inner}const long lo_{dim} = {block} * {edge};")
        lines.append(
            f"{inner}const long hi_{dim} = "
            f"lmin(ub_{dim}, lo_{dim} + {edge - 1});"
        )
    block = (
        f"farr, _ts, _b, _bd - _b, lo_{d0}, hi_{d0}, lo_{d1}, hi_{d1}"
    )
    acc = "_red == 1 ? _amax : _amin"
    lines += [
        f"{inner}{vt}* farr = _tab;",
        f"{inner}long _ts = ub_{d1} + 1;",
        f"{inner}if (_res) {{",
        f"{inner}  _ts = _tw;",
        f"{inner}  farr = _tile - (lo_{d0} - {h0}) * _ts "
        f"- (lo_{d1} - {h1});",
        f"{inner}  repro_block(&_s, 0, {block}, 0);",
        f"{inner}}}",
    ]
    _emit_body(
        kernel, lines, vt, openmp=False,
        cell=CCell(kernel, strides=(None, "_ts")),
        pad=inner, nest=_tile_nest(kernel), fold=True,
    )
    lines.append(
        f"{inner}if (_res) repro_block(&_s, 1, {block}, {acc});"
    )
    lines.append(f"{mid}}}")
    lines.append(f"{pad}}}")
    lines.append(f"{pad}}}")


def _emit_body(
    kernel: Kernel,
    lines: List[str],
    vt: str,
    openmp: bool,
    cell: Optional[CCell] = None,
    pad: str = "  ",
    nest: Optional[loopast.LoopNest] = None,
    fold: bool = False,
) -> None:
    """The scattering nest with its time loop clipped to
    ``[part_lo, part_hi]``: ``kernel.nest`` over the whole box, or a
    block's ``nest`` over ``[lo_<dim>, hi_<dim>]``. ``fold`` keeps
    the running ``_amax``/``_amin`` of every cell stored."""
    if cell is None:
        cell = CCell(kernel)
    if nest is None:
        nest = kernel.nest
    time_loop = nest.time_loop
    if time_loop is None:
        _emit_nest(
            kernel, nest.roots, cell, lines, pad, vt,
            fold=False, openmp=openmp, space_seen=False,
        )
        return
    low = time_loop.lower.c_text("l")
    high = time_loop.upper.c_text("l")
    tv = time_loop.var
    lines.append(f"{pad}long _plo = {low};")
    lines.append(f"{pad}long _phi = {high};")
    lines.append(f"{pad}if (part_lo > _plo) _plo = part_lo;")
    lines.append(f"{pad}if (part_hi < _phi) _phi = part_hi;")
    lines.append(
        f"{pad}for (long {tv} = _plo; {tv} <= _phi; {tv}++) {{"
    )
    _emit_nest(
        kernel, time_loop.body, cell, lines, pad + "  ", vt,
        fold=fold, openmp=openmp, space_seen=False,
    )
    lines.append(f"{pad}}}")


def _emit_nest(
    kernel: Kernel,
    nodes,
    cell: CCell,
    lines: List[str],
    pad: str,
    vt: str,
    fold: bool,
    openmp: bool,
    space_seen: bool,
) -> None:
    for node in nodes:
        if isinstance(node, loopast.Loop):
            low = node.lower.c_text("l")
            high = node.upper.c_text("l")
            if openmp and not space_seen:
                # OpenMP's canonical loop form rejects function calls
                # (our lmin/lmax helpers) in the controlling predicate:
                # hoist the bounds into loop-invariant temporaries.
                lo_t, hi_t = cell.fresh(), cell.fresh()
                lines.append(f"{pad}const long {lo_t} = {low};")
                lines.append(f"{pad}const long {hi_t} = {high};")
                lines.append(f"{pad}#pragma omp parallel for")
                low, high = lo_t, hi_t
            lines.append(
                f"{pad}for (long {node.var} = {low}; "
                f"{node.var} <= {high}; {node.var}++) {{"
            )
            _emit_nest(
                kernel, node.body, cell, lines, pad + "  ", vt,
                fold, openmp, space_seen=True,
            )
            lines.append(pad + "}")
        elif isinstance(node, loopast.Assign):
            lines.append(
                f"{pad}long {node.var} = {node.value.c_text()};"
            )
            _emit_nest(
                kernel, node.body, cell, lines, pad, vt,
                fold, openmp, space_seen,
            )
        elif isinstance(node, loopast.Guard):
            lines.append(
                f"{pad}if (({loopast.affine_c_text(node.expr)}) % "
                f"{node.divisor} == 0) {{"
            )
            _emit_nest(
                kernel, node.body, cell, lines, pad + "  ", vt,
                fold, openmp, space_seen,
            )
            lines.append(pad + "}")
        elif isinstance(node, loopast.Stmt):
            target = cell.fresh()
            lines.append(f"{pad}{vt} {target};")
            cell.emit_to(kernel.body.cell, target, lines, pad)
            store = cell.address(kernel.dims)
            lines.append(f"{pad}{store} = {target};")
            if fold:
                # ndarray.max()/min(): a NaN cell wins from then on.
                nan = (
                    f" || {target} != {target}" if vt == "double" else ""
                )
                lines += [
                    f"{pad}if ({target} > _amax{nan}) _amax = {target};",
                    f"{pad}if ({target} < _amin{nan}) _amin = {target};",
                ]
        else:
            raise CodegenError(f"unknown nest node {node!r}")
