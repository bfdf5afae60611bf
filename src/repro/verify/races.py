"""Static parallel-safety analysis of compiled kernels.

The native backend parallelises two axes with OpenMP — the space loop
over a partition's cells (or, blocked, the blocks of one block
diagonal) and the batched entry's problem loop. Until this pass
existed, those claims were comments in :mod:`repro.ir.cbackend`; here
they are re-proved per kernel, in the same independent-verifier
discipline as :mod:`repro.verify.soundness`, and the emitter cannot
write a pragma on an axis without the licence its CONFIRMED verdict
grants.

Three obligations — two race axes and one order licence:

* **space** (``R-SPACE-WW`` / ``R-SPACE-RW``) — cells of one
  partition are mutually independent. Writes are disjoint because
  every cell stores to its own coordinates (the loop nest's store map
  is the identity — checked structurally, not assumed). Reads are
  proved strictly earlier: for every own-table read ``r(x)`` under
  its DNF path condition, the region ``path /\\ in-box(r(x)) /\\
  S(r(x)) >= S(x)`` must be infeasible (the access pass's ``A-RBW``
  region, re-derived here from symbolic read footprints).
* **batch** (``R-BATCH-OVERLAP``) — members of a batched launch write
  disjoint pad-stride slices. With every access inside the member's
  box and ``pad_d >= extent_d`` per dimension (which
  :func:`repro.runtime.batching.pack_group` establishes by padding to
  the group maxima), the row-major index is at most
  ``prod(pad) - 1``, so slice ``b`` never reaches slice ``b + 1``.
  The ``(B,)``-shaped bound/sequence/scalar columns must marshal
  read-only (``const`` in the batched parameter spec).
* **tile** (``R-TILE-ORDER``) — the blocked wavefront may replace
  the partition-by-partition sweep. CONFIRMED iff every own-table
  read in the cell body, guarded or not, is ``x + c`` with a constant
  ``c <= 0`` in every dimension and ``S(c) < 0``: a callee then lies
  in the reader's own block, lexicographically earlier (the row walk
  inside a block has computed it) and at a strictly earlier partition
  (a range launch's clip has kept it), or in a block whose indices
  are componentwise no larger and not all equal, i.e. on a strictly
  earlier block diagonal, and two blocks of one diagonal cannot reach
  each other. A sign check on the IR — no extents, no path
  conditions, no LP — so the verdict holds at every problem size. A
  refusal is not a hazard (it selects the untiled nest, the normal
  state of every kernel with a free or forward index), so it does
  not count against :attr:`ParallelismCertificate.ok` and raises no
  diagnostic.

Index components the affine abstraction cannot express (opaque
transition binders) are treated as *free*: a fresh variable spanning
the whole dimension extent stands in, which over-approximates the
footprint — a CONFIRMED verdict therefore holds for every value the
runtime can marshal. Free components do not break box membership
(state-typed values are dimension-valid by the marshalling contract,
the same stance the access pass takes).

A CONFIRMED verdict is worth a *licence* (:class:`SpaceLicence`,
:class:`BatchLicence`, :class:`TileLicence`), which the native
emitter's rewrites take as a required argument before they add a
pragma or change the order (:mod:`repro.ir.cbackend`). Only this
module grants one (:attr:`ParallelismCertificate.licences`);
constructing one anywhere else is a ``TypeError``.

The analyzer accepts one mutation knob (``pad_extents``) so tests
can perturb a proved-safe kernel into a racy one and watch the
matching rule fire.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..analysis.affine import Affine
from ..analysis.domain import Domain
from ..ir import expr as ir
from ..ir.kernel import Kernel
from ..polyhedral import loopast
from .access import _Analyzer
from .diagnostics import Diagnostic, Severity
from .exact import feasible

__all__ = [
    "CONFIRMED",
    "REFUSED",
    "NOT_APPLICABLE",
    "AxisVerdict",
    "BatchLicence",
    "Licence",
    "Licences",
    "ParallelismCertificate",
    "ReadFootprint",
    "SpaceLicence",
    "TileLicence",
    "analyze_parallelism",
    "collect_read_footprints",
    "licences",
    "own_read_offsets",
    "parallelism_certificate",
    "tile_licence",
]

#: Axis verdict states. ``CONFIRMED`` is the only state that permits
#: a pragma; ``NOT_APPLICABLE`` means the axis does not exist for the
#: kernel (e.g. no blocked wavefront over a rank-3 nest).
CONFIRMED = "confirmed"
REFUSED = "refused"
NOT_APPLICABLE = "not-applicable"

#: Nominal per-dimension extent for certificates of symbolic kernels
#: (mirrors lint's stand-in domain: extents are unknown until run
#: time; uniform-descent conclusions are box-size-independent).
NOMINAL_EXTENT = 12


@dataclass(frozen=True)
class AxisVerdict:
    """One parallel axis's verdict.

    ``witness`` is the worst-case point (variable assignment) behind
    a refusal, when the exact minimiser produced one; ``exact`` is
    False when only the LP relaxation supported the refusal (still a
    refusal — the verifier never parallelises on a maybe). ``reach``
    is carried by a CONFIRMED ``tile`` verdict only: per dimension,
    how far back the furthest own-table read looks (``max |c_d|`` over
    the constant offsets the verdict was proved from) — the halo a
    block needs around its own cells.
    """

    axis: str  # "space" | "batch" | "tile"
    status: str  # CONFIRMED | REFUSED | NOT_APPLICABLE
    detail: str
    rule: Optional[str] = None
    witness: Optional[Dict[str, int]] = None
    exact: bool = True
    reach: Optional[Tuple[int, ...]] = None

    @property
    def confirmed(self) -> bool:
        """May the emitter parallelise this axis?"""
        return self.status == CONFIRMED

    def to_dict(self) -> dict:
        """A JSON-safe record (the ``explain --json`` shape)."""
        record = {
            "axis": self.axis,
            "status": self.status,
            "detail": self.detail,
        }
        if self.rule is not None:
            record["rule"] = self.rule
        if self.witness is not None:
            record["witness"] = {
                k: int(v) for k, v in sorted(self.witness.items())
            }
        if not self.exact:
            record["exact"] = False
        if self.reach is not None:
            record["reach"] = list(self.reach)
        return record


#: The key to a licence's constructor; it never leaves this module.
_GRANT = object()


@dataclass(frozen=True)
class Licence:
    """What one CONFIRMED verdict of axis :attr:`AXIS` permits the
    emitter to write. Constructing one outside this module, or from
    any other verdict, raises ``TypeError``."""

    verdict: AxisVerdict
    grant: InitVar[object] = None

    AXIS = ""

    def __post_init__(self, grant) -> None:
        verdict = self.verdict
        if grant is not _GRANT or not (
            isinstance(verdict, AxisVerdict)
            and verdict.confirmed
            and verdict.axis == self.AXIS
        ):
            raise TypeError(
                f"a {type(self).__name__} is granted by "
                f"repro.verify.races from a CONFIRMED {self.AXIS!r} "
                f"verdict, never constructed"
            )


class SpaceLicence(Licence):
    """The cells of one partition may run in parallel
    (``R-SPACE-WW``/``R-SPACE-RW``): a pragma on the space loop."""

    AXIS = "space"


class BatchLicence(Licence):
    """The members of a batched launch may run in parallel
    (``R-BATCH-OVERLAP``): a pragma on the problem loop."""

    AXIS = "batch"


class TileLicence(Licence):
    """The blocked wavefront may replace the partition sweep
    (``R-TILE-ORDER``), with the blocks of one block diagonal in
    parallel."""

    AXIS = "tile"

    @property
    def reach(self) -> Tuple[int, ...]:
        """The verdict's reach: the halo a block needs."""
        return self.verdict.reach

    @property
    def result_only(self) -> bool:
        """May the blocked entry be launched without a table? It is
        while the reach fits the block edge, which caps a thread's
        private halo tile (``(T0 + h0) x (T1 + h1)`` cells of stack)
        at four blocks."""
        from ..ir.cbackend import TILE

        return all(h <= t for h, t in zip(self.reach, TILE))


class Licences(NamedTuple):
    """The licences one certificate grants (``None``: the axis is
    not CONFIRMED)."""

    space: Optional[SpaceLicence]
    batch: Optional[BatchLicence]
    tile: Optional[TileLicence]


def _grant(kind, verdict: AxisVerdict):
    return kind(verdict, _GRANT) if verdict.confirmed else None


@dataclass(frozen=True)
class ParallelismCertificate:
    """Per-axis parallel-safety verdicts for one kernel."""

    function: str
    schedule: str
    extents: Tuple[int, ...]
    space: AxisVerdict
    batch: AxisVerdict
    tile: AxisVerdict

    @property
    def axes(self) -> Tuple[AxisVerdict, ...]:
        """All three axis verdicts, in report order."""
        return self.race_axes + (self.tile,)

    @property
    def race_axes(self) -> Tuple[AxisVerdict, ...]:
        """The axes whose refusal withholds a pragma — a finding.
        The tile licence is not one: without it the kernel keeps the
        order these two were proved for."""
        return (self.space, self.batch)

    @cached_property
    def licences(self) -> Licences:
        """The licence of every CONFIRMED axis."""
        return Licences(
            _grant(SpaceLicence, self.space),
            _grant(BatchLicence, self.batch),
            _grant(TileLicence, self.tile),
        )

    @property
    def ok(self) -> bool:
        """No race axis refused (not-applicable axes do not count)."""
        return all(a.status != REFUSED for a in self.race_axes)

    @property
    def summary(self) -> str:
        """One-line verdict, e.g. ``space=confirmed batch=confirmed
        tile=refused[R-TILE-ORDER]`` (refused axes carry their
        rule)."""
        parts = []
        for axis in self.axes:
            text = f"{axis.axis}={axis.status}"
            if axis.status == REFUSED and axis.rule:
                text += f"[{axis.rule}]"
            parts.append(text)
        return " ".join(parts)

    def to_dict(self) -> dict:
        """A JSON-safe record (the ``explain --json`` shape)."""
        return {
            "function": self.function,
            "schedule": self.schedule,
            "ok": self.ok,
            "space": self.space.to_dict(),
            "batched": self.batch.to_dict(),
            "tile": self.tile.to_dict(),
        }

    def diagnostics(self, span=None) -> List[Diagnostic]:
        """The certificate as verifier findings.

        A refused axis is a *warning*, not an error: the kernel stays
        correct — the native build simply degrades that axis to
        serial. A fully clean certificate reports one ``R-PAR-CERT``
        info line (the positive certificate, like ``V-SCHED-CERT``).
        """
        findings: List[Diagnostic] = []
        for axis in self.race_axes:
            if axis.status != REFUSED:
                continue
            message = (
                f"parallel axis {axis.axis!r} refused: {axis.detail}"
            )
            if axis.witness:
                point = ", ".join(
                    f"{k}={v}" for k, v in sorted(axis.witness.items())
                )
                message += f" (witness {point})"
            findings.append(Diagnostic(
                Severity.WARNING, axis.rule or "R-SPACE-RW",
                message, span=span, function=self.function,
                exact=axis.exact,
            ))
        if not findings:
            findings.append(Diagnostic(
                Severity.INFO, "R-PAR-CERT",
                f"parallel-safety certificate: {self.summary}",
                span=span, function=self.function,
            ))
        return findings


@dataclass(frozen=True)
class ReadFootprint:
    """One own-table read's symbolic footprint.

    ``indices`` holds one affine per dimension, or ``None`` for a
    free (opaque-binder) component; ``dnf`` is the path condition the
    read sits under; ``var_bounds`` are the range-binder bounds in
    scope at the read.
    """

    indices: Tuple[Optional[Affine], ...]
    dnf: Tuple[Tuple[Affine, ...], ...]
    var_bounds: Tuple[Tuple[str, Tuple[int, int]], ...]


class _FootprintCollector(_Analyzer):
    """An access-analysis walk that records own-table read footprints
    instead of reporting diagnostics (bounds and dead arms are the
    access pass's business; this pass only needs the regions)."""

    def __init__(self, func, domain: Domain) -> None:
        super().__init__(func, domain, schedule=None, span_map={})
        self.reads: List[ReadFootprint] = []

    def _check_table_read(self, node: ir.TableRead, dnf) -> None:
        if node.table:
            return  # cross-table reads have no native rendering
        self.reads.append(ReadFootprint(
            tuple(self._affine_of(i) for i in node.indices),
            tuple(tuple(conj) for conj in dnf),
            tuple(sorted(self._var_bounds().items())),
        ))

    def _check_seq_read(self, node: ir.SeqRead, dnf) -> None:
        pass

    def _dead_arm(self, branch, select, label) -> None:
        pass


def collect_read_footprints(
    kernel: Kernel, domain: Domain
) -> List[ReadFootprint]:
    """Symbolic own-table read footprints of the lowered cell body."""
    collector = _FootprintCollector(kernel.func, domain)
    collector.walk(kernel.body.cell, [()])
    return collector.reads


def _nominal_domain(kernel: Kernel, extents=None) -> Domain:
    if extents is None:
        extents = tuple(NOMINAL_EXTENT + 1 for _ in kernel.dims)
    return Domain(kernel.dims, tuple(int(e) for e in extents))


def _identity_store(kernel: Kernel) -> bool:
    """Does every loop-nest leaf store to the cell's own coordinates?

    The emitters write ``T[x0, ..., xn]`` at the nest's ``Stmt``
    leaves with the dimension variables themselves; disjointness of
    same-partition writes follows because the identity map is
    injective. This re-checks the structural premise instead of
    trusting it: every dimension must be bound (a loop variable or an
    affine assign) on the path to each leaf, and each leaf must be a
    plain ``Stmt`` (any other store shape would void the argument).
    """
    dims = set(kernel.dims)

    def walk(nodes, bound) -> bool:
        for node in nodes:
            if isinstance(node, loopast.Loop):
                if not walk(node.body, bound | {node.var}):
                    return False
            elif isinstance(node, loopast.Assign):
                if not walk(node.body, bound | {node.var}):
                    return False
            elif isinstance(node, loopast.Guard):
                if not walk(node.body, bound):
                    return False
            elif isinstance(node, loopast.Stmt):
                if not dims <= bound:
                    return False
            else:
                return False
        return True

    bound = {kernel.nest.time_var}
    return walk(kernel.nest.roots, bound)


def _footprint_region(
    footprint: ReadFootprint,
    kernel: Kernel,
    extents: Mapping[str, int],
) -> Tuple[List[Affine], Dict[str, Tuple[int, int]], Affine]:
    """One footprint's in-box constraints, variable bounds and
    partition delta ``S(x) - S(r(x))``.

    Free components become fresh ``_free<k>`` variables spanning the
    whole dimension (a sound over-approximation of any marshalled
    value). The returned constraints do **not** include the path
    condition — callers conjoin per disjunct.
    """
    bounds: Dict[str, Tuple[int, int]] = dict(footprint.var_bounds)
    in_box: List[Affine] = []
    substitution: Dict[str, Affine] = {}
    for k, (dim, idx) in enumerate(
        zip(kernel.dims, footprint.indices)
    ):
        if idx is None:
            name = f"_free{k}"
            bounds[name] = (0, extents[dim] - 1)
            idx = Affine.variable(name)
        else:
            in_box.append(idx)  # idx >= 0
            in_box.append(
                Affine.constant(extents[dim] - 1) - idx
            )
        substitution[dim] = idx
    schedule = kernel.schedule.affine
    delta = schedule - schedule.substitute(substitution)
    return in_box, bounds, delta


def _space_axis(
    kernel: Kernel,
    domain: Domain,
    footprints: Sequence[ReadFootprint],
) -> AxisVerdict:
    """Intra-partition disjointness: the space-loop ``parallel for``."""
    if not _identity_store(kernel):
        return AxisVerdict(
            "space", REFUSED,
            "the loop nest's store map is not the identity on the "
            "cell coordinates; same-partition writes cannot be "
            "proved disjoint",
            rule="R-SPACE-WW",
        )
    extents = domain.extent_map()
    for footprint in footprints:
        in_box, bounds, delta = _footprint_region(
            footprint, kernel, extents
        )
        # A same-or-later-partition read: S(x) - S(r(x)) <= 0.
        late = Affine.constant(0) - delta
        lp_only = False
        for conj in footprint.dnf or ((),):
            result = feasible(
                tuple(conj) + tuple(in_box) + (late,),
                extents, bounds,
            )
            if result.empty:
                continue
            if result.exact:
                return AxisVerdict(
                    "space", REFUSED,
                    "a feasible in-box read is not ordered strictly "
                    "before its write by the schedule; two cells of "
                    "one partition would race",
                    rule="R-SPACE-RW",
                    witness=result.witness,
                )
            lp_only = True
        if lp_only:
            return AxisVerdict(
                "space", REFUSED,
                "the LP relaxation admits a same-partition read; "
                "refusing the pragma without an integer proof",
                rule="R-SPACE-RW", exact=False,
            )
    return AxisVerdict(
        "space", CONFIRMED,
        "identity store map and every own-table read proved "
        "strictly earlier under the schedule "
        f"({len(footprints)} footprint(s))",
    )


def _batch_axis(
    kernel: Kernel,
    domain: Domain,
    footprints: Sequence[ReadFootprint],
    pad_extents: Optional[Sequence[int]] = None,
) -> AxisVerdict:
    """Batched-entry slice disjointness: the problem-loop pragma."""
    extents = domain.extent_map()
    # Mutation knob / pack-time re-check: concrete pads must cover
    # the member extents, else slice b's top row aliases slice b+1.
    if pad_extents is not None:
        for dim, pad in zip(kernel.dims, pad_extents):
            if int(pad) < extents[dim]:
                return AxisVerdict(
                    "batch", REFUSED,
                    f"padded extent {int(pad)} of dimension "
                    f"{dim!r} is smaller than the member extent "
                    f"{extents[dim]}; member slices overlap",
                    rule="R-BATCH-OVERLAP",
                    witness={dim: int(pad)},
                )
    # (B,)-shaped context columns must marshal read-only: every
    # non-table pointer of the batched spec is const-qualified.
    from ..ir.cbackend import native_batched_param_spec

    try:
        spec = native_batched_param_spec(kernel)
    except Exception as err:  # no batched rendering: nothing to prove
        return AxisVerdict(
            "batch", NOT_APPLICABLE,
            f"no batched parameter spec: {err}",
        )
    for param in spec:
        if param.kind == "table":
            continue
        if "*" in param.ctext and "const" not in param.ctext:
            return AxisVerdict(
                "batch", REFUSED,
                f"batched parameter {param.name!r} is a mutable "
                f"pointer ({param.ctext}); shared columns must be "
                f"read-only inside the problem loop",
                rule="R-BATCH-OVERLAP",
            )
    # Every access must stay inside the member's own box: an escaping
    # affine index could land in a neighbour's pad-stride slice.
    lp_only = False
    for footprint in footprints:
        for k, (dim, idx) in enumerate(
            zip(kernel.dims, footprint.indices)
        ):
            if idx is None:
                continue  # free: dimension-valid by marshalling
            bounds = dict(footprint.var_bounds)
            for escape in (
                Affine.constant(-1) - idx,  # idx <= -1
                idx - Affine.constant(extents[dim]),  # idx >= extent
            ):
                for conj in footprint.dnf or ((),):
                    result = feasible(
                        tuple(conj) + (escape,), extents, bounds
                    )
                    if result.empty:
                        continue
                    if result.exact:
                        return AxisVerdict(
                            "batch", REFUSED,
                            f"a read's {dim!r} index can leave the "
                            f"member box on a feasible path; the "
                            f"linearised access may cross into a "
                            f"neighbouring member's slice",
                            rule="R-BATCH-OVERLAP",
                            witness=result.witness,
                        )
                    lp_only = True
    if lp_only:
        return AxisVerdict(
            "batch", REFUSED,
            "the LP relaxation admits an out-of-box access; "
            "refusing the problem-loop pragma without an integer "
            "proof",
            rule="R-BATCH-OVERLAP", exact=False,
        )
    return AxisVerdict(
        "batch", CONFIRMED,
        "every access stays inside the member box and the context "
        "columns marshal read-only; with pad_d >= extent_d (the "
        "pack_group invariant) the row-major index is bounded by "
        "prod(pad) - 1, so pad-stride slices are disjoint",
    )


def own_read_offsets(
    kernel: Kernel,
) -> List[Tuple[ir.TableRead, Tuple[Optional[int], ...]]]:
    """Every own-table read of the cell body, guarded or not, in walk
    order, with its offset per dimension: ``c`` where the index is
    ``dim + c``, ``None`` where it is not a constant step from the
    reader's own coordinate."""
    # The access pass's affine abstraction, with no binder in scope:
    # a transition or range binder abstracts to None / a foreign
    # variable. (The box only fills the constructor; the abstraction
    # reads no extents.)
    affine_of = _FootprintCollector(
        kernel.func, _nominal_domain(kernel)
    )._affine_of
    reads = []
    for node in ir.walk(kernel.body.cell):
        if not isinstance(node, ir.TableRead) or node.table:
            continue
        offsets = []
        for dim, index in zip(kernel.dims, node.indices):
            affine = affine_of(index)
            steps = affine is not None and affine.coeffs == ((dim, 1),)
            offsets.append(affine.const if steps else None)
        reads.append((node, tuple(offsets)))
    return reads


def _tile_axis(kernel: Kernel) -> AxisVerdict:
    """May a blocked wavefront replace the partition sweep?

    Judged on *every* own-table read of the cell body — not on the
    footprints, which drop arms that are dead on the analysis box and
    would tie the verdict to its extents.
    """
    if kernel.rank != 2 or kernel.nest.time_loop is None:
        return AxisVerdict(
            "tile", NOT_APPLICABLE,
            "no blocked wavefront: blocks are cut from a 2-D nest "
            "under a partition-major time loop",
        )
    if not _identity_store(kernel):
        return AxisVerdict(
            "tile", REFUSED,
            "the loop nest's store map is not the identity on the "
            "cell coordinates; a block's writes cannot be confined "
            "to its box",
            rule="R-TILE-ORDER", witness={"store": 0},
        )
    coefficients = kernel.schedule.coefficients
    reads = own_read_offsets(kernel)
    reach = [0] * kernel.rank
    for n, (read, offsets) in enumerate(reads):
        text = f"{kernel.name}({', '.join(map(str, read.indices))})"
        for k, (dim, offset) in enumerate(zip(kernel.dims, offsets)):
            if offset is None:
                return AxisVerdict(
                    "tile", REFUSED,
                    f"read {text}: the {dim!r} index is not "
                    f"{dim} + constant, so the callee's block is not "
                    f"fixed relative to the reader's",
                    rule="R-TILE-ORDER", witness={"read": n, "dim": k},
                )
            if offset > 0:
                return AxisVerdict(
                    "tile", REFUSED,
                    f"read {text} looks forward in {dim!r} (offset "
                    f"+{offset}); its callee can sit in a block on a "
                    f"later block diagonal",
                    rule="R-TILE-ORDER",
                    witness={"read": n, "dim": k, "offset": offset},
                )
        delta = -sum(a * c for a, c in zip(coefficients, offsets))
        if delta <= 0:
            return AxisVerdict(
                "tile", REFUSED,
                f"read {text} is not strictly earlier under the "
                f"schedule (S(x) - S(callee) = {delta}); inside a "
                f"block its callee would not be computed first",
                rule="R-TILE-ORDER",
                witness={"read": n, "delta": delta},
            )
        reach = [max(h, -c) for h, c in zip(reach, offsets)]
    return AxisVerdict(
        "tile", CONFIRMED,
        f"all {len(reads)} own-table read(s) are x + c with c <= 0 "
        f"in every dimension and S(c) < 0: a callee is in the "
        f"reader's block, lexicographically earlier and at an earlier "
        f"partition, or in a block on an earlier block diagonal, at "
        f"every problem size",
        reach=tuple(reach),
    )


def analyze_parallelism(
    kernel: Kernel,
    extents: Optional[Sequence[int]] = None,
    pad_extents: Optional[Sequence[int]] = None,
) -> ParallelismCertificate:
    """Prove (or refuse) each parallel axis of ``kernel``.

    ``extents`` picks the analysis box (nominal stand-in when
    omitted, matching lint). ``pad_extents`` exists for mutation
    testing — it overrides the pack-time padded extents so tests can
    turn a proved-safe kernel racy and assert the rule fires.
    """
    domain = _nominal_domain(kernel, extents)
    footprints = collect_read_footprints(kernel, domain)
    return ParallelismCertificate(
        function=kernel.name,
        schedule=str(kernel.schedule),
        extents=domain.extents,
        space=_space_axis(kernel, domain, footprints),
        batch=_batch_axis(
            kernel, domain, footprints, pad_extents=pad_extents
        ),
        tile=_tile_axis(kernel),
    )


def parallelism_certificate(
    kernel: Kernel, extents: Optional[Sequence[int]] = None
) -> ParallelismCertificate:
    """Memoised :func:`analyze_parallelism` (no mutation knobs).

    The native backend consults the certificate on every emission and
    a lane-batched map group shares one kernel across every member,
    so the analysis runs once per (kernel instance, box), in
    :attr:`Kernel.memo`.
    """
    key = tuple(int(e) for e in extents) if extents is not None else None
    cache = kernel.memo.setdefault("parallelism_certs", {})
    hit = cache.get(key)
    if hit is None:
        hit = analyze_parallelism(kernel, extents)
        cache[key] = hit
    return hit


def licences(kernel: Kernel) -> Licences:
    """The licences of ``kernel``'s memoised certificate: what the
    native emitter may write for it."""
    return parallelism_certificate(kernel).licences


def tile_licence(kernel: Kernel) -> Optional[TileLicence]:
    """``licences(kernel).tile`` without proving the space and batch
    axes. The tile verdict reads no extents, so binding a library (the
    param spec, :class:`~repro.runtime.native.NativeRun`) skips the
    footprint analysis a decoded kernel would otherwise redo. Once a
    certificate is memoised it is read instead, so the licence never
    differs from the one the emitter read."""
    if None in kernel.memo.get("parallelism_certs", {}):
        return licences(kernel).tile
    if "tile_licence" not in kernel.memo:
        kernel.memo["tile_licence"] = _grant(
            TileLicence, _tile_axis(kernel)
        )
    return kernel.memo["tile_licence"]
