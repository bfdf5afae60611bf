"""Lane-batched ``map`` execution: many problems, one vectorised sweep.

A ``map`` workload compiles every problem against the same few
kernels; executing them one launch at a time leaves the vector
backend's lanes half-idle and pays the Python interpreter overhead
per problem. This module packs same-kernel problems into a single
table with a leading problem axis — ``(B, d0max, d1max)``, padded to
the largest member domain — and runs the whole batch through the
batched codegen variant (:func:`repro.ir.npbackend.emit_batched_source`)
as *one* sweep: the functional analogue of the paper's inter-task
parallelism (Section 6.1), where small problems share the device
instead of queueing behind each other.

Grouping (:func:`plan_batches`) is deliberately conservative: two
problems batch only when they share the *same compiled kernel object*
(same function, schedule, probability mode and backend — the engine's
kernel cache already canonicalises this) on a batchable backend, and
the same model/matrix binding objects (those context arrays are
shared across the batch, not packed per problem). Per-problem
quantities — domain bounds, sequences, scalar arguments — are packed
as ``(B, 1)`` columns and padded ``(B, Lmax)`` rows; the generated
kernel masks every store with the problem's own validity, so padding
cells are never written (the unpack step slices each problem back out
of its row).

Two rungs can run a packed group, mirroring the per-problem ladder:

* **native-batched** — the compiled backend's batched entry point
  (:func:`repro.ir.cbackend.native_batched_param_spec`): one
  ``ctypes`` call runs every member's own loop nest, optionally with
  OpenMP across members — emitted only when the parallel-safety
  analyzer proved the members' padded slices disjoint
  (:mod:`repro.verify.races`, rule ``R-BATCH-OVERLAP`` on refusal).
  Bitwise-identical to the per-problem native loop at any thread
  count.
* **vector-batched** — the NumPy batched twin
  (:func:`repro.ir.npbackend.emit_batched_source`), which masks
  per-problem validity lane-wise.

:class:`BatchedLaunch` picks the rung from the group's compiled
backend and degrades gracefully — a failed native batched build (or,
through :func:`repro.runtime.ladder.launch`, a sandbox crash or open
circuit breaker) demotes the launch to the rung
:mod:`repro.runtime.ladder` names below it: vector-batched when the
kernel is vector-eligible, else a scalar per-member sweep, without
losing the single-launch shape the resilience layer supervises.

:class:`BatchedLaunch` adapts a packed batch to the compiled-kernel
protocol the resilience layer speaks (``run(T, ctx, part_lo,
part_hi)`` + ``schedule``), so the supervisor can checkpoint, replay
and verify a batched launch exactly like a single-problem one; its
``reference_run`` replays every member on the scalar backend for the
divergence oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence as Seq, Tuple

import numpy as np

from ..analysis.domain import Domain
from ..ir.kernel import UB_PREFIX
from . import ladder
from .context import build_context, sequence_codes

#: Smallest group worth packing: a singleton gains nothing over the
#: plain vector path and would only add pad/unpack overhead.
MIN_BATCH = 2

#: Per-problem backends whose map groups have a batched twin.
BATCHABLE_BACKENDS = ("vector", "native")


@dataclass
class PackedBatch:
    """One group of problems packed for a single batched launch."""

    indices: List[int]  # positions in the prepared problem list
    compiled: object  # the shared CompiledKernel
    table: np.ndarray  # (B, d0max, d1max), padded, zero-initialised
    ctx: Dict[str, object]  # batched context (see module doc)
    domains: List[Domain]  # each member's true domain, batch order
    #: The ``(bindings, domain)`` pairs the batch was packed from, and
    #: their extents as one ``(B, rank)`` array.
    members: Seq[Tuple[object, Domain]] = field(repr=False)
    extents: np.ndarray = field(repr=False)

    @property
    def padded_domain(self) -> Domain:
        """The max-extent domain: its partition range covers every
        member's (the supervisor derives epoch ranges from it)."""
        return Domain(
            self.domains[0].dims, tuple(self.table.shape[1:])
        )

    def member_view(self, slot: int) -> np.ndarray:
        """Problem ``slot``'s own cells of the padded table (a view)."""
        extents = self.domains[slot].extents
        return self.table[slot][tuple(slice(0, e) for e in extents)]

    @cached_property
    def problem_ctxs(self) -> List[Dict[str, object]]:
        """Each member's own context — what the scalar per-member
        sweep reads. Built on first use: the batched rungs read only
        the stacked ``ctx``."""
        kernel = self.compiled.kernel
        return [
            build_context(kernel, bound, domain)
            for bound, domain in self.members
        ]


def plan_batches(
    prepared: Seq[Tuple[object, Domain, object]],
    min_batch: int = MIN_BATCH,
) -> List[List[int]]:
    """Group a prepared ``map`` workload into batchable index sets.

    ``prepared`` is the engine's ``(bindings, domain, compiled)``
    list. Problems group when they share the compiled kernel object
    (on a :data:`BATCHABLE_BACKENDS` rung — vector groups run the
    batched NumPy twin, native groups the batched C entry) and the
    identical HMM/matrix binding objects; groups smaller than
    ``min_batch`` are dropped (those problems run the ordinary path).
    Mixed-rung groups cannot arise: the compiled object identity is
    part of the key and already encodes the backend.
    """
    groups: Dict[tuple, List[int]] = {}
    for index, (bound, _domain, compiled) in enumerate(prepared):
        if (
            getattr(compiled, "backend", "scalar")
            not in BATCHABLE_BACKENDS
        ):
            continue
        refs = compiled.kernel.referenced_names()
        shared = tuple(
            id(bound[name])
            for name in sorted(refs["hmms"]) + sorted(refs["matrices"])
        )
        key = (id(compiled), shared)
        groups.setdefault(key, []).append(index)
    return [
        members
        for members in groups.values()
        if len(members) >= min_batch
    ]


def pack_group(
    compiled,
    members: Seq[Tuple[object, Domain]],
    indices: Seq[int] = (),
) -> PackedBatch:
    """Pack ``members`` — ``(bindings, domain)`` pairs — into one batch.

    The table is padded to the largest member extents per dimension;
    bounds (``ub_*``) and scalar arguments (``arg_*``) become
    ``(B, 1)`` columns, sequences become zero-padded ``(B, Lmax)``
    rows (reads past a member's own length land in padding and only
    feed masked-off lanes), and the model/matrix arrays are shared
    verbatim from the first member (grouping guaranteed identity).

    One context is built for the group — the first member's — and
    its per-member entries are replaced by columns cut from the
    members' extents and bindings directly.
    """
    kernel = compiled.kernel
    domains = [domain for _, domain in members]
    size = len(members)
    extents = np.array(
        [domain.extents for domain in domains], dtype=np.int64
    )
    dtype = (
        np.int64 if kernel.body.return_kind == "int" else np.float64
    )
    table = np.zeros(
        (size,) + tuple(extents.max(axis=0).tolist()), dtype=dtype
    )
    ctx = build_context(kernel, *members[0])
    for axis, dim in enumerate(domains[0].dims):
        ctx[UB_PREFIX + dim] = extents[:, axis:axis + 1] - 1
    refs = kernel.referenced_names()
    for name in sorted(refs["seqs"]):
        codes = [
            sequence_codes(bound, name) for bound, _ in members
        ]
        longest = max((len(arr) for arr in codes), default=0)
        packed = np.zeros((size, longest), dtype=np.int64)
        for row, arr in zip(packed, codes):
            row[: len(arr)] = arr
        ctx[f"seq_{name}"] = packed
    for name in sorted(refs["scalars"]):
        ctx[f"arg_{name}"] = np.asarray(
            [bound[name] for bound, _ in members]
        ).reshape(size, 1)
    return PackedBatch(
        indices=list(indices) or list(range(size)),
        compiled=compiled,
        table=table,
        ctx=ctx,
        domains=domains,
        members=members,
        extents=extents,
    )


def batched_native_eligibility(kernel) -> "Eligibility":
    """Why (or why not) map groups of this kernel can run the
    batched-native rung *in this process*: the toolchain must be
    available and the kernel must pass
    :func:`repro.ir.cbackend.batched_eligibility` (named rules —
    ``ok-batched``, ``ok-plain-body``, ``cross-table-read``,
    ``codegen``, ``no-compiler``, ``disabled``)."""
    from ..ir import cbackend
    from . import native as native_rt

    verdict = native_rt.available()
    if not verdict.ok:
        return verdict
    return cbackend.batched_eligibility(kernel)


class BatchedLaunch:
    """A packed batch speaking the compiled-kernel protocol.

    The resilience supervisor only needs ``run(T, ctx, part_lo,
    part_hi)`` plus ``schedule``/``kernel``/``backend`` — this wrapper
    provides them for a whole batch, so checkpointing, replay
    verification and partition-range recovery apply unchanged (the
    epoch ranges come from the padded domain, a superset of every
    member's range; the generated kernel clamps and masks internally,
    so out-of-range epochs are no-ops for the members they miss).

    The launch runs on a **rung** — ``"native"`` (the batched C
    entry, picked when the group compiled native), ``"vector"`` (the
    batched NumPy twin) or ``"scalar"`` (per-member sweep, the floor
    every kernel supports). ``run`` degrades one rung at a time on
    :class:`~repro.lang.errors.NativeBuildError`; sandbox faults are
    :func:`repro.runtime.ladder.launch`'s to catch, which steps the
    group down through :meth:`demote`.

    ``reference_run`` gives the divergence oracle an independent
    backend: every member replayed on the *scalar* generator over its
    own slice of the padded table.
    """

    def __init__(
        self, batch: PackedBatch, rung: Optional[str] = None
    ) -> None:
        self.batch = batch
        self.compiled = batch.compiled
        if rung is None:
            rung = (
                "native"
                if getattr(self.compiled, "backend", "") == "native"
                else "vector"
            )
        self.rung = rung
        self._scalar_run = None

    @property
    def backend(self) -> str:
        """Backend label for reports/oracles: ``"<rung>-batched"``."""
        return f"{self.rung}-batched"

    @property
    def kernel(self):
        """The shared kernel."""
        return self.compiled.kernel

    @property
    def schedule(self):
        """The shared schedule (epoch ranges derive from it)."""
        return self.compiled.kernel.schedule

    def demote(self) -> str:
        """Drop to the next rung the ladder allows below this one
        (native → vector when the kernel is vector-eligible, else —
        and from vector — → scalar). Returns the new rung."""
        if self.rung == "native":
            self.rung = ladder.below_native(self.kernel)
        else:
            self.rung = "scalar"
        return self.rung

    def run(self, table, ctx, part_lo=None, part_hi=None):
        """One batched sweep over the global partition range.

        A native build/load failure is permanent for this process, so
        it demotes the launch (native → vector → scalar) and retries
        on the spot — the table is untouched by a failed build.
        Sandbox *crash* faults are deliberately not caught here:
        :func:`repro.runtime.ladder.launch` owns demotion for those.
        """
        from ..lang.errors import NativeBuildError

        while True:
            if self.rung == "native":
                try:
                    batched = self.compiled.ensure_batched_native()
                except NativeBuildError:
                    self.demote()
                    continue
                return batched(
                    table, ctx, part_lo=part_lo, part_hi=part_hi
                )
            if self.rung == "vector":
                return self.compiled.ensure_batched()(
                    table, ctx, part_lo=part_lo, part_hi=part_hi
                )
            return self._scalar_sweep(table, part_lo, part_hi)

    def _scalar_sweep(self, table, part_lo=None, part_hi=None):
        """Every member on the scalar generator, in its own slice."""
        if self._scalar_run is None:
            from ..ir.pybackend import compile_kernel

            self._scalar_run, _source = compile_kernel(self.kernel)
        for slot, (domain, pctx) in enumerate(
            zip(self.batch.domains, self.batch.problem_ctxs)
        ):
            view = table[slot][
                tuple(slice(0, e) for e in domain.extents)
            ]
            self._scalar_run(
                view, pctx, part_lo=part_lo, part_hi=part_hi
            )
        return table

    def reference_run(self, table, ctx, part_lo=None, part_hi=None):
        """Scalar per-member replay (the oracle's reference backend)."""
        return self._scalar_sweep(table, part_lo, part_hi)
