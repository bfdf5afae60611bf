"""The backend ladder: native > vector > scalar, written once.

Every kernel can run on up to three rungs — machine code built by the
system C compiler, whole-partition NumPy sweeps, or the cell-at-a-time
Python generator. This module is the only one that knows that order
and what each rung needs:

* :func:`rungs` — every rung, top first, with the
  :class:`~repro.ir.npbackend.Eligibility` verdicts it was judged by
  (toolchain, ``native_eligibility``, ``npbackend.eligibility``);
  :func:`choose` walks them for a problem size (the scalar/vector
  crossover) and :func:`resolve` applies an engine's backend mode —
  ``auto``, an environment *preference*, or a *forced* argument that
  raises naming the failed ``[rule]`` instead of degrading.
* :func:`build` — the one place a rung name becomes a
  :class:`CompiledKernel` (``compile_native`` /
  ``compile_vector_kernel`` / ``compile_kernel``).
* :func:`demote` — the one place anything leaves a rung, and the
  one place ``native_demotions`` is counted: :func:`launch` catching
  a sandbox worker crash, deadline kill or open circuit breaker (it
  re-zeroes the table and reruns the problem a rung down), the
  supervisor's breaker step inside an epoch, and ``Engine.compile``
  routing around an open breaker. Plain runs, map members and
  lane-batched groups all pass through it, supervised or not.

The verdicts are size-independent, so an engine remembers them once
per (function, schedule); :func:`choose` re-reads the size on every
call. A native build that fails after eligibility said yes is recorded
as one more refusal on the native rung (:func:`refuse_native`), which
is how "skip the doomed build next time" and "explain why" share a
representation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Tuple

from ..ir.kernel import Kernel
from ..lang.errors import CodegenError, NativeBuildError
from ..schedule.schedule import Schedule

#: Below this maximum domain extent the ladder stops preferring the
#: vector rung over scalar: NumPy's per-op dispatch overhead loses to
#: the scalar loop on tiny partitions (BENCH_backend.json measured the
#: crossover between sizes 64 and 128). Never gates native, which is
#: fastest at every size.
VECTOR_CROSSOVER = 96


def is_large(domain) -> Optional[bool]:
    """The size test of :func:`choose`: does the largest extent reach
    the crossover? ``None`` when the extents are unknown."""
    if domain is None:
        return None
    return max(domain.extents) >= VECTOR_CROSSOVER


@dataclass
class CompiledKernel:
    """A cached compilation product.

    ``run`` accepts optional ``part_lo``/``part_hi`` keyword
    arguments clamping execution to a partition range (the resilience
    supervisor's replay unit). ``backend`` names the rung that
    produced ``source`` — the divergence oracle picks its reference
    rung from it.
    """

    kernel: Kernel
    run: object  # the compiled callable (T, ctx, part_lo, part_hi) -> T
    source: str
    compile_seconds: float
    backend: str = "scalar"
    #: Path of the compiled shared object (native backend only).
    so_path: Optional[str] = None

    @property
    def schedule(self) -> Schedule:
        """The schedule this kernel was compiled for."""
        return self.kernel.schedule

    @property
    def eligibility(self):
        """The vector-backend verdict for this kernel — rule id plus
        the human sentence (``python -m repro explain`` prints it)."""
        from ..ir import npbackend

        return npbackend.eligibility(self.kernel)

    @property
    def native_eligibility(self):
        """The native (C99) backend verdict for this kernel."""
        from ..ir import cbackend

        return cbackend.native_eligibility(self.kernel)

    @cached_property
    def batched(self):
        """The lane-batched entry, ``(T, ctx, part_lo, part_hi)`` over
        a packed map group (:mod:`repro.runtime.batching`): the
        library's ``repro_<name>_batched`` symbol, bound when a native
        product loaded, or the NumPy twin of a vector product,
        compiled on first use."""
        if self.backend == "native":
            return self.run.batched
        from ..ir import npbackend

        return npbackend.compile_batched_kernel(self.kernel)

    def cuda_source(self, windowed: bool = False) -> str:
        """The synthesised CUDA text; ``windowed=True`` emits the
        Section 4.8 shared-memory variant (uniform descents only)."""
        from ..ir.cuda import emit_cuda

        return emit_cuda(self.kernel, windowed=windowed)


# -- rung choice ---------------------------------------------------------------


class Rung(NamedTuple):
    """One rung and every verdict it was judged by, in order."""

    name: str
    checks: tuple  # of Eligibility

    @property
    def verdict(self):
        """The first refusal — else the last check passed."""
        for check in self.checks:
            if not check.ok:
                return check
        return self.checks[-1]


def _python_rungs(kernel: Kernel) -> Tuple[Rung, ...]:
    """The vector and scalar rungs, memoised in :attr:`Kernel.memo`:
    every step off native re-reads them, and an open breaker steps on
    every compile until it half-opens."""
    cached = kernel.memo.get("python_rungs")
    if cached is not None:
        return cached
    from ..ir import npbackend

    cached = kernel.memo["python_rungs"] = (
        Rung("vector", (npbackend.eligibility(kernel),)),
        Rung(
            "scalar",
            (
                npbackend.Eligibility(
                    True, "ok",
                    "the cell-at-a-time generator runs every kernel",
                ),
            ),
        ),
    )
    return cached


def rungs(kernel: Kernel) -> Tuple[Rung, ...]:
    """The ladder for ``kernel``, top first, with its verdicts.

    Independent of the problem size and of who is asking:
    :func:`choose` applies the size crossover and native exclusion,
    :func:`resolve` an engine's backend mode.
    """
    from ..ir import cbackend
    from . import native as native_rt

    native = Rung(
        "native",
        (native_rt.available(), cbackend.native_eligibility(kernel)),
    )
    return (native,) + _python_rungs(kernel)


def choose(
    ladder: Tuple[Rung, ...], large: Optional[bool] = None
) -> str:
    """The best eligible rung of ``ladder``: native > vector > scalar.

    ``large`` is the size test (:func:`is_large`; ``None`` = unknown
    extents, treated as large): below the crossover the vector rung
    is passed over.
    """
    for rung in ladder[:-1]:
        if rung.name == "vector" and large is False:
            continue
        if rung.verdict.ok:
            return rung.name
    return ladder[-1].name  # scalar: the floor every kernel supports


def resolve(
    name: str,
    ladder: Tuple[Rung, ...],
    mode: str,
    sanitize: bool = False,
    large: Optional[bool] = None,
) -> str:
    """Apply an engine's backend mode to kernel ``name``'s ladder.

    ``mode`` is ``auto``/``scalar``/``vector``/``native``. A
    ``vector`` or ``native`` mode is forced: when its rung is not
    eligible it raises :class:`~repro.lang.errors.CodegenError` naming
    the failed rule up front rather than letting the generator die
    mid-emission.
    """
    if mode == "scalar":
        return "scalar"
    native, vector, _scalar = ladder
    if mode == "vector":
        if not vector.verdict.ok:
            raise CodegenError(
                f"backend='vector' was forced but kernel "
                f"{name!r} is not eligible "
                f"[{vector.verdict.rule}]: {vector.verdict.detail}"
            )
        return "vector"
    if mode == "native":
        if sanitize:
            raise CodegenError(
                "backend='native' cannot run sanitized: the "
                "sanitizer instruments the generated Python "
                "partition loop, which machine code does not "
                "have"
            )
        if not native.verdict.ok:
            raise CodegenError(
                f"backend='native' was forced but kernel "
                f"{name!r} cannot use it "
                f"[{native.verdict.rule}]: {native.verdict.detail}"
            )
        return "native"
    # A sanitized engine's whole ladder is the Python rungs: the
    # sanitizer instruments the generated Python, which machine code
    # does not have.
    return choose(ladder[1:] if sanitize else ladder, large)


def refuse_native(
    ladder: Tuple[Rung, ...], err: NativeBuildError
) -> Tuple[Rung, ...]:
    """``ladder`` with a failed build recorded on the native rung.

    Eligibility said yes but the toolchain said no (compiler
    rejection, dead probe): permanent for this kernel, so the refusal
    joins the rung's verdicts and later choices skip the doomed build.
    """
    from ..ir.npbackend import Eligibility

    native = ladder[0]
    refusal = Eligibility(False, "build-failed", err.message)
    return (native._replace(checks=native.checks + (refusal,)),) + (
        ladder[1:]
    )


def reference(kernel: Kernel, backend: str):
    """An independent runner for the divergence oracle.

    Returns ``(rung_name, callable)``: the highest Python rung that is
    not ``backend`` itself — vector when eligible (different generated
    code *and* a different float library path; the parity policy's
    tolerance absorbs the ulp spread), else scalar — or
    ``("none", None)`` when only ``backend``'s own generator can run
    the kernel.
    """
    for rung in _python_rungs(kernel):
        if rung.name != backend and rung.verdict.ok:
            return rung.name, build(kernel, rung.name).run
    return "none", None


# -- per-rung build ------------------------------------------------------------


def build(kernel: Kernel, rung: str) -> CompiledKernel:
    """Compile ``kernel`` on ``rung``.

    The native rung raises
    :class:`~repro.lang.errors.NativeBuildError` on any toolchain
    failure; the Python rungs cannot fail for an eligible kernel.
    """
    started = time.perf_counter()
    so_path = None
    if rung == "native":
        from . import native as native_rt

        run, source, so_path = native_rt.compile_native(kernel)
    elif rung == "vector":
        from ..ir import npbackend

        run, source = npbackend.compile_vector_kernel(kernel)
    else:
        from ..ir.pybackend import compile_kernel

        run, source = compile_kernel(kernel)
    return CompiledKernel(
        kernel, run, source, time.perf_counter() - started,
        backend=rung, so_path=so_path,
    )


# -- launch with demotion ------------------------------------------------------


def sandboxed_run(target):
    """The sandboxed native run behind ``target`` (a
    :class:`CompiledKernel` or a lane-batched launch), or ``None`` when
    it launches in process. Read from the product, so a packed group
    answers for the rung it currently holds."""
    run = getattr(target, "compiled", target).run
    return run if getattr(run, "sandboxed", False) else None


def circuit_open(target) -> bool:
    """Whether ``target`` (a :class:`CompiledKernel` or a lane-batched
    launch) is on a sandboxed native rung whose crash breaker is open
    — launching it would only raise "circuit open" again."""
    run = sandboxed_run(target)
    if run is None:
        return False
    from . import sandbox as sandbox_rt

    return not sandbox_rt.get_breaker().allows(run.digest)


def demote(engine, target, domain):
    """``target`` one rung down: the one place a launch leaves a
    rung, counted once on ``engine.native_demotions``.

    ``target`` is a :class:`CompiledKernel` or a lane-batched launch.
    Off native it lands where :func:`choose` puts the Python rungs
    for ``domain``'s size test; a packed group sweeps every member's
    lanes at once, so for it the crossover's tiny-partition case does
    not arise and only eligibility counts. Off a Python rung it lands
    on the scalar floor. The product is the engine's cached one for
    that rung, so a breaker that stays open costs no rebuilds.

    A compiled kernel is a shared cached product, so the step hands
    back the rung below; a group steps down in place, so whoever
    holds it — ``launch``'s caller, or the supervisor's caller — reads
    the rung it ran on.
    """
    engine.native_demotions += 1
    kernel = target.kernel
    batch = getattr(target, "batch", None)
    if getattr(target, "compiled", target).backend != "native":
        rung = "scalar"
    else:
        rung = choose(
            _python_rungs(kernel),
            None if batch is not None else is_large(domain),
        )
    compiled = engine.product(kernel.func, kernel.schedule, rung, kernel)
    if batch is None:
        return compiled
    batch.compiled = compiled
    return target


def launch(engine, execute, target, table, ctx, domain):
    """Run ``execute(target, table, ctx, domain)``, demoting on a
    sandbox fault; returns the target that filled the table.

    A sandboxed native launch that dies (worker crash, deadline kill,
    open breaker) leaves the parent table untouched — it is only
    written back on a successful reply — so recovery is: re-zero,
    step one rung down, execute again. Integer kernels recover
    bitwise-identical.
    """
    try:
        execute(target, table, ctx, domain)
    except Exception as err:
        # Imported here, not at module level: ``repro.resilience`` is
        # only loaded once something has actually faulted.
        from ..resilience.faults import SandboxHang, WorkerCrash

        if not isinstance(err, (WorkerCrash, SandboxHang)):
            raise
        target = demote(engine, target, domain)
        table[...] = 0
        execute(target, table, ctx, domain)
    return target
