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
* :func:`launch` — the one place a launch is caught and demoted: a
  sandbox worker crash, deadline kill or open circuit breaker counts
  one ``native_demotions``, re-zeroes the table and reruns the problem
  a rung down (:func:`demote`). Plain runs, map members and
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
    batched_run: object = None  # lazy lane-batched twin (vector only)
    batched_source: Optional[str] = None
    #: Lazy batched-native callable (native backend only) — the
    #: ``repro_<name>_batched`` entry of the same shared object.
    batched_native_run: object = None
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

    def ensure_batched(self):
        """Compile (once) and return the lane-batched twin kernel.

        Only meaningful for vector-backend products; the batched
        generator shares the vector backend's eligibility rules.
        """
        if self.batched_run is None:
            from ..ir import npbackend

            self.batched_run, self.batched_source = (
                npbackend.compile_batched_kernel(self.kernel)
            )
        return self.batched_run

    def ensure_batched_native(self):
        """Load (once) and return the batched-native callable.

        Only meaningful for native-backend products: the
        ``repro_<name>_batched`` entry lives in the *same* shared
        object as the per-problem run, so this is a symbol load, not
        a compile. Raises
        :class:`~repro.lang.errors.NativeBuildError` when this is not
        a native product or the artifact cannot serve the symbol
        (e.g. a stale shared-cache ``.so`` from before the batched
        entry existed) — callers demote to the vector-batched rung.
        """
        if self.batched_native_run is None:
            from . import native as native_rt

            if self.backend != "native" or not self.so_path:
                raise NativeBuildError(
                    f"kernel {self.kernel.name!r} compiled on the "
                    f"{self.backend!r} backend; batched-native needs "
                    f"a native product"
                )
            try:
                self.batched_native_run = native_rt.load_batched(
                    self.kernel, self.so_path
                )
            except (OSError, AttributeError) as err:
                raise NativeBuildError(
                    f"batched entry unavailable in "
                    f"{self.so_path}: {err}"
                ) from err
        return self.batched_native_run

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
    from ..ir import npbackend

    return (
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
    ladder: Tuple[Rung, ...],
    large: Optional[bool] = None,
    allow_native: bool = True,
) -> str:
    """The best eligible rung: native > vector > scalar.

    ``large`` is the size test (:func:`is_large`; ``None`` = unknown
    extents, treated as large): below the crossover the vector rung
    is passed over. ``allow_native=False`` is "the
    rung below native" — the demotion target, and the whole ladder of
    a sanitized engine (the sanitizer instruments the generated
    Python, which machine code does not have).
    """
    for rung in ladder[:-1]:
        if rung.name == "native" and not allow_native:
            continue
        if rung.name == "vector" and large is False:
            continue
        if rung.verdict.ok:
            return rung.name
    return ladder[-1].name  # scalar: the floor every kernel supports


def below_native(kernel: Kernel, large: Optional[bool] = None) -> str:
    """The rung a kernel leaving native lands on (the demotion
    target), judged without consulting the toolchain."""
    return choose(_python_rungs(kernel), large)


def resolve(
    name: str,
    ladder: Tuple[Rung, ...],
    mode: str,
    forced: bool,
    sanitize: bool = False,
    large: Optional[bool] = None,
) -> str:
    """Apply an engine's backend mode to kernel ``name``'s ladder.

    ``mode`` is ``auto``/``scalar``/``vector``/``native``. A
    ``vector`` mode, and a ``native`` one given as an explicit
    argument (``forced``), raise
    :class:`~repro.lang.errors.CodegenError` naming the failed rule up
    front rather than letting the generator die mid-emission; a
    ``native`` mode that came from ``REPRO_BACKEND`` is a preference
    and degrades down the rest of the ladder like ``auto``.
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
    if mode == "native" and forced:
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
    return choose(ladder, large, allow_native=not sanitize)


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


def circuit_open(target) -> bool:
    """Whether ``target`` (a :class:`CompiledKernel` or a lane-batched
    launch) is on a sandboxed native rung whose crash breaker is open
    — launching it would only raise "circuit open" again."""
    if not target.backend.startswith("native"):
        return False
    run = getattr(target, "compiled", target).run
    if not getattr(run, "sandboxed", False):
        return False
    from . import sandbox as sandbox_rt

    return not sandbox_rt.get_breaker().allows(run.digest)


def demote(engine, target, large: Optional[bool] = None):
    """``target`` one rung down, counted on ``engine.native_demotions``.

    A lane-batched launch steps down in place (it keeps its packed
    table and single-launch shape); a compiled kernel is rebuilt on
    the rung below native. Demotions are rare — a kernel's breaker
    opens after a few crashes and ``Engine.compile`` then routes
    around native before anything launches — so the rebuilt product
    is not cached.
    """
    engine.native_demotions += 1
    if hasattr(target, "demote"):
        target.demote()
        return target
    return build(target.kernel, below_native(target.kernel, large))


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
        target = demote(engine, target, is_large(domain))
        table[...] = 0
        execute(target, table, ctx, domain)
    return target
