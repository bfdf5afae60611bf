"""The end-to-end engine: parse -> check -> schedule -> synthesise -> run.

:class:`Engine` is the public entry point of the library. It owns

* the schedule search (automatic, Section 4.6 — or verification of a
  user-provided schedule, Section 4.5);
* kernel compilation (polyhedral nest + lowered cell expression) with
  an LRU-bounded cache keyed by a content hash of (function source
  form, schedule, probability mode, backend) — the paper caches
  generated code per function to amortise the ~1 s CLooG overhead
  (Section 6); pass ``kernel_cache=PersistentKernelCache(dir)`` to
  persist compilation products across processes;
* context preparation (device layout of sequences, matrices, models);
* one request path for ``map`` runs over problem collections with
  conditional parallelisation (Section 4.7) and for single-problem
  runs, which are its one-member case; results price the launch on
  first read (:func:`repro.gpu.device.price_launch`).
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence as Seq,
    Tuple,
)

import numpy as np

from ..analysis.domain import Domain
from ..analysis.plan import function_plan
from ..gpu.device import Pricing, price_launch
from ..gpu.spec import DeviceSpec, GTX480
from ..ir.kernel import Kernel, build_kernel
from ..lang import ast
from ..lang.errors import (
    AnalysisError,
    NativeBuildError,
    RuntimeDslError,
    VerificationError,
)
from ..lang.typecheck import CheckedFunction
from ..lang.types import (
    HmmType,
    IndexType,
    IntType,
    StateType,
    TransitionType,
)
from ..schedule.schedule import Schedule
from ..schedule.solver import find_schedule, optimal_candidates
from ..service.cache import (
    CacheInfo,
    LRUKernelCache,
    function_source_form,
    kernel_cache_key,
)
from . import ladder
from .interpreter import domain_extents
from .ladder import CompiledKernel
from .values import Bindings, Sequence

#: Default bound of the engine's in-memory kernel cache.
DEFAULT_CACHE_CAPACITY = 256


class _Priced:
    """The simulated device's side of a result, as a view: priced
    once, on first read, by ``_pricing`` — the one pricer bound to
    what the launch observed and the spec the engine had at launch —
    so a caller that only wants values does not price a GTX 480.
    """

    _pricing: Callable[[], Pricing]

    @cached_property
    def _priced(self) -> Pricing:
        return self._pricing()

    @property
    def report(self):
        """The launch report (placement, device time)."""
        return self._priced.report

    @property
    def seconds(self) -> float:
        """Total simulated launch time."""
        return self.report.total_seconds


class RunResult(_Priced):
    """One problem solved on the simulated device.

    ``value`` is what the launch produced. ``table`` is computed on
    first read: a launch that could hand back the value without
    materialising the table (a blocked-wavefront kernel on the native
    rung — see :meth:`Engine._launch_member`) did so, and the first
    access runs the full-table entry once and keeps the array. Every
    other launch filled its table up front and the attribute just
    returns it.
    ``cost`` (the one problem's), ``report`` and ``seconds`` are the
    priced view of a one-member launch.
    """

    def __init__(
        self,
        value: object,
        table,
        kernel: Kernel,
        domain: Domain,
        pricing: Callable[[], Pricing],
    ) -> None:
        self._pricing = pricing
        self.value = value
        #: The filled table, or the zero-argument launch that fills it.
        self._table = table
        self.kernel = kernel
        self.domain = domain

    @property
    def table(self) -> np.ndarray:
        """The whole DP table (filled on first read if the launch
        was result-only)."""
        if callable(self._table):
            self._table = self._table()
        return self._table

    @property
    def schedule(self) -> Schedule:
        """The schedule the kernel ran under."""
        return self.kernel.schedule

    @property
    def cost(self):
        """The problem's analytic kernel cost."""
        return self._priced.costs[0]


class MapResult(_Priced):
    """A ``map`` workload solved on the simulated device.

    ``values`` and the lane-batch accounting are what the launch
    produced; the rest is the priced view, from the prepared members
    and each packed group's rung and thread count as they were when
    it ran.
    """

    def __init__(
        self,
        values: List[object],
        pricing: Callable[[], Pricing],
        lane_batched_problems: int = 0,
        batched_backends: Seq[str] = (),
    ) -> None:
        self._pricing = pricing
        self.values = values
        #: Lane-batched execution accounting: how many problems ran
        #: inside packed groups, and which rung each group actually
        #: ran on, in group order (``"native-batched"`` /
        #: ``"vector-batched"`` / ``"scalar-batched"`` after
        #: demotions).
        self.lane_batched_problems = lane_batched_problems
        self.batched_backends = list(batched_backends)

    @property
    def lane_batches(self) -> int:
        """How many packed groups ran as single batched sweeps."""
        return len(self.batched_backends)

    @property
    def costs(self):
        """Every problem's analytic kernel cost, in problem order."""
        return self._priced.costs

    @property
    def schedule_usage(self) -> Dict[Tuple[int, ...], int]:
        """Schedule coefficients -> how many problems ran under them."""
        return self._priced.schedule_usage

    @property
    def batched_costs(self):
        """The packed groups' amortised analytic costs, in group order
        (one sync per *global* partition)."""
        return self._priced.batched_costs


class Engine:
    """Compiles and runs DSL functions on the simulated GPU."""

    def __init__(
        self,
        device: Optional[DeviceSpec] = None,
        prob_mode: str = "direct",
        backend: Optional[str] = None,
        kernel_cache: Optional[LRUKernelCache] = None,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
        batching: bool = True,
        sanitize: bool = False,
    ) -> None:
        # ``backend=None`` (the default) is "auto"; any other mode is
        # forced and raises instead of degrading.
        if backend is None:
            backend = "auto"
        if backend not in ("auto", "scalar", "vector", "native"):
            raise ValueError(f"unknown backend {backend!r}")
        self.spec = device or GTX480
        self.prob_mode = prob_mode
        self.backend = backend
        #: Lane-batch eligible ``map`` groups into single vectorised
        #: sweeps (Section 6.1's inter-task parallelism, functionally).
        self.batching = batching
        # LRU-bounded by default; pass a shared
        # ``service.cache.PersistentKernelCache`` to keep compilation
        # products across processes (and across a worker pool).
        # NB ``is not None``: an empty cache is falsy (it has __len__).
        self._cache = (
            kernel_cache
            if kernel_cache is not None
            else LRUKernelCache(cache_capacity)
        )
        self.cache_hits = 0
        self.cache_misses = 0
        #: Route execution through the runtime table sanitizer
        #: (poison-filled tables, partition-barrier checks).
        self.sanitize = sanitize
        self.verified_schedules = 0
        self.verify_failures = 0
        #: Launches re-routed off the native backend after a sandbox
        #: worker crash/hang or an open circuit breaker (the service
        #: stats endpoint sums this across its worker engines).
        self.native_demotions = 0
        # What this engine has established per function beyond the
        # function's own analysis plan, LRU-bounded like the kernel
        # cache: verification verdicts — one per (plan, schedule)
        # where the proof is extent-free, one per extents otherwise
        # — the schedules of searches that need the extents
        # (non-uniform descents), and each (function, schedule)'s
        # backend ladder. Keys hold the plan object (or
        # the function's source form), so a reused ``id()`` cannot
        # alias entries.
        self._memo = LRUKernelCache(cache_capacity)

    def cache_info(self) -> CacheInfo:
        """Counter snapshot of the kernel cache (both tiers), extended
        with this engine's verification counters."""
        return self._cache.cache_info()._replace(
            verified=self.verified_schedules,
            verify_failures=self.verify_failures,
        )

    # -- verification ---------------------------------------------------------

    def _verdict_key(
        self,
        func: CheckedFunction,
        schedule: Schedule,
        domain: Domain,
    ):
        """What one verification verdict covers, as its memo key:
        (function plan, schedule) where the verifier's proof is
        extent-free, plus the concrete extents otherwise. ``None``
        when the descents are outside the single-function verifier's
        scope."""
        from ..verify.soundness import verdict_is_extent_free

        try:
            plan = function_plan(func)
        except AnalysisError:
            # Mutual groups / non-affine descents: out of the
            # single-function verifier's scope, not a failure.
            return None
        extent_free = verdict_is_extent_free(func, domain)
        return (
            plan, "verdict", schedule,
            None if extent_free else domain.extents,
        )

    def verify_compiled(
        self,
        func: CheckedFunction,
        schedule: Schedule,
        domain: Domain,
    ):
        """Prove the schedule with the independent verifier.

        Verdicts are memoised per (function plan, schedule) — plus
        the concrete extents unless the verifier's proof is
        extent-free, in which case a new problem shape costs one
        probe and a partition count. Raises
        :class:`~repro.lang.errors.VerificationError` when any
        error-severity diagnostic survives; returns the certificate
        (or None when the descents are outside the single-function
        verifier's scope).
        """
        key = self._verdict_key(func, schedule, domain)
        if key is None:
            return None
        return self._verdict(key, func, schedule, domain)

    def _verdict(
        self,
        key,
        func: CheckedFunction,
        schedule: Schedule,
        domain: Domain,
    ):
        """The certificate remembered under ``key`` (a
        :meth:`_verdict_key`), proved on a miss and restated for
        ``domain``; raises
        :class:`~repro.lang.errors.VerificationError` on a failed
        verdict, remembered or fresh."""
        cached = self._memo.lookup(key)
        if cached is None:
            from ..verify.soundness import verify_schedule

            certificate, diagnostics = verify_schedule(
                func, schedule, domain
            )
            errors = tuple(
                d for d in diagnostics if d.severity == "error"
            )
            cached = (certificate, errors)
            self._memo.store(key, cached)
            if errors:
                self.verify_failures += 1
            else:
                self.verified_schedules += 1
        certificate, errors = cached
        if errors:
            raise VerificationError(
                "verification failed for "
                f"{func.name!r}:\n"
                + "\n".join(d.render() for d in errors),
                errors[0].span,
            )
        if key[-1] is None:  # extent-free: one proof, any box
            return certificate.for_domain(domain)
        return certificate

    # -- compilation ----------------------------------------------------------

    def compile(
        self,
        func: CheckedFunction,
        schedule: Schedule,
        domain: Optional[Domain] = None,
    ) -> CompiledKernel:
        """Compile (or fetch) the kernel for one schedule.

        Backend choice is :mod:`repro.runtime.ladder`'s: ``native``
        emits C99 and JIT-compiles it with the system C compiler
        (whole runs execute as machine code); ``vector`` evaluates
        whole partitions as NumPy array operations when the kernel is
        eligible (2-D, no reductions); ``scalar`` is the
        cell-at-a-time generator; ``auto`` walks the ladder native >
        vector > scalar, preferring scalar/native over vector below
        the measured crossover extent when ``domain`` is given. The
        cache keys on the *resolved* backend, so a warm native entry
        is found again regardless of the engine's mode.

        The rung verdicts are extent-free, so they are memoised once
        per (function, schedule) and only the size test is re-read
        per call.
        """
        large = ladder.is_large(domain)
        memo_key = (function_source_form(func), "ladder", schedule)
        rungs = self._memo.lookup(memo_key)
        kernel = None
        if rungs is None:
            kernel = build_kernel(func, schedule, self.prob_mode)
            rungs = ladder.rungs(kernel)
            self._memo.store(memo_key, rungs)
        rung = ladder.resolve(
            func.name, rungs, self.backend, self.sanitize, large,
        )
        try:
            compiled = self.product(func, schedule, rung, kernel)
        except NativeBuildError as err:
            if self.backend == "native":
                # Name the failure the way a forced-vector
                # CodegenError names its eligibility rule, so
                # callers see which toolchain step broke.
                raise NativeBuildError(
                    f"backend='native' was forced but kernel "
                    f"{func.name!r} failed to build "
                    f"[build-failed]: {err.message}",
                    err.span,
                ) from err
            # Eligibility said yes but the toolchain said no:
            # permanent for this kernel, so remember the refusal and
            # take the rung below.
            rungs = ladder.refuse_native(rungs, err)
            self._memo.store(memo_key, rungs)
            compiled = self.product(
                func, schedule, ladder.choose(rungs, large), kernel
            )
        if ladder.circuit_open(compiled):
            # The sandbox's crash breaker is open for this kernel:
            # route around native *without* rewriting the memo, so it
            # returns to native once the breaker half-opens.
            compiled = ladder.demote(self, compiled, domain)
        return compiled

    def product(
        self,
        func: CheckedFunction,
        schedule: Schedule,
        rung: str,
        kernel: Optional[Kernel] = None,
    ) -> CompiledKernel:
        """The kernel cache's product for ``rung``, built on a miss
        (from ``kernel`` when the caller has it)."""
        key = kernel_cache_key(func, schedule, self.prob_mode, rung)
        misses = self.cache_misses

        def build() -> CompiledKernel:
            self.cache_misses += 1
            return ladder.build(
                kernel or build_kernel(func, schedule, self.prob_mode),
                rung,
            )

        compiled = self._cache.get(key, build)
        if self.cache_misses == misses:
            self.cache_hits += 1
        return compiled

    def schedule_for(
        self,
        func: CheckedFunction,
        domain: Domain,
        user_schedule: Optional[ast.Expr] = None,
        bindings: Optional[Bindings] = None,
    ) -> Schedule:
        """Pick the schedule: verify the user's, or search (Section
        4.6: fewest partitions). The one way the engine chooses a
        schedule, for :meth:`run` and :meth:`map_run` alike.
        ``bindings`` is accepted and unused — the choice reads the
        function and the extents only."""
        if user_schedule is not None:
            from ..schedule.schedule import validate_user_schedule

            return validate_user_schedule(func, user_schedule, domain)
        if optimal_candidates(func) is not None:
            # A pick among the function's own few candidates: cheaper
            # than remembering an answer per problem shape.
            return find_schedule(func, domain)
        # A search that needs the extents: a lane-batched map group
        # solves one schedule for the whole batch, not one per member.
        key = (function_plan(func), "schedule", domain.extents)
        return self._memo.get(key, lambda: find_schedule(func, domain))

    # -- context preparation --------------------------------------------------

    def build_context(
        self,
        compiled: CompiledKernel,
        bindings: Bindings,
        domain: Domain,
    ) -> Dict[str, object]:
        """Materialise the device context for one problem."""
        from .context import build_context

        return build_context(compiled.kernel, bindings, domain)

    def mean_degree(
        self, func: CheckedFunction, bindings: Bindings
    ) -> float:
        """Mean transition in-degree of the bound models (cost model)."""
        degrees = [
            bindings[p.name].mean_in_degree()
            for p in func.calling_params
            if isinstance(p.type, HmmType) and p.name in bindings
        ]
        return sum(degrees) / len(degrees) if degrees else 1.0

    # -- execution ------------------------------------------------------------

    def domain_of(
        self,
        func: CheckedFunction,
        bindings: Bindings,
        initial: Optional[Dict[str, int]] = None,
    ) -> Domain:
        """The recursion domain implied by the bindings."""
        return Domain(
            func.dim_names, domain_extents(func, bindings, initial)
        )

    def _table_for(self, kernel: Kernel, domain: Domain) -> np.ndarray:
        if kernel.body.return_kind == "int":
            return np.zeros(domain.extents, dtype=np.int64)
        return np.zeros(domain.extents, dtype=np.float64)

    def _extract(
        self, kernel: Kernel, table, coords, reduce: Optional[str] = None
    ) -> object:
        """Read the result: a coordinate, or a whole-table reduction.

        ``reduce='max'``/``'min'`` supports optimisation recurrences
        whose answer is the best cell anywhere in the table
        (Smith-Waterman's local alignment score).
        """
        if reduce == "max":
            raw = table.max()
        elif reduce == "min":
            raw = table.min()
        else:
            raw = table[coords]
        return self._value(kernel, raw)

    @staticmethod
    def _value(kernel: Kernel, raw) -> object:
        """A raw table cell as the DSL value it stands for."""
        if kernel.body.return_kind == "int":
            return int(raw)
        if kernel.logspace:
            return math.exp(raw) if raw != float("-inf") else 0.0
        return float(raw)

    def _execute(self, target, table, ctx, domain) -> None:
        """The default launch: one in-process call of a compiled
        kernel or lane-batched launch (sanitized on request)."""
        if self.sanitize:
            from ..verify.sanitizer import run_sanitized

            run_sanitized(target, table, ctx, domain)
        else:
            target.run(table, ctx)

    def run(
        self,
        func: CheckedFunction,
        bindings: Mapping[str, object],
        at: Optional[Mapping[str, int]] = None,
        initial: Optional[Dict[str, int]] = None,
        user_schedule: Optional[ast.Expr] = None,
        use_window: bool = True,
        reduce: Optional[str] = None,
        _launch=None,
    ) -> RunResult:
        """Solve one problem end to end on the simulated device: the
        one-member :meth:`map_run`, through the same request path.

        The request is settled before anything runs: an unknown
        ``reduce`` or an ``at=`` outside the table raises without a
        launch. After a result-only launch (:meth:`_launch_member`)
        ``RunResult.table`` runs the full-table entry on first read,
        through the same :func:`ladder.launch` seam.

        ``_launch`` is the private launch seam — a callable
        ``(compiled_or_batched_launch, table, ctx, domain)`` that
        fills the table (default: :meth:`_execute`). The resilience
        supervisor passes its checkpointed executor here, so a
        supervised request takes this one code path too.
        """
        mapped, prepared, tables = self._request(
            func, self._bind_members(func, bindings, [{}], initial),
            at, reduce, user_schedule, use_window, _launch,
        )
        _bound, domain, compiled = prepared[0]
        return RunResult(
            mapped.values[0], tables[0], compiled.kernel, domain,
            mapped._pricing,
        )

    def prepare_map(
        self,
        func: CheckedFunction,
        base_bindings: Mapping[str, object],
        problems: Seq[Mapping[str, object]],
        initial: Optional[Dict[str, int]] = None,
        use_window: bool = True,
    ):
        """Compile and price every problem of a ``map`` workload.

        Returns ``(prepared, costs, usage, problem_costs)`` where
        ``prepared`` is a list of ``(bindings, domain, compiled)``
        triples in problem order — each with the product
        :meth:`map_run` would launch it on, so
        :func:`~repro.runtime.batching.plan_batches` finds the groups
        it would — and the rest is their
        :class:`~repro.gpu.device.Pricing`.
        """
        prepared, _groups = self._prepare_members(
            func, self._bind_members(func, base_bindings, problems, initial)
        )
        priced = self._pricing(func, prepared, use_window)()
        usage = priced.schedule_usage
        return prepared, priced.costs, usage, priced.problem_costs

    def _bind_members(
        self,
        func: CheckedFunction,
        base_bindings: Mapping[str, object],
        problems: Seq[Mapping[str, object]],
        initial: Optional[Dict[str, int]] = None,
    ) -> List[Tuple[Bindings, Domain]]:
        """Every problem's bindings (``base_bindings`` overridden by
        the problem's own) and its box."""
        members = []
        for overrides in problems:
            bound = Bindings({**base_bindings, **overrides})
            members.append((bound, self.domain_of(func, bound, initial)))
        return members

    def _prepare_members(
        self,
        func: CheckedFunction,
        members: Seq[Tuple[Bindings, Domain]],
        user_schedule: Optional[ast.Expr] = None,
    ) -> Tuple[list, List[List[int]]]:
        """Schedule, verify and compile every bound member, and plan
        the lane-batched groups; returns ``(prepared, groups)``.

        Per member only what depends on the member's box: the
        schedule (:meth:`schedule_for`'s for that box, or
        ``user_schedule`` verified). Within the call the rung and
        product are resolved once per distinct (schedule, size class)
        and the verifier is asked once per distinct verdict key — so
        whatever it proves per box (the brute-force leg, non-uniform
        descents) is still proved per box, while any number of members
        under one extent-free verdict cost one memo probe.

        When members may batch, each first takes its rung by
        eligibility alone, as :func:`ladder.demote` steps a group: one
        sweep covers every member's lanes, so the size crossover's
        tiny-partition case does not arise. A member left out of every
        group launches alone, and takes the rung the crossover picks
        for its box. Sanitized runs step partition by partition; the
        packed sweep cannot, so batching stands down.
        """
        batching = self.batching and not self.sanitize and len(members) > 1
        products: Dict[tuple, CompiledKernel] = {}
        proved: set = set()

        def product(schedule: Schedule, domain: Optional[Domain]):
            size_class = (schedule, ladder.is_large(domain))
            if size_class not in products:
                products[size_class] = self.compile(func, schedule, domain)
            return products[size_class]

        prepared = []
        for bound, domain in members:
            schedule = self.schedule_for(func, domain, user_schedule)
            verdict = self._verdict_key(func, schedule, domain)
            if verdict is not None and verdict not in proved:
                self._verdict(verdict, func, schedule, domain)
                proved.add(verdict)
            compiled = product(schedule, None if batching else domain)
            prepared.append((bound, domain, compiled))
        if not batching:
            return prepared, []
        from .batching import plan_batches

        groups = plan_batches(prepared)
        grouped = {i for group in groups for i in group}
        for index, (bound, domain, compiled) in enumerate(prepared):
            if index not in grouped:
                compiled = product(compiled.kernel.schedule, domain)
                prepared[index] = (bound, domain, compiled)
        return prepared, groups

    def map_run(
        self,
        func: CheckedFunction,
        base_bindings: Mapping[str, object],
        problems: Seq[Mapping[str, object]],
        at: Optional[Mapping[str, int]] = None,
        initial: Optional[Dict[str, int]] = None,
        use_window: bool = True,
        reduce: Optional[str] = None,
        user_schedule: Optional[ast.Expr] = None,
        _launch=None,
    ) -> MapResult:
        """Solve many problems: the ``map`` primitive (Section 4.7).

        Each problem overrides some calling parameters (typically the
        database sequence) and runs on a multiprocessor of its own,
        its threads cooperating on partitions. ``at``, ``initial``,
        ``reduce``, ``user_schedule`` and ``_launch`` mean what they
        mean to :meth:`run`, which is this call with one member: every
        member's request is settled before anything is scheduled,
        compiled or launched, lane-batched groups run as one padded
        sweep each, and every other member launches exactly as
        :meth:`run` launches its one — result-only where nobody needs
        the table. Without ``user_schedule`` each problem gets the
        schedule :meth:`schedule_for` picks for its box (Section
        4.7's per-problem choice). The result is priced on first read.
        """
        return self._request(
            func, self._bind_members(func, base_bindings, problems, initial),
            at, reduce, user_schedule, use_window, _launch,
        )[0]

    def _request(
        self, func, members, at, reduce, user_schedule, use_window,
        _launch,
    ) -> Tuple[MapResult, list, list]:
        """The one request path of :meth:`run` and :meth:`map_run`:
        settle every member's request (:func:`settle`), prepare the
        members, launch each lane-batched group as one sweep and every
        other member through :meth:`_launch_member`. Returns the
        :class:`MapResult`, the prepared members and each member's
        table (``None`` for a grouped member)."""
        coords = settle(func, members, at, reduce)
        prepared, groups = self._prepare_members(func, members, user_schedule)
        values: List[object] = [None] * len(prepared)
        tables: List[object] = [None] * len(prepared)
        execute = _launch or self._execute
        batched_backends: List[str] = []
        group_threads: List[int] = []
        if groups:
            from .batching import BatchedLaunch, pack_group
        for group in groups:
            packed = pack_group(
                prepared[group[0]][2],
                [prepared[i][:2] for i in group],
                indices=group,
            )
            # One launch for the whole group: a crash kills one
            # disposable worker and demotes the group as a unit.
            launched = ladder.launch(
                self, execute, BatchedLaunch(packed),
                packed.table, packed.ctx, packed.padded_domain,
            )
            for index, value in zip(
                group, self._group_values(packed, coords, reduce)
            ):
                values[index] = value
            # Pricing reads the rung and thread count the group
            # *ran* on, so they are taken now, not when it is priced.
            batched_backends.append(launched.backend)
            group_threads.append(launched.threads)
        grouped = {i for group in groups for i in group}
        for index, (bound, domain, compiled) in enumerate(prepared):
            if index not in grouped:
                values[index], tables[index] = self._launch_member(
                    compiled, bound, domain,
                    () if coords is None else tuple(coords[index].tolist()),
                    reduce, _launch,
                )
        pricing = self._pricing(
            func, prepared, use_window, list(zip(groups, group_threads))
        )
        mapped = MapResult(values, pricing, len(grouped), batched_backends)
        return mapped, prepared, tables

    def _launch_member(
        self, compiled, bound, domain, coords, reduce, _launch
    ) -> Tuple[object, object]:
        """One problem launched on its own; returns ``(value, table)``.

        The one place that decides whether a launch fills its table.
        Nobody needs it up front on the default launch, unsanitized,
        of an in-process native run whose entry has a result-only
        mode (:attr:`~repro.runtime.native.NativeRun.result_only`):
        the kernel hands back the value alone and ``table`` is the
        zero-argument launch that fills it. Every other launch —
        supervised (``_launch``), sanitized, sandboxed, a Python rung —
        fills its table and the value is read off it.
        """
        ctx = self.build_context(compiled, bound, domain)
        kernel = compiled.kernel

        def fill() -> np.ndarray:
            table = self._table_for(kernel, domain)
            ladder.launch(
                self, _launch or self._execute, compiled, table, ctx,
                domain,
            )
            return table

        if (
            _launch is None
            and not self.sanitize
            and getattr(compiled.run, "result_only", False)
        ):
            raw = compiled.run.result(ctx, reduce, coords)
            return self._value(kernel, raw), fill
        table = fill()
        return self._extract(kernel, table, coords, reduce), table

    def _group_values(self, packed, coords, reduce) -> List[object]:
        """Every member's result out of a packed group's table: one
        gather at the settled ``coords``, or a reduction per member."""
        kernel = packed.compiled.kernel
        if reduce is not None:
            return [
                self._extract(kernel, packed.member_view(slot), None, reduce)
                for slot in range(len(packed.domains))
            ]
        rows = coords[packed.indices]
        raws = packed.table[(np.arange(len(rows)),) + tuple(rows.T)]
        return [self._value(kernel, raw) for raw in raws.tolist()]

    def _pricing(
        self,
        func: CheckedFunction,
        prepared,
        use_window: bool,
        groups: Seq[Tuple[List[int], int]] = (),
    ) -> Callable[[], Pricing]:
        """The one pricer, bound to what a launch observed: the
        prepared ``(bindings, domain, compiled)`` members, the window
        choice, each lane-batched group's indices with the thread
        count it ran on, and the engine's spec as it is now."""
        spec = self.spec

        def price() -> Pricing:
            members = [
                (
                    compiled.kernel, domain,
                    self.mean_degree(func, bound),
                    # Rough host->device payload: the result row
                    # copied back, plus every bound sequence.
                    8.0 * domain.extents[-1] + sum(
                        len(value) for value in bound.values.values()
                        if isinstance(value, Sequence)
                    ),
                )
                for bound, domain, compiled in prepared
            ]
            return price_launch(members, spec, use_window, groups)

        return price


def settle(
    func: CheckedFunction,
    members: Seq[Tuple[Bindings, Domain]],
    at: Optional[Mapping[str, int]] = None,
    reduce: Optional[str] = None,
) -> Optional[np.ndarray]:
    """What every one of ``members`` — ``(bindings, domain)`` pairs —
    is asked for, settled before anything launches: the one rule of
    the engine, the serial reference path and the fuzzer.

    After refusing an unknown ``reduce``: ``None`` for a whole-table
    one, else one row per member of its result coordinates, wrapped
    the way NumPy wraps a negative index after refusing an
    out-of-range one. A coordinate not given in ``at`` defaults by
    its dimension's kind: an index at its sequence's length, an
    integer at its initial value, a state at its model's end state;
    a transition has no default.
    """
    if reduce not in (None, "max", "min"):
        raise RuntimeDslError(f"unknown reduction {reduce!r}")
    if reduce is not None or not members:
        return None
    at = at or {}
    extents = np.array(
        [domain.extents for _, domain in members], dtype=np.int64
    )
    coords = np.empty_like(extents)
    for axis, param in enumerate(func.recursive_params):
        if param.name in at:
            coords[:, axis] = int(at[param.name])
        elif isinstance(param.type, (IndexType, IntType)):
            # an integer dimension's extent is its initial value + 1
            coords[:, axis] = extents[:, axis] - 1
        elif isinstance(param.type, StateType):
            coords[:, axis] = [
                bound[param.type.hmm_param].end_state.index
                for bound, _ in members
            ]
        elif isinstance(param.type, TransitionType):
            raise RuntimeDslError(
                f"dimension {param.name!r}: pass at={{...}} to pick "
                f"a transition coordinate"
            )
        else:
            raise RuntimeDslError(
                f"cannot default a coordinate for {param.name!r}"
            )
    outside = (coords < -extents) | (coords >= extents)
    if np.count_nonzero(outside):
        member, axis = np.argwhere(outside)[0]
        raise IndexError(
            f"index {coords[member, axis]} is out of bounds for "
            f"axis {axis} with size {extents[member, axis]}"
        )
    return coords % extents
