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
* single-problem runs and ``map`` runs over problem collections with
  conditional parallelisation (Section 4.7);
* the simulated device's functional execution and analytic timing.
"""

from __future__ import annotations

import math
import os
from functools import cached_property, partial
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence as Seq,
    Tuple,
)

import numpy as np

from ..analysis.domain import Domain
from ..analysis.plan import function_plan
from ..extensions.hmm import Hmm
from ..gpu.device import ProblemCost, SimulatedDevice, LaunchReport
from ..gpu.spec import DeviceSpec, GTX480
from ..gpu.timing import (
    KernelCost,
    batched_launch_cost,
    inter_task_seconds,
    kernel_cost,
    partition_sizes,
    problems_per_sm,
)
from ..ir.kernel import Kernel, build_kernel
from ..lang import ast
from ..lang.errors import (
    AnalysisError,
    NativeBuildError,
    RuntimeDslError,
    ScheduleError,
    VerificationError,
)
from ..lang.typecheck import CheckedFunction
from ..lang.types import (
    HmmType,
    IndexType,
    IntType,
    MatrixType,
    SeqType,
    StateType,
    TransitionType,
)
from ..schedule.multi import derive_schedule_set
from ..schedule.schedule import Schedule
from ..schedule.solver import (
    DEFAULT_BOUND,
    find_schedule,
    optimal_candidates,
)
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


class RunResult:
    """One problem solved on the simulated device.

    ``value`` is what the launch produced. ``table`` is computed on
    first read: a launch that could hand back the value without
    materialising the table (a blocked-wavefront kernel on the native
    rung — see :meth:`Engine.run`) did so, and the first access runs
    the full-table entry once and keeps the array. Every other launch
    filled its table up front and the attribute just returns it.
    """

    def __init__(
        self,
        value: object,
        table,
        kernel: Kernel,
        domain: Domain,
        cost: KernelCost,
        report: LaunchReport,
    ) -> None:
        self.value = value
        #: The filled table, or the zero-argument launch that fills it.
        self._table = table
        self.kernel = kernel
        self.domain = domain
        self.cost = cost
        self.report = report

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
    def seconds(self) -> float:
        """Total simulated launch time."""
        return self.report.total_seconds


class MapPricing(NamedTuple):
    """The simulated-device accounting of one ``map`` launch."""

    report: LaunchReport
    schedule_usage: Dict[Tuple[int, ...], int]
    costs: List[KernelCost]
    batched_costs: List[KernelCost]


class MapResult:
    """A ``map`` workload solved on the simulated device.

    ``values`` and the lane-batch accounting are what the launch
    produced. The simulated device's side — ``report``, ``costs``,
    ``schedule_usage``, ``batched_costs``, ``seconds`` — is a view,
    priced once on first read from what the launch observed (the
    prepared members, and each packed group's rung and thread count
    as they were when it ran): a caller that only wants the values
    does not pay for pricing a GTX 480.
    """

    def __init__(
        self,
        values: List[object],
        parallelism: str,
        pricing: Callable[[], MapPricing],
        lane_batched_problems: int = 0,
        batched_backends: Seq[str] = (),
    ) -> None:
        self.values = values
        self.parallelism = parallelism
        #: Lane-batched execution accounting: how many problems ran
        #: inside packed groups, and which rung each group actually
        #: ran on, in group order (``"native-batched"`` /
        #: ``"vector-batched"`` / ``"scalar-batched"`` after
        #: demotions).
        self.lane_batched_problems = lane_batched_problems
        self.batched_backends = list(batched_backends)
        self._pricing = pricing

    @property
    def lane_batches(self) -> int:
        """How many packed groups ran as single batched sweeps."""
        return len(self.batched_backends)

    @cached_property
    def _priced(self) -> MapPricing:
        return self._pricing()

    @property
    def report(self) -> LaunchReport:
        """The per-problem launch report (placement, device time)."""
        return self._priced.report

    @property
    def schedule_usage(self) -> Dict[Tuple[int, ...], int]:
        """Schedule coefficients -> how many problems ran under them."""
        return self._priced.schedule_usage

    @property
    def costs(self) -> List[KernelCost]:
        """Every problem's analytic kernel cost, in problem order."""
        return self._priced.costs

    @property
    def batched_costs(self) -> List[KernelCost]:
        """The packed groups' amortised analytic costs (one sync per
        *global* partition — see ``gpu.timing.batched_launch_cost``)."""
        return self._priced.batched_costs

    @property
    def seconds(self) -> float:
        """Total simulated launch time."""
        return self.report.total_seconds


class Engine:
    """Compiles and runs DSL functions on the simulated GPU."""

    def __init__(
        self,
        device: Optional[DeviceSpec] = None,
        prob_mode: str = "direct",
        schedule_bound: int = DEFAULT_BOUND,
        backend: Optional[str] = None,
        kernel_cache: Optional[LRUKernelCache] = None,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
        batching: bool = True,
        verify: str = "schedule",
        sanitize: bool = False,
    ) -> None:
        # ``backend=None`` (the default) defers to the REPRO_BACKEND
        # environment variable, then "auto". An env-provided backend
        # is a *preference* (it degrades gracefully when, say, no C
        # compiler exists); an explicit argument is *forced* and
        # raises instead of degrading.
        self.backend_forced = backend is not None
        if backend is None:
            backend = os.environ.get("REPRO_BACKEND") or "auto"
        if backend not in ("auto", "scalar", "vector", "native"):
            raise ValueError(f"unknown backend {backend!r}")
        if verify not in ("off", "schedule", "full"):
            raise ValueError(f"unknown verify mode {verify!r}")
        self.spec = device or GTX480
        self.device = SimulatedDevice(self.spec)
        self.prob_mode = prob_mode
        self.schedule_bound = schedule_bound
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
        #: ``"off"`` trusts the solver; ``"schedule"`` (the default)
        #: independently re-proves every schedule before first use;
        #: ``"full"`` adds the IR access/initialization analysis.
        self.verify = verify
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
        when nothing is verified (mode ``"off"``, or descents outside
        the single-function verifier's scope)."""
        if self.verify == "off":
            return None
        from ..verify.soundness import verdict_is_extent_free

        try:
            plan = function_plan(func)
        except AnalysisError:
            # Mutual groups / non-affine descents: out of the
            # single-function verifier's scope, not a failure.
            return None
        # The access and parallel-safety passes of "full" read the
        # real extents, so their verdicts are always per box.
        extent_free = self.verify == "schedule" and (
            verdict_is_extent_free(func, domain)
        )
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
        """Run the independent verifier, per the engine's mode.

        Verdicts are memoised per (function plan, schedule) — plus
        the concrete extents unless the verifier's proof is
        extent-free, in which case a new problem shape costs one
        probe and a partition count. Raises
        :class:`~repro.lang.errors.VerificationError` when any
        error-severity diagnostic survives; returns the certificate
        (or None when verification is off or the descents are outside
        the single-function verifier's scope).
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
            from ..verify import analyze_access
            from ..verify.soundness import verify_schedule

            certificate, diagnostics = verify_schedule(
                func, schedule, domain
            )
            if self.verify == "full":
                diagnostics += analyze_access(
                    func, domain,
                    schedule=schedule, prob_mode=self.prob_mode,
                )
                # Parallel-safety certificates on the real extents: a
                # refused axis is a warning (the native build simply
                # goes serial there), never a VerificationError.
                from ..verify.races import analyze_parallelism

                try:
                    parallel = analyze_parallelism(
                        build_kernel(
                            func, schedule, prob_mode=self.prob_mode
                        ),
                        extents=domain.extents,
                    )
                except AnalysisError:
                    parallel = None
                if parallel is not None:
                    diagnostics += parallel.diagnostics()
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
            func.name, rungs, self.backend, self.backend_forced,
            self.sanitize, large,
        )
        try:
            compiled = self._product(func, schedule, rung, kernel)
        except NativeBuildError as err:
            if self.backend == "native" and self.backend_forced:
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
            compiled = self._product(
                func, schedule, ladder.choose(rungs, large), kernel
            )
        if ladder.circuit_open(compiled):
            # The sandbox's crash breaker is open for this kernel:
            # route around native *without* rewriting the memo, so it
            # returns to native once the breaker half-opens.
            self.native_demotions += 1
            compiled = self._product(
                func, schedule,
                ladder.choose(rungs, large, allow_native=False), kernel,
            )
        return compiled

    def _product(
        self,
        func: CheckedFunction,
        schedule: Schedule,
        rung: str,
        kernel: Optional[Kernel] = None,
    ) -> CompiledKernel:
        """The kernel cache's product for ``rung``, built on a miss."""
        key = kernel_cache_key(func, schedule, self.prob_mode, rung)
        cached = self._cache.lookup(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        compiled = ladder.build(
            kernel or build_kernel(func, schedule, self.prob_mode), rung
        )
        self._cache.store(key, compiled)
        return compiled

    def schedule_for(
        self,
        func: CheckedFunction,
        domain: Domain,
        user_schedule: Optional[ast.Expr] = None,
        bindings: Optional[Bindings] = None,
    ) -> Schedule:
        """Pick the schedule: verify the user's, or search (Section
        4.6: fewest partitions). ``bindings`` is accepted and unused —
        the choice reads the function and the extents only."""
        if user_schedule is not None:
            from ..schedule.schedule import validate_user_schedule

            return validate_user_schedule(func, user_schedule, domain)
        if optimal_candidates(func, self.schedule_bound) is not None:
            # A pick among the function's own few candidates: cheaper
            # than remembering an answer per problem shape.
            return find_schedule(func, domain, self.schedule_bound)
        # A search that needs the extents: a lane-batched map group
        # solves one schedule for the whole batch, not one per member.
        key = (function_plan(func), "schedule", domain.extents)
        schedule = self._memo.lookup(key)
        if schedule is None:
            schedule = find_schedule(
                func, domain, bound=self.schedule_bound
            )
            self._memo.store(key, schedule)
        return schedule

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

    def result_coords(
        self,
        func: CheckedFunction,
        bindings: Bindings,
        domain: Domain,
        at: Optional[Mapping[str, int]] = None,
        initial: Optional[Dict[str, int]] = None,
    ) -> Tuple[int, ...]:
        """Where the requested value lives in the table.

        Defaults per dimension kind: indices at the sequence length,
        integers at their initial value, states at the model's end
        state, transitions need an explicit position.
        """
        at = dict(at or {})
        initial = initial or {}
        coords = []
        for param, extent in zip(func.recursive_params, domain.extents):
            if param.name in at:
                coords.append(int(at[param.name]))
            elif isinstance(param.type, IndexType):
                coords.append(extent - 1)
            elif isinstance(param.type, IntType):
                coords.append(initial.get(param.name, extent - 1))
            elif isinstance(param.type, StateType):
                hmm = bindings[param.type.hmm_param]
                assert isinstance(hmm, Hmm)
                coords.append(hmm.end_state.index)
            elif isinstance(param.type, TransitionType):
                raise RuntimeDslError(
                    f"dimension {param.name!r}: pass at={{...}} to pick "
                    f"a transition coordinate"
                )
            else:
                raise RuntimeDslError(
                    f"cannot default a coordinate for {param.name!r}"
                )
        return tuple(coords)

    def _table_for(self, kernel: Kernel, domain: Domain) -> np.ndarray:
        if kernel.body.return_kind == "int":
            return np.zeros(domain.extents, dtype=np.int64)
        return np.zeros(domain.extents, dtype=np.float64)

    def _result_request(
        self,
        func: CheckedFunction,
        bindings: Bindings,
        domain: Domain,
        at: Optional[Mapping[str, int]],
        initial: Optional[Dict[str, int]],
        reduce: Optional[str],
    ) -> Tuple[int, ...]:
        """What a launch is asked for, settled before it runs: the
        result coordinates, wrapped the way NumPy wraps a negative
        index, after refusing an unknown ``reduce`` and (when the
        coordinates are what will be read) an out-of-range one."""
        coords = self.result_coords(func, bindings, domain, at, initial)
        if reduce is not None:
            if reduce not in ("max", "min"):
                raise RuntimeDslError(f"unknown reduction {reduce!r}")
            return coords
        wrapped = []
        for axis, (index, extent) in enumerate(
            zip(coords, domain.extents)
        ):
            if not -extent <= index < extent:
                raise IndexError(
                    f"index {index} is out of bounds for axis {axis} "
                    f"with size {extent}"
                )
            wrapped.append(index % extent)
        return tuple(wrapped)

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
        elif reduce is None:
            raw = table[coords]
        else:
            raise RuntimeDslError(f"unknown reduction {reduce!r}")
        return self._value(kernel, raw)

    @staticmethod
    def _value(kernel: Kernel, raw) -> object:
        """A raw table cell as the DSL value it stands for."""
        if kernel.body.return_kind == "int":
            return int(raw)
        if kernel.logspace:
            return math.exp(raw) if raw != float("-inf") else 0.0
        return float(raw)

    def _problem_bytes(self, domain: Domain, bindings: Bindings) -> float:
        """Rough host->device payload of one problem."""
        total = 8.0 * domain.extents[-1]  # result row copied back
        for value in bindings.values.values():
            if isinstance(value, Sequence):
                total += len(value)
        return total

    def _execute(self, target, table, ctx, domain) -> None:
        """The default launch: one in-process call of a compiled
        kernel or lane-batched launch (sanitized on request)."""
        if self.sanitize:
            from ..verify.sanitizer import run_sanitized

            run_sanitized(target, table, ctx, domain)
        else:
            target.run(table, ctx)

    def _price(
        self,
        func: CheckedFunction,
        compiled: CompiledKernel,
        bound: Bindings,
        domain: Domain,
        use_window: bool,
        sizes,
    ) -> Tuple[KernelCost, ProblemCost]:
        """Analytic cost of one problem and its launch-queue entry."""
        cost = kernel_cost(
            compiled.kernel,
            domain,
            self.spec,
            mean_degree=self.mean_degree(func, bound),
            use_window=use_window,
            sizes=sizes,
        )
        problem = ProblemCost(
            cost.seconds,
            bytes_in=self._problem_bytes(domain, bound),
            packing=problems_per_sm(
                compiled.kernel, domain, self.spec, sizes=sizes
            ),
        )
        return cost, problem

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
        """Solve one problem end to end on the simulated device.

        The result is settled before the launch: an unknown
        ``reduce`` or an ``at=`` outside the table raises without
        running anything. When nobody needs the table up front — the
        default launch, unsanitized, of an in-process native run
        whose entry has a result-only mode
        (:attr:`~repro.runtime.native.NativeRun.result_only`) — the
        kernel hands back the value alone and ``RunResult.table``
        runs the full-table entry on first read, through the same
        :func:`ladder.launch` seam.

        ``_launch`` is the private launch seam — a callable
        ``(compiled_or_batched_launch, table, ctx, domain)`` that
        fills the table (default: :meth:`_execute`). The resilience
        supervisor passes its checkpointed executor here, so domain,
        schedule, verification, rung, context, pricing and extraction
        are this one code path whether or not a run is supervised.
        """
        bound = Bindings(dict(bindings))
        domain = self.domain_of(func, bound, initial)
        coords = self._result_request(
            func, bound, domain, at, initial, reduce
        )
        schedule = self.schedule_for(func, domain, user_schedule)
        self.verify_compiled(func, schedule, domain)
        compiled = self.compile(func, schedule, domain)
        ctx = self.build_context(compiled, bound, domain)

        # One convolution per launch: the cost model and the packing
        # rule both read it.
        sizes = partition_sizes(schedule, domain)
        cost, problem = self._price(
            func, compiled, bound, domain, use_window, sizes
        )

        kernel = compiled.kernel
        execute = _launch or self._execute

        def fill() -> np.ndarray:
            table = self._table_for(kernel, domain)
            ladder.launch(self, execute, compiled, table, ctx, domain)
            return table

        if (
            _launch is None
            and not self.sanitize
            and getattr(compiled.run, "result_only", False)
        ):
            table = fill
            value = self._value(
                kernel, compiled.run.result(ctx, reduce, coords)
            )
        else:
            table = fill()
            value = self._extract(kernel, table, coords, reduce)
        report = self.device.launch([problem])
        return RunResult(value, table, kernel, domain, cost, report)

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
        triples in problem order.
        """
        prepared = self._prepare_members(
            func, base_bindings, problems, initial
        )
        return (prepared,) + self._price_members(
            func, prepared, use_window
        )

    def _prepare_members(
        self,
        func: CheckedFunction,
        base_bindings: Mapping[str, object],
        problems: Seq[Mapping[str, object]],
        initial: Optional[Dict[str, int]] = None,
    ) -> List[Tuple[Bindings, Domain, CompiledKernel]]:
        """Bind, size, schedule, verify and compile every problem.

        Per member only what depends on the member: the bindings
        merge, the extents, the schedule selection. Within the call
        the rung and product are resolved once per distinct
        (schedule, size class) and the verifier is asked once per
        distinct verdict key — so whatever it proves per box (the
        brute-force leg, non-uniform descents, ``verify="full"``) is
        still proved per box, while any number of members under one
        extent-free verdict cost one memo probe.
        """
        try:
            schedule_set = derive_schedule_set(
                func, bound=self.schedule_bound
            )
        except ScheduleError:
            schedule_set = None

        prepared = []
        products: Dict[tuple, CompiledKernel] = {}
        proved: set = set()
        for overrides in problems:
            bound = Bindings({**base_bindings, **overrides})
            domain = self.domain_of(func, bound, initial)
            if schedule_set is not None:
                schedule = schedule_set.select(domain.extent_map())
            else:
                schedule = self.schedule_for(func, domain)
            verdict = self._verdict_key(func, schedule, domain)
            if verdict is not None and verdict not in proved:
                self._verdict(verdict, func, schedule, domain)
                proved.add(verdict)
            size_class = (schedule, ladder.is_large(domain))
            compiled = products.get(size_class)
            if compiled is None:
                compiled = products[size_class] = self.compile(
                    func, schedule, domain
                )
            prepared.append((bound, domain, compiled))
        return prepared

    def _price_members(
        self, func: CheckedFunction, prepared, use_window: bool
    ) -> Tuple[
        List[KernelCost], Dict[Tuple[int, ...], int], List[ProblemCost]
    ]:
        """``(costs, usage, problem_costs)`` of prepared members."""
        costs: List[KernelCost] = []
        usage: Dict[Tuple[int, ...], int] = {}
        problem_costs: List[ProblemCost] = []
        for bound, domain, compiled in prepared:
            cost, problem = self._price(
                func, compiled, bound, domain, use_window,
                partition_sizes(compiled.schedule, domain),
            )
            costs.append(cost)
            coeffs = compiled.schedule.coefficients
            usage[coeffs] = usage.get(coeffs, 0) + 1
            problem_costs.append(problem)
        return costs, usage, problem_costs

    def map_run(
        self,
        func: CheckedFunction,
        base_bindings: Mapping[str, object],
        problems: Seq[Mapping[str, object]],
        at: Optional[Mapping[str, int]] = None,
        initial: Optional[Dict[str, int]] = None,
        use_window: bool = True,
        reduce: Optional[str] = None,
        parallelism: str = "intra",
        hybrid_threshold: Optional[int] = None,
        execute: bool = True,
        _launch=None,
    ) -> MapResult:
        """Solve many problems: the ``map`` primitive (Section 4.7).

        Each problem overrides some calling parameters (typically the
        database sequence). Schedules come from the compile-time
        schedule set when the descents are uniform, chosen per problem
        by the minimality condition; otherwise each problem gets a
        runtime search (both paths share the kernel cache).

        ``parallelism`` picks the strategy (Section 6.1):

        * ``"intra"`` — one problem per multiprocessor, threads
          cooperate on partitions (the paper's focus);
        * ``"inter"`` — one problem per *thread* ("algorithmically
          trivial" sequence-per-thread generation);
        * ``"hybrid"`` — CUDASW++-style split: problems smaller than
          ``hybrid_threshold`` cells go inter-task, the rest intra.

        The functional results are identical in every mode; only the
        device-time accounting differs, and that accounting is priced
        when the result's ``report``/``costs``/... are first read
        (see :class:`MapResult`). ``execute=False`` prices the launch
        without computing the tables (``values`` stay None) — for
        large sweeps where only the timing matters. ``_launch`` is the
        private launch seam of :meth:`run`.
        """
        if parallelism not in ("intra", "inter", "hybrid"):
            raise RuntimeDslError(
                f"unknown parallelism {parallelism!r}"
            )
        prepared = self._prepare_members(
            func, base_bindings, problems, initial
        )
        values: List[object] = [None] * len(prepared)
        launch = _launch or self._execute

        # Lane batching: groups of same-kernel problems run as single
        # padded sweeps, then the rest one launch each. The analytic
        # launch report keeps the per-problem costs — placement and
        # device time are modelled unchanged — while ``batched_costs``
        # records the amortised (one sync per global partition)
        # pricing. Sanitized runs step partition-by-partition; the
        # packed sweep cannot, so batching stands down.
        batch_groups: List[List[int]] = []
        if (
            execute and parallelism == "intra" and self.batching
            and not self.sanitize and len(prepared) > 1
        ):
            from . import native as native_rt
            from .batching import BatchedLaunch, pack_group, plan_batches

            batch_groups = plan_batches(prepared)
        batched_backends: List[str] = []
        group_threads: List[int] = []
        for group in batch_groups:
            packed = pack_group(
                prepared[group[0]][2],
                [prepared[i][:2] for i in group],
                indices=group,
            )
            # One launch for the whole group: a crash kills one
            # disposable worker and demotes the group as a unit.
            group_launch = ladder.launch(
                self, launch, BatchedLaunch(packed),
                packed.table, packed.ctx, packed.padded_domain,
            )
            for index, value in zip(
                group,
                self._group_values(func, packed, at, initial, reduce),
            ):
                values[index] = value
            # Pricing reads the rung and thread count the group
            # *ran* on, so they are taken now, not when it is priced.
            batched_backends.append(group_launch.backend)
            group_threads.append(
                native_rt.effective_threads()
                if group_launch.rung == "native"
                else 1
            )
        if execute:
            batched = {i for group in batch_groups for i in group}
            for index, (bound, domain, compiled) in enumerate(prepared):
                if index in batched:
                    continue
                ctx = self.build_context(compiled, bound, domain)
                table = self._table_for(compiled.kernel, domain)
                ladder.launch(self, launch, compiled, table, ctx, domain)
                coords = (
                    None
                    if reduce
                    else self.result_coords(
                        func, bound, domain, at, initial
                    )
                )
                values[index] = self._extract(
                    compiled.kernel, table, coords, reduce
                )
        return MapResult(
            values,
            parallelism,
            partial(
                self._price_map, func, prepared, use_window,
                parallelism, hybrid_threshold,
                list(zip(batch_groups, group_threads)),
            ),
            lane_batched_problems=sum(map(len, batch_groups)),
            batched_backends=batched_backends,
        )

    def _group_values(
        self, func, packed, at, initial, reduce
    ) -> List[object]:
        """Every member's result out of a packed group's table."""
        kernel = packed.compiled.kernel
        coords = None
        if reduce is None:
            coords = self._group_coords(func, packed, at, initial)
            if ((coords >= 0) & (coords < packed.extents)).all():
                # Every coordinate is a cell of its own member: one
                # gather from the padded table reads them all.
                raws = packed.table[
                    (np.arange(len(coords)),) + tuple(coords.T)
                ]
                return [self._value(kernel, raw) for raw in raws.tolist()]
        return [
            self._extract(
                kernel, packed.member_view(slot),
                None if coords is None else tuple(coords[slot]),
                reduce,
            )
            for slot in range(len(packed.domains))
        ]

    def _group_coords(self, func, packed, at, initial) -> np.ndarray:
        """:meth:`result_coords` of every member of a packed group,
        one row each: the first member's, with only the columns that
        follow the member — an index dimension's own length, a state
        dimension's own model — filled per member."""
        at = at or {}
        coords = np.empty_like(packed.extents)
        coords[:] = self.result_coords(
            func, *packed.members[0], at, initial
        )
        for axis, param in enumerate(func.recursive_params):
            if param.name in at:
                continue
            if isinstance(param.type, IndexType):
                coords[:, axis] = packed.extents[:, axis] - 1
            elif isinstance(param.type, StateType):
                coords[:, axis] = [
                    bound[param.type.hmm_param].end_state.index
                    for bound, _ in packed.members
                ]
        return coords

    def _price_map(
        self,
        func: CheckedFunction,
        prepared,
        use_window: bool,
        parallelism: str,
        hybrid_threshold: Optional[int],
        groups: Seq[Tuple[List[int], int]],
    ) -> MapPricing:
        """Price a ``map`` launch on the simulated device: every
        member, each lane-batched group (``groups`` pairs a group's
        indices with the thread count it ran on), and the launch
        report of the chosen ``parallelism``."""
        costs, usage, problem_costs = self._price_members(
            func, prepared, use_window
        )
        batched_costs = [
            batched_launch_cost(
                prepared[group[0]][2].kernel,
                [prepared[i][1] for i in group],
                self.spec,
                mean_degree=self.mean_degree(
                    func, prepared[group[0]][0]
                ),
                threads=threads,
            )
            for group, threads in groups
        ]
        if parallelism == "intra":
            return MapPricing(
                self.device.launch(problem_costs), usage, costs,
                batched_costs,
            )
        # Inter/hybrid: pricing splits the problem set by strategy.
        threshold = hybrid_threshold or 64 * 64
        intra_costs: List[ProblemCost] = []
        inter_domains = []
        mean = 1.0
        kernel = prepared[0][2].kernel if prepared else None
        for (bound, domain, compiled), cost in zip(
            prepared, problem_costs
        ):
            mean = self.mean_degree(func, bound)
            if parallelism == "inter" or domain.size < threshold:
                inter_domains.append(domain)
                kernel = compiled.kernel
            else:
                intra_costs.append(cost)
        seconds = 0.0
        if inter_domains and kernel is not None:
            seconds += inter_task_seconds(
                kernel, inter_domains, self.spec, mean
            )
        if intra_costs:
            seconds += self.device.launch(intra_costs).kernel_seconds
        report = LaunchReport(
            device=self.spec.name,
            problems=len(prepared),
            kernel_seconds=seconds,
            transfer_seconds=self.spec.transfer_seconds(
                sum(
                    self._problem_bytes(d, b)
                    for b, d, _ in prepared
                )
            ),
            overhead_seconds=self.spec.launch_overhead_s,
        )
        return MapPricing(report, usage, costs, batched_costs)
