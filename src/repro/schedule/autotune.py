"""Cost-model-guided schedule autotuning (portfolio search).

The Section 4.6 solver minimises the *partition count* — a proxy for
runtime. The analytic device model (:mod:`repro.gpu.timing`) prices
what actually differs between valid schedules: barrier (sync) cycles
per partition, warp-granular occupancy of each partition, and — the
decisive term — whether the Section 4.8 sliding window fits shared
memory, which swaps every table read between the global and shared
rates. The minimum-partition schedule maximises the widest partition,
so on large domains it is exactly the schedule most likely to spill
the window out of shared memory; a slightly "worse" schedule (one
more partition per row) with a resident window wins by the memory
gap.

:func:`autotune_schedule` searches that trade-off:

* **enumerate** coefficient vectors inside the solver bound, depth
  first over the dimensions;
* **prune dominated subtrees**: a partial vector already fixes a
  lower bound on the span, and
  :func:`repro.gpu.timing.cost_lower_bound` turns a span into cycles
  no completion can beat — subtrees whose bound exceeds the incumbent
  (the best *complete* candidate so far) are never expanded, and
  vectors with a common factor are skipped as non-normal-form
  duplicates of their reduced form (same partition sets, strictly
  more barriers);
* **score survivors** with the full model (window size from
  :func:`repro.schedule.window.window_size`), checking the validity
  criteria *lazily* — only for vectors whose predicted cost is
  competitive, because binder criteria cost an LP each;
* optionally **measure** the top-k survivors through a caller-supplied
  ``measure_fn`` (the engine compiles and times them natively when
  ``REPRO_AUTOTUNE_MEASURE=k`` is set — off by default so tier-1
  stays compiler-free);
* **re-prove** the winner with the independent verifier
  (:func:`repro.verify.soundness.verify_schedule` certificate plus
  the :mod:`repro.verify.races` parallel-safety certificate) before
  adoption — a candidate that fails verification is discarded and the
  next-ranked one tried, falling back to the solver's default.

Ties at equal predicted cost resolve by the solvers' shared
:func:`repro.schedule.solver.tie_break_key`, so the autotuner is
deterministic across orthants, runs and Python versions — the kernel
cache and the differential fuzzer rely on that.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from math import gcd
from typing import Callable, List, Optional, Tuple

from ..analysis.domain import Domain
from ..analysis.plan import function_plan
from ..gpu.spec import DeviceSpec, GTX480
from ..gpu.timing import KernelCost, cost_lower_bound, kernel_cost
from ..lang.typecheck import CheckedFunction
from .schedule import Schedule
from .solver import DEFAULT_BOUND, find_schedule, tie_break_key
from .window import window_size

#: Environment knob: compile-and-time this many top-predicted
#: candidates for measured feedback. 0 (the default) keeps the search
#: purely analytic — no compiler in the loop, so tier-1 never builds.
MEASURE_ENV = "REPRO_AUTOTUNE_MEASURE"

#: Ranked candidates kept in the result's portfolio.
PORTFOLIO_SIZE = 8

#: With measured feedback on, candidates predicted within this factor
#: of the best stay in the portfolio — the model's ordering between
#: near-ties is exactly what measurement is there to settle.
PORTFOLIO_SLACK = 1.25


def measure_from_env() -> int:
    """The ``REPRO_AUTOTUNE_MEASURE`` top-k, 0 when unset/garbage."""
    try:
        return max(0, int(os.environ[MEASURE_ENV]))
    except (KeyError, ValueError):
        return 0


@dataclass(frozen=True)
class Candidate:
    """One valid schedule with its predicted (and measured) cost."""

    schedule: Schedule
    predicted: KernelCost
    measured_seconds: Optional[float] = None


@dataclass(frozen=True)
class AutotuneStats:
    """Diagnostics from one autotuning search."""

    #: Complete normal-form vectors priced by the cost model.
    enumerated: int
    #: Subtrees (plus dominated complete vectors) the incumbent
    #: lower-bound cut before pricing or validity checking.
    pruned: int
    #: Vectors that reached the (possibly LP-backed) validity check.
    validity_checks: int
    #: Candidates timed through ``measure_fn``.
    measured: int
    search_seconds: float
    #: The winner came from the persistent cache, not a search.
    cache_hit: bool = False


@dataclass(frozen=True)
class AutotuneResult:
    """The adopted schedule plus everything needed to defend it."""

    schedule: Schedule
    default: Schedule
    predicted: KernelCost
    default_predicted: KernelCost
    candidates: Tuple[Candidate, ...]
    stats: AutotuneStats
    #: Independent soundness certificate for the winner (None only
    #: when verification was out of scope and the default was kept).
    certificate: object = None
    #: Parallel-safety certificate for the winner's kernel (None when
    #: the analysis refused the kernel outright).
    parallelism: object = None

    @property
    def improved(self) -> bool:
        """Did the search adopt something other than the default?"""
        return self.schedule != self.default

    @property
    def predicted_speedup(self) -> float:
        """Model-predicted speedup of the winner over the default."""
        if not self.predicted.cycles:
            return 1.0
        return self.default_predicted.cycles / self.predicted.cycles


def _normal_form(coeffs: Tuple[int, ...]) -> bool:
    """Is this vector gcd-reduced? ``k*S`` partitions the domain into
    the same cell sets as ``S`` but with ``k``-fold the barriers —
    always dominated, so only reduced vectors are enumerated."""
    g = 0
    for a in coeffs:
        g = gcd(g, abs(a))
    return g <= 1


def autotune_schedule(
    func: CheckedFunction,
    domain: Domain,
    spec: DeviceSpec = GTX480,
    *,
    prob_mode: str = "direct",
    bound: int = DEFAULT_BOUND,
    mean_degree: float = 1.0,
    measure: int = 0,
    measure_fn: Optional[Callable[[Schedule], Optional[float]]] = None,
    kernel_builder=None,
    verify_winner: bool = True,
    portfolio: int = PORTFOLIO_SIZE,
) -> AutotuneResult:
    """Search for the cheapest valid schedule the model can defend.

    ``measure`` > 0 times the top-k predicted candidates through
    ``measure_fn(schedule) -> seconds | None`` (None/exception = this
    candidate stays analytic); measured candidates outrank analytic
    ones. ``kernel_builder(schedule) -> Kernel`` overrides the default
    lowering (the engine passes its own to share work); the kernel is
    built **once** for pricing — operation counts are
    schedule-independent — and once more for the winner's
    parallel-safety certificate if a non-default schedule wins.
    """
    started = time.perf_counter()
    criteria = function_plan(func).criteria
    dims = func.dim_names
    default = find_schedule(func, domain, bound=bound)
    if kernel_builder is None:
        from ..ir.kernel import build_kernel

        def kernel_builder(schedule):
            return build_kernel(func, schedule, prob_mode=prob_mode)

    kernel = kernel_builder(default)

    def price(schedule: Schedule) -> KernelCost:
        return kernel_cost(
            kernel,
            domain,
            spec,
            mean_degree=mean_degree,
            schedule=schedule,
            window=window_size(schedule, criteria),
        )

    default_cost = price(default)
    default_candidate = Candidate(default, default_cost)
    if not criteria:
        # No recursive calls: the all-zero schedule is one partition
        # of independent cells — the model's floor. Nothing to tune.
        return AutotuneResult(
            schedule=default,
            default=default,
            predicted=default_cost,
            default_predicted=default_cost,
            candidates=(default_candidate,),
            stats=AutotuneStats(
                0, 0, 0, 0, time.perf_counter() - started
            ),
        )

    extents = domain.extent_map()
    weights = [extents[d] - 1 for d in dims]
    rank = len(dims)
    slack = PORTFOLIO_SLACK if measure > 0 else 1.0

    # Per-dimension values in tie_break_key order (0, 1, -1, 2, ...):
    # within every pruned subtree, complete vectors appear in the
    # canonical preference order, and the final rank re-sorts by
    # (predicted, tie_break_key) anyway — determinism twice over.
    values_order = [0]
    for magnitude in range(1, bound + 1):
        values_order += [magnitude, -magnitude]

    pool = {default.coefficients: default_candidate}
    incumbent = [default_cost.cycles]
    enumerated = [0]
    pruned = [0]
    validity_checks = [0]

    def admit_bound() -> float:
        return incumbent[0] * slack

    def visit(prefix: List[int], span: int) -> None:
        floor = cost_lower_bound(
            kernel, domain, spec, span + 1, mean_degree
        )
        if floor > admit_bound():
            pruned[0] += 1
            return
        if len(prefix) == rank:
            coeffs = tuple(prefix)
            if all(a == 0 for a in coeffs):
                return
            if not _normal_form(coeffs):
                return
            if coeffs == default.coefficients:
                return  # already seeded as the incumbent
            enumerated[0] += 1
            schedule = Schedule(tuple(dims), coeffs)
            cost = price(schedule)
            if cost.cycles > admit_bound():
                pruned[0] += 1
                return
            # Validity last: binder criteria can cost an LP each, so
            # only model-competitive vectors pay for the check.
            validity_checks[0] += 1
            coeff_map = schedule.coefficient_map()
            if not all(
                c.is_satisfied(coeff_map, extents) for c in criteria
            ):
                return
            pool[coeffs] = Candidate(schedule, cost)
            if cost.cycles < incumbent[0]:
                incumbent[0] = cost.cycles
            return
        k = len(prefix)
        for value in values_order:
            prefix.append(value)
            visit(prefix, span + abs(value) * weights[k])
            prefix.pop()

    visit([], 0)

    def rank_key(candidate: Candidate):
        return (
            candidate.predicted.cycles,
            tie_break_key(candidate.schedule.coefficients),
        )

    ranked = sorted(pool.values(), key=rank_key)
    best_cycles = ranked[0].predicted.cycles
    ranked = [
        c for c in ranked if c.predicted.cycles <= best_cycles * slack
    ][:portfolio]

    measured_count = 0
    if measure > 0 and measure_fn is not None and len(ranked) > 1:
        timed: List[Candidate] = []
        for candidate in ranked[:measure]:
            try:
                seconds = measure_fn(candidate.schedule)
            except Exception:
                seconds = None
            if seconds is not None:
                measured_count += 1
            timed.append(
                Candidate(
                    candidate.schedule, candidate.predicted, seconds
                )
            )
        ranked = timed + ranked[measure:]

        def measured_key(candidate: Candidate):
            if candidate.measured_seconds is not None:
                return (
                    0,
                    candidate.measured_seconds,
                    tie_break_key(candidate.schedule.coefficients),
                )
            return (1,) + rank_key(candidate)

        ranked.sort(key=measured_key)

    winner, certificate, parallelism = _gated_winner(
        func,
        domain,
        kernel,
        kernel_builder,
        ranked,
        default_candidate,
        verify_winner,
    )
    stats = AutotuneStats(
        enumerated=enumerated[0],
        pruned=pruned[0],
        validity_checks=validity_checks[0],
        measured=measured_count,
        search_seconds=time.perf_counter() - started,
    )
    return AutotuneResult(
        schedule=winner.schedule,
        default=default,
        predicted=winner.predicted,
        default_predicted=default_cost,
        candidates=tuple(ranked),
        stats=stats,
        certificate=certificate,
        parallelism=parallelism,
    )


def _gated_winner(
    func,
    domain,
    default_kernel,
    kernel_builder,
    ranked: List[Candidate],
    default_candidate: Candidate,
    verify_winner: bool,
):
    """First ranked candidate the independent verifier will sign.

    Soundness certificate must prove every call site; parallel-safety
    diagnostics must carry no error (a *refused* axis is a warning —
    the backend simply goes serial there — matching the engine's
    ``verify="full"`` policy). Verification out of scope (mutual
    groups, non-affine descents) keeps the solver default: an
    unprovable win is not adopted.
    """
    if not verify_winner:
        winner = ranked[0] if ranked else default_candidate
        return winner, None, None
    from ..lang.errors import AnalysisError
    from ..verify.races import parallelism_certificate
    from ..verify.soundness import verify_schedule

    for candidate in ranked:
        try:
            certificate, _ = verify_schedule(
                func, candidate.schedule, domain
            )
        except AnalysisError:
            return default_candidate, None, None
        if not certificate.ok:
            continue
        kernel = (
            default_kernel
            if candidate.schedule == default_kernel.schedule
            else kernel_builder(candidate.schedule)
        )
        try:
            parallel = parallelism_certificate(
                kernel, extents=domain.extents
            )
        except AnalysisError:
            parallel = None
        if parallel is not None and any(
            d.severity == "error" for d in parallel.diagnostics()
        ):
            continue
        return candidate, certificate, parallel
    return default_candidate, None, None
