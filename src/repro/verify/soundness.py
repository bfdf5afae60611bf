"""Independent schedule-soundness (race) verification.

For every recursive call site with descent ``r``, re-prove

    ``S_f(x) - S_f(r(x)) >= 1   for all x in the domain box``

— the paper's validity criterion (Section 4.5) in its integer form.
Strict decrease at every direct dependence edge implies, by induction
over edges, the Fig. 8 partition invariant: no two cells of the same
partition depend on each other (directly or transitively), so all
cells of a partition may run concurrently between barriers.

The proof machinery here is deliberately *separate* from
:meth:`repro.analysis.criteria.Criterion.min_delta`, which feeds the
schedule solver — a bug there must not be able to certify its own
output. Descent extraction (the ``descents`` of the function's
:class:`~repro.analysis.plan.FunctionPlan`) is shared: it is the
solver-independent reading of the program text that both sides must
agree on by construction.

A call site whose descent is uniform with no range binder has the
*constant* delta ``-a . c``: its minimum over any box is that
constant, so the verdict holds for every extents and is proved once
per (function, schedule) — by the same :func:`verify_call_site`
arithmetic — and remembered on the plan. Sites with free or ranged
components are re-proved for every box.

Free descent components (e.g. ``forward(t.start, i - 1)``) are
worst-cased at ``-|a_k| * (N_k - 1)`` exactly as Section 5.2
prescribes; range binders become extra integer variables constrained
by their affine bounds. On small domains the algebraic proof is
additionally cross-checked by brute-force edge enumeration.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.affine import Affine
from ..analysis.descent import DescentFunction
from ..analysis.domain import Domain
from ..analysis.plan import FunctionPlan, function_plan
from ..lang.typecheck import CheckedFunction
from ..schedule.schedule import Schedule
from .diagnostics import Diagnostic, Severity
from .exact import constrained_min, vertex_max, vertex_min

#: Brute-force every dependence edge as a second, concrete proof when
#: the domain has at most this many points.
BRUTE_FORCE_CAP = 4096

#: Schedules per function whose extent-free call-site verdicts stay
#: remembered (oldest dropped first). A function meets a handful —
#: the solver's candidates, a user clause.
SITE_MEMO_CAP = 64


@dataclass(frozen=True)
class CallSiteVerdict:
    """The verified delta of one recursive call site."""

    descent: str
    min_delta: Optional[float]  # None: the dependence never occurs
    exact: bool
    ok: bool


@dataclass(frozen=True)
class ScheduleCertificate:
    """The machine-checkable product of one verification.

    ``partitions`` is the independently computed partition count
    ``max S - min S + 1`` over the box (the Section 4.6 goal the
    solver claims to minimise).
    """

    function: str
    schedule: Schedule
    extents: Tuple[Tuple[str, int], ...]
    partitions: int
    call_sites: Tuple[CallSiteVerdict, ...]

    @property
    def ok(self) -> bool:
        """Did every call site verify?"""
        return all(v.ok for v in self.call_sites)

    def for_domain(self, domain: Domain) -> "ScheduleCertificate":
        """This certificate restated for another box.

        Only meaningful when the verdict is extent-free
        (:func:`verdict_is_extent_free`): the call-site verdicts carry
        over and the partition count is recomputed.
        """
        extent_map = domain.extent_map()
        extents = tuple(sorted(extent_map.items()))
        if extents == self.extents:
            return self
        return replace(
            self,
            extents=extents,
            partitions=_partition_count(self.schedule, extent_map),
        )

    @property
    def summary(self) -> str:
        """The one-line verdict ``explain`` and lint print."""
        if self.ok:
            return (
                f"schedule verified: {self.partitions} partitions, "
                f"all deltas >= 1"
            )
        failing = sum(1 for v in self.call_sites if not v.ok)
        return (
            f"schedule NOT verified: {failing} of "
            f"{len(self.call_sites)} call sites violate the "
            f"dependence order"
        )


def _delta_parts(
    descent: DescentFunction,
    coeffs: Dict[str, int],
    extents: Dict[str, int],
) -> Tuple[Affine, int]:
    """``S(x) - S(r(x))`` split into affine part + free worst case."""
    delta = Affine.constant(0)
    free_penalty = 0
    for comp in descent.components:
        a_k = coeffs.get(comp.dim, 0)
        if a_k == 0:
            continue
        if comp.is_free:
            # The callee coordinate can be anything in 0..N_k-1, so
            # the term a_k*(x_k - r_k) can sink to -|a_k|*(N_k - 1).
            free_penalty -= abs(a_k) * (extents[comp.dim] - 1)
            continue
        assert comp.affine is not None
        delta = delta + (
            Affine.variable(comp.dim) - comp.affine
        ).scale(a_k)
    return delta, free_penalty


def _binder_setup(
    descent: DescentFunction, extents: Dict[str, int]
) -> Tuple[List[Affine], Dict[str, Tuple[int, int]], bool]:
    """Constraints + variable bounds for the descent's range binders.

    Returns ``(constraints, var_bounds, possible)``; ``possible`` is
    False when some binder's range is empty over the whole box, i.e.
    the reduction body (and the dependence) never evaluates.
    """
    constraints: List[Affine] = []
    var_bounds: Dict[str, Tuple[int, int]] = {}
    for binder in descent.binders:
        lo_min = vertex_min(binder.lo, extents)
        hi_max = vertex_max(binder.hi, extents)
        if lo_min is None or hi_max is None or hi_max < lo_min:
            return [], {}, False
        var_bounds[binder.name] = (lo_min, hi_max)
        name = Affine.variable(binder.name)
        constraints.append(name - binder.lo)  # k >= lo(x)
        constraints.append(binder.hi - name)  # k <= hi(x)
    return constraints, var_bounds, True


def verify_call_site(
    descent: DescentFunction,
    schedule: Schedule,
    domain: Domain,
) -> CallSiteVerdict:
    """Prove ``min S(x) - S(r(x)) >= 1`` for one call site."""
    extents = domain.extent_map()
    coeffs = schedule.coefficient_map()
    delta, free_penalty = _delta_parts(descent, coeffs, extents)
    constraints, var_bounds, possible = _binder_setup(
        descent, extents
    )
    if not possible:
        return CallSiteVerdict(str(descent), None, True, True)
    result = constrained_min(
        delta, extents, constraints, var_bounds=var_bounds
    )
    if result.empty:
        # The binder ranges are never simultaneously non-empty: the
        # dependence never materialises (a vacuous criterion).
        return CallSiteVerdict(str(descent), None, True, True)
    minimum = result.value + free_penalty
    return CallSiteVerdict(
        str(descent), minimum, result.exact, minimum >= 1
    )


def _extent_free(descent: DescentFunction) -> bool:
    """Is ``S(x) - S(r(x))`` the constant ``-a . c`` whatever the box?"""
    return descent.is_uniform and not descent.binders


def verdict_is_extent_free(
    func: CheckedFunction,
    domain: Domain,
    brute_force_cap: int = BRUTE_FORCE_CAP,
) -> bool:
    """Does one verdict per (function, schedule) cover ``domain``?

    True when every call site has a constant delta and the box is
    beyond the brute-force leg, which always runs per extents.
    """
    return domain.size > brute_force_cap and all(
        _extent_free(d) for d in function_plan(func).descents
    )


def _call_site_verdicts(
    plan: FunctionPlan, schedule: Schedule, domain: Domain
) -> List[CallSiteVerdict]:
    """One verdict per call site: remembered where extent-free."""
    proved = plan.site_verdicts.get(schedule)
    if proved is None:
        proved = tuple(
            verify_call_site(descent, schedule, domain)
            if _extent_free(descent)
            else None
            for descent in plan.descents
        )
        if len(plan.site_verdicts) >= SITE_MEMO_CAP:
            del plan.site_verdicts[next(iter(plan.site_verdicts))]
        plan.site_verdicts[schedule] = proved
    return [
        verdict or verify_call_site(descent, schedule, domain)
        for descent, verdict in zip(plan.descents, proved)
    ]


def _partition_count(
    schedule: Schedule, extents: Dict[str, int]
) -> int:
    """``max S - min S + 1`` over the box, by vertex enumeration."""
    affine = schedule.affine
    smin = vertex_min(affine, extents)
    smax = vertex_max(affine, extents)
    if smin is None or smax is None:
        return 0
    return smax - smin + 1


def _violating_cells(
    descent: DescentFunction,
    partition: np.ndarray,
    coords: np.ndarray,
    domain: Domain,
) -> np.ndarray:
    """Mask of cells with an in-box callee that is not strictly earlier.

    ``partition`` holds ``S`` at every cell. Tracked components give
    one callee coordinate array per dimension, read back out of
    ``partition`` — the whole box per comparison. Only the *values*
    of range binders and free components are looped over: a binder
    value is live at the cells whose bounds admit it, a free
    coordinate takes every value of its dimension.
    """
    box = domain.extents
    env: Dict[str, object] = dict(zip(domain.dims, coords))
    bad = np.zeros(box, dtype=bool)
    ranges = [
        (
            binder.name,
            np.broadcast_to(binder.lo.evaluate(env), box),
            np.broadcast_to(binder.hi.evaluate(env), box),
        )
        for binder in descent.binders
    ]
    free_values = [
        range(extent)
        for comp, extent in zip(descent.components, box)
        if comp.is_free
    ]
    for values in itertools.product(
        *(range(int(lo.min()), int(hi.max()) + 1) for _, lo, hi in ranges)
    ):
        live = np.ones(box, dtype=bool)
        for (name, lo, hi), value in zip(ranges, values):
            live &= (lo <= value) & (value <= hi)
            env[name] = value
        callee: List[Optional[np.ndarray]] = []
        for comp, extent in zip(descent.components, box):
            if comp.is_free:
                callee.append(None)
                continue
            assert comp.affine is not None
            coordinate = np.broadcast_to(comp.affine.evaluate(env), box)
            live &= (coordinate >= 0) & (coordinate < extent)
            callee.append(coordinate)
        if not live.any():
            continue
        # Out-of-box callees are masked by ``live``; index cell 0
        # there so the gather itself stays in bounds.
        callee = [
            None if c is None else np.where(live, c, 0) for c in callee
        ]
        for chosen in itertools.product(*free_values):
            free = iter(chosen)
            index = tuple(
                next(free) if c is None else c for c in callee
            )
            bad |= live & (partition <= partition[index])
    return bad


def _brute_force_edges(
    func: CheckedFunction, schedule: Schedule, domain: Domain
) -> Optional[str]:
    """Check every dependence edge of a small domain concretely.

    Returns a description of the first violating edge (descents in
    order, then cells lexicographically, then callees in enumeration
    order), or None. This checks both strict decrease *and* the
    Fig. 8 same-partition independence directly on points, as a
    belt-and-braces second proof independent of the algebra above.
    ``S`` is evaluated over the whole box once and whole-box callee
    views are compared against it; the edge-at-a-time walk only runs
    at the one cell that gets named.
    """
    from ..schedule.schedule import _descent_targets

    coords = np.indices(domain.extents)
    partition = np.tensordot(
        np.array(schedule.coefficients, dtype=np.int64), coords, axes=1
    )
    extents = domain.extent_map()
    for descent in function_plan(func).descents:
        bad = _violating_cells(descent, partition, coords, domain)
        if not bad.any():
            continue
        point = tuple(int(x) for x in np.argwhere(bad)[0])
        here = schedule.partition_of(point)
        values = dict(zip(domain.dims, point))
        for target in _descent_targets(descent, values, extents):
            if not domain.contains_tuple(target):
                continue
            there = schedule.partition_of(target)
            if here <= there:
                return (
                    f"cell {point} (partition {here}) depends on "
                    f"cell {tuple(target)} (partition {there})"
                )
        return (
            f"cell {point} (partition {here}) depends on a cell "
            f"that is not in an earlier partition"
        )
    return None


def verify_schedule(
    func: CheckedFunction,
    schedule: Schedule,
    domain: Domain,
    brute_force_cap: int = BRUTE_FORCE_CAP,
) -> Tuple[ScheduleCertificate, List[Diagnostic]]:
    """Independently verify ``schedule`` for ``func`` over ``domain``.

    Returns the certificate plus its diagnostics: one info record
    (``V-SCHED-CERT``) when everything proves, one error
    (``V-SCHED-DELTA``) per violating call site otherwise.
    """
    extents = domain.extent_map()
    plan = function_plan(func)
    descents = plan.descents
    verdicts = _call_site_verdicts(plan, schedule, domain)
    diagnostics: List[Diagnostic] = []
    for descent, verdict in zip(descents, verdicts):
        if not verdict.ok:
            qualifier = (
                "" if verdict.exact
                else " (LP lower bound; possibly conservative)"
            )
            diagnostics.append(
                Diagnostic(
                    Severity.ERROR,
                    "V-SCHED-DELTA",
                    f"{schedule} does not order the dependence "
                    f"[{verdict.descent}]: min S(x) - S(r(x)) = "
                    f"{verdict.min_delta:g} < 1 over the box"
                    f"{qualifier}",
                    span=descent.call.span,
                    function=func.name,
                    exact=verdict.exact,
                )
            )

    certificate = ScheduleCertificate(
        func.name,
        schedule,
        tuple(sorted(extents.items())),
        _partition_count(schedule, extents),
        tuple(verdicts),
    )

    if certificate.ok and descents and domain.size <= brute_force_cap:
        violation = _brute_force_edges(func, schedule, domain)
        if violation is not None:
            certificate = replace(
                certificate,
                call_sites=certificate.call_sites
                + (CallSiteVerdict(violation, 0.0, True, False),),
            )
            diagnostics.append(
                Diagnostic(
                    Severity.ERROR,
                    "V-SCHED-DELTA",
                    f"{schedule}: concrete dependence edge violates "
                    f"the partition order: {violation}",
                    span=None,
                    function=func.name,
                )
            )

    if certificate.ok:
        diagnostics.append(
            Diagnostic(
                Severity.INFO,
                "V-SCHED-CERT",
                f"{schedule}: {certificate.summary}",
                span=None,
                function=func.name,
            )
        )
    return certificate, diagnostics
