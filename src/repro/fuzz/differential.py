"""The differential harness: one case, every rung, one verdict.

Each generated case is bound through the service layer (the same
admission path a request takes) and executed on every backend leg the
environment supports:

* forced ``scalar`` — the semantic baseline;
* forced ``vector`` — must agree *and* must fail eligibility exactly
  when :func:`repro.ir.npbackend.eligibility` says so, naming the
  rule;
* forced ``native`` — ditto against
  :func:`repro.ir.cbackend.native_eligibility` (skipped with a
  counter when no toolchain is present);
* the blocked wavefront a second time, under a tiny tile drawn from
  the case text — kernels the native rung blocks (the whole
  ``Seq2DSpec`` family) are a single block at fuzz-scale extents
  under :data:`repro.ir.cbackend.TILE`, so the forced-native leg
  alone never crosses a block edge; the rebuilt entry must reproduce
  the scalar table bitwise;
* the auto ladder under the existing
  :class:`~repro.resilience.oracle.DivergenceOracle` — a clean
  re-execution against an independently generated reference backend;
* forced scalar under the table sanitizer (poison-filled tables);
* the memoised interpreter (direct mode, small domains) — an
  independent evaluator of the *source*, catching bugs every code
  generator shares;
* the lane-batched ``map`` path when the case carries a problem
  group: batched and unbatched sweeps must agree with scalar.

Verdicts (:data:`FAILURE_CLASSES` are the failing ones):

* ``parity-ok`` — every leg agrees, static and dynamic checks clean;
* ``rejected`` — the static lint *and* the runtime agree the program
  is bad (consistent rejection is not a bug);
* ``lint-gap`` — static and dynamic disagree: the sanitizer trips on
  a lint-clean program, or lint rejects a program that runs clean;
* ``eligibility-mismatch`` — a forced backend's behaviour contradicts
  its eligibility verdict (or its error hides the failed rule);
* ``divergence`` — two rungs produce different answers;
* ``race-gap`` — the parallel-safety analyzer and reality disagree in
  either direction: a CONFIRMED space axis diverges under a
  multi-threaded native run (analyzer unsound for this kernel), or an
  axis is REFUSED on a kernel every leg agrees on (analyzer
  incomplete — generated kernels carry verified schedules, so every
  refusal is a completeness regression worth a reproducer);
* ``crash`` — any leg dies in a way neither the lint nor the
  taxonomy above accounts for.

Every outcome also carries the set of stable rule ids the case
exercised (lint diagnostics, eligibility verdicts, parallel-axis
rules), which campaign reports aggregate into per-rule coverage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..lang.errors import (
    BackendDivergenceError,
    CodegenError,
    DslError,
    NativeBuildError,
    SanitizerError,
)
from ..runtime.parity import tables_agree
from .grammar import FuzzCase

__all__ = [
    "FAILURE_CLASSES",
    "CaseOutcome",
    "DifferentialHarness",
    "values_agree",
]

#: classifications that count as fuzzer findings, most severe first.
#: The ``service-*`` pair only occurs in service round-trip campaigns
#: (see :mod:`repro.fuzz.service_mode`).
FAILURE_CLASSES = (
    "crash",
    "service-crash",
    "divergence",
    "race-gap",
    "map-native-divergence",
    "service-divergence",
    "eligibility-mismatch",
    "lint-gap",
)

#: all classifications, severity order (campaign reports follow it).
ALL_CLASSES = FAILURE_CLASSES + ("rejected", "parity-ok")

#: interpreter-oracle ceiling: the memoised reference is quadratic in
#: practice, so only small tables are cross-checked against it.
ORACLE_CELL_LIMIT = 600


def values_agree(a, b) -> bool:
    """Scalar agreement under the shared cross-backend policy, with
    slack for the log-space exp round-trip on extracted values."""
    if a is None or b is None:
        return a is b
    x, y = np.asarray(a), np.asarray(b)
    if x.dtype.kind in "iub" and y.dtype.kind in "iub":
        return bool(x == y)
    fx, fy = float(x), float(y)
    if math.isinf(fx) or math.isinf(fy):
        return fx == fy
    return bool(np.isclose(fx, fy, rtol=1e-8, atol=1e-11))


@dataclass
class LegResult:
    """One backend leg of a case."""

    backend: str
    status: str  # "ok" | "refused" | "error" | "skipped"
    value: object = None
    table: Optional[np.ndarray] = None
    error_type: str = ""
    error: str = ""


@dataclass
class CaseOutcome:
    """A classified case: the verdict plus everything behind it."""

    case: FuzzCase
    classification: str
    detail: str = ""
    legs: Dict[str, LegResult] = field(default_factory=dict)
    lint_errors: Tuple[str, ...] = ()
    skips: Tuple[str, ...] = ()
    #: stable rule ids this case exercised (sorted); campaign reports
    #: aggregate them into per-rule coverage counts.
    rules: Tuple[str, ...] = ()

    @property
    def failed(self) -> bool:
        """Did this case surface a finding?"""
        return self.classification in FAILURE_CLASSES


class DifferentialHarness:
    """Runs cases through every rung and classifies the outcome.

    Engines persist across cases (one per backend/prob-mode/sanitize
    combination) so the kernel caches stay warm — a campaign revisits
    the same shapes constantly.
    """

    def __init__(self, use_native: Optional[bool] = None) -> None:
        from ..runtime import native as native_rt

        if use_native is None:
            use_native = native_rt.available().ok
        self.use_native = use_native
        self._engines: Dict[Tuple[str, str, bool], object] = {}
        self._oracle = None

    # -- plumbing ------------------------------------------------------------

    def _engine(
        self,
        backend: str,
        prob_mode: str,
        sanitize: bool = False,
    ):
        from ..runtime.engine import Engine

        key = (backend, prob_mode, sanitize)
        engine = self._engines.get(key)
        if engine is None:
            engine = Engine(
                backend=backend,
                prob_mode=prob_mode,
                sanitize=sanitize,
            )
            self._engines[key] = engine
        return engine

    def _oracle_instance(self):
        if self._oracle is None:
            from ..resilience.oracle import DivergenceOracle

            self._oracle = DivergenceOracle()
        return self._oracle

    # -- classification ------------------------------------------------------

    def classify(self, case: FuzzCase) -> CaseOutcome:
        """Run every applicable leg and produce the verdict.

        The outcome carries every stable rule id the case exercised
        (collected as a side-channel during classification so the ~15
        early-return verdict sites stay untouched).
        """
        self._last_rules: set = set()
        outcome = self._classify(case)
        outcome.rules = tuple(sorted(self._last_rules))
        return outcome

    def _classify(self, case: FuzzCase) -> CaseOutcome:
        """Run every applicable leg and produce the verdict."""
        from ..lang.source import SourceText
        from ..service.programs import ServiceProgram
        from ..verify.lint import lint_checked
        from ..verify.diagnostics import Severity

        legs: Dict[str, LegResult] = {}
        skips: List[str] = []

        # Frontend: the generator promises well-typed programs, so
        # any parse/check refusal is itself a finding.
        try:
            program = ServiceProgram(case.text, lint=False)
            func = program.function(case.function)
            bindings, at, initial = program.bind(case.function, case.args)
            user_schedule = program.user_schedule(case.function)
        except Exception as err:
            return CaseOutcome(
                case, "crash",
                f"frontend rejected a generated program: "
                f"{type(err).__name__}: {err}",
            )

        source = SourceText(case.text, "<fuzz>")
        lint = lint_checked(
            program.checked, prob_mode=case.prob_mode, source=source
        )
        lint_errors = tuple(
            str(d.message)
            for d in lint.report.by_severity(Severity.ERROR)
        )
        self._last_rules.update(d.rule for d in lint.report)

        run_kwargs = dict(
            at=at, initial=initial,
            user_schedule=user_schedule, reduce=case.reduce,
        )

        # -- scalar baseline -------------------------------------------------
        scalar = self._run_leg("scalar", case, func, bindings, run_kwargs)
        legs["scalar"] = scalar
        if scalar.status != "ok":
            if lint_errors:
                return CaseOutcome(
                    case, "rejected",
                    f"static and dynamic rejection agree: "
                    f"{scalar.error_type}",
                    legs, lint_errors,
                )
            return CaseOutcome(
                case, "crash",
                f"scalar leg failed on a lint-clean program: "
                f"{scalar.error_type}: {scalar.error}",
                legs, lint_errors,
            )

        # -- eligibility vs forced behaviour ---------------------------------
        from ..ir import npbackend
        from ..ir.cbackend import native_eligibility
        from ..runtime import native as native_rt

        kernel = scalar.value_kernel
        # Parallel-safety certificate: feeds both directions of the
        # race-gap check and the rules-coverage report. Certify on
        # the extents the case actually ran (the scalar table's
        # shape): the engine may have validated a schedule only on
        # this concrete box, and judging it against the nominal
        # stand-in box would manufacture spurious refusals.
        try:
            from ..verify.races import parallelism_certificate

            extents = (
                tuple(int(e) for e in scalar.table.shape)
                if scalar.table is not None
                else None
            )
            parallel = parallelism_certificate(kernel, extents)
        except Exception:
            parallel = None
        if parallel is not None:
            for axis in parallel.axes:
                if axis.status == "refused" and axis.rule:
                    self._last_rules.add(axis.rule)
            if parallel.ok:
                self._last_rules.add("R-PAR-CERT")
        vector_verdict = npbackend.eligibility(kernel)
        self._last_rules.add(vector_verdict.rule)
        vector = self._run_leg("vector", case, func, bindings, run_kwargs)
        legs["vector"] = vector
        mismatch = self._eligibility_mismatch(
            "vector", vector, vector_verdict
        )
        if mismatch:
            return CaseOutcome(
                case, "eligibility-mismatch", mismatch, legs, lint_errors
            )
        if vector.status == "error":
            return CaseOutcome(
                case, "crash",
                f"vector leg failed: {vector.error_type}: {vector.error}",
                legs, lint_errors,
            )

        if self.use_native and native_rt.available().ok:
            nat_verdict = native_eligibility(kernel)
            self._last_rules.add(nat_verdict.rule)
            nat = self._run_leg("native", case, func, bindings, run_kwargs)
            legs["native"] = nat
            mismatch = self._eligibility_mismatch(
                "native", nat, nat_verdict
            )
            if mismatch:
                return CaseOutcome(
                    case, "eligibility-mismatch", mismatch,
                    legs, lint_errors,
                )
            if nat.status == "error":
                return CaseOutcome(
                    case, "crash",
                    f"native leg failed: {nat.error_type}: {nat.error}",
                    legs, lint_errors,
                )
        else:
            legs["native"] = LegResult("native", "skipped")
            skips.append("native-unavailable")

        # -- cross-backend agreement -----------------------------------------
        for name in ("vector", "native"):
            leg = legs[name]
            if leg.status != "ok":
                continue
            agree_tables = leg.table is None or tables_agree(
                scalar.table, leg.table
            )
            agree_values = values_agree(scalar.value, leg.value)
            if agree_tables and agree_values:
                continue
            # A native miss under a live CONFIRMED space certificate
            # with real threads is the analyzer being *unsound* for
            # this kernel — a strictly worse finding than a plain
            # codegen divergence, so it gets its own class.
            if (
                name == "native"
                and parallel is not None
                and parallel.space.confirmed
                and native_rt.effective_threads() > 1
            ):
                return CaseOutcome(
                    case, "race-gap",
                    f"space axis certified race-free but the "
                    f"multi-threaded native leg diverges from "
                    f"scalar (scalar={scalar.value!r} "
                    f"native={leg.value!r})",
                    legs, lint_errors, tuple(skips),
                )
            detail = (
                f"scalar and {name} tables disagree"
                if not agree_tables
                else f"scalar={scalar.value!r} {name}={leg.value!r}"
            )
            return CaseOutcome(
                case, "divergence", detail,
                legs, lint_errors, tuple(skips),
            )

        # -- the blocked wavefront across block edges -------------------------
        tiled_detail = self._tiled_leg(
            case, func, bindings, run_kwargs, scalar, legs
        )
        if tiled_detail:
            return CaseOutcome(
                case, "divergence", tiled_detail,
                legs, lint_errors, tuple(skips),
            )

        # -- the divergence oracle on the auto rung ---------------------------
        oracle_detail = self._oracle_leg(
            case, func, bindings, run_kwargs, scalar, legs
        )
        if oracle_detail:
            return CaseOutcome(
                case, "divergence", oracle_detail,
                legs, lint_errors, tuple(skips),
            )

        # -- interpreter reference (independent of every backend) -------------
        reference_detail = self._reference_leg(
            case, func, bindings, scalar, legs
        )
        if reference_detail:
            return CaseOutcome(
                case, "divergence", reference_detail,
                legs, lint_errors, tuple(skips),
            )

        # -- sanitizer vs lint -------------------------------------------------
        sanitized = self._run_leg(
            "scalar", case, func, bindings, run_kwargs, sanitize=True
        )
        legs["sanitized"] = sanitized
        if sanitized.status == "error":
            if sanitized.error_type == "SanitizerError":
                if lint_errors:
                    return CaseOutcome(
                        case, "rejected",
                        "lint and sanitizer agree the program reads "
                        "out of bounds",
                        legs, lint_errors, tuple(skips),
                    )
                return CaseOutcome(
                    case, "lint-gap",
                    f"sanitizer tripped on a lint-clean program: "
                    f"{sanitized.error}",
                    legs, lint_errors, tuple(skips),
                )
            return CaseOutcome(
                case, "crash",
                f"sanitized leg failed: {sanitized.error_type}: "
                f"{sanitized.error}",
                legs, lint_errors, tuple(skips),
            )
        if lint_errors:
            return CaseOutcome(
                case, "lint-gap",
                "lint rejects a program every dynamic check passes: "
                + "; ".join(lint_errors),
                legs, lint_errors, tuple(skips),
            )
        if sanitized.table is not None and not tables_agree(
            scalar.table, sanitized.table
        ):
            return CaseOutcome(
                case, "divergence",
                "sanitized and plain scalar tables disagree",
                legs, lint_errors, tuple(skips),
            )

        # -- lane-batched map groups ------------------------------------------
        if case.map_texts:
            map_detail = self._map_leg(case, func, bindings, run_kwargs)
            if map_detail:
                return CaseOutcome(
                    case, map_detail[0], map_detail[1],
                    legs, lint_errors, tuple(skips),
                )

        # -- analyzer completeness --------------------------------------------
        # Every leg agrees, static and dynamic checks are clean — if
        # the parallel-safety analyzer still refused an axis, that is
        # a completeness gap: generated kernels carry verified
        # schedules, whose S-delta proofs are exactly what the space
        # obligation re-derives, so a refusal here deserves a shrunk
        # reproducer even though the serial fallback keeps it correct.
        if parallel is not None and not parallel.ok:
            refused = [
                a for a in parallel.axes if a.status == "refused"
            ]
            return CaseOutcome(
                case, "race-gap",
                "analyzer refused "
                + ", ".join(
                    f"{a.axis} [{a.rule}]: {a.detail}" for a in refused
                )
                + " on a kernel every leg agrees on",
                legs, lint_errors, tuple(skips),
            )

        return CaseOutcome(
            case, "parity-ok", "", legs, lint_errors, tuple(skips)
        )

    # -- legs ----------------------------------------------------------------

    def _run_leg(
        self, backend, case, func, bindings, run_kwargs, sanitize=False
    ) -> LegResult:
        engine = self._engine(backend, case.prob_mode, sanitize)
        name = "sanitized" if sanitize else backend
        try:
            result = engine.run(func, dict(bindings), **run_kwargs)
        except CodegenError as err:
            return LegResult(name, "refused", error_type="CodegenError",
                             error=str(err))
        except NativeBuildError as err:
            return LegResult(
                name, "refused",
                error_type="NativeBuildError", error=str(err),
            )
        except DslError as err:
            return LegResult(
                name, "error",
                error_type=type(err).__name__, error=str(err),
            )
        except Exception as err:  # a raw backend crash — the
            # strongest possible finding, never let it kill the run
            return LegResult(
                name, "error",
                error_type=type(err).__name__, error=str(err),
            )
        leg = LegResult(name, "ok", value=result.value,
                        table=result.table)
        leg.value_kernel = result.kernel
        return leg

    @staticmethod
    def _eligibility_mismatch(
        name: str, leg: LegResult, verdict
    ) -> str:
        """Forced behaviour must match the static verdict exactly."""
        if verdict.ok and leg.status == "refused":
            return (
                f"{name} eligibility says ok but the forced engine "
                f"refused: {leg.error}"
            )
        if not verdict.ok:
            if leg.status == "ok":
                return (
                    f"{name} eligibility says no [{verdict.rule}] but "
                    f"the forced engine ran anyway"
                )
            if leg.status == "refused" and (
                f"[{verdict.rule}]" not in leg.error
            ):
                return (
                    f"{name} refusal does not name the failed rule "
                    f"[{verdict.rule}]: {leg.error}"
                )
        return ""

    @staticmethod
    def _stage(engine, func, bindings, run_kwargs):
        """Everything ``Engine.run`` does before the launch:
        ``(compiled, ctx, fresh table, first, last partition)``."""
        from ..runtime.values import Bindings

        bound = Bindings(dict(bindings))
        domain = engine.domain_of(func, bound, run_kwargs["initial"])
        schedule = engine.schedule_for(
            func, domain, run_kwargs["user_schedule"]
        )
        compiled = engine.compile(func, schedule, domain)
        return (
            compiled,
            engine.build_context(compiled, bound, domain),
            engine._table_for(compiled.kernel, domain),
            schedule.min_partition(domain),
            schedule.max_partition(domain),
        )

    def _tiled_leg(
        self, case, func, bindings, run_kwargs, scalar, legs
    ) -> str:
        """The native entry rebuilt with a tiny tile, and launched
        without a table.

        Applies to kernels whose native entry is the blocked
        wavefront. Under the default tile a fuzz-scale table is one
        block; edges of 1-4 cells (a pure function of the case text,
        so a campaign stays reproducible) give the same table several
        block diagonals, ragged last blocks and, under ASan, every
        block-edge clip a chance to read out of bounds — a 1-cell
        wide block makes every row segment's first cell load its
        carried left neighbour from the block to its left. The table
        must be the scalar rung's bitwise; and the value the case
        asked for, taken by a result-only launch (under the default
        tile, and under the tiny one when its edges reach as far back
        as the recurrence does), must be the value read from that
        table. Returns a non-empty detail string on divergence.
        """
        import zlib

        from ..ir import cbackend
        from ..runtime import native as native_rt
        from ..runtime.engine import settle
        from ..runtime.values import Bindings
        from ..verify.races import licences

        native_leg = legs.get("native")
        if (
            native_leg is None
            or native_leg.status != "ok"
            or scalar.table is None
            or licences(scalar.value_kernel).tile is None
        ):
            return ""
        draw = zlib.crc32(case.text.encode("utf-8"))
        tile = (1 + draw % 4, 1 + draw // 4 % 4)
        try:
            engine = self._engine("native", case.prob_mode)
            compiled, ctx, table, lo, hi = self._stage(
                engine, func, bindings, run_kwargs
            )
            source = cbackend.emit_native_source(
                compiled.kernel,
                openmp=native_rt.toolchain()[1],
                tile=tile,
            )
            run = native_rt.load_compiled(
                compiled.kernel, native_rt.build_shared_object(source)
            )
            run(table, ctx, part_lo=lo, part_hi=hi)
            reduce = run_kwargs["reduce"]
            bound = Bindings(dict(bindings))
            domain = engine.domain_of(func, bound, run_kwargs["initial"])
            rows = settle(func, [(bound, domain)], run_kwargs["at"], reduce)
            coords = () if rows is None else tuple(rows[0].tolist())
            reach = licences(compiled.kernel).tile.reach
            fused = {"default tile": compiled.run.result(
                ctx, reduce, coords
            )}
            if all(edge >= h for edge, h in zip(tile, reach)):
                fused[f"tile {tile}"] = run.result(ctx, reduce, coords)
        except Exception as err:
            legs["native-tiled"] = LegResult(
                "native-tiled", "error",
                error_type=type(err).__name__, error=str(err),
            )
            return (
                f"tile {tile} leg failed: {type(err).__name__}: {err}"
            )
        legs["native-tiled"] = LegResult(
            "native-tiled", "ok", table=table
        )
        if not np.array_equal(scalar.table, table, equal_nan=True):
            return (
                f"blocked wavefront under tile {tile} disagrees "
                f"bitwise with the scalar table"
            )
        kernel = compiled.kernel
        expected = engine._extract(kernel, scalar.table, coords, reduce)
        for label, raw in fused.items():
            got = engine._value(kernel, raw)
            if not np.array_equal(got, expected, equal_nan=True):
                return (
                    f"result-only launch under the {label} returned "
                    f"{got!r}; the scalar table holds {expected!r} "
                    f"(reduce={reduce!r}, coords={coords})"
                )
        return ""

    def _oracle_leg(
        self, case, func, bindings, run_kwargs, scalar, legs
    ) -> str:
        """Clean re-execution under the DivergenceOracle.

        Returns a non-empty detail string on divergence.
        """
        try:
            compiled, ctx, base, lo, hi = self._stage(
                self._engine("auto", case.prob_mode),
                func, bindings, run_kwargs,
            )
            _verdict, recovered = self._oracle_instance().classify(
                compiled, ctx, base, lo, hi
            )
        except BackendDivergenceError as err:
            legs["oracle"] = LegResult(
                "oracle", "error",
                error_type="BackendDivergenceError", error=str(err),
            )
            return f"divergence oracle: {err}"
        except Exception as err:
            legs["oracle"] = LegResult(
                "oracle", "error",
                error_type=type(err).__name__, error=str(err),
            )
            return f"oracle leg failed: {type(err).__name__}: {err}"
        legs["oracle"] = LegResult(
            "oracle", "ok", table=recovered,
        )
        if scalar.table is not None and not tables_agree(
            scalar.table, recovered
        ):
            return (
                "oracle-recovered table disagrees with the scalar leg"
            )
        return ""

    def _reference_leg(self, case, func, bindings, scalar, legs) -> str:
        """The memoised interpreter as an independent evaluator."""
        from ..runtime.interpreter import memoised
        from ..runtime.values import Bindings

        if case.prob_mode != "direct" or scalar.table is None:
            return ""
        if scalar.table.size > ORACLE_CELL_LIMIT:
            return ""
        bound = Bindings(dict(bindings))
        try:
            oracle = memoised(func, bound)
            expected = np.array(
                [
                    oracle(point)
                    for point in np.ndindex(scalar.table.shape)
                ],
                dtype=scalar.table.dtype,
            ).reshape(scalar.table.shape)
        except Exception as err:
            legs["interpreter"] = LegResult(
                "interpreter", "error",
                error_type=type(err).__name__, error=str(err),
            )
            return (
                f"memoised interpreter failed on a program every "
                f"backend runs: {type(err).__name__}: {err}"
            )
        legs["interpreter"] = LegResult(
            "interpreter", "ok", table=expected
        )
        if not tables_agree(expected, scalar.table):
            return (
                "compiled table disagrees with the memoised "
                "interpreter"
            )
        return ""

    def _map_leg(
        self, case, func, bindings, run_kwargs
    ) -> Optional[Tuple[str, str]]:
        """Batched vs unbatched vs scalar ``map`` sweeps of the case's
        request — its ``map_call`` template: the case's schedule,
        ``initial``, ``reduce`` and coordinates, except the mapped
        member's own ``|_|``, which defaults per member."""
        from ..lang.types import IndexType
        from ..runtime.engine import Engine
        from ..runtime.values import Sequence

        template = bindings[case.map_param]
        problems = [
            {case.map_param: Sequence(text, template.alphabet)}
            for text in case.map_texts
        ]
        base = {
            k: v for k, v in bindings.items() if k != case.map_param
        }
        own = {
            p.name for p in func.recursive_params
            if isinstance(p.type, IndexType)
            and p.type.seq_param == case.map_param
        }
        request = dict(
            run_kwargs,
            at={
                k: v for k, v in run_kwargs["at"].items() if k not in own
            },
        )
        try:
            batched = self._engine("auto", case.prob_mode).map_run(
                func, base, problems, **request
            )
            plain = Engine(
                backend="auto", prob_mode=case.prob_mode,
                batching=False,
            ).map_run(func, base, problems, **request)
            scalar = self._engine("scalar", case.prob_mode).map_run(
                func, base, problems, **request
            )
        except Exception as err:
            return (
                "crash",
                f"map leg failed: {type(err).__name__}: {err}",
            )
        for name, other in (
            ("unbatched", plain.values), ("scalar", scalar.values)
        ):
            for index, (a, b) in enumerate(
                zip(batched.values, other)
            ):
                if not values_agree(a, b):
                    return (
                        "divergence",
                        f"map problem {index}: batched={a!r} "
                        f"{name}={b!r}",
                    )

        # Forced batched-native leg: the batched C entry point must
        # reproduce the scalar sweep member for member. Classified
        # apart from plain "divergence" — a miss here implicates the
        # batched emission (ragged tails, per-member bound columns),
        # not the kernel body.
        if self.use_native:
            try:
                native = self._engine(
                    "native", case.prob_mode
                ).map_run(func, base, problems, **request)
            except (CodegenError, NativeBuildError):
                return None  # ineligible kernel: a refusal, not a bug
            except Exception as err:
                return (
                    "crash",
                    f"batched-native map leg failed: "
                    f"{type(err).__name__}: {err}",
                )
            for index, (a, b) in enumerate(
                zip(native.values, scalar.values)
            ):
                if not values_agree(a, b):
                    rungs = ",".join(native.batched_backends)
                    return (
                        "map-native-divergence",
                        f"map problem {index}: native({rungs})={a!r} "
                        f"scalar={b!r}",
                    )
        return None
