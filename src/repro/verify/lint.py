"""Whole-program lint: schedule verification + access analysis.

``lint_text`` is the compiler-independent front door used by
``python -m repro lint`` and by the service's admission control. It
parses and type-checks a script, then for every recurrence:

* derives (or validates the user-declared) schedule and hands it to
  the independent soundness verifier of :mod:`repro.verify.soundness`;
* runs the IR access/initialization analysis of
  :mod:`repro.verify.access` against a **nominal domain** — extents
  are unknown until run time, so every recursion dimension gets the
  same symbolic stand-in extent ``L + 1`` (default ``L = 12``). The
  coupling matters: sequence-indexed dimensions and their sequences
  share ``L``, so ``s[i - 1]`` under ``i >= 1`` does not produce a
  spurious out-of-bounds finding.

Functions in a mutually recursive group are outside the scope of the
single-function verifier (their schedules come from
:mod:`repro.schedule.mutual_rec`); lint marks them ``V-MUTUAL`` (info)
and still runs the access pass, which needs no schedule for its
bounds and dead-arm checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..analysis.domain import Domain
from ..ir.kernel import build_kernel
from ..lang import ast
from ..lang.errors import AnalysisError, DslError, ScheduleError
from ..lang.parser import parse_program
from ..lang.source import SourceText
from ..lang.typecheck import CheckedProgram, check_program
from ..schedule.schedule import validate_user_schedule
from ..schedule.solver import find_schedule
from .access import analyze_access
from .diagnostics import Diagnostic, Report, Severity
from .races import ParallelismCertificate, analyze_parallelism
from .soundness import ScheduleCertificate, verify_schedule

#: Default nominal extent parameter ``L``: recursion dimensions get
#: extent ``L + 1`` (an index over a length-``L`` sequence spans
#: ``0..L`` inclusive).
NOMINAL_EXTENT = 12


@dataclass
class LintResult:
    """Everything one lint run produced."""

    report: Report
    certificates: Dict[str, ScheduleCertificate] = field(
        default_factory=dict
    )
    parallelism: Dict[str, "ParallelismCertificate"] = field(
        default_factory=dict
    )
    source: Optional[SourceText] = None

    @property
    def has_errors(self) -> bool:
        """Did any pass report an error-severity diagnostic?"""
        return self.report.has_errors

    def render(self) -> str:
        """All diagnostics, caret-rendered where spans are known."""
        return self.report.render(self.source)


def _nominal_domain(func, nominal_extent: int) -> Domain:
    """The stand-in domain for a function of unknown problem size."""
    return Domain(
        func.dim_names,
        tuple(nominal_extent + 1 for _ in func.dim_names),
    )


def _mutual_members(program: CheckedProgram) -> Tuple[str, ...]:
    """Names of functions that call (or are called by) another one."""
    members = set()
    for name, func in program.functions.items():
        for node in ast.walk(func.body):
            if (
                isinstance(node, ast.Call)
                and node.func != name
                and node.func in program.functions
            ):
                members.add(name)
                members.add(node.func)
    return tuple(sorted(members))


def lint_checked(
    program: CheckedProgram,
    nominal_extent: int = NOMINAL_EXTENT,
    prob_mode: str = "direct",
    source: Optional[SourceText] = None,
) -> LintResult:
    """Lint an already-checked program."""
    result = LintResult(Report(), source=source)
    mutual = set(_mutual_members(program))

    for name in sorted(program.functions):
        func = program.functions[name]
        if not func.recursive_params:
            # Not a recurrence: nothing to schedule, nothing to read
            # out of order. The access pass still applies (sequence
            # bounds), but without recursion dimensions there is no
            # domain box to analyse against.
            continue
        domain = _nominal_domain(func, nominal_extent)

        if name in mutual:
            result.report.add(Diagnostic(
                Severity.INFO, "V-MUTUAL",
                "member of a mutually recursive group; scheduled by "
                "the multi-function pipeline, not verified here",
                span=func.definition.span, function=name,
            ))
            result.report.extend(
                analyze_access(func, domain, prob_mode=prob_mode)
            )
            continue

        schedule = None
        user_expr = program.schedules.get(name)
        try:
            if user_expr is not None:
                schedule = validate_user_schedule(
                    func, user_expr, domain
                )
            else:
                schedule = find_schedule(func, domain)
        except (ScheduleError, AnalysisError) as err:
            result.report.add(Diagnostic(
                Severity.ERROR, "V-NO-SCHEDULE",
                f"no valid schedule: {err.message}",
                span=err.span or func.definition.span, function=name,
            ))

        if schedule is not None:
            certificate, diagnostics = verify_schedule(
                func, schedule, domain
            )
            result.certificates[name] = certificate
            result.report.extend(diagnostics)

        result.report.extend(
            analyze_access(
                func, domain, schedule=schedule, prob_mode=prob_mode
            )
        )

        if schedule is not None:
            # Parallel-safety certificates (the OpenMP-axis proofs):
            # refusals are warnings — the native build degrades the
            # axis to serial rather than rejecting the program.
            try:
                kernel = build_kernel(
                    func, schedule, prob_mode=prob_mode
                )
                parallel = analyze_parallelism(
                    kernel, extents=domain.extents
                )
            except (DslError, AnalysisError):
                parallel = None
            if parallel is not None:
                result.parallelism[name] = parallel
                result.report.extend(
                    parallel.diagnostics(span=func.definition.span)
                )
    return result


def lint_text(
    text: str,
    name: str = "<lint>",
    nominal_extent: int = NOMINAL_EXTENT,
    prob_mode: str = "direct",
) -> LintResult:
    """Parse, check and lint a script's text.

    Parse/type errors are reported as ``error`` diagnostics (rule
    ``V-FRONTEND``) rather than raised, so callers get one uniform
    report whatever stage failed.
    """
    source = SourceText(text, name)
    try:
        program = check_program(parse_program(text))
    except DslError as err:
        result = LintResult(Report(), source=source)
        result.report.add(Diagnostic(
            Severity.ERROR, "V-FRONTEND", err.message, span=err.span
        ))
        return result
    return lint_checked(
        program, nominal_extent=nominal_extent,
        prob_mode=prob_mode, source=source,
    )
