"""The machine-readable diagnostic record every verifier pass emits.

A :class:`Diagnostic` is one finding: a severity, a stable rule id, a
human message, and (where the finding maps onto user text) a source
span — rendering goes through the same
:meth:`~repro.lang.source.SourceText.render` caret machinery as
:meth:`DslError.render`, so lint output looks exactly like compiler
errors.

Rule id registry (stable identifiers; tests and CI budgets key on
them):

==================  ========  =========================================
``V-SCHED-DELTA``   error     a call site's ``S(x) - S(r(x))`` is not
                              provably positive over the domain box
``V-SCHED-CERT``    info      the positive certificate: partition
                              count + minimum delta per call site
``V-MUTUAL``        info      member of a mutual-recursion group; the
                              single-function verifier does not apply
``V-NO-SCHEDULE``   error     no valid schedule exists (or the user's
                              declared schedule is invalid)
``V-FRONTEND``      error     the script did not parse or type-check
``A-OOB-TABLE``     error     a table read can land outside the box
``A-OOB-SEQ``       error     a sequence read can land outside the
                              sequence
``A-RBW``           error     a guarded read the schedule does not
                              order after its write
``A-DEAD-ARM``      warning   an equation arm no point of the box can
                              reach
``A-UNUSED-PARAM``  warning   a calling parameter the body never reads
``S-POISON-READ``   error     runtime: a cell was read while poisoned
``S-PART-OVERLAP``  error     runtime: a cell read and written in the
                              same partition (an intra-partition race)
``S-PART-MISMATCH`` error     runtime: a cell written outside its
                              schedule partition
``S-OOB``           error     runtime: an index left the table or a
                              sequence
``S-WRITE-MISS``    error     runtime: a domain cell was never written
==================  ========  =========================================

Parallel-safety rules (:mod:`repro.verify.races`) and backend
eligibility join the same registry; the authoritative machine-readable
table is :data:`RULES` below — ``python -m repro lint --list-rules``
prints it, and fuzz campaign reports count which rules a campaign
actually exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..lang.source import SourceText, Span

#: Every stable rule identifier, with the severity its pass reports it
#: at and a one-line description. Append-only: tests, CI budgets and
#: campaign coverage reports key on these names.
RULES: Dict[str, Tuple[str, str]] = {
    # -- schedule soundness (repro.verify.soundness) ------------------
    "V-SCHED-DELTA": ("error", "a call site's S(x) - S(r(x)) is not provably positive over the domain box"),
    "V-SCHED-CERT": ("info", "positive schedule certificate: partition count + minimum delta per call site"),
    "V-MUTUAL": ("info", "member of a mutual-recursion group; outside the single-function verifier's scope"),
    "V-NO-SCHEDULE": ("error", "no valid schedule exists (or the declared schedule is invalid)"),
    "V-FRONTEND": ("error", "the script did not parse or type-check"),
    # -- static access analysis (repro.verify.access) -----------------
    "A-OOB-TABLE": ("error", "a table read can land outside the domain box"),
    "A-OOB-SEQ": ("error", "a sequence read can land outside the sequence"),
    "A-RBW": ("error", "a guarded read the schedule does not order after its write"),
    "A-DEAD-ARM": ("warning", "an equation arm no point of the box can reach"),
    "A-UNUSED-PARAM": ("warning", "a calling parameter the body never reads"),
    # -- parallel-safety certificates (repro.verify.races) ------------
    "R-SPACE-WW": ("warning", "same-partition writes not provably disjoint; space-loop pragma withheld"),
    "R-SPACE-RW": ("warning", "a same-partition read/write pair is feasible; space-loop pragma withheld"),
    "R-BATCH-OVERLAP": ("warning", "batched member slices (or shared columns) not provably disjoint; problem-loop pragma withheld"),
    "R-TILE-ORDER": ("info", "an own-table read is not backward in every dimension; native entry keeps the partition sweep instead of the blocked wavefront"),
    "R-PAR-CERT": ("info", "positive parallel-safety certificate: every applicable axis proved race-free"),
    # -- runtime sanitizer (repro.verify.sanitizer) -------------------
    "S-POISON-READ": ("error", "runtime: a cell was read while poisoned"),
    "S-PART-OVERLAP": ("error", "runtime: a cell read and written in the same partition (intra-partition race)"),
    "S-PART-MISMATCH": ("error", "runtime: a cell written outside its schedule partition"),
    "S-OOB": ("error", "runtime: an index left the table or a sequence"),
    "S-WRITE-MISS": ("error", "runtime: a domain cell was never written"),
    # -- backend eligibility (repro.ir.npbackend / cbackend /
    # runtime.native Eligibility.rule codes; the engine quotes the
    # failed code in [brackets] when a forced backend is refused) ----
    "rank": ("info", "eligibility: the vector/batched backend only renders rank-1/2 nests"),
    "nest-shape": ("info", "eligibility: the loop nest shape has no vector/batched rendering"),
    "cross-table-read": ("info", "eligibility: the body reads another function's table"),
    "no-compiler": ("info", "eligibility: no working C compiler on this host"),
    "disabled": ("info", "eligibility: native backend disabled by REPRO_NATIVE_DISABLE"),
    "ok": ("info", "eligibility: the backend accepts the kernel"),
}


class Severity:
    """Severity levels, ordered; plain strings so records stay JSON-able."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    ALL = (ERROR, WARNING, INFO)


@dataclass(frozen=True)
class Diagnostic:
    """One verifier finding.

    ``exact`` records whether the underlying analysis proved the
    finding over the integer points (enumeration / corner argument) or
    only over the LP relaxation — inexact findings are reported one
    severity softer by the passes that produce them.
    """

    severity: str  # Severity.ERROR | WARNING | INFO
    rule: str
    message: str
    span: Optional[Span] = None
    function: Optional[str] = None
    exact: bool = True

    def render(self, source: Optional[SourceText] = None) -> str:
        """Caret-render against ``source`` when the span allows it."""
        prefix = f"{self.severity}[{self.rule}]"
        body = (
            f"{prefix}: {self.function}: {self.message}"
            if self.function
            else f"{prefix}: {self.message}"
        )
        if source is not None and self.span is not None:
            return source.render(self.span, body)
        return body

    def to_dict(self) -> dict:
        """A JSON-safe record (spans flattened to line/column)."""
        record = {
            "severity": self.severity,
            "rule": self.rule,
            "message": self.message,
            "function": self.function,
            "exact": self.exact,
        }
        if self.span is not None:
            record["line"] = self.span.start.line
            record["column"] = self.span.start.column
        return record


@dataclass
class Report:
    """An ordered collection of diagnostics from one or more passes."""

    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(self, diagnostic: Diagnostic) -> None:
        """Append one finding."""
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        """Append many findings."""
        self.diagnostics.extend(diagnostics)

    @property
    def has_errors(self) -> bool:
        """Does any finding have error severity?"""
        return any(
            d.severity == Severity.ERROR for d in self.diagnostics
        )

    def by_severity(self, severity: str) -> Tuple[Diagnostic, ...]:
        """All findings at exactly ``severity``."""
        return tuple(
            d for d in self.diagnostics if d.severity == severity
        )

    def render(self, source: Optional[SourceText] = None) -> str:
        """Render every finding, carets included, one per block."""
        return "\n".join(
            d.render(source) for d in self.diagnostics
        )

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)
