"""Independent static verification of compiled programs.

Three passes plus a runtime sanitizer, all reporting through one
machine-readable :class:`~repro.verify.diagnostics.Diagnostic` type:

* :mod:`repro.verify.soundness` — re-proves every schedule against the
  recursion's descent functions with an implementation that shares
  nothing with the solver's :meth:`Criterion.min_delta`, so a solver
  bug cannot self-certify (Sections 4.4-4.6, Fig. 8);
* :mod:`repro.verify.access` — guard-aware access/initialization
  analysis of the lowered IR: out-of-bounds table and sequence reads,
  read-before-write under the schedule, dead equation arms, unused
  calling parameters;
* :mod:`repro.verify.races` — parallel-safety certificates for the
  OpenMP axes and the block order: intra-partition disjointness,
  batched-slice disjointness, the blocked wavefront's order; a
  CONFIRMED axis grants the licence without which the native emitter
  cannot write its pragma or order;
* :mod:`repro.verify.sanitizer` — poison-fill execution with
  per-partition read/write tracking that fails at partition barriers;
* :mod:`repro.verify.lint` — the program-level orchestration behind
  ``python -m repro lint`` and the service's admission control.

What every ``Engine.run`` needs — the schedule proof, the access
pass, the certificates — is re-exported here. The sanitizer and the
lint orchestration are not: import :mod:`repro.verify.sanitizer` and
:mod:`repro.verify.lint` by name, so the run path never loads them.
"""

from .access import analyze_access
from .diagnostics import RULES, Diagnostic, Report, Severity
from .races import (
    AxisVerdict,
    ParallelismCertificate,
    analyze_parallelism,
    parallelism_certificate,
)
from .soundness import ScheduleCertificate, verify_schedule

__all__ = [
    "Diagnostic",
    "Report",
    "RULES",
    "Severity",
    "ScheduleCertificate",
    "verify_schedule",
    "analyze_access",
    "AxisVerdict",
    "ParallelismCertificate",
    "analyze_parallelism",
    "parallelism_certificate",
]
