"""The per-function analysis product: analyse once, read everywhere.

Descents, criteria and everything derived from them alone depend on
the function's text, not on the problem it is run on — the paper
notes that a uniform criterion ``sum(-a_k * c_k) > 0`` is
domain-independent (Section 4.5) and derives schedule candidates at
compile time for exactly that reason (Section 4.7). A
:class:`FunctionPlan` holds those products, so a never-seen problem
shape costs a candidate pick and a bounds check rather than fresh AST
walks, a constraint solve and a re-proof.

The plan rides on the :class:`~repro.lang.typecheck.CheckedFunction`
object itself (never in a table keyed by ``id()``, which the
allocator reuses) and is recomputed when ``func.definition`` is
replaced. The layers that own a derivation fill its slot on first
use: :mod:`repro.schedule.solver` the candidate vectors every uniform
schedule is picked from, :mod:`repro.verify.soundness` its
extent-free call-site verdicts — which the solver never reads, so a
solver bug still cannot certify its own output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..lang import ast
from ..lang.typecheck import CheckedFunction
from .criteria import Criterion
from .descent import DescentFunction, extract_descents


@dataclass(eq=False)
class FunctionPlan:
    """What analysis knows about one function, whatever the extents.

    Compared and hashed by identity: a plan *is* one analysis of one
    definition, so it can key a memo without pinning tricks.
    """

    definition: ast.FuncDef
    descents: Tuple[DescentFunction, ...]
    criteria: Tuple[Criterion, ...]
    #: Is every descent uniform (``x_k + c_k`` in every component)?
    is_uniform: bool
    #: Is every call site's delta ``S(x) - S(r(x))`` the constant
    #: ``-a . c`` whatever the box (uniform, no range binder)?
    extent_free: bool
    #: Coefficient bound -> the vectors that can be optimal for *some*
    #: extents, in preference order; ``None`` when the coefficient box
    #: is too large to enumerate (the per-extents solver runs then).
    candidates: Dict[int, Optional[Tuple[Tuple[int, ...], ...]]] = field(
        default_factory=dict
    )
    #: Schedule -> the verifier's verdict per call site whose delta
    #: is a constant (``None`` at the other sites).
    site_verdicts: Dict[object, tuple] = field(default_factory=dict)


def function_plan(func: CheckedFunction) -> FunctionPlan:
    """The analysis plan of ``func``, computed on first use.

    Raises :class:`~repro.lang.errors.AnalysisError` exactly where
    :func:`extract_descents` does (cross-calls, non-affine descents);
    a failed analysis is not remembered.
    """
    plan = func.__dict__.get("_function_plan")
    if plan is None or plan.definition is not func.definition:
        descents = extract_descents(func)
        plan = FunctionPlan(
            func.definition,
            descents,
            tuple(Criterion(func.dim_names, d) for d in descents),
            all(d.is_uniform for d in descents),
            all(d.is_uniform and not d.binders for d in descents),
        )
        func._function_plan = plan
    return plan
