"""Descent-function extraction (Section 4.4).

For a function ``f(x1, ..., xn)``, every recursive call site
``f(xr1, ..., xrn)`` defines one *descent function*: the affine map
taking the current arguments to the callee's arguments. Each component
is classified as

* **uniform** — ``x_k + c`` (the common case, e.g. ``d(i-1, j)``);
* **affine** — a general affine combination ``b . x + c`` (e.g.
  ``f(2*i - j)``); validity then depends on the runtime ranges;
* **ranged** — affine over the dimensions *and* the binders of
  enclosing range reductions (Section 5's looping extension, e.g.
  ``max(k in i+1 .. j-1 : f(i, k))``); the binder's affine bounds
  become constraints on the validity criterion;
* **free** — a value the static analysis cannot track, which is
  assumed to range over the whole dimension (Section 5.2's treatment
  of ``forward(t.start, i-1)``: ``t.start`` may be any state).

Transition-set reductions bind opaque values, so any argument
mentioning such a binder (or reaching through an HMM field or a data
lookup) is free. Range reductions bind tracked integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from ..lang import ast
from ..lang.errors import AnalysisError
from ..lang.typecheck import CheckedFunction
from .affine import Affine, affine_from_expr


@dataclass(frozen=True)
class Component:
    """One dimension of a descent function.

    ``affine`` is set for uniform/affine/ranged components (for
    ranged ones it mentions binder names as extra variables); ``None``
    for free components.
    """

    dim: str
    kind: str  # "uniform" | "affine" | "ranged" | "free"
    affine: Optional[Affine] = None

    @property
    def is_uniform(self) -> bool:
        """Is this component of the form ``x_k + c``?"""
        return self.kind == "uniform"

    @property
    def is_free(self) -> bool:
        """Is this component untracked (assumed full-range)?"""
        return self.kind == "free"

    @property
    def is_ranged(self) -> bool:
        """Does this component mention a range binder?"""
        return self.kind == "ranged"

    @property
    def uniform_offset(self) -> int:
        """The ``c`` of a uniform component ``x_k + c``."""
        if not self.is_uniform:
            raise ValueError(f"component {self.dim} is not uniform")
        assert self.affine is not None
        return self.affine.const

    def __str__(self) -> str:
        if self.is_free:
            return f"{self.dim} <- *"
        return f"{self.dim} <- {self.affine}"


@dataclass(frozen=True)
class BinderBound:
    """A range binder in scope at a call site: ``lo <= name <= hi``.

    Both bounds are affine in the recursion dimensions (bounds that
    mention other binders or non-affine terms are rejected — the
    criterion derivation needs dimension-only constraints).
    """

    name: str
    lo: Affine
    hi: Affine

    def __str__(self) -> str:
        return f"{self.lo} <= {self.name} <= {self.hi}"


@dataclass(frozen=True)
class DescentFunction:
    """The descent map of one recursive call site."""

    call: ast.Call
    components: Tuple[Component, ...]
    binders: Tuple[BinderBound, ...] = ()

    @property
    def is_uniform(self) -> bool:
        """Are all components uniform? (Required by Sections 4.7/4.8.)"""
        return all(c.is_uniform for c in self.components)

    @property
    def has_free(self) -> bool:
        """Does any component escape static tracking?"""
        return any(c.is_free for c in self.components)

    @property
    def has_ranged(self) -> bool:
        """Does any component use a range binder?"""
        return any(c.is_ranged for c in self.components)

    def component(self, dim: str) -> Component:
        """The component for dimension ``dim``."""
        for comp in self.components:
            if comp.dim == dim:
                return comp
        raise KeyError(dim)

    def uniform_offsets(self) -> Tuple[int, ...]:
        """The offset vector ``c`` of a fully uniform descent."""
        return tuple(c.uniform_offset for c in self.components)

    def __str__(self) -> str:
        text = "; ".join(str(c) for c in self.components)
        if self.binders:
            text += " where " + ", ".join(str(b) for b in self.binders)
        return text


def _binders_in_scope(
    func: CheckedFunction, call: ast.Call
) -> Tuple[Set[str], List[ast.Reduce]]:
    """Binders enclosing ``call``: opaque (HMM) names and range nodes."""
    opaque: Set[str] = set()
    ranges: List[ast.Reduce] = []

    def visit(expr: ast.Expr, hmm_scope, range_scope) -> bool:
        if expr is call:
            opaque.update(hmm_scope)
            ranges.extend(range_scope)
            return True
        if isinstance(expr, ast.Reduce):
            if visit(expr.source, hmm_scope, range_scope):
                return True
            if isinstance(expr.source, ast.RangeExpr):
                return visit(
                    expr.body, hmm_scope, range_scope + [expr]
                )
            return visit(expr.body, hmm_scope + [expr.var], range_scope)
        return any(
            visit(c, hmm_scope, range_scope)
            for c in ast.children(expr)
        )

    visit(func.body, [], [])
    return opaque, ranges


def extract_descents(func: CheckedFunction) -> Tuple[DescentFunction, ...]:
    """All descent functions of ``func``, one per recursive call site.

    No branch analysis is performed: every textual call site
    contributes a dependence, whatever conditionals guard it
    (Section 4.4).
    """
    dims = func.dim_names
    for node in ast.walk(func.body):
        if isinstance(node, ast.Call) and node.func != func.name:
            raise AnalysisError(
                f"{func.name!r} calls {node.func!r}: the single-function "
                f"pipeline only handles self-recursion — schedule the "
                f"group with repro.schedule.mutual_rec (Section 9)",
                node.span,
            )
    descents: List[DescentFunction] = []
    for call in ast.find_calls(func.body, func.name):
        opaque, range_reduces = _binders_in_scope(func, call)
        binder_bounds = _resolve_binder_bounds(
            dims, range_reduces, opaque
        )
        range_names = {b.name for b in binder_bounds}
        components: List[Component] = []
        used_binders: Set[str] = set()
        for dim, arg in zip(dims, call.args):
            component = _classify(
                dim, arg, dims, opaque, range_names
            )
            components.append(component)
            if component.affine is not None:
                used_binders.update(
                    d for d in component.affine.dims()
                    if d in range_names
                )
        relevant = tuple(
            b for b in binder_bounds if b.name in used_binders
        )
        descents.append(
            DescentFunction(call, tuple(components), relevant)
        )
    return tuple(descents)


def _resolve_binder_bounds(
    dims: Tuple[str, ...],
    range_reduces: List[ast.Reduce],
    opaque: Set[str],
) -> Tuple[BinderBound, ...]:
    bounds: List[BinderBound] = []
    for reduce_expr in range_reduces:
        source = reduce_expr.source
        assert isinstance(source, ast.RangeExpr)
        lo = affine_from_expr(source.lo, dims, free_vars=opaque)
        hi = affine_from_expr(source.hi, dims, free_vars=opaque)
        if lo is None or hi is None:
            raise AnalysisError(
                f"range bounds of binder {reduce_expr.var!r} must be "
                f"affine in the recursion dimensions",
                source.span,
            )
        bounds.append(BinderBound(reduce_expr.var, lo, hi))
    return tuple(bounds)


def _classify(
    dim: str,
    arg: ast.Expr,
    dims: Tuple[str, ...],
    opaque: Set[str],
    range_names: Set[str],
) -> Component:
    if _mentions_untracked(arg, opaque):
        # e.g. forward(t.start, ...): the analysis assumes the value
        # ranges over the whole dimension (Section 5.2).
        return Component(dim, "free")
    affine = affine_from_expr(
        arg, tuple(dims) + tuple(range_names), free_vars=opaque
    )
    if affine is None:
        raise AnalysisError(
            f"recursive argument for dimension {dim!r} is not an affine "
            f"function of the recursion dimensions: {arg} "
            f"(Section 4.9: only affine descent functions are supported)",
            arg.span,
        )
    used_ranges = [d for d in affine.dims() if d in range_names]
    if used_ranges:
        return Component(dim, "ranged", affine)
    own = affine.coefficient(dim)
    others = [d for d, c in affine.coeffs if d != dim and c != 0]
    if own == 1 and not others:
        return Component(dim, "uniform", affine)
    return Component(dim, "affine", affine)


def _mentions_untracked(expr: ast.Expr, opaque: Set[str]) -> bool:
    """Does ``expr`` reach through an opaque binder, an HMM field or a
    data-dependent lookup?"""
    for node in ast.walk(expr):
        if isinstance(node, ast.Var) and node.name in opaque:
            return True
        if isinstance(node, (ast.Field, ast.Emission, ast.Reduce)):
            return True
        if isinstance(node, (ast.SeqIndex, ast.MatrixIndex)):
            # A data-dependent value: cannot be tracked statically.
            return True
    return False
