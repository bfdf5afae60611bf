"""Loop-nest AST produced by polyhedral code generation.

The generator (:mod:`repro.polyhedral.codegen`) emits a nest of
:class:`Loop`, :class:`Assign`, :class:`Guard` and :class:`Stmt`
nodes. Two consumers exist:

* :func:`emit_c` renders CLooG-style C text (Figure 9 of the paper);
* :func:`iterate` enumerates the iterations in execution order, which
  drives both the test oracle and the simulated-GPU backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from ..analysis.affine import Affine


def _ceil_div(num: int, div: int) -> int:
    return -((-num) // div)


def _floor_div(num: int, div: int) -> int:
    return num // div


@dataclass(frozen=True)
class Div:
    """``ceil(numerator / divisor)`` or ``floor(numerator / divisor)``.

    ``divisor`` is always positive; negative divisors are normalised
    away at construction sites.
    """

    numerator: Affine
    divisor: int
    mode: str  # "ceil" | "floor"

    def __post_init__(self) -> None:
        if self.divisor <= 0:
            raise ValueError("divisor must be positive")
        if self.mode not in ("ceil", "floor"):
            raise ValueError(f"bad mode {self.mode!r}")

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate at a concrete environment."""
        value = self.numerator.evaluate(env)
        if self.divisor == 1:
            return value
        if self.mode == "ceil":
            return _ceil_div(value, self.divisor)
        return _floor_div(value, self.divisor)

    def c_text(self) -> str:
        """Render as CLooG-style C text."""
        inner = affine_c_text(self.numerator)
        if self.divisor == 1:
            return inner
        helper = "ceild" if self.mode == "ceil" else "floord"
        return f"{helper}({inner},{self.divisor})"


@dataclass(frozen=True)
class Bound:
    """A loop bound: ``max`` of lower terms or ``min`` of upper terms."""

    kind: str  # "max" (lower bound) | "min" (upper bound)
    terms: Tuple[Div, ...]

    def __post_init__(self) -> None:
        if self.kind not in ("max", "min"):
            raise ValueError(f"bad bound kind {self.kind!r}")
        if not self.terms:
            raise ValueError("a bound needs at least one term")

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate at a concrete environment."""
        values = [term.evaluate(env) for term in self.terms]
        return max(values) if self.kind == "max" else min(values)

    def c_text(self, prefix: str = "") -> str:
        """Render as CLooG-style C text.

        ``prefix`` names a typed helper family: bounds are integers
        by construction, so the native emitter spells them
        ``lmax``/``lmin`` (``prefix="l"``) instead of the untyped
        CLooG ``max``/``min``.
        """
        if len(self.terms) == 1:
            return self.terms[0].c_text()
        texts = [t.c_text() for t in self.terms]
        out = texts[0]
        for text in texts[1:]:
            out = f"{prefix}{self.kind}({out},{text})"
        return out


@dataclass(frozen=True)
class Node:
    """Base class of loop-nest nodes."""


@dataclass(frozen=True)
class Stmt(Node):
    """A statement instance, e.g. ``S1(i, p - i)``."""

    name: str
    args: Tuple[Affine, ...]

    def c_text(self) -> str:
        """Render as CLooG-style C text."""
        args = ",".join(affine_c_text(a) for a in self.args)
        return f"{self.name}({args});"


@dataclass(frozen=True)
class Loop(Node):
    """``for (var = lower; var <= upper; var += step) body``."""

    var: str
    lower: Bound
    upper: Bound
    body: Tuple[Node, ...]
    step: int = 1


@dataclass(frozen=True)
class Assign(Node):
    """``var = value; body`` — a dimension pinned by an equality."""

    var: str
    value: Div
    body: Tuple[Node, ...]


@dataclass(frozen=True)
class Guard(Node):
    """``if (expr % divisor == 0) body`` — a divisibility guard."""

    expr: Affine
    divisor: int
    body: Tuple[Node, ...]


@dataclass(frozen=True)
class LoopNest:
    """A whole generated nest, with its dimension order."""

    roots: Tuple[Node, ...]
    time_var: str
    space_vars: Tuple[str, ...]

    @property
    def time_loop(self) -> Optional["Loop"]:
        """The partition-major root loop over :attr:`time_var`, when
        the nest has one (``None`` for any other root shape)."""
        if (
            len(self.roots) == 1
            and isinstance(self.roots[0], Loop)
            and self.roots[0].var == self.time_var
        ):
            return self.roots[0]
        return None

    def iterations(
        self, params: Mapping[str, int]
    ) -> Iterator[Tuple[str, Dict[str, int]]]:
        """Enumerate (statement, environment) in order."""
        return iterate(self.roots, dict(params))


# ---------------------------------------------------------------------------
# C emission (CLooG style, Figure 9)
# ---------------------------------------------------------------------------


def affine_c_text(affine: Affine) -> str:
    """Render an affine expression the way CLooG prints it.

    Positive terms print before negative ones, so differences read
    ``p-m`` rather than ``-m+p`` (matching Figure 9).
    """
    parts: List[str] = []
    ordered = sorted(affine.coeffs, key=lambda item: item[1] < 0)
    for dim, coeff in ordered:
        if coeff == 1:
            term = dim
        elif coeff == -1:
            term = f"-{dim}"
        else:
            term = f"{coeff}*{dim}"
        if parts and not term.startswith("-"):
            parts.append(f"+{term}")
        else:
            parts.append(term)
    if affine.const != 0 or not parts:
        if parts and affine.const > 0:
            parts.append(f"+{affine.const}")
        else:
            parts.append(str(affine.const))
    return "".join(parts)


def emit_c(roots: Tuple[Node, ...], indent: int = 0) -> str:
    """Render a nest (or subtree) as CLooG-style C text."""
    lines: List[str] = []
    _emit_c(roots, indent, lines)
    return "\n".join(lines)


def _emit_c(nodes: Tuple[Node, ...], depth: int, lines: List[str]) -> None:
    pad = "  " * depth
    for node in nodes:
        if isinstance(node, Stmt):
            lines.append(pad + node.c_text())
        elif isinstance(node, Loop):
            step = f"{node.var}+={node.step}" if node.step != 1 else (
                f"{node.var}++"
            )
            lines.append(
                pad
                + f"for ({node.var}={node.lower.c_text()};"
                + f"{node.var}<={node.upper.c_text()};{step}) {{"
            )
            _emit_c(node.body, depth + 1, lines)
            lines.append(pad + "}")
        elif isinstance(node, Assign):
            lines.append(
                pad + f"{node.var} = {node.value.c_text()};"
            )
            _emit_c(node.body, depth, lines)
        elif isinstance(node, Guard):
            lines.append(
                pad
                + f"if (({affine_c_text(node.expr)})%{node.divisor}==0) {{"
            )
            _emit_c(node.body, depth + 1, lines)
            lines.append(pad + "}")
        else:
            raise TypeError(f"unknown node {node!r}")


def emit_c_inlined(roots: Tuple[Node, ...]) -> str:
    """C text with unit-divisor assignments substituted into uses.

    This matches Figure 9 exactly: the pinned dimension ``j = p - i``
    disappears and the statement reads ``S1(i,p-i)``.
    """
    lines: List[str] = []
    _emit_inlined(roots, 0, {}, lines)
    return "\n".join(lines)


def _subst(affine: Affine, bindings: Mapping[str, Affine]) -> Affine:
    return affine.substitute(dict(bindings))


def _emit_inlined(
    nodes: Tuple[Node, ...],
    depth: int,
    bindings: Dict[str, Affine],
    lines: List[str],
) -> None:
    pad = "  " * depth
    for node in nodes:
        if isinstance(node, Stmt):
            args = ",".join(
                affine_c_text(_subst(a, bindings)) for a in node.args
            )
            lines.append(pad + f"{node.name}({args});")
        elif isinstance(node, Loop):
            lower = Bound(
                node.lower.kind,
                tuple(
                    Div(_subst(t.numerator, bindings), t.divisor, t.mode)
                    for t in node.lower.terms
                ),
            )
            upper = Bound(
                node.upper.kind,
                tuple(
                    Div(_subst(t.numerator, bindings), t.divisor, t.mode)
                    for t in node.upper.terms
                ),
            )
            step = f"{node.var}+={node.step}" if node.step != 1 else (
                f"{node.var}++"
            )
            lines.append(
                pad
                + f"for ({node.var}={lower.c_text()};"
                + f"{node.var}<={upper.c_text()};{step}) {{"
            )
            _emit_inlined(node.body, depth + 1, bindings, lines)
            lines.append(pad + "}")
        elif isinstance(node, Assign):
            if node.value.divisor == 1:
                bindings = dict(bindings)
                bindings[node.var] = _subst(
                    node.value.numerator, bindings
                )
                _emit_inlined(node.body, depth, bindings, lines)
            else:
                lines.append(pad + f"{node.var} = {node.value.c_text()};")
                _emit_inlined(node.body, depth, bindings, lines)
        elif isinstance(node, Guard):
            lines.append(
                pad
                + f"if (({affine_c_text(_subst(node.expr, bindings))})"
                + f"%{node.divisor}==0) {{"
            )
            _emit_inlined(node.body, depth + 1, bindings, lines)
            lines.append(pad + "}")
        else:
            raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Enumeration (the execution semantics of the nest)
# ---------------------------------------------------------------------------


def iterate(
    nodes: Tuple[Node, ...], env: Dict[str, int]
) -> Iterator[Tuple[str, Dict[str, int]]]:
    """Yield ``(statement name, environment)`` in execution order."""
    for node in nodes:
        if isinstance(node, Stmt):
            values = dict(env)
            yield node.name, values
        elif isinstance(node, Loop):
            lower = node.lower.evaluate(env)
            upper = node.upper.evaluate(env)
            value = lower
            while value <= upper:
                env[node.var] = value
                yield from iterate(node.body, env)
                value += node.step
            env.pop(node.var, None)
        elif isinstance(node, Assign):
            env[node.var] = node.value.evaluate(env)
            yield from iterate(node.body, env)
            env.pop(node.var, None)
        elif isinstance(node, Guard):
            if node.expr.evaluate(env) % node.divisor == 0:
                yield from iterate(node.body, env)
        else:
            raise TypeError(f"unknown node {node!r}")
