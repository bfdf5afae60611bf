"""Case specs: the fuzzer's structured program grammar.

A *spec* is a small frozen dataclass describing one generated program
— the shape of the recurrence, its descent offsets, the data it
closes over — mirroring the typechecker's grammar so every rendered
program is well-typed by construction. Working at the spec level
(rather than on raw text) is what makes the shrinker tractable: a
shrink step edits the spec and re-renders, so it can never produce a
syntactically broken candidate.

Shapes, chosen to cover every backend-eligibility gate:

* :class:`Seq2DSpec` — the edit-distance / Smith-Waterman family:
  2-D uniform recurrences over two sequences, optional substitution
  matrix, optional user schedule (including the ``S = i`` ring shape,
  whose column dimension is pure space: a partition is a whole row),
  optional whole-table reduction, optional ``map``
  problem list (the lane-batching path);
* :class:`Range2DSpec` — the Nussinov family: substring recurrences
  with bounded range reductions (``max(k in i+1 .. j-1 : ...)``);
* :class:`Range1DSpec` — 1-D prefix reductions (vector-ineligible:
  the skip leg of the ladder);
* :class:`HmmSpec` — the forward/Viterbi family over random model
  topologies: CSR transition reductions, emission lookups, states
  with *no* incoming transitions (empty reductions), log space;
* :class:`IntDimSpec` — recurrences with an ``int`` recursion
  dimension whose extent comes from the call site (``initial``).

:func:`render` turns a spec into a :class:`FuzzCase`: declaration-only
DSL source (service-admissible as-is), the function name, JSON-able
arguments in the service binder's format, and — via
:func:`render_script` — a self-contained script with ``let``/``print``
driver statements for the regression corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

__all__ = [
    "CallTerm",
    "FuzzCase",
    "HmmSpec",
    "IntDimSpec",
    "Range1DSpec",
    "Range2DSpec",
    "Seq2DSpec",
    "render",
    "render_script",
    "spec_replace",
]


# ---------------------------------------------------------------------------
# spec dataclasses


@dataclass(frozen=True)
class CallTerm:
    """One recursive-call term of a combiner chain.

    ``offsets`` are per-dimension descent offsets (``f(i-1, j)`` is
    ``(-1, 0)``); ``addend`` attaches extra structure to the call:
    ``"const"`` adds ``weight``, ``"matrix"`` adds a substitution
    lookup, ``"charcmp"`` adds a character-comparison conditional.
    """

    offsets: Tuple[int, ...]
    addend: str = "none"  # none | const | matrix | charcmp
    weight: int = 0


@dataclass(frozen=True)
class Seq2DSpec:
    """2-D uniform recurrence over two sequences."""

    ret: str  # "int" | "float"
    combiner: str  # "min" | "max" | "add"
    terms: Tuple[CallTerm, ...]
    plus_one: bool
    alphabet: str
    s_text: str
    t_text: str
    #: user ``schedule`` coefficients (a, b), or None to search.
    #: ``(1, 0)`` is the ring shape — only valid when every term
    #: descends in ``i`` alone.
    schedule: Optional[Tuple[int, int]] = None
    #: whole-table reduction at extraction time ("max"/"min").
    reduce: Optional[str] = None
    #: extra problem sequences for the ``map`` differential leg.
    map_texts: Tuple[str, ...] = ()

    shape = "seq2d"


@dataclass(frozen=True)
class Range2DSpec:
    """Nussinov-family substring recurrence with range reductions."""

    terms: Tuple[CallTerm, ...]  # offsets from {(1,0),(0,-1),(1,-1)}
    pair_bonus: bool  # diagonal term carries the base-pair conditional
    range_op: Optional[str]  # "max" | "sum" | None
    alphabet: str
    x_text: str
    user_schedule: bool  # declare `schedule f : j - i`

    shape = "range2d"


@dataclass(frozen=True)
class Range1DSpec:
    """1-D prefix recurrence: reduction over every earlier cell."""

    op: str  # "max" | "min" | "sum"
    use_char: bool  # reduction body reads s[k]
    weight: int
    alphabet: str
    s_text: str

    shape = "range1d"


@dataclass(frozen=True)
class HmmSpec:
    """Forward/Viterbi-family recurrence over a random HMM topology."""

    op: str  # "sum" | "max"
    use_emission: bool
    alphabet: str
    #: middle state names (begin/fin are implicit).
    states: Tuple[str, ...]
    #: per-middle-state emission table: ((char, prob), ...).
    emissions: Tuple[Tuple[Tuple[str, float], ...], ...]
    #: (source, target, prob) over begin/fin/middle names.
    transitions: Tuple[Tuple[str, str, float], ...]
    x_text: str
    prob_mode: str = "direct"  # "direct" | "logspace"

    shape = "hmm"


@dataclass(frozen=True)
class IntDimSpec:
    """Recurrence over (index, int) dimensions — the extent of the
    int dimension is fixed by the first call (``initial``)."""

    combiner: str  # "min" | "max" | "add"
    terms: Tuple[CallTerm, ...]  # offsets over (i, n)
    alphabet: str
    s_text: str
    n0: int  # initial value of the int dimension

    shape = "intdim"


def spec_replace(spec, **changes):
    """``dataclasses.replace`` that works on every spec shape."""
    return replace(spec, **changes)


# ---------------------------------------------------------------------------
# rendered case


@dataclass
class FuzzCase:
    """One renderable, runnable fuzz program.

    ``text`` is declaration-only DSL source (what the service admits);
    ``args`` is the service binder's argument format (strings coerce
    to sequences, recursive coordinates are plain ints, globals bind
    by name). ``map_param``/``map_texts`` describe the optional
    lane-batching differential leg.
    """

    spec: object
    text: str
    function: str
    args: Dict[str, object]
    prob_mode: str = "direct"
    reduce: Optional[str] = None
    map_param: Optional[str] = None
    map_texts: Tuple[str, ...] = ()
    #: the script-level ``map`` template call (``f(a, |a|, _, |_|)``)
    #: for corpus entries that replay the lane-batched leg.
    map_call: Optional[str] = None
    #: driver statements (let/print) appended by :func:`render_script`.
    driver: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def shape(self) -> str:
        """The generating spec's shape name."""
        return getattr(self.spec, "shape", "unknown")


# ---------------------------------------------------------------------------
# rendering helpers


def _offset_text(var: str, offset: int) -> str:
    if offset == 0:
        return var
    sign = "+" if offset > 0 else "-"
    return f"{var} {sign} {abs(offset)}"


def _call(func: str, dims: Tuple[str, ...], offsets: Tuple[int, ...]) -> str:
    args = ", ".join(
        _offset_text(dim, off) for dim, off in zip(dims, offsets)
    )
    return f"{func}({args})"


def _weight_text(weight: int, as_float: bool) -> str:
    if as_float:
        # Forcing a float literal keeps the body's checked type FLOAT
        # even when every other operand is an int expression.
        return f"{float(weight)}"
    return str(abs(weight))


def _term_text(
    term: CallTerm, func: str, dims: Tuple[str, ...], ret: str
) -> str:
    call = _call(func, dims, term.offsets)
    as_float = ret == "float"
    if term.addend == "none":
        return call
    if term.addend == "const":
        if term.weight == 0:
            return call
        op = "+" if term.weight > 0 else "-"
        value = _weight_text(abs(term.weight), as_float)
        return f"({call} {op} {value})"
    if term.addend == "matrix":
        return f"({call} + m[s[i - 1], t[j - 1]])"
    if term.addend == "charcmp":
        hit = "1.0" if as_float else "1"
        miss = "0.0" if as_float else "0"
        return (
            f"({call} + (if s[i - 1] == t[j - 1] then {hit} "
            f"else {miss}))"
        )
    raise ValueError(f"unknown addend {term.addend!r}")


def _chain(parts, combiner: str) -> str:
    joiner = {"min": " min ", "max": " max ", "add": " + "}[combiner]
    return joiner.join(parts)


def _matrix_decl(name: str, alphabet: str) -> str:
    """A deterministic full substitution matrix over ``alphabet``.

    Diagonal-heavy like a real scoring matrix: +2 on the diagonal,
    mildly negative off it (the exact values only need to be stable).
    """
    header = " ".join(alphabet)
    lines = [f"matrix {name}[al, al] {{", f"  header {header}"]
    for row_index, row_char in enumerate(alphabet):
        values = []
        for col_index in range(len(alphabet)):
            if row_index == col_index:
                values.append("2")
            else:
                values.append(str(-1 - (row_index + col_index) % 2))
        lines.append(f"  row {row_char} : {' '.join(values)}")
    lines.append("}")
    return "\n".join(lines)


def _guard(terms: Tuple[CallTerm, ...]) -> int:
    """Base-case threshold keeping every descent and data read in
    bounds (offsets reach ``-G``; reads use ``i - 1``/``j - 1``)."""
    deepest = 1
    for term in terms:
        for offset in term.offsets:
            deepest = max(deepest, -offset)
    return deepest


# ---------------------------------------------------------------------------
# per-shape rendering


def _render_seq2d(spec: Seq2DSpec) -> FuzzCase:
    uses_matrix = any(t.addend == "matrix" for t in spec.terms)
    guard = _guard(spec.terms)
    dims = ("i", "j")
    parts = [_term_text(t, "f", dims, spec.ret) for t in spec.terms]
    chain = _chain(parts, spec.combiner)
    if spec.plus_one:
        one = "1.0" if spec.ret == "float" else "1"
        chain = f"({chain}) + {one}"
    base = "i + j" if spec.ret == "int" else "0.0"
    params = []
    if uses_matrix:
        params.append("matrix[al, al] m")
    params += ["seq[al] s", "index[s] i", "seq[al] t", "index[t] j"]
    lines = [f'alphabet al = "{spec.alphabet}"', ""]
    if uses_matrix:
        lines += [_matrix_decl("m", spec.alphabet), ""]
    lines += [
        f"{spec.ret} f({', '.join(params)}) =",
        f"  if i < {guard} then {base}",
        f"  else if j < {guard} then {base}",
        f"  else {chain}",
    ]
    if spec.schedule is not None:
        a, b = spec.schedule
        pieces = []
        if a:
            pieces.append("i" if a == 1 else f"{a}*i")
        if b:
            pieces.append("j" if b == 1 else f"{b}*j")
        lines += ["", f"schedule f : {' + '.join(pieces)}"]
    args: Dict[str, object] = {
        "s": spec.s_text,
        "i": len(spec.s_text),
        "t": spec.t_text,
        "j": len(spec.t_text),
    }
    driver = [f'let a = "{spec.s_text}"', f'let b = "{spec.t_text}"']
    proto = ["m"] if uses_matrix else []
    proto += ["a", "|a|", "b", "|b|"]
    driver.append(f"print f({', '.join(proto)})")
    map_proto = (["m"] if uses_matrix else []) + [
        "a", "|a|", "_", "|_|"
    ]
    return FuzzCase(
        spec=spec,
        text="\n".join(lines) + "\n",
        function="f",
        args=args,
        reduce=spec.reduce,
        map_param="t" if spec.map_texts else None,
        map_texts=spec.map_texts,
        map_call=(
            f"f({', '.join(map_proto)})" if spec.map_texts else None
        ),
        driver=tuple(driver),
    )


def _render_range2d(spec: Range2DSpec) -> FuzzCase:
    parts = []
    for term in spec.terms:
        call = _call("f", ("i", "j"), term.offsets)
        if term.offsets == (1, -1) and spec.pair_bonus:
            call = f"({call} + (if x[i] == x[j - 1] then 1 else 0))"
        parts.append(call)
    if spec.range_op is not None:
        parts.append(
            f"{spec.range_op}(k in i + 1 .. j - 1 : f(i, k) + f(k, j))"
        )
    chain = _chain(parts, "max")
    lines = [
        f'alphabet al = "{spec.alphabet}"',
        "",
        "int f(seq[al] x, index[x] i, index[x] j) =",
        "  if j < i + 2 then 0",
        f"  else ({chain})",
    ]
    if spec.user_schedule:
        lines += ["", "schedule f : j - i"]
    driver = [
        f'let a = "{spec.x_text}"',
        "print f(a, 0, |a|)",
    ]
    return FuzzCase(
        spec=spec,
        text="\n".join(lines) + "\n",
        function="f",
        args={"x": spec.x_text, "i": 0, "j": len(spec.x_text)},
        driver=tuple(driver),
    )


def _render_range1d(spec: Range1DSpec) -> FuzzCase:
    if spec.use_char:
        probe = spec.alphabet[0]
        body = f"f(k) + (if s[k] == '{probe}' then 2 else 1)"
    else:
        body = f"f(k) + {spec.weight}"
    lines = [
        f'alphabet al = "{spec.alphabet}"',
        "",
        "int f(seq[al] s, index[s] i) =",
        "  if i < 1 then 0",
        f"  else {spec.op}(k in 0 .. i - 1 : {body})",
    ]
    driver = [f'let a = "{spec.s_text}"', "print f(a, |a|)"]
    return FuzzCase(
        spec=spec,
        text="\n".join(lines) + "\n",
        function="f",
        args={"s": spec.s_text, "i": len(spec.s_text)},
        driver=tuple(driver),
    )


def _render_hmm(spec: HmmSpec) -> FuzzCase:
    lines = [f'alphabet al = "{spec.alphabet}"', "", "hmm h [al] {"]
    lines.append("  state begin : start")
    for name, emissions in zip(spec.states, spec.emissions):
        if emissions:
            pairs = ", ".join(
                f"{char}: {prob}" for char, prob in emissions
            )
            lines.append(f"  state {name} emits {{ {pairs} }}")
        else:
            lines.append(f"  state {name} emits {{ }}")
    lines.append("  state fin : end")
    for source, target, prob in spec.transitions:
        lines.append(f"  trans {source} -> {target} : {prob}")
    lines.append("}")
    emission = (
        "(if s.isend then 1.0 else s.emission[x[i - 1]]) * "
        if spec.use_emission
        else ""
    )
    lines += [
        "",
        "prob f(hmm h, state[h] s, seq[*] x, index[x] i) =",
        "  if i == 0 then (if s.isstart then 1.0 else 0.0)",
        f"  else {emission}{spec.op}(t in s.transitionsto : "
        "t.prob * f(t.start, i - 1))",
    ]
    driver = [f'let a = "{spec.x_text}"', "print f(h, h.end, a, |a|)"]
    return FuzzCase(
        spec=spec,
        text="\n".join(lines) + "\n",
        function="f",
        args={"x": spec.x_text, "i": len(spec.x_text)},
        prob_mode=spec.prob_mode,
        driver=tuple(driver),
    )


def _render_intdim(spec: IntDimSpec) -> FuzzCase:
    guard = _guard(spec.terms)
    parts = [
        _term_text(t, "f", ("i", "n"), "int") for t in spec.terms
    ]
    chain = _chain(parts, spec.combiner)
    lines = [
        f'alphabet al = "{spec.alphabet}"',
        "",
        "int f(seq[al] s, index[s] i, int n) =",
        f"  if i < {guard} then i + n",
        f"  else if n < {guard} then i + n",
        f"  else {chain}",
    ]
    driver = [
        f'let a = "{spec.s_text}"',
        f"print f(a, |a|, {spec.n0})",
    ]
    return FuzzCase(
        spec=spec,
        text="\n".join(lines) + "\n",
        function="f",
        args={"s": spec.s_text, "i": len(spec.s_text), "n": spec.n0},
        driver=tuple(driver),
    )


_RENDERERS = {
    "seq2d": _render_seq2d,
    "range2d": _render_range2d,
    "range1d": _render_range1d,
    "hmm": _render_hmm,
    "intdim": _render_intdim,
}


def render(spec) -> FuzzCase:
    """Render a spec into a runnable :class:`FuzzCase`."""
    renderer = _RENDERERS.get(getattr(spec, "shape", None))
    if renderer is None:
        raise ValueError(f"unknown spec shape for {spec!r}")
    return renderer(spec)


def render_script(case_or_spec) -> str:
    """A self-contained DSL script for a case: declarations plus the
    ``let``/``print`` driver — the form corpus entries are stored in."""
    case = (
        case_or_spec
        if isinstance(case_or_spec, FuzzCase)
        else render(case_or_spec)
    )
    return case.text + "\n" + "\n".join(case.driver) + "\n"
