"""Script execution: the runtime environment of the DSL.

The language is "designed to mimic the style of a scripting language"
(Section 3): declarations (alphabets, matrices, models, functions,
schedules) followed by imperative statements — ``let``, ``load``,
``print`` and the ``map`` primitive that applies a function across a
sequence collection (the inter-multiprocessor parallelisation).

:class:`Program` is a checked program with its alphabets, globals and
the one binder every front end shares — scripts here, the service in
:mod:`repro.service.programs`. :class:`ProgramRunner` evaluates a
script's statements on top of it against an
:class:`~repro.runtime.engine.Engine`; results (printed lines, map
outputs, timing reports) are collected on the returned
:class:`ScriptResult`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..extensions.hmm import Hmm
from ..extensions.submatrix import SubstitutionMatrix
from ..lang import ast
from ..lang.errors import RuntimeDslError
from ..lang.parser import parse_program
from ..lang.typecheck import CheckedFunction, CheckedProgram, check_program
from ..lang.types import IntType, SeqType
from .engine import Engine, MapResult, RunResult
from .sequences import read_fasta
from .values import Alphabet, Sequence

#: Operators a script-level expression may use.
_SCRIPT_OPS = {
    ast.BinOpKind.ADD: operator.add,
    ast.BinOpKind.SUB: operator.sub,
    ast.BinOpKind.MUL: operator.mul,
    ast.BinOpKind.MIN: min,
    ast.BinOpKind.MAX: max,
}

Bound = Tuple[Dict[str, object], Dict[str, int], Dict[str, int]]


class Program:
    """A checked program, its alphabets and globals, and the binder.

    Builds the alphabets and the declared matrices and models into
    ``globals`` (which the caller may pre-seed), evaluates ``let``
    right-hand sides with :meth:`eval_value`, and binds a
    parameter-name→value map into the engine's
    ``(bindings, at, initial)`` with :meth:`bind_values`.
    """

    def __init__(
        self,
        checked: CheckedProgram,
        globals: Optional[Dict[str, object]] = None,
    ) -> None:
        self.checked = checked
        self.alphabets: Dict[str, Alphabet] = {
            name: Alphabet(name, chars)
            for name, chars in checked.alphabets.items()
        }
        self.globals = {} if globals is None else globals
        for name, decl in checked.matrices.items():
            self.globals[name] = SubstitutionMatrix.from_decl(
                decl, self.alphabets
            )
        for name, decl in checked.hmms.items():
            self.globals[name] = Hmm.from_decl(decl, self.alphabets)

    def function(self, name: str) -> CheckedFunction:
        """Look a checked function up by name."""
        return self.checked.function(name)

    def user_schedule(self, name: str) -> Optional[ast.Expr]:
        """The program's ``schedule`` declaration for ``name``, if any."""
        return self.checked.schedules.get(name)

    def let(self, stmt: ast.LetStmt) -> None:
        """Bind a ``let``'s value."""
        self.globals[stmt.name] = self.eval_value(stmt.value)

    def eval_value(self, expr: ast.Expr) -> object:
        """Evaluate a script-level value expression: a literal, a
        global's name, ``|name|``, a model's ``.start``/``.end``, or
        ``+ - * min max`` over numbers among those. An ``int`` result
        must fit the kernels' 64 bits, so no value outgrows the text
        that wrote it."""
        if isinstance(
            expr,
            (ast.StrLit, ast.IntLit, ast.FloatLit, ast.BoolLit,
             ast.CharLit),
        ):
            return expr.value
        if isinstance(expr, (ast.Var, ast.Len)):
            name = expr.name if isinstance(expr, ast.Var) else expr.seq
            if name not in self.globals:
                raise RuntimeDslError(
                    f"unknown script variable {name!r}", expr.span
                )
            value = self.globals[name]
            if isinstance(expr, ast.Var):
                return value
            if isinstance(value, (Sequence, str, list, tuple)):
                return len(value)
            raise RuntimeDslError(
                f"|{name}| needs a sequence or collection", expr.span
            )
        if isinstance(expr, ast.Field) and expr.name in ("start", "end"):
            subject = self.eval_value(expr.subject)
            if isinstance(subject, Hmm):
                return getattr(subject, f"{expr.name}_state").index
        if isinstance(expr, ast.BinOp) and expr.op in _SCRIPT_OPS:
            operands = [self.eval_value(expr.left),
                        self.eval_value(expr.right)]
            if all(isinstance(v, (int, float)) for v in operands):
                value = _SCRIPT_OPS[expr.op](*operands)
                if not isinstance(value, int) or value.bit_length() < 64:
                    return value
            raise RuntimeDslError(
                f"script-level {expr.op.value!r} takes numbers and "
                f"gives a float or an int that fits 64 bits",
                expr.span,
            )
        raise RuntimeDslError(
            f"cannot evaluate {expr} at script level", expr.span
        )

    def bind_values(
        self, func: CheckedFunction, values: Mapping[str, object]
    ) -> Bound:
        """Bind parameter values to ``func``'s parameters.

        Returns ``(bindings, at, initial)`` in the engine's terms. A
        recursive parameter's value is an explicit coordinate (an
        ``int`` dimension's is also its initial value); an absent one
        defaults per problem. A calling parameter's value is coerced
        to its type and must be present.
        """
        bindings: Dict[str, object] = {}
        at: Dict[str, int] = {}
        initial: Dict[str, int] = {}
        for param in func.params:
            if param.name not in values:
                continue
            value = values[param.name]
            if param.is_recursive:
                at[param.name] = coordinate = int(value)
                if isinstance(param.type, IntType):
                    initial[param.name] = coordinate
            else:
                bindings[param.name] = self._coerce(param, value)
        missing = [
            p.name for p in func.calling_params if p.name not in bindings
        ]
        if missing:
            raise RuntimeDslError(
                f"missing value(s) for parameter(s) "
                f"{', '.join(missing)} of {func.name}"
            )
        return bindings, at, initial

    def _coerce(self, param, value: object) -> object:
        """Adapt a value to its parameter's type (str -> Sequence).

        A bare string passed for a ``seq[*]`` parameter adopts the
        first declared alphabet that covers it.
        """
        if isinstance(param.type, SeqType) and isinstance(value, str):
            if param.type.alphabet is not None:
                return Sequence(value, self.alphabets[param.type.alphabet])
            for alphabet in self.alphabets.values():
                if all(ch in alphabet.chars for ch in set(value)):
                    return Sequence(value, alphabet)
            raise RuntimeDslError(
                f"no declared alphabet covers the string for "
                f"parameter {param.name!r}"
            )
        return value


@dataclass
class ScriptResult:
    """Everything a script run produced."""

    printed: List[str] = field(default_factory=list)
    values: List[object] = field(default_factory=list)
    maps: Dict[str, MapResult] = field(default_factory=dict)
    runs: List[RunResult] = field(default_factory=list)

    @property
    def last(self) -> object:
        """The value of the script's final ``print``."""
        if not self.values:
            raise RuntimeDslError("the script printed nothing")
        return self.values[-1]


class ProgramRunner:
    """Executes checked programs statement by statement."""

    def __init__(
        self,
        engine: Optional[Engine] = None,
        echo: bool = False,
    ) -> None:
        self.engine = engine or Engine()
        self.echo = echo
        self.globals: Dict[str, object] = {}
        self.program: Optional[Program] = None

    def run_text(self, text: str) -> ScriptResult:
        """Parse, check and execute DSL source text."""
        return self.run(check_program(parse_program(text)))

    def run(self, checked: CheckedProgram) -> ScriptResult:
        """Execute a checked program."""
        result = ScriptResult()
        self.program = Program(checked, self.globals)
        for stmt in checked.program.statements:
            if isinstance(stmt, ast.LetStmt):
                self.program.let(stmt)
            elif isinstance(stmt, ast.LoadStmt):
                self._load(stmt)
            elif isinstance(stmt, ast.PrintStmt):
                self._print(stmt, result)
            elif isinstance(stmt, ast.MapStmt):
                self._map(stmt, result)
            # declarations were handled by the checker / Program.
        return result

    # -- statement execution --------------------------------------------------

    def _load(self, stmt: ast.LoadStmt) -> None:
        if stmt.format != "fasta":
            raise RuntimeDslError(
                f"unknown load format {stmt.format!r} (only 'fasta')",
                stmt.span,
            )
        alphabet = self._infer_alphabet_for_file(stmt.path)
        self.globals[stmt.name] = read_fasta(stmt.path, alphabet)

    def _infer_alphabet_for_file(self, path: str) -> Alphabet:
        from pathlib import Path

        body = "".join(
            line.strip()
            for line in Path(path).read_text().splitlines()
            if line.strip() and not line.startswith(">")
        )
        for alphabet in self.program.alphabets.values():
            folded = (
                body.lower()
                if alphabet.chars == alphabet.chars.lower()
                else body.upper()
            )
            if all(ch in alphabet.chars for ch in set(folded)):
                return alphabet
        raise RuntimeDslError(
            f"no declared alphabet covers the sequences in {path!r}"
        )

    def _print(self, stmt: ast.PrintStmt, result: ScriptResult) -> None:
        call = stmt.value
        functions = self.program.checked.functions
        if isinstance(call, ast.Call) and call.func in functions:
            func = self.program.function(call.func)
            bindings, at, initial = self._bind_call(func, call)
            run = self.engine.run(
                func, bindings, at=at or None, initial=initial or None,
                user_schedule=self.program.user_schedule(func.name),
            )
            result.runs.append(run)
            value = run.value
        else:
            value = self.program.eval_value(call)
        result.values.append(value)
        line = str(value)
        result.printed.append(line)
        if self.echo:
            print(line)

    def _map(self, stmt: ast.MapStmt, result: ScriptResult) -> None:
        """One ``run`` request per member: the template's explicit
        coordinates, ``initial`` and the declared schedule apply to
        every member, its ``_`` holes take the member."""
        collection = self.globals.get(stmt.over)
        if not isinstance(collection, (list, tuple)):
            raise RuntimeDslError(
                f"{stmt.over!r} is not a sequence collection"
                if stmt.over in self.globals
                else f"unknown collection {stmt.over!r}",
                stmt.span,
            )
        func = self.program.function(stmt.template.func)
        _check_arity(func, stmt.template)
        if not any(map(_is_hole, stmt.template.args)):
            raise RuntimeDslError(
                "map template has no '_' placeholder", stmt.span
            )
        problems, at, initial = [], {}, {}
        for element in collection:
            bound, at, initial = self._bind_call(
                func, stmt.template, element
            )
            problems.append(bound)
        map_result = self.engine.map_run(
            func, {}, problems, at=at or None, initial=initial or None,
            user_schedule=self.program.user_schedule(func.name),
        )
        self.globals[stmt.name] = map_result.values
        result.maps[stmt.name] = map_result

    def _bind_call(
        self,
        func: CheckedFunction,
        call: ast.Call,
        element: Optional[object] = None,
    ) -> Bound:
        """Bind a full-prototype call's positional arguments.

        A ``_`` hole takes ``element`` (``|_|`` its length). In a
        recursive position only ``|_|`` indexing the ``_`` sequence may
        stand; it is left out, so it defaults to the member's last row
        as the ``print`` of the member's call would."""
        _check_arity(func, call)
        mapped = {
            p.name
            for p, arg in zip(func.params, call.args)
            if isinstance(arg, ast.Placeholder)
        }
        values: Dict[str, object] = {}
        for param, arg in zip(func.params, call.args):
            if not _is_hole(arg):
                values[param.name] = self.program.eval_value(arg)
            elif element is None:
                raise RuntimeDslError(
                    "'_' stands only in a map template", arg.span
                )
            elif not param.is_recursive:
                values[param.name] = (
                    element
                    if isinstance(arg, ast.Placeholder)
                    else len(element)
                )
            elif not (
                isinstance(arg, ast.Len)
                and getattr(param.type, "seq_param", None) in mapped
            ):
                raise RuntimeDslError(
                    f"the hole for recursive parameter {param.name!r} "
                    f"of {func.name} must be |_| indexing the mapped "
                    f"sequence",
                    arg.span,
                )
        return self.program.bind_values(func, values)


def _is_hole(arg: ast.Expr) -> bool:
    """``_`` or ``|_|``: a ``map`` template's per-member argument."""
    return isinstance(arg, ast.Placeholder) or (
        isinstance(arg, ast.Len) and arg.seq == "_"
    )


def _check_arity(func: CheckedFunction, call: ast.Call) -> None:
    if len(call.args) != len(func.params):
        raise RuntimeDslError(
            f"{func.name} takes {len(func.params)} arguments "
            f"({', '.join(p.name for p in func.params)}), got "
            f"{len(call.args)}",
            call.span,
        )


def run_script(
    text: str,
    engine: Optional[Engine] = None,
    echo: bool = False,
) -> ScriptResult:
    """Parse, check and execute a DSL script."""
    return ProgramRunner(engine, echo=echo).run_text(text)
