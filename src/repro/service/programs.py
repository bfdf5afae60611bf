"""Service-side DSL programs: check once, bind per request.

A service job names a *program* (DSL declarations: alphabets,
matrices, models, functions, schedules, plus constant ``let``s), a
*function* in it, and JSON-able *arguments*. Programs are parsed and
type-checked once per distinct source text (sha256-keyed registry) so
the per-request work is just argument binding — the compile cache
then takes care of the kernels.

Service programs are declaration-only: ``print``/``map``/``load``
statements are imperative script actions and are rejected, keeping a
submitted program free of side effects.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Dict, Mapping, Optional, Tuple

from ..extensions.hmm import Hmm
from ..extensions.submatrix import SubstitutionMatrix
from ..lang import ast
from ..lang.errors import RuntimeDslError
from ..lang.parser import parse_program
from ..lang.typecheck import CheckedFunction, check_program
from ..lang.types import IntType, SeqType
from ..runtime.values import Alphabet, Sequence


def program_sha(text: str) -> str:
    """The registry key of a program source text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ServiceProgram:
    """One checked, declaration-only program plus its bound globals.

    ``lint=True`` (the default) is the service's admission control:
    the independent verifier and access analysis run once at
    registration, and any error-severity diagnostic rejects the
    program with :class:`~repro.lang.errors.VerificationError` — the
    HTTP layer renders it as a 400 with the caret diagnostics, so a
    racy schedule or out-of-bounds recurrence never reaches a worker.
    """

    def __init__(self, text: str, lint: bool = True) -> None:
        self.text = text
        self.sha = program_sha(text)
        self.checked = check_program(parse_program(text))
        if lint:
            self._admission_lint()
        self.alphabets: Dict[str, Alphabet] = {
            name: Alphabet(name, chars)
            for name, chars in self.checked.alphabets.items()
        }
        self.globals: Dict[str, object] = {}
        for name, decl in self.checked.matrices.items():
            self.globals[name] = SubstitutionMatrix.from_decl(
                decl, self.alphabets
            )
        for name, decl in self.checked.hmms.items():
            self.globals[name] = Hmm.from_decl(decl, self.alphabets)
        for stmt in self.checked.program.statements:
            if isinstance(stmt, ast.LetStmt):
                self.globals[stmt.name] = self._eval_const(stmt.value)
            elif isinstance(
                stmt, (ast.PrintStmt, ast.MapStmt, ast.LoadStmt)
            ):
                raise RuntimeDslError(
                    "service programs are declaration-only: "
                    f"remove the {type(stmt).__name__} statement",
                    stmt.span,
                )

    def _admission_lint(self) -> None:
        """Reject programs the static verifier finds errors in."""
        from ..lang.errors import VerificationError
        from ..lang.source import SourceText
        from ..verify.lint import lint_checked
        from ..verify.diagnostics import Severity

        source = SourceText(self.text, "<program>")
        result = lint_checked(self.checked, source=source)
        errors = result.report.by_severity(Severity.ERROR)
        if errors:
            raise VerificationError(
                "program rejected by admission control:\n"
                + "\n".join(d.render(source) for d in errors)
            )

    # -- declaration-time evaluation ----------------------------------------

    def _eval_const(self, expr: ast.Expr) -> object:
        """Evaluate a ``let`` right-hand side (constants only)."""
        if isinstance(
            expr,
            (ast.StrLit, ast.IntLit, ast.FloatLit, ast.BoolLit,
             ast.CharLit),
        ):
            return expr.value
        if isinstance(expr, ast.Var):
            if expr.name in self.globals:
                return self.globals[expr.name]
            raise RuntimeDslError(
                f"unknown name {expr.name!r} in let", expr.span
            )
        raise RuntimeDslError(
            f"service lets must be constants, got {expr}", expr.span
        )

    # -- lookup & binding ----------------------------------------------------

    def function(self, name: str) -> CheckedFunction:
        """Look a checked function up by name."""
        return self.checked.function(name)

    def user_schedule(self, name: str) -> Optional[ast.Expr]:
        """The program's ``schedule`` declaration for ``name``, if any."""
        return self.checked.schedules.get(name)

    def bind(
        self,
        function: str,
        args: Mapping[str, object],
    ) -> Tuple[Dict[str, object], Dict[str, int], Dict[str, int]]:
        """Bind request arguments to ``function``'s parameters.

        Returns ``(bindings, at, initial)`` in the engine's terms:
        values for calling parameters, explicit coordinates for
        recursive ones (absent recursive arguments default per
        problem, exactly like ``map``'s ``_`` holes).

        Argument forms: plain JSON scalars; strings coerce to
        sequences for ``seq`` parameters (alphabet from the parameter
        type, else first covering declared alphabet);
        ``{"ref": name}`` picks a declared global (model, matrix,
        let). A calling parameter with no argument auto-binds to the
        declared global of the same name when one exists.
        """
        func = self.function(function)
        known = {p.name for p in func.params}
        for name in args:
            if name not in known:
                raise RuntimeDslError(
                    f"{function} has no parameter {name!r} "
                    f"(parameters: {', '.join(sorted(known))})"
                )
        bindings: Dict[str, object] = {}
        at: Dict[str, int] = {}
        initial: Dict[str, int] = {}
        for param in func.params:
            if param.name in args:
                value = self._resolve(args[param.name], param)
            elif not param.is_recursive and param.name in self.globals:
                value = self.globals[param.name]
            else:
                continue  # recursive: default per problem
            if param.is_recursive:
                coordinate = int(value)
                at[param.name] = coordinate
                if isinstance(param.type, IntType):
                    initial[param.name] = coordinate
            else:
                bindings[param.name] = self._coerce(param, value)
        missing = [
            p.name
            for p in func.calling_params
            if p.name not in bindings
        ]
        if missing:
            raise RuntimeDslError(
                f"missing value(s) for parameter(s) "
                f"{', '.join(missing)} of {function}"
            )
        return bindings, at, initial

    def _resolve(self, value: object, param) -> object:
        if isinstance(value, dict):
            ref = value.get("ref")
            if not isinstance(ref, str) or set(value) != {"ref"}:
                raise RuntimeDslError(
                    f"argument for {param.name!r} must be a scalar, "
                    f"a string, or {{'ref': name}}; got {value!r}"
                )
            if ref not in self.globals:
                raise RuntimeDslError(
                    f"{{'ref': {ref!r}}}: no declared global of "
                    f"that name"
                )
            return self.globals[ref]
        return value

    def _coerce(self, param, value: object) -> object:
        """Adapt request values to parameter types (str -> Sequence)."""
        if isinstance(param.type, SeqType) and isinstance(value, str):
            if param.type.alphabet is not None:
                alphabet = self.alphabets.get(param.type.alphabet)
                if alphabet is not None:
                    return Sequence(value, alphabet)
            for alphabet in self.alphabets.values():
                if all(ch in alphabet.chars for ch in set(value)):
                    return Sequence(value, alphabet)
            raise RuntimeDslError(
                f"no declared alphabet covers the string for "
                f"parameter {param.name!r}"
            )
        return value


class ProgramRegistry:
    """Thread-safe sha256-keyed cache of checked service programs."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._programs: Dict[str, ServiceProgram] = {}

    def register(self, text: str) -> ServiceProgram:
        """Check ``text`` (once per distinct source) and return it."""
        sha = program_sha(text)
        with self._lock:
            program = self._programs.get(sha)
        if program is not None:
            return program
        program = ServiceProgram(text)  # may raise DslError
        with self._lock:
            return self._programs.setdefault(sha, program)

    def get(self, sha: str) -> ServiceProgram:
        """The registered program for ``sha`` (KeyError if absent)."""
        with self._lock:
            return self._programs[sha]

    def __len__(self) -> int:
        with self._lock:
            return len(self._programs)
