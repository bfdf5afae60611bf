"""Service-side DSL programs: check once, bind per request.

A service job names a *program* (DSL declarations: alphabets,
matrices, models, functions, schedules, plus ``let``s), a *function*
in it, and JSON-able *arguments*. Programs are parsed and
type-checked once per distinct source text (sha256-keyed registry) so
the per-request work is just argument binding — the compile cache
then takes care of the kernels.

A :class:`ServiceProgram` is a :class:`~repro.runtime.program.Program`:
its globals, ``let`` evaluator and binder are the script front end's.
What is the service's own is admission control, the JSON argument
forms, and the declaration-only rule: ``print``/``map``/``load``
statements are imperative script actions and are rejected, keeping a
submitted program free of side effects.
"""

from __future__ import annotations

import hashlib
import threading
from typing import Dict, Mapping

from ..lang import ast
from ..lang.errors import RuntimeDslError, VerificationError
from ..lang.parser import parse_program
from ..lang.typecheck import check_program
from ..runtime.program import Bound, Program


def program_sha(text: str) -> str:
    """The registry key of a program source text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ServiceProgram(Program):
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
        checked = check_program(parse_program(text))
        if lint:
            self._admission_lint(checked)
        super().__init__(checked)
        for stmt in checked.program.statements:
            if isinstance(stmt, ast.LetStmt):
                self.let(stmt)
            elif isinstance(
                stmt, (ast.PrintStmt, ast.MapStmt, ast.LoadStmt)
            ):
                raise RuntimeDslError(
                    "service programs are declaration-only: "
                    f"remove the {type(stmt).__name__} statement",
                    stmt.span,
                )

    def _admission_lint(self, checked) -> None:
        """Reject programs the static verifier finds errors in."""
        from ..lang.source import SourceText
        from ..verify.lint import lint_checked
        from ..verify.diagnostics import Severity

        source = SourceText(self.text, "<program>")
        result = lint_checked(checked, source=source)
        errors = result.report.by_severity(Severity.ERROR)
        if errors:
            raise VerificationError(
                "program rejected by admission control:\n"
                + "\n".join(d.render(source) for d in errors)
            )

    def bind(self, function: str, args: Mapping[str, object]) -> Bound:
        """Bind request arguments to ``function``'s parameters.

        Returns :meth:`~repro.runtime.program.Program.bind_values`'s
        ``(bindings, at, initial)``: recursive arguments are explicit
        coordinates, absent ones default per problem.

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
        values = {
            name: self._resolve(name, value)
            for name, value in args.items()
        }
        for param in func.calling_params:
            if param.name not in values and param.name in self.globals:
                values[param.name] = self.globals[param.name]
        return self.bind_values(func, values)

    def _resolve(self, name: str, value: object) -> object:
        """A JSON argument's value: itself, or the global it refs."""
        if not isinstance(value, dict):
            return value
        ref = value.get("ref")
        if not isinstance(ref, str) or set(value) != {"ref"}:
            raise RuntimeDslError(
                f"argument for {name!r} must be a scalar, "
                f"a string, or {{'ref': name}}; got {value!r}"
            )
        if ref not in self.globals:
            raise RuntimeDslError(
                f"{{'ref': {ref!r}}}: no declared global of that name"
            )
        return self.globals[ref]


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
