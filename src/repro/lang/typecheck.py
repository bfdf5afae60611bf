"""Type checker for the recursion DSL.

The checker resolves surface types against the declaration environment
(alphabets, matrices, models), classifies parameters into *calling*
and *recursive* (Section 3.2), and types every expression of every
function body. Its output, :class:`CheckedProgram`, is the input of
dependency analysis and code generation.

Restrictions enforced here, straight from the paper:

* only self-recursive calls — no mutual recursion, no helper calls
  (Section 3.1 / Section 9 future work);
* recursive calls pass exactly the recursive parameters;
* sequences are immutable and only queried by index;
* script-only forms (string literals, ``|s|``, ``_``) may not appear
  inside function bodies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from . import ast
from .errors import TypeCheckError
from .types import (
    BOOL,
    FLOAT,
    INT,
    PROB,
    BoolType,
    CharType,
    FloatType,
    HmmType,
    IndexType,
    IntType,
    MatrixType,
    ProbType,
    SeqType,
    StateType,
    TransitionSetType,
    TransitionType,
    Type,
    alphabets_compatible,
    unify_numeric,
    widens_to,
)


@dataclass(frozen=True)
class CheckedParam:
    """A resolved function parameter."""

    name: str
    type: Type

    @property
    def is_recursive(self) -> bool:
        """Does this parameter span a recursion dimension?"""
        return self.type.is_recursive

    def __str__(self) -> str:
        return f"{self.type} {self.name}"


@dataclass
class CheckedFunction:
    """A type-checked function, with per-expression types.

    ``recursive_params`` (in declaration order) are the dimensions of
    the recursion domain; ``calling_params`` are run-invariant;
    ``dim_names`` names the recursion dimensions. All three are fixed
    by ``params`` and computed once at construction — the engine reads
    them several times per launch.
    """

    definition: ast.FuncDef
    name: str
    return_type: Type
    params: Tuple[CheckedParam, ...]
    _expr_types: Dict[int, Type] = field(default_factory=dict, repr=False)
    recursive_params: Tuple[CheckedParam, ...] = field(
        init=False, repr=False, compare=False
    )
    calling_params: Tuple[CheckedParam, ...] = field(
        init=False, repr=False, compare=False
    )
    dim_names: Tuple[str, ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.recursive_params = tuple(
            p for p in self.params if p.is_recursive
        )
        self.calling_params = tuple(
            p for p in self.params if not p.is_recursive
        )
        self.dim_names = tuple(p.name for p in self.recursive_params)

    def __getstate__(self) -> Dict[str, object]:
        # Derived state stays out of pickles (kernel-cache records,
        # sandbox frames): the parameter tuples are re-derived on
        # load, so records keep their layout, and the analysis plan
        # (repro.analysis.plan) and the source form are recomputed on
        # demand.
        state = dict(self.__dict__)
        for derived in (
            "recursive_params", "calling_params", "dim_names",
            "_function_plan", "_cache_source_form",
        ):
            state.pop(derived, None)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    @property
    def body(self) -> ast.Expr:
        """The function's body expression."""
        return self.definition.body

    def param(self, name: str) -> CheckedParam:
        """Look a parameter up by name."""
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(name)

    def type_of(self, expr: ast.Expr) -> Type:
        """The checked type of an expression in this function's body."""
        return self._expr_types[id(expr)]


@dataclass
class CheckedProgram:
    """A fully checked script."""

    program: ast.Program
    alphabets: Dict[str, str]
    matrices: Dict[str, ast.MatrixDecl]
    hmms: Dict[str, ast.HmmDecl]
    functions: Dict[str, CheckedFunction]
    schedules: Dict[str, ast.Expr]

    def function(self, name: str) -> CheckedFunction:
        """Look a checked function up by name."""
        if name not in self.functions:
            raise TypeCheckError(f"unknown function {name!r}")
        return self.functions[name]


def check_program(program: ast.Program) -> CheckedProgram:
    """Check a whole script, in statement order.

    Function signatures are collected before bodies are checked, so
    mutually recursive groups type-check (their *scheduling* is the
    separate Section 9 extension in :mod:`repro.schedule.mutual_rec`;
    the single-function pipeline rejects cross-calls at analysis
    time).
    """
    checker = _ProgramChecker()
    # Pass 1: data declarations and function signatures.
    for stmt in program.statements:
        if isinstance(stmt, ast.FuncDef):
            checker.declare_signature(stmt)
        elif not isinstance(stmt, ast.ScheduleDecl):
            checker.check_statement(stmt)
    # Pass 2: function bodies (cross-references now resolvable) and
    # schedule declarations.
    for stmt in program.statements:
        if isinstance(stmt, (ast.FuncDef, ast.ScheduleDecl)):
            checker.check_statement(stmt)
    return CheckedProgram(
        program,
        checker.alphabets,
        checker.matrices,
        checker.hmms,
        checker.functions,
        checker.schedules,
    )


def check_function(
    func: ast.FuncDef, alphabets: Optional[Dict[str, str]] = None
) -> CheckedFunction:
    """Check a single function against a set of alphabets.

    Convenience entry point used heavily by tests and by the
    programmatic API: matrix/HMM parameters are permitted, with their
    concrete declarations supplied at run time.
    """
    checker = _ProgramChecker()
    checker.alphabets = dict(alphabets or {})
    return checker.check_funcdef(func)


class _ProgramChecker:
    def __init__(self) -> None:
        self.alphabets: Dict[str, str] = {}
        self.matrices: Dict[str, ast.MatrixDecl] = {}
        self.hmms: Dict[str, ast.HmmDecl] = {}
        self.functions: Dict[str, CheckedFunction] = {}
        self.schedules: Dict[str, ast.Expr] = {}

    def check_statement(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.AlphabetDecl):
            self._declare(self.alphabets, stmt.name, stmt.chars, stmt)
        elif isinstance(stmt, ast.MatrixDecl):
            self._check_matrix(stmt)
            self._declare(self.matrices, stmt.name, stmt, stmt)
        elif isinstance(stmt, ast.HmmDecl):
            self._check_hmm(stmt)
            self._declare(self.hmms, stmt.name, stmt, stmt)
        elif isinstance(stmt, ast.FuncDef):
            if stmt.name not in self.functions:
                self.declare_signature(stmt)
            self.check_body(self.functions[stmt.name])
        elif isinstance(stmt, ast.ScheduleDecl):
            if stmt.func not in self.functions:
                raise TypeCheckError(
                    f"schedule for unknown function {stmt.func!r}", stmt.span
                )
            self.schedules[stmt.func] = stmt.expr
        # let/load/print/map are checked dynamically by the runtime.

    def _declare(self, table, name: str, value, stmt: ast.Stmt) -> None:
        if name in table:
            raise TypeCheckError(f"{name!r} is declared twice", stmt.span)
        table[name] = value

    # -- declarations -------------------------------------------------------

    def _alphabet(self, name: str, span) -> str:
        if name not in self.alphabets:
            raise TypeCheckError(f"unknown alphabet {name!r}", span)
        return self.alphabets[name]

    def _check_matrix(self, decl: ast.MatrixDecl) -> None:
        rows = self._alphabet(decl.row_alphabet, decl.span)
        cols = self._alphabet(decl.col_alphabet, decl.span)
        header = decl.header or tuple(cols)
        for ch in header:
            if ch not in cols:
                raise TypeCheckError(
                    f"matrix {decl.name!r}: header character {ch!r} is not "
                    f"in alphabet {decl.col_alphabet!r}",
                    decl.span,
                )
        seen = set()
        for row in decl.rows:
            if row.char not in rows:
                raise TypeCheckError(
                    f"matrix {decl.name!r}: row character {row.char!r} is "
                    f"not in alphabet {decl.row_alphabet!r}",
                    row.span,
                )
            if row.char in seen:
                raise TypeCheckError(
                    f"matrix {decl.name!r}: duplicate row {row.char!r}",
                    row.span,
                )
            seen.add(row.char)
            if len(row.values) != len(header):
                raise TypeCheckError(
                    f"matrix {decl.name!r}: row {row.char!r} has "
                    f"{len(row.values)} values but the header has "
                    f"{len(header)} columns",
                    row.span,
                )
        if decl.default is None:
            missing = set(rows) - seen
            if missing:
                raise TypeCheckError(
                    f"matrix {decl.name!r}: no default and missing rows for "
                    f"{sorted(missing)}",
                    decl.span,
                )

    def _check_hmm(self, decl: ast.HmmDecl) -> None:
        alphabet = self._alphabet(decl.alphabet, decl.span)
        names = set()
        start_count = 0
        end_count = 0
        for state in decl.states:
            if state.name in names:
                raise TypeCheckError(
                    f"hmm {decl.name!r}: duplicate state {state.name!r}",
                    state.span,
                )
            names.add(state.name)
            start_count += state.kind == "start"
            end_count += state.kind == "end"
            for char, prob in state.emissions:
                if char not in alphabet:
                    raise TypeCheckError(
                        f"hmm {decl.name!r}: state {state.name!r} emits "
                        f"{char!r} which is not in alphabet "
                        f"{decl.alphabet!r}",
                        state.span,
                    )
                if prob < 0.0:
                    raise TypeCheckError(
                        f"hmm {decl.name!r}: negative emission probability "
                        f"for {char!r} in state {state.name!r}",
                        state.span,
                    )
        if start_count != 1 or end_count != 1:
            raise TypeCheckError(
                f"hmm {decl.name!r}: needs exactly one start and one end "
                f"state (found {start_count} start, {end_count} end)",
                decl.span,
            )
        for trans in decl.transitions:
            for endpoint in (trans.source, trans.target):
                if endpoint not in names:
                    raise TypeCheckError(
                        f"hmm {decl.name!r}: transition references unknown "
                        f"state {endpoint!r}",
                        trans.span,
                    )
            if trans.prob < 0.0:
                raise TypeCheckError(
                    f"hmm {decl.name!r}: negative transition probability",
                    trans.span,
                )

    # -- functions ----------------------------------------------------------

    def declare_signature(self, func: ast.FuncDef) -> CheckedFunction:
        """Resolve a function's parameters and return type (pass 1)."""
        if func.name in self.functions:
            raise TypeCheckError(
                f"function {func.name!r} is defined twice", func.span
            )
        params = self._resolve_params(func)
        return_type = self._resolve_return_type(func.return_type)
        checked = CheckedFunction(func, func.name, return_type, params)
        if not checked.recursive_params:
            raise TypeCheckError(
                f"function {func.name!r} has no recursive parameters; the "
                f"recursion domain would be empty",
                func.span,
            )
        self.functions[func.name] = checked
        return checked

    def check_body(self, checked: CheckedFunction) -> CheckedFunction:
        """Type-check a declared function's body (pass 2)."""
        func = checked.definition
        body_checker = _BodyChecker(self, checked)
        body_type = body_checker.check(
            func.body, expected=checked.return_type
        )
        if not widens_to(body_type, checked.return_type):
            raise TypeCheckError(
                f"function {func.name!r} declares return type "
                f"{checked.return_type} but its body has type "
                f"{body_type}",
                func.body.span,
            )
        return checked

    def check_funcdef(self, func: ast.FuncDef) -> CheckedFunction:
        """Declare and check one function (the standalone entry)."""
        return self.check_body(self.declare_signature(func))

    def _resolve_return_type(self, texpr: ast.TypeExpr) -> Type:
        resolved = {
            "int": INT,
            "float": FLOAT,
            "prob": PROB,
            "bool": BOOL,
        }.get(texpr.name)
        if resolved is None:
            raise TypeCheckError(
                f"functions must return int, float, prob or bool, "
                f"not {texpr}",
                texpr.span,
            )
        return resolved

    def _resolve_params(
        self, func: ast.FuncDef
    ) -> Tuple[CheckedParam, ...]:
        params: List[CheckedParam] = []
        by_name: Dict[str, Type] = {}
        for param in func.params:
            if param.name in by_name:
                raise TypeCheckError(
                    f"duplicate parameter {param.name!r}", param.span
                )
            ptype = self._resolve_param_type(param, by_name)
            if not (ptype.is_calling or ptype.is_recursive):
                raise TypeCheckError(
                    f"type {ptype} is neither calling nor recursive and "
                    f"cannot be a parameter",
                    param.span,
                )
            by_name[param.name] = ptype
            params.append(CheckedParam(param.name, ptype))
        return tuple(params)

    def _resolve_param_type(
        self, param: ast.Param, earlier: Dict[str, Type]
    ) -> Type:
        texpr = param.type
        name = texpr.name
        span = texpr.span
        if name == "int":
            return INT
        if name == "float":
            return FLOAT
        if name == "prob":
            return PROB
        if name == "bool":
            raise TypeCheckError(
                "bool is neither a calling nor a recursive type", span
            )
        if name == "hmm":
            return HmmType()
        if name in ("seq", "char"):
            alphabet = self._resolve_alphabet_ref(texpr)
            return SeqType(alphabet) if name == "seq" else CharType(alphabet)
        if name == "matrix":
            if len(texpr.args) != 2:
                raise TypeCheckError(
                    "matrix types take two alphabets: matrix[rows, cols]",
                    span,
                )
            row = self._resolve_alphabet_name(texpr.args[0], span)
            col = self._resolve_alphabet_name(texpr.args[1], span)
            return MatrixType(row, col)
        if name == "index":
            referee = self._resolve_param_ref(texpr, earlier, SeqType, span)
            return IndexType(referee)
        if name in ("state", "transition"):
            referee = self._resolve_param_ref(texpr, earlier, HmmType, span)
            if name == "state":
                return StateType(referee)
            return TransitionType(referee)
        raise TypeCheckError(f"unknown type {texpr}", span)

    def _resolve_alphabet_ref(self, texpr: ast.TypeExpr) -> Optional[str]:
        if len(texpr.args) != 1:
            raise TypeCheckError(
                f"{texpr.name} types take one alphabet argument", texpr.span
            )
        return self._resolve_alphabet_name(texpr.args[0], texpr.span)

    def _resolve_alphabet_name(self, name: str, span) -> Optional[str]:
        if name == "*":
            return None
        self._alphabet(name, span)
        return name

    def _resolve_param_ref(
        self, texpr: ast.TypeExpr, earlier: Dict[str, Type], want, span
    ) -> str:
        if len(texpr.args) != 1 or texpr.args[0] == "*":
            raise TypeCheckError(
                f"{texpr.name} types take one parameter reference", span
            )
        referee = texpr.args[0]
        if referee not in earlier:
            raise TypeCheckError(
                f"{texpr} refers to {referee!r}, which is not an earlier "
                f"parameter",
                span,
            )
        if not isinstance(earlier[referee], want):
            raise TypeCheckError(
                f"{texpr} must refer to a {want.__name__.replace('Type', '').lower()} "
                f"parameter, but {referee!r} has type {earlier[referee]}",
                span,
            )
        return referee


class _BodyChecker:
    """Types the body of one function."""

    def __init__(
        self, program: _ProgramChecker, func: CheckedFunction
    ) -> None:
        self._program = program
        self._func = func
        self._scope: Dict[str, Type] = {
            p.name: p.type for p in func.params
        }

    def check(
        self, expr: ast.Expr, expected: Optional[Type] = None
    ) -> Type:
        result = self._check(expr, expected)
        self._func._expr_types[id(expr)] = result
        return result

    def _check(self, expr: ast.Expr, expected: Optional[Type]) -> Type:
        if isinstance(expr, ast.IntLit):
            if expected is not None and isinstance(
                expected, (FloatType, ProbType)
            ):
                return expected
            return INT
        if isinstance(expr, ast.FloatLit):
            if isinstance(expected, ProbType):
                return PROB
            return FLOAT
        if isinstance(expr, ast.BoolLit):
            return BOOL
        if isinstance(expr, ast.CharLit):
            return CharType(None)
        if isinstance(expr, ast.Var):
            return self._check_var(expr)
        if isinstance(expr, ast.BinOp):
            return self._check_binop(expr, expected)
        if isinstance(expr, ast.If):
            return self._check_if(expr, expected)
        if isinstance(expr, ast.Call):
            return self._check_call(expr)
        if isinstance(expr, ast.SeqIndex):
            return self._check_seq_index(expr)
        if isinstance(expr, ast.MatrixIndex):
            return self._check_matrix_index(expr)
        if isinstance(expr, ast.Field):
            return self._check_field(expr)
        if isinstance(expr, ast.Emission):
            return self._check_emission(expr)
        if isinstance(expr, ast.Reduce):
            return self._check_reduce(expr, expected)
        if isinstance(expr, (ast.StrLit, ast.Len, ast.Placeholder)):
            raise TypeCheckError(
                f"{expr} is only allowed in script statements, not in "
                f"function bodies",
                expr.span,
            )
        raise TypeCheckError(f"unsupported expression {expr!r}", expr.span)

    def _check_var(self, expr: ast.Var) -> Type:
        if expr.name not in self._scope:
            raise TypeCheckError(f"unknown variable {expr.name!r}", expr.span)
        return self._scope[expr.name]

    def _check_binop(
        self, expr: ast.BinOp, expected: Optional[Type]
    ) -> Type:
        if expr.op.is_comparison:
            left = self.check(expr.left)
            right = self.check(expr.right)
            if left.is_numeric and right.is_numeric:
                return BOOL
            if isinstance(left, CharType) and isinstance(right, CharType):
                if expr.op not in (ast.BinOpKind.EQ, ast.BinOpKind.NE):
                    raise TypeCheckError(
                        "characters only support == and !=", expr.span
                    )
                if not alphabets_compatible(left.alphabet, right.alphabet):
                    raise TypeCheckError(
                        f"cannot compare characters from alphabets "
                        f"{left.alphabet!r} and {right.alphabet!r}",
                        expr.span,
                    )
                return BOOL
            if isinstance(left, StateType) and isinstance(right, StateType):
                if expr.op in (ast.BinOpKind.EQ, ast.BinOpKind.NE):
                    return BOOL
            raise TypeCheckError(
                f"cannot compare {left} with {right}", expr.span
            )
        # Arithmetic (including min/max).
        numeric_expected = (
            expected
            if isinstance(expected, (IntType, FloatType, ProbType))
            else None
        )
        left = self.check(expr.left, numeric_expected)
        right = self.check(expr.right, numeric_expected)
        result = unify_numeric(left, right)
        if result is None:
            raise TypeCheckError(
                f"operator {expr.op.value!r} needs numeric operands, got "
                f"{left} and {right}",
                expr.span,
            )
        return result

    def _check_if(self, expr: ast.If, expected: Optional[Type]) -> Type:
        cond = self.check(expr.cond)
        if not isinstance(cond, BoolType):
            raise TypeCheckError(
                f"if-condition must be bool, got {cond}", expr.cond.span
            )
        then_type = self.check(expr.then_branch, expected)
        else_type = self.check(expr.else_branch, expected)
        if then_type == else_type:
            return then_type
        unified = unify_numeric(then_type, else_type)
        if unified is None:
            raise TypeCheckError(
                f"if-branches have incompatible types {then_type} and "
                f"{else_type}",
                expr.span,
            )
        return unified

    def _check_call(self, expr: ast.Call) -> Type:
        if expr.func == self._func.name:
            callee = self._func
        elif expr.func in self._program.functions:
            # A cross-call: well-typed here; whether the *group* can
            # be scheduled is decided by the mutual-recursion analysis
            # (Section 9 / repro.schedule.mutual_rec) — the
            # single-function pipeline rejects it at analysis time.
            callee = self._program.functions[expr.func]
        else:
            raise TypeCheckError(
                f"call to unknown function {expr.func!r} inside "
                f"{self._func.name!r}",
                expr.span,
            )
        recursive = callee.recursive_params
        if len(expr.args) != len(recursive):
            raise TypeCheckError(
                f"recursive call passes {len(expr.args)} arguments but "
                f"{callee.name!r} has {len(recursive)} recursive "
                f"parameters ({', '.join(p.name for p in recursive)})",
                expr.span,
            )
        for arg, param in zip(expr.args, recursive):
            arg_type = self.check(arg, param.type)
            if not self._argument_matches(arg_type, param.type):
                raise TypeCheckError(
                    f"recursive argument for {param.name!r} has type "
                    f"{arg_type}, expected {param.type}",
                    arg.span,
                )
        return callee.return_type

    def _argument_matches(self, arg: Type, param: Type) -> bool:
        if isinstance(param, (IntType, IndexType)):
            return isinstance(arg, (IntType, IndexType))
        if isinstance(param, StateType):
            return isinstance(arg, StateType)
        if isinstance(param, TransitionType):
            return isinstance(arg, TransitionType)
        return arg == param

    def _check_seq_index(self, expr: ast.SeqIndex) -> Type:
        seq_type = self._scope.get(expr.seq)
        if not isinstance(seq_type, SeqType):
            raise TypeCheckError(
                f"{expr.seq!r} is not a sequence parameter", expr.span
            )
        index_type = self.check(expr.index)
        if not isinstance(index_type, (IntType, IndexType)):
            raise TypeCheckError(
                f"sequence index must be an int or index, got {index_type}",
                expr.index.span,
            )
        return CharType(seq_type.alphabet)

    def _check_matrix_index(self, expr: ast.MatrixIndex) -> Type:
        matrix_type = self._scope.get(expr.matrix)
        if not isinstance(matrix_type, MatrixType):
            raise TypeCheckError(
                f"{expr.matrix!r} is not a matrix parameter", expr.span
            )
        row = self.check(expr.row)
        col = self.check(expr.col)
        for got, want, which in (
            (row, matrix_type.row_alphabet, "row"),
            (col, matrix_type.col_alphabet, "column"),
        ):
            if not isinstance(got, CharType):
                raise TypeCheckError(
                    f"matrix {which} subscript must be a character, got "
                    f"{got}",
                    expr.span,
                )
            if not alphabets_compatible(got.alphabet, want):
                raise TypeCheckError(
                    f"matrix {which} subscript has alphabet "
                    f"{got.alphabet!r}, expected {want!r}",
                    expr.span,
                )
        return INT

    def _check_field(self, expr: ast.Field) -> Type:
        subject = self.check(expr.subject)
        if isinstance(subject, StateType):
            if expr.name in ("isstart", "isend"):
                return BOOL
            if expr.name in ("transitionsto", "transitionsfrom"):
                return TransitionSetType(subject.hmm_param)
            if expr.name == "index":
                return INT
            raise TypeCheckError(
                f"states have no field {expr.name!r} (expected isstart, "
                f"isend, transitionsto, transitionsfrom or index)",
                expr.span,
            )
        if isinstance(subject, TransitionType):
            if expr.name in ("start", "end"):
                return StateType(subject.hmm_param)
            if expr.name == "prob":
                return PROB
            if expr.name == "index":
                return INT
            raise TypeCheckError(
                f"transitions have no field {expr.name!r} (expected start, "
                f"end, prob or index)",
                expr.span,
            )
        raise TypeCheckError(
            f"type {subject} has no fields", expr.span
        )

    def _check_emission(self, expr: ast.Emission) -> Type:
        state = self.check(expr.state)
        if not isinstance(state, StateType):
            raise TypeCheckError(
                f"emission lookup needs a state, got {state}",
                expr.state.span,
            )
        symbol = self.check(expr.symbol)
        if not isinstance(symbol, CharType):
            raise TypeCheckError(
                f"emission lookup needs a character, got {symbol}",
                expr.symbol.span,
            )
        return PROB

    def _check_reduce(
        self, expr: ast.Reduce, expected: Optional[Type]
    ) -> Type:
        if isinstance(expr.source, ast.RangeExpr):
            binder_type: Type = self._check_range(expr.source)
        else:
            source = self.check(expr.source)
            if not isinstance(source, TransitionSetType):
                raise TypeCheckError(
                    f"reductions iterate over transition sets "
                    f"(s.transitionsto / s.transitionsfrom) or integer "
                    f"ranges (lo .. hi), got {source}",
                    expr.source.span,
                )
            binder_type = TransitionType(source.hmm_param)
        if expr.var in self._scope:
            raise TypeCheckError(
                f"reduction variable {expr.var!r} shadows an existing "
                f"binding",
                expr.span,
            )
        self._scope[expr.var] = binder_type
        try:
            body = self.check(expr.body, expected)
        finally:
            del self._scope[expr.var]
        if not body.is_numeric:
            raise TypeCheckError(
                f"reduction body must be numeric, got {body}", expr.body.span
            )
        return body

    def _check_range(self, expr: ast.RangeExpr) -> Type:
        """Range bounds must be integers; the binder is an int."""
        for bound in (expr.lo, expr.hi):
            bound_type = self.check(bound)
            if not isinstance(bound_type, (IntType, IndexType)):
                raise TypeCheckError(
                    f"range bounds must be integers, got {bound_type}",
                    bound.span,
                )
        self._func._expr_types[id(expr)] = INT
        return INT
