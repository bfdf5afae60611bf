"""Reference evaluation of DSL functions.

:class:`Evaluator` evaluates a (type-checked) function body in an
environment of runtime values, with recursive calls delegated to a
pluggable handler. Two standard wirings:

* :func:`memoised` — the semantic oracle: straight recursive
  evaluation with memoisation (the "implicit method of evaluation" of
  Section 2, plus the obvious dynamic-programming cache);
* :class:`~repro.runtime.mutual.MutualTabulator` — bottom-up
  evaluation in schedule order, recursive calls become table reads
  (a single function runs as a group of one).

Everything downstream (the compiled Python backend, the simulated GPU)
is tested against this module.
"""

from __future__ import annotations

import sys
from functools import reduce
from typing import Callable, Dict, Optional, Tuple

from ..extensions.hmm import Hmm
from ..ir.cell import PY_HELPERS
from ..extensions.submatrix import SubstitutionMatrix
from ..lang import ast
from ..lang.errors import RuntimeDslError
from ..lang.typecheck import CheckedFunction
from ..lang.types import (
    IndexType,
    IntType,
    ProbType,
    StateType,
    TransitionType,
)
from .values import Bindings, Sequence

#: Recursive call handler: receives the recursive-argument tuple.
CallHandler = Callable[[Tuple[int, ...]], object]

#: ``min``/``max`` as every backend computes them (``a < b ? a : b``:
#: a NaN operand gives the second), not as the builtins do.
_MIN, _MAX = PY_HELPERS["min2"], PY_HELPERS["max2"]


class Evaluator:
    """Evaluates the body of one function against fixed bindings.

    ``on_cross_call`` (name, args) handles calls to *other* functions
    of a mutual group (Section 9); without it, cross-calls error.
    """

    def __init__(
        self,
        func: CheckedFunction,
        bindings: Bindings,
        on_call: CallHandler,
        on_cross_call=None,
    ) -> None:
        self.func = func
        self.bindings = bindings
        self.on_call = on_call
        self.on_cross_call = on_cross_call

    def evaluate(self, recursive_values: Tuple[int, ...]) -> object:
        """Evaluate the body at one cell of the recursion domain."""
        env: Dict[str, object] = {}
        for param in self.func.calling_params:
            env[param.name] = self.bindings[param.name]
        for param, value in zip(
            self.func.recursive_params, recursive_values
        ):
            env[param.name] = value
        return self._eval(self.func.body, env)

    # -- expression dispatch --------------------------------------------------

    def _eval(self, expr: ast.Expr, env: Dict[str, object]) -> object:
        if isinstance(expr, ast.IntLit):
            return expr.value
        if isinstance(expr, (ast.FloatLit,)):
            return expr.value
        if isinstance(expr, ast.BoolLit):
            return expr.value
        if isinstance(expr, ast.CharLit):
            return expr.value
        if isinstance(expr, ast.Var):
            return env[expr.name]
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(expr, env)
        if isinstance(expr, ast.If):
            if self._eval(expr.cond, env):
                return self._eval(expr.then_branch, env)
            return self._eval(expr.else_branch, env)
        if isinstance(expr, ast.Call):
            args = tuple(
                self._as_ordinal(self._eval(a, env)) for a in expr.args
            )
            if expr.func != self.func.name:
                if self.on_cross_call is None:
                    raise RuntimeDslError(
                        f"{self.func.name!r} calls {expr.func!r} but no "
                        f"cross-call handler is installed (mutual groups "
                        f"run through repro.runtime.mutual)",
                        expr.span,
                    )
                return self.on_cross_call(expr.func, args)
            return self.on_call(args)
        if isinstance(expr, ast.SeqIndex):
            return self._eval_seq_index(expr, env)
        if isinstance(expr, ast.MatrixIndex):
            matrix = env[expr.matrix]
            assert isinstance(matrix, SubstitutionMatrix)
            row = self._eval(expr.row, env)
            col = self._eval(expr.col, env)
            return matrix.score(str(row), str(col))
        if isinstance(expr, ast.Field):
            return self._eval_field(expr, env)
        if isinstance(expr, ast.Emission):
            return self._eval_emission(expr, env)
        if isinstance(expr, ast.Reduce):
            return self._eval_reduce(expr, env)
        raise RuntimeDslError(
            f"interpreter cannot evaluate {expr!r}", expr.span
        )

    def _as_ordinal(self, value: object) -> int:
        """Recursive arguments map onto naturals (Section 3.2)."""
        return int(value)  # states/transitions are already indices

    def _eval_binop(self, expr: ast.BinOp, env: Dict[str, object]):
        op = expr.op
        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        if op == ast.BinOpKind.ADD:
            return left + right
        if op == ast.BinOpKind.SUB:
            return left - right
        if op == ast.BinOpKind.MUL:
            return left * right
        if op == ast.BinOpKind.DIV:
            if isinstance(left, int) and isinstance(right, int):
                if right == 0:
                    raise RuntimeDslError("integer division by zero",
                                          expr.span)
                return int(left / right)  # C-style truncation
            return left / right
        if op == ast.BinOpKind.MIN:
            return _MIN(left, right)
        if op == ast.BinOpKind.MAX:
            return _MAX(left, right)
        if op == ast.BinOpKind.LT:
            return left < right
        if op == ast.BinOpKind.GT:
            return left > right
        if op == ast.BinOpKind.LE:
            return left <= right
        if op == ast.BinOpKind.GE:
            return left >= right
        if op == ast.BinOpKind.EQ:
            return left == right
        if op == ast.BinOpKind.NE:
            return left != right
        raise RuntimeDslError(f"unknown operator {op}", expr.span)

    def _eval_seq_index(self, expr: ast.SeqIndex, env):
        seq = env[expr.seq]
        assert isinstance(seq, Sequence)
        index = self._eval(expr.index, env)
        return seq[int(index)]

    def _hmm_of(self, expr: ast.Expr) -> Hmm:
        subject_type = self.func.type_of(expr)
        if isinstance(subject_type, (StateType, TransitionType)):
            hmm = self.bindings[subject_type.hmm_param]
            assert isinstance(hmm, Hmm)
            return hmm
        raise RuntimeDslError(
            f"expression {expr} is not a state or transition", expr.span
        )

    def _eval_field(self, expr: ast.Field, env):
        hmm = self._hmm_of(expr.subject)
        subject_type = self.func.type_of(expr.subject)
        value = int(self._eval(expr.subject, env))
        if isinstance(subject_type, StateType):
            state = hmm.states[value]
            if expr.name == "isstart":
                return state.is_start
            if expr.name == "isend":
                return state.is_end
            if expr.name == "index":
                return state.index
            if expr.name == "transitionsto":
                return tuple(
                    t.index for t in hmm.transitions_to(state)
                )
            if expr.name == "transitionsfrom":
                return tuple(
                    t.index for t in hmm.transitions_from(state)
                )
        else:
            transition = hmm.transitions[value]
            if expr.name == "start":
                return transition.source
            if expr.name == "end":
                return transition.target
            if expr.name == "prob":
                return transition.prob
            if expr.name == "index":
                return transition.index
        raise RuntimeDslError(
            f"unknown field {expr.name!r}", expr.span
        )

    def _eval_emission(self, expr: ast.Emission, env):
        hmm = self._hmm_of(expr.state)
        state = hmm.states[int(self._eval(expr.state, env))]
        symbol = str(self._eval(expr.symbol, env))
        return state.emission(symbol)

    def _eval_reduce(self, expr: ast.Reduce, env):
        if isinstance(expr.source, ast.RangeExpr):
            lo = int(self._eval(expr.source.lo, env))
            hi = int(self._eval(expr.source.hi, env))
            source: tuple = tuple(range(lo, hi + 1))
        else:
            source = self._eval(expr.source, env)
        if not isinstance(source, tuple):
            raise RuntimeDslError(
                f"reduction source is not a set: {expr.source}",
                expr.source.span,
            )
        values = []
        for item in source:
            env[expr.var] = item
            values.append(self._eval(expr.body, env))
        env.pop(expr.var, None)
        is_prob = isinstance(self.func.type_of(expr), ProbType)
        if expr.kind == ast.ReduceKind.SUM:
            return sum(values, 0.0 if is_prob else 0)
        if not values:
            if expr.kind == ast.ReduceKind.MAX and is_prob:
                # No path into this cell: probability 0.
                return 0.0
            raise RuntimeDslError(
                f"{expr.kind.value} over an empty transition set",
                expr.span,
            )
        return reduce(
            _MIN if expr.kind == ast.ReduceKind.MIN else _MAX, values
        )


def domain_extents(
    func: CheckedFunction,
    bindings: Bindings,
    initial: Optional[Dict[str, int]] = None,
) -> Tuple[int, ...]:
    """Extent of each recursion dimension, from the bindings.

    * index params span ``0..len(seq)`` inclusive (extent len+1);
    * int params need an initial value (extent value+1, Section 3.2);
    * state/transition params span the model's state/transition count.
    """
    initial = initial or {}
    extents = []
    for param in func.recursive_params:
        ptype = param.type
        if isinstance(ptype, IndexType):
            seq = bindings[ptype.seq_param]
            if not isinstance(seq, Sequence):
                raise RuntimeDslError(
                    f"parameter {ptype.seq_param!r} must be a Sequence, "
                    f"got {type(seq).__name__}"
                )
            extents.append(len(seq) + 1)
        elif isinstance(ptype, IntType):
            if param.name not in initial:
                raise RuntimeDslError(
                    f"integer dimension {param.name!r} needs an initial "
                    f"value to fix its domain (Section 3.2)"
                )
            extents.append(initial[param.name] + 1)
        elif isinstance(ptype, StateType):
            hmm = bindings[ptype.hmm_param]
            if not isinstance(hmm, Hmm):
                raise RuntimeDslError(
                    f"parameter {ptype.hmm_param!r} must be a Hmm, got "
                    f"{type(hmm).__name__}"
                )
            extents.append(hmm.n_states)
        elif isinstance(ptype, TransitionType):
            hmm = bindings[ptype.hmm_param]
            if not isinstance(hmm, Hmm):
                raise RuntimeDslError(
                    f"parameter {ptype.hmm_param!r} must be a Hmm, got "
                    f"{type(hmm).__name__}"
                )
            extents.append(hmm.n_transitions)
        else:
            raise RuntimeDslError(
                f"cannot size dimension {param.name!r} of type {ptype}"
            )
    return tuple(extents)


def memoised(
    func: CheckedFunction,
    bindings: Bindings,
    recursion_limit: int = 100_000,
) -> Callable[[Tuple[int, ...]], object]:
    """The memoised recursive oracle: call it with recursive args."""
    cache: Dict[Tuple[int, ...], object] = {}
    evaluator: Evaluator

    def call(args: Tuple[int, ...]) -> object:
        if args in cache:
            return cache[args]
        result = evaluator.evaluate(args)
        cache[args] = result
        return result

    evaluator = Evaluator(func, bindings, call)
    previous = sys.getrecursionlimit()
    sys.setrecursionlimit(max(previous, recursion_limit))

    return call
