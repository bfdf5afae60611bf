"""Property: pretty-printed expressions re-parse to the same tree.

Every AST node has a readable ``__str__``; this suite checks the
renderings are *faithful* — ``parse(str(e))`` reproduces ``e`` up to
source spans — over randomly generated expression trees.
"""

from hypothesis import given, settings, strategies as st

from repro.lang import ast
from repro.lang.parser import parse_expr


def strip(expr: ast.Expr):
    """A span-free structural summary for comparison."""
    if isinstance(expr, ast.IntLit):
        return ("int", expr.value)
    if isinstance(expr, ast.BoolLit):
        return ("bool", expr.value)
    if isinstance(expr, ast.CharLit):
        return ("char", expr.value)
    if isinstance(expr, ast.Var):
        return ("var", expr.name)
    if isinstance(expr, ast.BinOp):
        return ("binop", expr.op, strip(expr.left), strip(expr.right))
    if isinstance(expr, ast.If):
        return (
            "if",
            strip(expr.cond),
            strip(expr.then_branch),
            strip(expr.else_branch),
        )
    if isinstance(expr, ast.Call):
        return ("call", expr.func, tuple(strip(a) for a in expr.args))
    if isinstance(expr, ast.SeqIndex):
        return ("seqindex", expr.seq, strip(expr.index))
    if isinstance(expr, ast.MatrixIndex):
        return ("matindex", expr.matrix, strip(expr.row),
                strip(expr.col))
    if isinstance(expr, ast.Field):
        return ("field", strip(expr.subject), expr.name)
    if isinstance(expr, ast.Emission):
        return ("emission", strip(expr.state), strip(expr.symbol))
    if isinstance(expr, ast.Reduce):
        return ("reduce", expr.kind, expr.var, strip(expr.source),
                strip(expr.body))
    if isinstance(expr, ast.RangeExpr):
        return ("range", strip(expr.lo), strip(expr.hi))
    raise TypeError(expr)


_ARITH = [
    ast.BinOpKind.ADD,
    ast.BinOpKind.SUB,
    ast.BinOpKind.MUL,
    ast.BinOpKind.DIV,
    ast.BinOpKind.MIN,
    ast.BinOpKind.MAX,
]
_COMPARE = [
    ast.BinOpKind.EQ,
    ast.BinOpKind.NE,
    ast.BinOpKind.LT,
    ast.BinOpKind.GT,
    ast.BinOpKind.LE,
    ast.BinOpKind.GE,
]

names = st.sampled_from(["i", "j", "n", "acc", "x1"])


@st.composite
def expressions(draw, depth=3, allow_if=True):
    """Random expression trees mirroring the grammar's value forms."""
    if depth == 0:
        leaf = draw(st.integers(0, 3))
        if leaf == 0:
            return ast.IntLit(draw(st.integers(0, 99)))
        if leaf == 1:
            return ast.Var(draw(names))
        if leaf == 2:
            return ast.SeqIndex(
                draw(st.sampled_from(["s", "t"])),
                ast.Var(draw(names)),
            )
        return ast.CharLit(draw(st.sampled_from("abc")))
    kind = draw(st.integers(0, 3 if allow_if else 2))
    if kind == 0:
        # BinOp str always parenthesises, so nesting is safe.
        op = draw(st.sampled_from(_ARITH))
        return ast.BinOp(
            op,
            draw(expressions(depth=depth - 1, allow_if=allow_if)),
            draw(expressions(depth=depth - 1, allow_if=allow_if)),
        )
    if kind == 1:
        return ast.Call(
            "f",
            tuple(
                draw(
                    st.lists(
                        expressions(depth=depth - 1, allow_if=False),
                        min_size=1,
                        max_size=3,
                    )
                )
            ),
        )
    if kind == 2:
        op = draw(st.sampled_from(_COMPARE))
        return ast.BinOp(
            op,
            draw(expressions(depth=depth - 1, allow_if=False)),
            draw(expressions(depth=depth - 1, allow_if=False)),
        )
    # if-then-else: the unparenthesised else-branch would swallow a
    # following if, so only generate If at the outermost position of
    # its branch (matching how the grammar associates).
    return ast.If(
        draw(expressions(depth=depth - 1, allow_if=False)),
        draw(expressions(depth=depth - 1, allow_if=False)),
        draw(expressions(depth=depth - 1, allow_if=True)),
    )


class TestRoundTrip:
    @settings(deadline=None, max_examples=150)
    @given(expressions())
    def test_parse_of_str_is_identity(self, expr):
        assert strip(parse_expr(str(expr))) == strip(expr)

    def test_reduce_roundtrip(self):
        text = "sum(t in s.transitionsto : (t.prob * f(t.start, i)))"
        expr = parse_expr(text)
        assert strip(parse_expr(str(expr))) == strip(expr)

    def test_range_reduce_roundtrip(self):
        text = "max(k in (i + 1) .. (j - 1) : f(i, k))"
        expr = parse_expr(text)
        assert strip(parse_expr(str(expr))) == strip(expr)

    def test_emission_roundtrip(self):
        expr = parse_expr("s.emission[x[i - 1]]")
        assert strip(parse_expr(str(expr))) == strip(expr)

    def test_bool_literal_roundtrip(self):
        expr = parse_expr("if true then 1 else (if false then 2 else 3)")
        assert strip(parse_expr(str(expr))) == strip(expr)

    def test_matrix_roundtrip(self):
        expr = parse_expr("m[s[i-1], t[j-1]]")
        assert strip(parse_expr(str(expr))) == strip(expr)
