"""Tests for CLooG-style loop generation (Section 4.3, Figure 9)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.affine import Affine
from repro.analysis.domain import Domain
from repro.lang.errors import CodegenError
from repro.polyhedral.codegen import generate_for_domain, generate_loops
from repro.polyhedral.loopast import emit_c, emit_c_inlined

FIG9 = """\
for (p=0;p<=m+n;p++) {
  for (i=max(0,p-m);i<=min(n,p);i++) {
    S1(i,p-i);
  }
}"""


def enumerate_nest(nest, params=None):
    return [
        tuple(env[d] for d in nest.space_vars)
        for _, env in nest.iterations(params or {})
    ]


def check_nest(domain, coefficients):
    """The generated nest must enumerate the domain exactly once, in
    non-decreasing partition order."""
    nest = generate_for_domain(domain, coefficients)
    visited = enumerate_nest(nest)
    assert sorted(visited) == sorted(domain.points()), (
        f"coverage broken for S={coefficients} over {domain}"
    )
    assert len(visited) == len(set(visited)), "duplicate iterations"
    partitions = [
        sum(a * x for a, x in zip(coefficients, point))
        for point in visited
    ]
    assert partitions == sorted(partitions), "partition order broken"


class TestFigure9:
    def test_exact_cloog_output(self):
        """The paper's Figure 9, token for token."""
        nest = generate_loops(
            ["i", "j"],
            [Affine.variable("n"), Affine.variable("m")],
            [1, 1],
        )
        assert emit_c_inlined(nest.roots) == FIG9

    def test_symbolic_and_concrete_agree(self):
        symbolic = generate_loops(
            ["i", "j"],
            [Affine.variable("n"), Affine.variable("m")],
            [1, 1],
        )
        concrete = generate_for_domain(Domain.of(i=4, j=6), [1, 1])
        assert enumerate_nest(symbolic, {"n": 3, "m": 5}) == (
            enumerate_nest(concrete)
        )


class TestSchedules:
    def test_diagonal(self):
        check_nest(Domain.of(i=5, j=4), [1, 1])

    def test_single_axis(self):
        check_nest(Domain.of(i=5, j=4), [1, 0])

    def test_other_axis(self):
        check_nest(Domain.of(i=5, j=4), [0, 1])

    def test_negative_coefficient(self):
        check_nest(Domain.of(i=5, j=4), [1, -1])

    def test_non_unit_outer(self):
        check_nest(Domain.of(i=4, j=4), [2, 1])

    def test_non_unit_pinned(self):
        # Pinned dimension with coefficient 2 needs a divisibility
        # guard.
        check_nest(Domain.of(i=4, j=4), [1, 2])

    def test_both_non_unit(self):
        check_nest(Domain.of(i=4, j=5), [3, 2])

    def test_three_dims(self):
        check_nest(Domain.of(i=3, j=3, k=3), [1, 1, 1])

    def test_three_dims_mixed(self):
        check_nest(Domain.of(i=3, j=4, k=2), [2, 0, 1])

    def test_one_dim_serial(self):
        check_nest(Domain.of(n=7), [1])

    def test_zero_schedule_single_partition(self):
        nest = generate_for_domain(Domain.of(i=3, j=2), [0, 0])
        visited = enumerate_nest(nest)
        assert sorted(visited) == sorted(Domain.of(i=3, j=2).points())

    def test_zero_coefficient_middle_dim(self):
        check_nest(Domain.of(i=3, j=4, k=3), [1, 0, 1])

    @settings(deadline=None, max_examples=60)
    @given(
        extents=st.tuples(st.integers(1, 5), st.integers(1, 5)),
        coeffs=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    )
    def test_random_2d(self, extents, coeffs):
        check_nest(Domain(("i", "j"), extents), list(coeffs))

    @settings(deadline=None, max_examples=40)
    @given(
        extents=st.tuples(
            st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)
        ),
        coeffs=st.tuples(
            st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)
        ),
    )
    def test_random_3d(self, extents, coeffs):
        check_nest(Domain(("i", "j", "k"), extents), list(coeffs))


class TestLowerBounds:
    """Symbolic lower bounds: the same generator scans one block
    ``[lo, hi]`` of the box (the native backend's tile nest)."""

    @staticmethod
    def block_nest(coeffs):
        return generate_loops(
            ["i", "j"],
            [Affine.variable("hi_i"), Affine.variable("hi_j")],
            list(coeffs),
            lower_bounds=[Affine.variable("lo_i"), Affine.variable("lo_j")],
        )

    def test_diagonal_block_text(self):
        assert emit_c_inlined(self.block_nest([1, 1]).roots) == (
            "for (p=lo_i+lo_j;p<=hi_i+hi_j;p++) {\n"
            "  for (i=max(lo_i,p-hi_j);i<=min(hi_i,p-lo_j);i++) {\n"
            "    S1(i,p-i);\n"
            "  }\n"
            "}"
        )

    def test_zero_lower_bounds_are_the_default_nest(self):
        bounds = [Affine.variable("n"), Affine.variable("m")]
        assert generate_loops(["i", "j"], bounds, [2, 1]) == (
            generate_loops(
                ["i", "j"], bounds, [2, 1],
                lower_bounds=[Affine.constant(0), Affine.constant(0)],
            )
        )

    def test_misaligned_lower_bounds_rejected(self):
        with pytest.raises(ValueError, match="align"):
            generate_loops(
                ["i", "j"],
                [Affine.constant(3), Affine.constant(3)],
                [1, 1],
                lower_bounds=[Affine.constant(0)],
            )

    @settings(deadline=None, max_examples=80)
    @given(
        lo=st.tuples(st.integers(0, 6), st.integers(0, 6)),
        size=st.tuples(st.integers(0, 4), st.integers(0, 4)),
        coeffs=st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    )
    def test_block_scanned_exactly_once_in_partition_order(
        self, lo, size, coeffs
    ):
        """Any block, any schedule (an empty block — ``hi < lo`` —
        included): every cell once, partitions non-decreasing."""
        hi = (lo[0] + size[0] - 1, lo[1] + size[1] - 1)
        params = {
            "lo_i": lo[0], "lo_j": lo[1], "hi_i": hi[0], "hi_j": hi[1],
        }
        visited = enumerate_nest(self.block_nest(coeffs), params)
        expected = [
            (i, j)
            for i in range(lo[0], hi[0] + 1)
            for j in range(lo[1], hi[1] + 1)
        ]
        assert sorted(visited) == expected
        partitions = [
            coeffs[0] * i + coeffs[1] * j for i, j in visited
        ]
        assert partitions == sorted(partitions)


class TestStructure:
    def test_time_loop_property(self):
        from repro.polyhedral.loopast import LoopNest, Stmt

        nest = generate_for_domain(Domain.of(i=3, j=3), [1, 1])
        assert nest.time_loop is nest.roots[0]
        bare = LoopNest((Stmt("S1", ()),), "p", ())
        assert bare.time_loop is None

    def test_time_loop_outermost(self):
        nest = generate_for_domain(Domain.of(i=3, j=3), [1, 1])
        from repro.polyhedral.loopast import Loop

        (root,) = nest.roots
        assert isinstance(root, Loop)
        assert root.var == nest.time_var

    def test_time_var_collision_rejected(self):
        with pytest.raises(CodegenError, match="collides"):
            generate_loops(
                ["p", "j"],
                [Affine.constant(3), Affine.constant(3)],
                [1, 1],
            )

    def test_emit_c_plain_contains_assignment(self):
        nest = generate_for_domain(Domain.of(i=3, j=3), [1, 1])
        text = emit_c(nest.roots)
        assert "j = " in text

    def test_custom_stmt_name(self):
        nest = generate_for_domain(
            Domain.of(i=2, j=2), [1, 1], stmt_name="CELL"
        )
        assert "CELL" in emit_c(nest.roots)
