"""Tests for the IR node utilities: traversal and operation counts."""

import pytest

from repro.ir import expr as ir


def sample_tree():
    """(T[i-1,j] + s[i]) guarded by a select."""
    read = ir.TableRead((
        ir.Binary("-", ir.DimRef("i"), ir.Const(1, "int"), "int"),
        ir.DimRef("j"),
    ))
    seq = ir.SeqRead("s", ir.DimRef("i"))
    add = ir.Binary("+", read, seq, "int")
    cond = ir.Binary("==", ir.DimRef("i"), ir.Const(0, "int"), "bool")
    return ir.Select(cond, ir.Const(0, "int"), add)


class TestTraversal:
    def test_children_of_select(self):
        node = sample_tree()
        assert len(ir.children(node)) == 3

    def test_walk_visits_all(self):
        kinds = [type(n).__name__ for n in ir.walk(sample_tree())]
        assert "TableRead" in kinds
        assert "SeqRead" in kinds
        assert kinds[0] == "Select"  # pre-order

    def test_leaf_has_no_children(self):
        assert ir.children(ir.Const(1, "int")) == ()
        assert ir.children(ir.DimRef("i")) == ()

    def test_range_reduce_children(self):
        node = ir.RangeReduce(
            "max", "k", ir.DimRef("i"), ir.DimRef("j"),
            ir.VarRef("k"),
        )
        assert ir.children(node) == (
            ir.DimRef("i"), ir.DimRef("j"), ir.VarRef("k")
        )


class TestOpCounts:
    def test_sample_tree_counts(self):
        counts = ir.count_ops(sample_tree())
        assert counts.table_reads == 1
        assert counts.seq_reads == 1
        assert counts.select == 1
        assert counts.compare == 1
        assert counts.arith == 2  # the '-' in the index and the '+'

    def test_reduce_body_counted_separately(self):
        body = ir.Binary(
            "*", ir.TransField("prob", "h", ir.VarRef("t")),
            ir.TableRead((ir.VarRef("t"), ir.DimRef("i"))), "prob",
        )
        node = ir.ReduceLoop("sum", "t", "to", "h",
                             ir.DimRef("s"), body)
        counts = ir.count_ops(node)
        assert counts.reduce_count == 1
        assert counts.table_reads == 0  # outside the loop body
        assert counts.reduce_body.table_reads == 1
        assert counts.reduce_body.hmm_reads == 1

    def test_scaled_total_multiplies_iterations(self):
        body = ir.TableRead((ir.VarRef("k"),))
        node = ir.RangeReduce(
            "sum", "k", ir.Const(0, "int"), ir.DimRef("n"), body
        )
        counts = ir.count_ops(node)
        four = counts.scaled_total(4.0)
        ten = counts.scaled_total(10.0)
        assert four["table_reads"] == pytest.approx(4.0)
        assert ten["table_reads"] == pytest.approx(10.0)
        # Accumulator update counted once per iteration.
        assert ten["arith"] == pytest.approx(10.0)

    def test_later_reduction_keeps_its_nested_reduction(self):
        """Every reduction's body, the first or a later one, is counted
        into the one per-iteration record, nested reductions too."""
        first = ir.RangeReduce(
            "sum", "k", ir.Const(0, "int"), ir.DimRef("n"),
            ir.TableRead((ir.VarRef("k"),)),
        )
        nested = ir.RangeReduce(
            "sum", "m", ir.Const(0, "int"), ir.DimRef("n"),
            ir.TableRead((ir.VarRef("m"),)),
        )
        second = ir.RangeReduce(
            "max", "k", ir.Const(0, "int"), ir.DimRef("n"),
            ir.Binary("+", ir.TableRead((ir.VarRef("k"),)), nested,
                      "int"),
        )
        counts = ir.count_ops(ir.Binary("+", first, second, "int"))
        assert counts.reduce_count == 2
        assert counts.arith == 1
        assert counts.reduce_body.table_reads == 2
        assert counts.reduce_body.arith == 1
        assert counts.reduce_body.reduce_count == 1
        assert counts.reduce_body.reduce_body.table_reads == 1
        # 2 reductions x 4 iterations x (2 reads + 1 nested x 4 reads).
        assert counts.scaled_total(4.0)["table_reads"] == (
            pytest.approx(48.0)
        )

    def test_logaddexp_counts_as_special(self):
        node = ir.Binary(
            "logaddexp", ir.Const(0.0, "float"),
            ir.Const(0.0, "float"), "prob",
        )
        assert ir.count_ops(node).special == 1

    def test_log_counts_as_special(self):
        assert ir.count_ops(ir.Log(ir.DimRef("i"))).special == 1


class TestStr:
    def test_readable_rendering(self):
        text = str(sample_tree())
        assert "farr[" in text
        assert "?" in text

    def test_range_reduce_str(self):
        node = ir.RangeReduce(
            "max", "k", ir.DimRef("i"), ir.DimRef("j"),
            ir.VarRef("k"),
        )
        assert "k in i .. j" in str(node)
