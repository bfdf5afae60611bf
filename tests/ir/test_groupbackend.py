"""Tests for the compiled mutual-group module (pybackend)."""

import numpy as np
import pytest

from repro.lang.errors import RuntimeDslError
from repro.lang.parser import parse_program
from repro.lang.typecheck import check_program
from repro.runtime.mutual import solve_mutual
from repro.runtime.values import Bindings

PING_PONG = """
int f(int n) = if n == 0 then 0 else g(n - 1) + 1
int g(int n) = if n == 0 then 0 else f(n - 1) + 2
"""


def funcs_of(src, names):
    checked = check_program(parse_program(src))
    return {name: checked.function(name) for name in names}


class TestCompiledGroup:
    def test_matches_interpreted_engines(self):
        funcs = funcs_of(PING_PONG, ("f", "g"))
        bindings = {"f": Bindings({}), "g": Bindings({})}
        initial = {"f": {"n": 15}, "g": {"n": 15}}
        by_engine = {
            engine: solve_mutual(
                funcs, bindings, initial=initial, engine=engine
            )
            for engine in ("compiled", "lockstep", "serial")
        }
        reference = by_engine["serial"].tables
        for engine, result in by_engine.items():
            for name in funcs:
                assert (result.tables[name] == reference[name]).all(), (
                    engine, name
                )

    def test_generated_source_structure(self):
        from repro.ir.pybackend import emit_group_source
        from repro.ir.kernel import build_kernel
        from repro.analysis.domain import Domain
        from repro.schedule.mutual_rec import find_mutual_schedules

        funcs = funcs_of(PING_PONG, ("f", "g"))
        domains = {"f": Domain.of(n=8), "g": Domain.of(n=8)}
        mutual = find_mutual_schedules(funcs, domains)
        kernels = {
            name: build_kernel(
                func, mutual[name].schedule, compute_window=False
            )
            for name, func in funcs.items()
        }
        source = emit_group_source(kernels, mutual)
        assert "def _step_f(" in source
        assert "def _step_g(" in source
        assert "T_g[" in source  # f's cross-read of g's table
        assert "for _gp in range(global_lo, global_hi + 1):" in source

    def test_cross_table_reads_tagged(self):
        from repro.ir import expr as ir
        from repro.ir.lower import lower_function

        funcs = funcs_of(PING_PONG, ("f", "g"))
        body = lower_function(funcs["f"])
        tagged = [
            n for n in ir.walk(body.cell)
            if isinstance(n, ir.TableRead) and n.table
        ]
        assert len(tagged) == 1
        assert tagged[0].table == "g"

    def test_unknown_engine_rejected(self):
        """``"vector"`` is unknown too: the vectorised group module
        is gone; ``"compiled"`` is the fast path."""
        funcs = funcs_of(PING_PONG, ("f", "g"))
        bindings = {"f": Bindings({}), "g": Bindings({})}
        for engine in ("quantum", "vector"):
            with pytest.raises(RuntimeDslError, match="unknown mutual"):
                solve_mutual(
                    funcs, bindings,
                    initial={"f": {"n": 3}, "g": {"n": 3}},
                    engine=engine,
                )

    def test_gotoh_compiled_at_scale(self):
        """The compiled path handles sizes the interpreters cannot."""
        from repro.apps.gotoh import GotohAligner, gotoh_reference
        from repro.runtime.values import ENGLISH, Sequence

        aligner = GotohAligner()
        a = Sequence("gattaca" * 8, ENGLISH)
        b = Sequence("gcatgcu" * 8, ENGLISH)
        bindings = {
            name: Bindings({"s": a, "t": b})
            for name in aligner.funcs
        }
        result = solve_mutual(
            aligner.funcs, bindings,
            coeff_bound=1, offset_bound=1, engine="compiled",
        )
        score = max(
            int(result.value(name, (len(a), len(b))))
            for name in aligner.funcs
        )
        assert score == gotoh_reference(a, b)
