"""Runtime table-sanitizer tests (scalar twin + vector partition scan)."""

import numpy as np
import pytest

from repro.analysis.domain import Domain
from repro.ir.kernel import build_kernel
from repro.ir.pybackend import compile_kernel
from repro.lang.errors import SanitizerError
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.runtime.engine import CompiledKernel, Engine
from repro.runtime.values import Bindings, Sequence, PROTEIN
from repro.schedule.schedule import Schedule
from repro.verify.sanitizer import (
    POISON_INT,
    partition_mesh,
    poison_fill,
    poison_mask,
    run_sanitized,
)

EN = {"en": "abcdefghijklmnopqrstuvwxyz"}

EDIT = """
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""


@pytest.fixture(scope="module")
def edit_func():
    return check_function(parse_function(EDIT.strip()), EN)


def compiled_for(func, schedule, backend="scalar"):
    engine = Engine(backend=backend)
    return engine, engine.compile(func, schedule)


def context_for(engine, compiled, func, domain, s, t):
    en = engine  # noqa: F841 - explicit
    from repro.runtime.values import Alphabet

    alpha = Alphabet("en", "abcdefghijklmnopqrstuvwxyz")
    bound = Bindings({
        "s": Sequence(s, alpha), "t": Sequence(t, alpha)
    })
    return engine.build_context(compiled, bound, domain)


class TestPoisonHelpers:
    def test_float_poison_is_nan(self):
        table = np.zeros((3, 3))
        poison_fill(table)
        assert poison_mask(table).all()

    def test_int_poison_is_sentinel(self):
        table = np.zeros((3, 3), dtype=np.int64)
        poison_fill(table)
        assert (table == POISON_INT).all()
        assert poison_mask(table).all()

    def test_partition_mesh_matches_schedule(self):
        schedule = Schedule(("i", "j"), (1, 2))
        domain = Domain(("i", "j"), (3, 4))
        mesh = partition_mesh(schedule, domain)
        for i in range(3):
            for j in range(4):
                assert mesh[i, j] == schedule.partition_of((i, j))


class TestScalarSanitizer:
    def test_clean_kernel_matches_plain_run(self, edit_func):
        engine, compiled = compiled_for(
            edit_func, Schedule.of(i=1, j=1), backend="scalar"
        )
        domain = Domain(edit_func.dim_names, (7, 8))
        ctx = context_for(
            engine, compiled, edit_func, domain, "kitten", "sitting"
        )
        plain = np.zeros(domain.extents, dtype=np.int64)
        compiled.run(plain, dict(ctx))
        sanitized = np.zeros(domain.extents, dtype=np.int64)
        run_sanitized(compiled, sanitized, dict(ctx), domain)
        assert (plain == sanitized).all()

    def test_invalid_schedule_raises_poison_read(self, edit_func):
        # S = i - j runs the anti-diagonal backwards: d(i, j-1) reads
        # a cell of a *later* partition, still poison.
        engine, compiled = compiled_for(
            edit_func, Schedule.of(i=1, j=-1), backend="scalar"
        )
        domain = Domain(edit_func.dim_names, (7, 8))
        ctx = context_for(
            engine, compiled, edit_func, domain, "kitten", "sitting"
        )
        table = np.zeros(domain.extents, dtype=np.int64)
        with pytest.raises(SanitizerError) as exc:
            run_sanitized(compiled, table, dict(ctx), domain)
        assert "S-POISON-READ" in str(exc.value)


class TestVectorSanitizer:
    def test_clean_kernel_matches_plain_run(self, edit_func):
        engine, compiled = compiled_for(
            edit_func, Schedule.of(i=1, j=1), backend="vector"
        )
        assert compiled.backend == "vector"
        domain = Domain(edit_func.dim_names, (7, 8))
        ctx = context_for(
            engine, compiled, edit_func, domain, "kitten", "sitting"
        )
        plain = np.zeros(domain.extents, dtype=np.int64)
        compiled.run(plain, dict(ctx))
        sanitized = np.zeros(domain.extents, dtype=np.int64)
        run_sanitized(compiled, sanitized, dict(ctx), domain)
        assert (plain == sanitized).all()
        assert sanitized[6, 7] == 3

    def test_unwritten_cells_fail_write_miss(self, edit_func):
        """A partition range that skips cells leaves them poison; the
        scan after their partition flags the miss."""
        engine, compiled = compiled_for(
            edit_func, Schedule.of(i=1, j=-1), backend="vector"
        )
        domain = Domain(edit_func.dim_names, (7, 8))
        ctx = context_for(
            engine, compiled, edit_func, domain, "kitten", "sitting"
        )
        table = np.zeros(domain.extents, dtype=np.int64)
        with pytest.raises(SanitizerError):
            run_sanitized(compiled, table, dict(ctx), domain)


class TestEngineIntegration:
    def test_engine_sanitize_flag_end_to_end(self, edit_func):
        from repro.runtime.values import Alphabet

        alpha = Alphabet("en", "abcdefghijklmnopqrstuvwxyz")
        args = {
            "s": Sequence("kitten", alpha),
            "t": Sequence("sitting", alpha),
        }
        plain = Engine().run(edit_func, args).value
        for backend in ("scalar", "vector"):
            sanitized = Engine(
                backend=backend, sanitize=True
            ).run(edit_func, args).value
            assert sanitized == plain == 3

    def test_sanitized_map_run_disables_lane_batching(self, edit_func):
        from repro.runtime.values import Alphabet

        alpha = Alphabet("en", "abcdefghijklmnopqrstuvwxyz")
        base = {"s": Sequence("kitten", alpha)}
        problems = [
            {"t": Sequence(text, alpha)}
            for text in ("sitting", "mitten", "kitty")
        ]
        plain = Engine(backend="auto").map_run(
            edit_func, base, problems
        )
        sanitized = Engine(backend="auto", sanitize=True).map_run(
            edit_func, base, problems
        )
        assert sanitized.values == plain.values
        assert sanitized.lane_batches == 0
