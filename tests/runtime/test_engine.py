"""Tests for the end-to-end Engine."""

import math

import pytest

from repro.extensions.hmm import HmmBuilder
from repro.lang.parser import parse_expr, parse_function
from repro.lang.errors import ScheduleError
from repro.lang.typecheck import check_function
from repro.runtime.engine import Engine
from repro.runtime.interpreter import memoised
from repro.runtime.values import Bindings, DNA, ENGLISH, Sequence
from repro.schedule.schedule import Schedule

EN = {"en": ENGLISH.chars}

EDIT_DISTANCE = """
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""

FORWARD = """
prob forward(hmm h, state[h] s, seq[*] x, index[x] i) =
  if i == 0 then (if s.isstart then 1.0 else 0.0)
  else (if s.isend then 1.0 else s.emission[x[i-1]])
    * sum(t in s.transitionsto : t.prob * forward(t.start, i - 1))
"""


def checked(src, alphabets=EN):
    return check_function(parse_function(src.strip()), alphabets)


def toy_hmm():
    return (
        HmmBuilder("h", DNA)
        .start("b")
        .uniform_state("m")
        .end("e")
        .transition("b", "m", 1.0)
        .transition("m", "m", 0.9)
        .transition("m", "e", 0.1)
        .build()
    )


class TestRun:
    def test_edit_distance(self):
        engine = Engine()
        result = engine.run(
            checked(EDIT_DISTANCE),
            {"s": Sequence("kitten", ENGLISH),
             "t": Sequence("sitting", ENGLISH)},
        )
        assert result.value == 3
        assert result.schedule == Schedule.of(i=1, j=1)
        assert result.seconds > 0

    def test_explicit_coordinates(self):
        engine = Engine()
        result = engine.run(
            checked(EDIT_DISTANCE),
            {"s": Sequence("abc", ENGLISH),
             "t": Sequence("abc", ENGLISH)},
            at={"i": 1, "j": 0},
        )
        assert result.value == 1

    def test_int_dimension_initial_value(self):
        engine = Engine()
        func = checked(
            "int fib(int n) = if n < 2 then n else fib(n-1) + fib(n-2)"
        )
        result = engine.run(func, {}, initial={"n": 20})
        assert result.value == 6765

    def test_forward_uses_end_state_default(self):
        engine = Engine()
        hmm = toy_hmm()
        x = Sequence("acgt", DNA)
        func = checked(FORWARD, {"dna": DNA.chars})
        result = engine.run(func, {"h": hmm, "x": x})
        oracle = memoised(func, Bindings({"h": hmm, "x": x}))
        assert result.value == pytest.approx(
            oracle((hmm.end_state.index, 4))
        )

    def test_reduce_max(self):
        engine = Engine()
        result = engine.run(
            checked(EDIT_DISTANCE),
            {"s": Sequence("ab", ENGLISH), "t": Sequence("cd", ENGLISH)},
            reduce="max",
        )
        assert result.value == result.table.max()

    def test_user_schedule_honoured(self):
        engine = Engine()
        result = engine.run(
            checked(EDIT_DISTANCE),
            {"s": Sequence("ab", ENGLISH), "t": Sequence("ab", ENGLISH)},
            user_schedule=parse_expr("2*i + j"),
        )
        assert result.schedule == Schedule.of(i=2, j=1)
        assert result.value == 0

    def test_invalid_user_schedule_rejected(self):
        engine = Engine()
        with pytest.raises(ScheduleError):
            engine.run(
                checked(EDIT_DISTANCE),
                {"s": Sequence("ab", ENGLISH),
                 "t": Sequence("ab", ENGLISH)},
                user_schedule=parse_expr("i - j"),
            )

    def test_logspace_engine_matches_direct(self):
        func = checked(FORWARD, {"dna": DNA.chars})
        hmm = toy_hmm()
        x = Sequence("acgtacgt", DNA)
        direct = Engine(prob_mode="direct").run(func, {"h": hmm, "x": x})
        logged = Engine(prob_mode="logspace").run(
            func, {"h": hmm, "x": x}
        )
        assert logged.value == pytest.approx(direct.value, rel=1e-9)


class TestCache:
    def test_second_run_hits_cache(self):
        engine = Engine()
        func = checked(EDIT_DISTANCE)
        for text in ("abc", "abcd"):
            engine.run(
                func,
                {"s": Sequence(text, ENGLISH),
                 "t": Sequence("xyz", ENGLISH)},
            )
        assert engine.cache_misses == 1
        assert engine.cache_hits >= 1

    def test_different_schedules_compile_separately(self):
        engine = Engine()
        func = checked(EDIT_DISTANCE)
        engine.compile(func, Schedule.of(i=1, j=1))
        engine.compile(func, Schedule.of(i=2, j=1))
        assert engine.cache_misses == 2

    def test_compile_seconds_recorded(self):
        engine = Engine()
        compiled = engine.compile(checked(EDIT_DISTANCE),
                                  Schedule.of(i=1, j=1))
        assert compiled.compile_seconds > 0

    def test_cuda_source_available(self):
        engine = Engine()
        compiled = engine.compile(checked(EDIT_DISTANCE),
                                  Schedule.of(i=1, j=1))
        assert "__global__" in compiled.cuda_source()


class TestMapRun:
    def test_values_match_individual_runs(self):
        engine = Engine()
        func = checked(EDIT_DISTANCE)
        q = Sequence("abcd", ENGLISH)
        targets = [Sequence(t, ENGLISH) for t in ("abc", "bcd", "xyz")]
        result = engine.map_run(
            func, {"s": q}, [{"t": t} for t in targets]
        )
        singles = [
            engine.run(func, {"s": q, "t": t}).value for t in targets
        ]
        assert result.values == singles

    def test_conditional_parallelisation_used(self):
        """Problems of different shapes pick different schedules."""
        engine = Engine()
        func = checked(
            "int f(seq[en] a, index[a] x, seq[en] b, index[b] y) = "
            "if x == 0 then 0 else if y == 0 then 0 else f(x-1, y-1)"
        )
        wide = Sequence("a" * 30, ENGLISH)
        narrow = Sequence("ab", ENGLISH)
        result = engine.map_run(
            func,
            {},
            [
                {"a": narrow, "b": wide},   # nx < ny -> S = x
                {"a": wide, "b": narrow},   # ny < nx -> S = y
            ],
        )
        assert len(result.schedule_usage) == 2
        assert set(result.schedule_usage) == {(1, 0), (0, 1)}

    def test_device_report_counts_problems(self):
        engine = Engine()
        func = checked(EDIT_DISTANCE)
        q = Sequence("ab", ENGLISH)
        result = engine.map_run(
            func, {"s": q},
            [{"t": Sequence("cd", ENGLISH)}] * 5,
        )
        assert result.report.problems == 5
        assert result.seconds > 0

    def test_parallel_faster_than_serial_sum(self):
        """map on 15 SMs beats running problems back to back."""
        engine = Engine()
        func = checked(EDIT_DISTANCE)
        q = Sequence("a" * 64, ENGLISH)
        targets = [{"t": Sequence("b" * 64, ENGLISH)} for _ in range(15)]
        mapped = engine.map_run(func, {"s": q}, targets)
        serial = sum(c.seconds for c in mapped.costs)
        assert mapped.report.kernel_seconds < serial / 10


class TestCostKnobs:
    def test_window_reduces_modelled_cost(self):
        engine = Engine()
        func = checked(EDIT_DISTANCE)
        s = Sequence("a" * 200, ENGLISH)
        t = Sequence("b" * 200, ENGLISH)
        with_window = engine.run(func, {"s": s, "t": t},
                                 use_window=True)
        without = engine.run(func, {"s": s, "t": t}, use_window=False)
        assert with_window.cost.window_in_shared
        assert not without.cost.window_in_shared
        assert with_window.cost.seconds < without.cost.seconds
        # Functional results identical either way.
        assert (with_window.table == without.table).all()

    def test_windowed_cuda_available(self):
        engine = Engine()
        compiled = engine.compile(checked(EDIT_DISTANCE),
                                  Schedule.of(i=1, j=1))
        text = compiled.cuda_source(windowed=True)
        assert "swin" in text

    def test_schedule_mode_option_is_gone(self):
        """The engine keeps the Section 4.6 schedule; a non-default
        one is a ``schedule`` clause in the DSL, not an engine mode."""
        with pytest.raises(TypeError, match="schedule"):
            Engine(schedule="autotune")

    def test_missing_binding_message(self):
        engine = Engine()
        func = checked(EDIT_DISTANCE)
        with pytest.raises(Exception, match="missing binding"):
            engine.run(func, {"s": Sequence("ab", ENGLISH)})

    def test_wrong_binding_type_message(self):
        from repro.lang.errors import RuntimeDslError

        engine = Engine()
        func = checked(EDIT_DISTANCE)
        with pytest.raises(RuntimeDslError, match="must be a Sequence"):
            engine.run(func, {"s": "raw string",
                              "t": Sequence("ab", ENGLISH)})

    def test_unknown_reduce_rejected(self):
        from repro.lang.errors import RuntimeDslError

        engine = Engine()
        func = checked(EDIT_DISTANCE)
        with pytest.raises(RuntimeDslError, match="unknown reduction"):
            engine.run(
                func,
                {"s": Sequence("ab", ENGLISH),
                 "t": Sequence("cd", ENGLISH)},
                reduce="median",
            )


class TestParallelismModes:
    """Section 6.1: intra vs inter vs hybrid map strategies."""

    def _search(self, engine, parallelism, **kw):
        func = checked(EDIT_DISTANCE)
        q = Sequence("abcd" * 4, ENGLISH)
        targets = [
            {"t": Sequence("bcda" * (1 + k % 3), ENGLISH)}
            for k in range(12)
        ]
        return engine.map_run(
            func, {"s": q}, targets, parallelism=parallelism, **kw
        )

    def _price(self, engine, parallelism, length, count):
        func = checked(EDIT_DISTANCE)
        q = Sequence("ab" * (length // 2), ENGLISH)
        targets = [
            {"t": Sequence("ba" * (length // 2), ENGLISH)}
        ] * count
        return engine.map_run(
            func, {"s": q}, targets, parallelism=parallelism,
            execute=False,
        )

    def test_values_identical_across_modes(self):
        engine = Engine()
        results = {
            mode: self._search(engine, mode)
            for mode in ("intra", "inter", "hybrid")
        }
        assert results["intra"].values == results["inter"].values
        assert results["intra"].values == results["hybrid"].values

    def test_parallelism_recorded(self):
        engine = Engine()
        assert self._search(engine, "inter").parallelism == "inter"
        assert self._search(engine, "intra").parallelism == "intra"

    def test_inter_wins_only_for_masses_of_tiny_problems(self):
        """The generated sequence-per-thread kernel pays generic
        global-memory costs per cell, so it only overtakes intra-task
        (with occupancy packing and the shared window) for very large
        counts of very small problems. CUDASW++'s hybrid advantage
        comes from its hand-virtualised SIMD inner loop, not from the
        strategy alone — an honest divergence from the paper's
        (unmeasured) expectation in Section 6.1.
        """
        engine = Engine()
        intra = self._price(engine, "intra", 12, 5000)
        inter = self._price(engine, "inter", 12, 5000)
        assert intra.values == [None] * 5000  # price-only launch
        assert inter.report.kernel_seconds < (
            intra.report.kernel_seconds
        )

    def test_intra_beats_inter_on_large_problems(self):
        """Large tables fill the multiprocessor cooperatively and use
        the shared-memory window; per-thread serial walks cannot."""
        engine = Engine()
        intra = self._price(engine, "intra", 400, 30)
        inter = self._price(engine, "inter", 400, 30)
        assert intra.report.kernel_seconds < (
            inter.report.kernel_seconds
        )

    def test_hybrid_splits_by_threshold(self):
        engine = Engine()
        result = self._search(
            engine, "hybrid", hybrid_threshold=10_000_000
        )
        # Everything under the huge threshold goes inter-task.
        assert result.parallelism == "hybrid"
        assert result.seconds > 0

    def test_unknown_parallelism_rejected(self):
        from repro.lang.errors import RuntimeDslError

        engine = Engine()
        with pytest.raises(RuntimeDslError, match="parallelism"):
            self._search(engine, "diagonal")
