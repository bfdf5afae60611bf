"""Tests for mutual-group execution (Section 9 extension)."""

import pytest

from repro.analysis.domain import Domain
from repro.lang.parser import parse_program
from repro.lang.typecheck import check_program
from repro.runtime.mutual import (
    MutualLockStep,
    MutualRaceError,
    MutualTabulator,
    mutual_cost,
    solve_mutual,
)
from repro.runtime.values import Bindings
from repro.schedule.mutual_rec import (
    FunctionSchedule,
    MutualSchedule,
    find_mutual_schedules,
)
from repro.schedule.schedule import Schedule

PING_PONG = """
int f(int n) = if n == 0 then 0 else g(n - 1) + 1
int g(int n) = if n == 0 then 0 else f(n - 1) + 2
"""


def funcs_of(src, names):
    checked = check_program(parse_program(src))
    return {name: checked.function(name) for name in names}


def ping_pong_reference(n, start="f"):
    """Direct Python evaluation of the f/g pair."""
    if n == 0:
        return 0
    if start == "f":
        return ping_pong_reference(n - 1, "g") + 1
    return ping_pong_reference(n - 1, "f") + 2


class TestExecution:
    def test_ping_pong_values(self):
        funcs = funcs_of(PING_PONG, ("f", "g"))
        bindings = {"f": Bindings({}), "g": Bindings({})}
        result = solve_mutual(
            funcs, bindings, initial={"f": {"n": 9}, "g": {"n": 9}}
        )
        for n in range(10):
            assert result.value("f", (n,)) == (
                ping_pong_reference(n, "f")
            )
            assert result.value("g", (n,)) == (
                ping_pong_reference(n, "g")
            )

    def test_tabulator_and_lockstep_agree(self):
        funcs = funcs_of(PING_PONG, ("f", "g"))
        bindings = {"f": Bindings({}), "g": Bindings({})}
        initial = {"f": {"n": 7}, "g": {"n": 7}}
        serial = solve_mutual(
            funcs, bindings, initial=initial, engine="serial"
        )
        barrier = solve_mutual(
            funcs, bindings, initial=initial, engine="lockstep"
        )
        for name in funcs:
            assert (serial.tables[name] == barrier.tables[name]).all()

    def test_incompatible_schedules_race(self):
        """Force offsets that put g's producers in f's partition."""
        funcs = funcs_of(PING_PONG, ("f", "g"))
        bad = MutualSchedule({
            "f": FunctionSchedule(Schedule.of(n=1), 0),
            # g(n) uses f(n-1); f(n) uses g(n-1): S_g = n - 1 means
            # f(n) at step n reads g(n-1) at step n - 2: fine; but
            # g(n) at step n - 1 reads f(n - 1) at step n - 1: race.
            "g": FunctionSchedule(Schedule.of(n=1), -1),
        })
        bindings = {"f": Bindings({}), "g": Bindings({})}
        executor = MutualLockStep(
            funcs, bindings, bad,
            initial={"f": {"n": 5}, "g": {"n": 5}},
        )
        with pytest.raises(MutualRaceError):
            executor.run()

    def test_seconds_positive_and_scaling(self):
        funcs = funcs_of(PING_PONG, ("f", "g"))
        small = {n: Domain.of(n=10) for n in funcs}
        large = {n: Domain.of(n=1000) for n in funcs}
        mutual_small = find_mutual_schedules(funcs, small)
        cost_small = mutual_cost(funcs, mutual_small, small)
        cost_large = mutual_cost(funcs, mutual_small, large)
        assert 0 < cost_small < cost_large


class TestRnaGrammar:
    """The paper's named Section 9 application."""

    @pytest.fixture(scope="class")
    def grammar(self):
        from repro.apps.rna_grammar import RnaGrammar

        return RnaGrammar()

    @pytest.mark.parametrize(
        "text", ["gggaaaccc", "ggcgcaaagcgcc", "acgucgua"]
    )
    def test_matches_single_function_nussinov(self, grammar, text):
        from repro.apps.rna_folding import RNA, nussinov_reference
        from repro.runtime.values import Sequence

        seq = Sequence(text, RNA)
        fold = grammar.fold(seq)
        assert fold.score == nussinov_reference(seq)[0, len(seq)]

    def test_schedules_interleave(self, grammar):
        from repro.apps.rna_folding import RNA
        from repro.runtime.values import Sequence

        fold = grammar.fold(Sequence("gggaaaccc", RNA))
        struct_sched = fold.result.mutual["struct"]
        paired_sched = fold.result.mutual["paired"]
        # Same span coefficients, paired strictly earlier.
        assert struct_sched.schedule == paired_sched.schedule
        assert paired_sched.offset < struct_sched.offset
        # The modelled device time, bit for bit as recorded before
        # ``mutual_cost`` shared ``gpu.timing``'s per-cell formula.
        assert fold.result.seconds == float.fromhex("0x1.8fdf7a4857fc4p-19")

    def test_random_sequences(self, grammar):
        import random

        from repro.apps.rna_folding import RNA, nussinov_reference
        from repro.runtime.values import Sequence

        rng = random.Random(4)
        for _ in range(3):
            text = "".join(rng.choices("acgu", k=10))
            seq = Sequence(text, RNA)
            assert grammar.fold(seq).score == (
                nussinov_reference(seq)[0, len(seq)]
            )
