"""Tests for the HMM extension (Section 5.2)."""

import math
import pickle

import numpy as np
import pytest

from repro.extensions.hmm import Hmm, HmmArrays, HmmBuilder
from repro.lang.errors import RuntimeDslError
from repro.lang.parser import parse_program
from repro.runtime.values import DNA


def toy():
    return (
        HmmBuilder("h", DNA)
        .start("b")
        .add_state("m", {"a": 0.7, "c": 0.3})
        .add_state("n", {"g": 1.0})
        .end("e")
        .transition("b", "m", 0.9)
        .transition("b", "n", 0.1)
        .transition("m", "m", 0.5)
        .transition("m", "e", 0.5)
        .transition("n", "e", 1.0)
        .build()
    )


class TestBuilder:
    def test_state_order_is_total(self):
        hmm = toy()
        assert [s.index for s in hmm.states] == [0, 1, 2, 3]

    def test_start_end_lookup(self):
        hmm = toy()
        assert hmm.start_state.name == "b"
        assert hmm.end_state.name == "e"

    def test_start_end_resolved_once(self):
        """Built at construction (a map reads the end state once per
        member), not by a scan per access — and a pickled model
        carries them along."""

        class NoRescan(tuple):
            def __iter__(self):
                raise AssertionError("states scanned on access")

        hmm = toy()
        start, end = hmm.states[0], hmm.states[3]
        hmm.states = NoRescan(hmm.states)
        assert hmm.start_state is start
        assert hmm.end_state is end
        clone = pickle.loads(pickle.dumps(toy()))
        assert clone.start_state is clone.states[0]
        assert clone.end_state is clone.states[3]

    def test_duplicate_state_rejected(self):
        builder = HmmBuilder("h", DNA).start("x")
        with pytest.raises(RuntimeDslError, match="duplicate"):
            builder.add_state("x")

    def test_unknown_transition_state(self):
        builder = HmmBuilder("h", DNA).start("b")
        with pytest.raises(RuntimeDslError, match="unknown state"):
            builder.transition("b", "zz", 1.0)

    def test_emission_char_validated(self):
        builder = HmmBuilder("h", DNA)
        with pytest.raises(RuntimeDslError, match="not in alphabet"):
            builder.add_state("m", {"z": 1.0})

    def test_needs_exactly_one_start_and_end(self):
        builder = HmmBuilder("h", DNA).start("b").start("b2").end("e")
        with pytest.raises(RuntimeDslError, match="exactly one"):
            builder.build()

    def test_uniform_state(self):
        hmm = (
            HmmBuilder("h", DNA).start("b").uniform_state("u").end("e")
            .transition("b", "u", 1.0).transition("u", "e", 1.0)
            .build()
        )
        assert hmm.state("u").emission("a") == pytest.approx(0.25)


class TestQueries:
    def test_transitions_to_and_from(self):
        hmm = toy()
        m = hmm.state("m")
        incoming = {t.source for t in hmm.transitions_to(m)}
        outgoing = {t.target for t in hmm.transitions_from(m)}
        assert incoming == {hmm.state("b").index, m.index}
        assert outgoing == {m.index, hmm.end_state.index}

    def test_emission_of_unlisted_char_is_zero(self):
        assert toy().state("m").emission("g") == 0.0

    def test_mean_in_degree(self):
        hmm = toy()
        assert hmm.mean_in_degree() == pytest.approx(5 / 4)

    def test_unknown_state(self):
        with pytest.raises(RuntimeDslError, match="no state"):
            toy().state("zz")


class TestDeclRoundtrip:
    def test_from_decl(self):
        program = parse_program(
            'alphabet dna = "acgt"\n'
            "hmm h [dna] {\n"
            "  state b : start\n"
            "  state m emits { a: 0.5, t: 0.5 }\n"
            "  state e : end\n"
            "  trans b -> m : 1.0\n  trans m -> e : 1.0\n}"
        )
        hmm = Hmm.from_decl(program.statements[1], {"dna": DNA})
        assert hmm.n_states == 3
        assert hmm.state("m").emission("t") == 0.5

    def test_to_dsl_roundtrip(self):
        text = toy().to_dsl()
        program = parse_program(f'alphabet dna = "acgt"\n{text}')
        again = Hmm.from_decl(program.statements[1], {"dna": DNA})
        assert again.n_states == toy().n_states
        assert again.n_transitions == toy().n_transitions


class TestArrays:
    def test_flags(self):
        arrays = toy().arrays()
        assert arrays.is_start.tolist() == [True, False, False, False]
        assert arrays.is_end.tolist() == [False, False, False, True]

    def test_emissions_table(self):
        arrays = toy().arrays()
        a_col = DNA.index("a")
        assert arrays.emissions[1, a_col] == pytest.approx(0.7)
        assert arrays.emissions[0].sum() == 0.0  # silent start

    def test_csr_incoming(self):
        hmm = toy()
        arrays = hmm.arrays()
        m = hmm.state("m").index
        ids = arrays.in_ids[
            arrays.in_offsets[m]:arrays.in_offsets[m + 1]
        ]
        assert {int(arrays.trans_source[t]) for t in ids} == {0, m}

    def test_csr_outgoing(self):
        hmm = toy()
        arrays = hmm.arrays()
        e = hmm.end_state.index
        ids = arrays.out_ids[
            arrays.out_offsets[e]:arrays.out_offsets[e + 1]
        ]
        assert len(ids) == 0

    def test_logspace_tables(self):
        arrays = toy().arrays(logspace=True)
        a_col = DNA.index("a")
        assert arrays.emissions[1, a_col] == pytest.approx(math.log(0.7))
        assert arrays.emissions[1, DNA.index("g")] == -math.inf
        assert arrays.trans_prob[0] == pytest.approx(math.log(0.9))

    def test_sym_index(self):
        arrays = toy().arrays()
        assert arrays.sym_index[ord("a")] == 0
        assert arrays.sym_index[ord("z")] == -1
