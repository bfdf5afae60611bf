"""Tests for runtime values: alphabets, sequences, bindings."""

import numpy as np
import pytest

from repro.lang.errors import RuntimeDslError
from repro.runtime.values import (
    Alphabet,
    Bindings,
    DNA,
    ENGLISH,
    PROTEIN,
    Sequence,
    make_sequences,
)


class TestAlphabet:
    def test_membership_and_index(self):
        assert "c" in DNA
        assert DNA.index("g") == 2
        assert len(DNA) == 4

    def test_index_of_missing_char(self):
        with pytest.raises(RuntimeDslError, match="not in alphabet"):
            DNA.index("z")

    def test_duplicate_chars_rejected(self):
        with pytest.raises(RuntimeDslError, match="duplicate"):
            Alphabet("bad", "aab")

    def test_non_ascii_rejected(self):
        with pytest.raises(RuntimeDslError, match="non-ASCII"):
            Alphabet("bad", "aé")

    def test_index_table_roundtrip(self):
        table = PROTEIN.index_table()
        for k, char in enumerate(PROTEIN.chars):
            assert table[ord(char)] == k
        assert table[ord("z")] == -1

    def test_iteration(self):
        assert list(DNA) == ["a", "c", "g", "t"]


class TestSequence:
    def test_codes_are_ordinals(self):
        seq = Sequence("acgt", DNA)
        assert list(seq.codes) == [ord(c) for c in "acgt"]

    def test_indexing(self):
        seq = Sequence("acgt", DNA)
        assert seq[0] == "a"
        assert seq[3] == "t"

    def test_out_of_range(self):
        seq = Sequence("ac", DNA)
        with pytest.raises(RuntimeDslError, match="out of range"):
            seq[2]

    def test_wrong_alphabet_rejected(self):
        with pytest.raises(RuntimeDslError, match="not in alphabet"):
            Sequence("acgx", DNA)

    def test_error_names_the_first_character_outside_the_alphabet(self):
        with pytest.raises(
            RuntimeDslError,
            match=r"^sequence character 'z' is not in alphabet 'dna'$",
        ):
            Sequence("aczgxt", DNA)

    def test_len(self):
        assert len(Sequence("acgt", DNA)) == 4
        assert len(Sequence("", DNA)) == 0

    def test_make_sequences(self):
        seqs = make_sequences(["ab", "cd"], ENGLISH, prefix="q")
        assert [s.name for s in seqs] == ["q0", "q1"]

    def test_codes_dtype(self):
        assert Sequence("acg", DNA).codes.dtype == np.int64


class TestBindings:
    def test_lookup(self):
        bindings = Bindings({"x": 1})
        assert bindings["x"] == 1
        assert "x" in bindings

    def test_missing(self):
        bindings = Bindings({})
        with pytest.raises(RuntimeDslError, match="missing binding"):
            bindings["y"]
