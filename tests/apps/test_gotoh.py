"""Tests for affine-gap alignment (Gotoh) via the mutual pipeline."""

import pytest

from repro.apps.gotoh import GotohAligner, gotoh_reference
from repro.runtime.sequences import random_dna
from repro.runtime.values import ENGLISH, Sequence


@pytest.fixture(scope="module")
def aligner():
    return GotohAligner()


def seq(text):
    return Sequence(text, ENGLISH)


class TestSchedules:
    def test_identical_schedules_zero_offsets(self, aligner):
        fold = aligner.align(seq("abc"), seq("abd"))
        mutual = fold.result.mutual
        for name in ("m", "x", "y"):
            assert mutual[name].schedule.coefficient_map() == {
                "i": 1, "j": 1
            }
            assert mutual[name].offset == 0
        # The modelled device time, bit for bit as recorded before
        # ``mutual_cost`` shared ``gpu.timing``'s per-cell formula.
        assert fold.result.seconds == float.fromhex("0x1.7fdcda0b23ca9p-20")


class TestScores:
    def test_identical_sequences(self, aligner):
        text = "gattaca"
        fold = aligner.align(seq(text), seq(text))
        assert fold.score == 2 * len(text)  # all matches

    def test_classic_pair(self, aligner):
        assert aligner.align(seq("gattaca"), seq("gcatgcu")).score == (
            gotoh_reference(seq("gattaca"), seq("gcatgcu"))
        )

    def test_single_long_gap_beats_two_short(self):
        """Affine gaps: one open + extends, not repeated opens."""
        aligner = GotohAligner(gap_open=10, gap_extend=1)
        a = seq("aaaa")
        b = seq("aabbaa")  # needs a 2-gap somewhere
        assert aligner.align(a, b).score == gotoh_reference(
            a, b, gap_open=10, gap_extend=1
        )

    def test_empty_vs_nonempty(self, aligner):
        a = seq("")
        b = seq("abc")
        expected = gotoh_reference(a, b)
        assert aligner.align(a, b).score == expected
        # One gap open + 2 extends under the default costs.
        assert expected == -(5 + 1 * 2)

    def test_both_empty(self, aligner):
        assert aligner.align(seq(""), seq("")).score == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_random_pairs(self, aligner, seed):
        a = Sequence(random_dna(6, seed=seed).text, ENGLISH)
        b = Sequence(random_dna(8, seed=100 + seed).text, ENGLISH)
        assert aligner.align(a, b).score == gotoh_reference(a, b)

    def test_gap_parameters_respected(self):
        cheap = GotohAligner(gap_open=1, gap_extend=1)
        costly = GotohAligner(gap_open=20, gap_extend=5)
        a, b = seq("aaaa"), seq("aa")
        assert cheap.align(a, b).score > costly.align(a, b).score
