"""Backend parity across the paper's five applications.

The acceptance bar for the reduction-capable vector backend: every
case-study app (Smith-Waterman, Gotoh, Viterbi decoding, the gene
finder, profile-HMM search) compiles on the vector backend and
reproduces the scalar backend's results — bitwise for integer tables
and direct-mode probabilities, within 1e-9 relative in log space.
(``backend="auto"`` now prefers the native C backend when a compiler
is present — see tests/apps/test_native_parity.py for that rung.)
"""

import numpy as np
import pytest

from repro.apps.gene_finder import GeneFinder, build_gene_finder_hmm
from repro.apps.profile_hmm import ProfileSearch, tk_model
from repro.apps.smith_waterman import SmithWaterman
from repro.apps.viterbi_decode import ViterbiDecoder
from repro.runtime.engine import Engine
from repro.runtime.sequences import random_dna, random_protein


def assert_vectorised(engine):
    backends = {
        getattr(entry, "backend", "scalar")
        for entry in engine._cache.values()
    }
    assert backends == {"vector"}


class TestSmithWaterman:
    def test_auto_matches_scalar(self):
        query = random_protein(40, seed=1)
        target = random_protein(44, seed=2)
        scalar = SmithWaterman(engine=Engine(backend="scalar"))
        auto = SmithWaterman(engine=Engine(backend="vector"))
        a = scalar.align(query, target)
        b = auto.align(query, target)
        assert a.value == b.value
        assert a.table.tobytes() == b.table.tobytes()
        assert_vectorised(auto.engine)


class TestViterbiDecode:
    def test_auto_matches_scalar(self):
        hmm = build_gene_finder_hmm()
        seq = random_dna(30, seed=5)
        scalar = ViterbiDecoder(
            hmm, engine=Engine(backend="scalar", prob_mode="direct")
        )
        auto = ViterbiDecoder(
            hmm, engine=Engine(backend="vector", prob_mode="direct")
        )
        a = scalar.decode(seq)
        b = auto.decode(seq)
        assert a.path == b.path
        assert a.probability == b.probability
        assert_vectorised(auto.engine)


class TestGeneFinder:
    def test_auto_matches_scalar_logspace(self):
        seq = random_dna(40, seed=6)
        scalar = GeneFinder(
            engine=Engine(backend="scalar", prob_mode="logspace")
        )
        auto = GeneFinder(
            engine=Engine(backend="vector", prob_mode="logspace")
        )
        a = scalar.log_likelihood(seq)
        b = auto.log_likelihood(seq)
        assert np.isclose(a, b, rtol=1e-9, atol=1e-12)
        assert_vectorised(auto.engine)


class TestProfileHmm:
    def test_auto_matches_scalar_logspace(self):
        profile = tk_model()
        database = [random_protein(25, seed=k) for k in range(4)]
        scalar = ProfileSearch(
            profile,
            engine=Engine(backend="scalar", prob_mode="logspace"),
        ).search(database)
        auto = ProfileSearch(
            profile,
            engine=Engine(backend="vector", prob_mode="logspace"),
        ).search(database)
        assert np.allclose(
            scalar.likelihoods, auto.likelihoods,
            rtol=1e-9, atol=1e-12,
        )
