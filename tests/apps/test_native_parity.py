"""Native-backend parity across the paper's applications.

The acceptance bar for the compiled C backend: every single-kernel
case-study app (Smith-Waterman, Viterbi decoding, the gene finder,
profile-HMM search, Nussinov folding) produces *bitwise* identical
tables to the scalar interpreter — including log space, because the C
helpers spell the scalar prelude's exact formulas through the same
platform libm. Against the vector backend the comparison goes through
the :mod:`repro.runtime.parity` policy instead (NumPy's ``exp``/``log``
may differ from libm's in the last ulps).

Gotoh is absent by design: mutual-group members read each other's
tables and the native backend refuses them (rule
``cross-table-read``); the scalar group module covers that app.
"""

import numpy as np
import pytest

from repro.apps.gene_finder import GeneFinder, build_gene_finder_hmm
from repro.apps.profile_hmm import ProfileSearch, tk_model
from repro.apps.smith_waterman import SmithWaterman
from repro.apps.viterbi_decode import ViterbiDecoder
from repro.runtime import native
from repro.runtime.engine import Engine
from repro.runtime.parity import tables_agree
from repro.runtime.sequences import random_dna, random_protein

pytestmark = pytest.mark.skipif(
    not native.available().ok,
    reason="no working C compiler in this environment",
)


def assert_native(engine):
    backends = {
        getattr(entry, "backend", "scalar")
        for entry in engine._cache.values()
    }
    assert backends == {"native"}


class TestSmithWaterman:
    def test_native_matches_scalar_bitwise(self):
        query = random_protein(40, seed=1)
        target = random_protein(44, seed=2)
        scalar = SmithWaterman(engine=Engine(backend="scalar"))
        compiled = SmithWaterman(engine=Engine(backend="native"))
        a = scalar.align(query, target)
        b = compiled.align(query, target)
        assert a.value == b.value
        assert a.table.tobytes() == b.table.tobytes()
        assert_native(compiled.engine)

    def test_native_matches_vector(self):
        query = random_protein(30, seed=10)
        target = random_protein(33, seed=11)
        vector = SmithWaterman(engine=Engine(backend="vector"))
        compiled = SmithWaterman(engine=Engine(backend="native"))
        a = vector.align(query, target)
        b = compiled.align(query, target)
        assert tables_agree(a.table, b.table)

    def test_database_search_parity(self):
        query = random_protein(20, seed=12)
        database = [random_protein(24, seed=20 + k) for k in range(5)]
        scalar = SmithWaterman(engine=Engine(backend="scalar"))
        compiled = SmithWaterman(engine=Engine(backend="native"))
        assert (
            compiled.search(query, database).values
            == scalar.search(query, database).values
        )


class TestViterbiDecode:
    def test_native_matches_scalar(self):
        hmm = build_gene_finder_hmm()
        seq = random_dna(30, seed=5)
        scalar = ViterbiDecoder(
            hmm, engine=Engine(backend="scalar", prob_mode="direct")
        )
        compiled = ViterbiDecoder(
            hmm, engine=Engine(backend="native", prob_mode="direct")
        )
        a = scalar.decode(seq)
        b = compiled.decode(seq)
        assert a.path == b.path
        assert a.probability == b.probability
        assert_native(compiled.engine)


class TestGeneFinder:
    def test_native_matches_scalar_logspace_bitwise(self):
        """Log space is the hard case — and still bitwise: logaddexp
        in C spells the scalar prelude's formula through the same
        libm."""
        seq = random_dna(40, seed=6)
        scalar = GeneFinder(
            engine=Engine(backend="scalar", prob_mode="logspace")
        )
        compiled = GeneFinder(
            engine=Engine(backend="native", prob_mode="logspace")
        )
        a = scalar.log_likelihood(seq)
        b = compiled.log_likelihood(seq)
        assert a == b
        assert_native(compiled.engine)

    def test_native_matches_vector_logspace(self):
        seq = random_dna(36, seed=7)
        vector = GeneFinder(
            engine=Engine(backend="vector", prob_mode="logspace")
        )
        compiled = GeneFinder(
            engine=Engine(backend="native", prob_mode="logspace")
        )
        assert np.isclose(
            vector.log_likelihood(seq),
            compiled.log_likelihood(seq),
            rtol=1e-9, atol=1e-12,
        )


class TestProfileHmm:
    def test_native_matches_scalar_logspace_bitwise(self):
        profile = tk_model()
        database = [random_protein(25, seed=k) for k in range(4)]
        scalar = ProfileSearch(
            profile,
            engine=Engine(backend="scalar", prob_mode="logspace"),
        ).search(database)
        compiled = ProfileSearch(
            profile,
            engine=Engine(backend="native", prob_mode="logspace"),
        ).search(database)
        assert scalar.likelihoods == compiled.likelihoods


class TestNussinov:
    def test_native_matches_scalar_bitwise(self):
        """No constant window here (range reduce): the plain native
        entry carries the whole run."""
        from repro.apps.rna_folding import RNA, RnaFolding
        from repro.runtime.values import Sequence

        scalar = RnaFolding(engine=Engine(backend="scalar"))
        compiled = RnaFolding(engine=Engine(backend="native"))
        seq = Sequence("gcaucgauggccgaugcuagc", RNA)
        a = scalar.fold(seq)
        b = compiled.fold(seq)
        assert a.score == b.score
        assert a.structure == b.structure
        assert a.run.table.tobytes() == b.run.table.tobytes()
