"""CI smoke checks for the benchmark workloads (tiny sizes).

The real benchmarks (``bench_backend``, ``bench_map_batched``) time
substantial problem sizes; CI runs this file instead to assert the
property the timings rely on — scalar, vector and lane-batched
execution all compute the same results — in a few hundred
milliseconds. No timing assertions here: CI machines are too noisy
for that, and correctness is what gates a merge.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.profile_hmm import ProfileSearch, tk_model
from repro.apps.smith_waterman import SmithWaterman
from repro.runtime import native
from repro.runtime.engine import Engine
from repro.runtime.sequences import random_protein

SMOKE_SIZE = 24
SMOKE_PROBLEMS = 6


def test_smoke_backends_agree_smith_waterman():
    query = random_protein(SMOKE_SIZE, seed=7)
    targets = [
        random_protein(SMOKE_SIZE, seed=70 + k)
        for k in range(SMOKE_PROBLEMS)
    ]
    scalar_scores = [
        int(
            SmithWaterman(engine=Engine(backend="scalar"))
            .align(query, target)
            .value
        )
        for target in targets
    ]
    vector_scores = [
        int(
            SmithWaterman(engine=Engine(backend="vector"))
            .align(query, target)
            .value
        )
        for target in targets
    ]
    mapped = SmithWaterman(
        engine=Engine(backend="vector", batching=True)
    ).search(query, targets)
    assert vector_scores == scalar_scores
    assert [int(v) for v in mapped.values] == scalar_scores
    assert mapped.lane_batched_problems == SMOKE_PROBLEMS


def test_smoke_backends_agree_profile_forward():
    profile = tk_model()
    database = [
        random_protein(SMOKE_SIZE, seed=700 + k)
        for k in range(SMOKE_PROBLEMS)
    ]
    looped = ProfileSearch(
        profile,
        engine=Engine(
            prob_mode="logspace", backend="vector", batching=False
        ),
    ).search(database)
    batched = ProfileSearch(
        profile,
        engine=Engine(
            prob_mode="logspace", backend="vector", batching=True
        ),
    ).search(database)
    scalar = ProfileSearch(
        profile,
        engine=Engine(prob_mode="logspace", backend="scalar"),
    ).search(database)
    assert batched.map_result.lane_batched_problems == SMOKE_PROBLEMS
    assert np.allclose(
        batched.likelihoods, scalar.likelihoods,
        rtol=1e-9, atol=1e-12,
    )
    assert np.allclose(
        batched.likelihoods, looped.likelihoods,
        rtol=1e-9, atol=1e-12,
    )


@pytest.mark.skipif(
    not native.available().ok,
    reason="no working C compiler in this environment",
)
def test_smoke_native_agrees_with_scalar_and_vector():
    """All three ladder rungs fill the same tables at tiny sizes —
    the property every timing in bench_native.py relies on."""
    query = random_protein(SMOKE_SIZE, seed=9)
    target = random_protein(SMOKE_SIZE, seed=90)
    tables = {}
    for backend in ("scalar", "vector", "native"):
        sw = SmithWaterman(engine=Engine(backend=backend))
        tables[backend] = sw.align(query, target).table
    assert tables["native"].tobytes() == tables["scalar"].tobytes()
    assert (tables["native"] == tables["vector"]).all()

    profile = tk_model()
    database = [
        random_protein(SMOKE_SIZE, seed=900 + k)
        for k in range(SMOKE_PROBLEMS)
    ]
    scalar = ProfileSearch(
        profile,
        engine=Engine(prob_mode="logspace", backend="scalar"),
    ).search(database)
    compiled = ProfileSearch(
        profile,
        engine=Engine(prob_mode="logspace", backend="native"),
    ).search(database)
    # Same formulas through the same libm: bitwise, even in log space.
    assert compiled.likelihoods == scalar.likelihoods


@pytest.mark.skipif(
    not native.available().ok,
    reason="no working C compiler in this environment",
)
def test_smoke_batched_rungs_agree():
    """Scalar loop == batched-vector == batched-native on tiny sizes.

    This is the agreement bar ``bench_map_batched`` times at scale:
    the batched C entry point and the masked NumPy sweep must both
    reproduce the per-problem scalar results, and the engines must
    actually take their batched rungs (not silently demote)."""
    profile = tk_model()
    database = [
        random_protein(SMOKE_SIZE, seed=9000 + k)
        for k in range(SMOKE_PROBLEMS)
    ]
    scalar = ProfileSearch(
        profile,
        engine=Engine(
            prob_mode="logspace", backend="scalar", batching=False
        ),
    ).search(database)
    vector = ProfileSearch(
        profile,
        engine=Engine(
            prob_mode="logspace", backend="vector", batching=True
        ),
    ).search(database)
    batched_native = ProfileSearch(
        profile,
        engine=Engine(
            prob_mode="logspace", backend="native", batching=True
        ),
    ).search(database)
    assert vector.map_result.batched_backends == ["vector-batched"]
    assert batched_native.map_result.batched_backends == [
        "native-batched"
    ]
    assert np.allclose(
        vector.likelihoods, scalar.likelihoods, rtol=1e-9, atol=1e-12
    )
    # The batched entry runs each member's exact serial nest: bitwise
    # with the scalar interpreter through the same libm.
    assert batched_native.likelihoods == scalar.likelihoods
