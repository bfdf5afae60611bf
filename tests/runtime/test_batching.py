"""Lane-batched map execution (``repro.runtime.batching``)."""

import numpy as np
import pytest

from repro.apps.profile_hmm import tk_model
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.runtime import ladder
from repro.runtime.batching import (
    MIN_BATCH,
    BatchedLaunch,
    pack_group,
    plan_batches,
)
from repro.runtime.engine import Engine
from repro.runtime.values import ENGLISH, Sequence

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

WORDS = ("kitten", "mitten", "sit", "knitting")


@pytest.fixture
def edit_func():
    return check_function(
        parse_function(EDIT_DISTANCE.strip()), {"en": ENGLISH.chars}
    )


@pytest.fixture
def forward_func():
    return check_function(parse_function(FORWARD.strip()), {})


def edit_problems(words=WORDS):
    return [{"s": Sequence(word, ENGLISH)} for word in words]


BASE = {"t": Sequence("sitting", ENGLISH)}


class TestPlanBatches:
    def prepared(self, engine, func, problems):
        prepared, _, _, _ = engine.prepare_map(func, BASE, problems)
        return prepared

    def test_same_kernel_problems_group(self, edit_func):
        prepared = self.prepared(
            Engine(backend="vector"), edit_func, edit_problems()
        )
        groups = plan_batches(prepared)
        assert groups == [[0, 1, 2, 3]]

    def test_scalar_kernels_never_batch(self, edit_func):
        prepared = self.prepared(
            Engine(backend="scalar"), edit_func, edit_problems()
        )
        assert plan_batches(prepared) == []

    def test_singleton_groups_dropped(self, edit_func):
        assert MIN_BATCH == 2
        prepared = self.prepared(
            Engine(backend="vector"), edit_func, edit_problems(["sit"])
        )
        assert plan_batches(prepared) == []

    def test_distinct_models_split_groups(self, forward_func):
        """Problems batch only when the shared HMM is the *same
        object* — its arrays ride in the batched context unpacked."""
        hmm_a, hmm_b = tk_model(seed=1), tk_model(seed=2)
        from repro.runtime.sequences import random_protein

        problems = [
            {"h": hmm_a, "x": random_protein(8, seed=1)},
            {"h": hmm_b, "x": random_protein(9, seed=2)},
            {"h": hmm_a, "x": random_protein(7, seed=3)},
            {"h": hmm_b, "x": random_protein(8, seed=4)},
        ]
        prepared = self.prepared(
            Engine(backend="vector", prob_mode="logspace"),
            forward_func,
            problems,
        )
        groups = plan_batches(prepared)
        assert sorted(sorted(g) for g in groups) == [[0, 2], [1, 3]]


class TestPackGroup:
    def packed(self, engine, func, problems):
        prepared, _, _, _ = engine.prepare_map(func, BASE, problems)
        (group,) = plan_batches(prepared)
        compiled = prepared[group[0]][2]
        members = [(prepared[i][0], prepared[i][1]) for i in group]
        return pack_group(compiled, members, indices=group), prepared

    def test_table_padded_to_max_extents(self, edit_func):
        packed, prepared = self.packed(
            Engine(backend="vector"), edit_func, edit_problems()
        )
        longest = max(len(word) for word in WORDS)
        assert packed.table.shape == (
            len(WORDS), longest + 1, len("sitting") + 1
        )
        assert packed.padded_domain.extents == packed.table.shape[1:]

    def test_bounds_and_sequences_packed_per_problem(self, edit_func):
        packed, _ = self.packed(
            Engine(backend="vector"), edit_func, edit_problems()
        )
        assert packed.ctx["ub_i"].shape == (len(WORDS), 1)
        assert [int(ub) for ub in packed.ctx["ub_i"][:, 0]] == [
            len(word) for word in WORDS
        ]
        seqs = packed.ctx["seq_s"]
        longest = max(len(word) for word in WORDS)
        assert seqs.shape == (len(WORDS), longest)
        for row, word in zip(seqs, WORDS):
            # padding past the member's own length stays zero
            assert (row[len(word):] == 0).all()

    def test_member_view_has_true_extents(self, edit_func):
        packed, prepared = self.packed(
            Engine(backend="vector"), edit_func, edit_problems()
        )
        for slot, index in enumerate(packed.indices):
            domain = prepared[index][1]
            assert packed.member_view(slot).shape == domain.extents


class TestBatchedMapRun:
    def test_values_match_loop_and_scalar(self, edit_func):
        problems = edit_problems()
        scalar = Engine(backend="scalar").map_run(
            edit_func, BASE, problems
        )
        looped = Engine(backend="vector", batching=False).map_run(
            edit_func, BASE, problems
        )
        batched = Engine(backend="vector", batching=True).map_run(
            edit_func, BASE, problems
        )
        assert batched.values == looped.values == scalar.values
        assert batched.lane_batches == 1
        assert batched.lane_batched_problems == len(problems)
        assert looped.lane_batches == 0
        assert len(batched.batched_costs) == 1

    def test_launch_report_invariant_under_batching(self, edit_func):
        """Batching is a host-side simulator optimisation: the
        analytic launch report prices the same per-problem costs."""
        problems = edit_problems()
        looped = Engine(backend="vector", batching=False).map_run(
            edit_func, BASE, problems
        )
        batched = Engine(backend="vector", batching=True).map_run(
            edit_func, BASE, problems
        )
        assert batched.report.problems == len(problems)
        assert batched.report.kernel_seconds == pytest.approx(
            looped.report.kernel_seconds
        )
        assert batched.costs == looped.costs

    def test_reduce_max_batched(self, edit_func):
        problems = edit_problems()
        scalar = Engine(backend="scalar").map_run(
            edit_func, BASE, problems, reduce="max"
        )
        batched = Engine(backend="vector").map_run(
            edit_func, BASE, problems, reduce="max"
        )
        assert batched.lane_batched_problems == len(problems)
        assert batched.values == scalar.values

    def test_reduction_kernel_batched_logspace(self, forward_func):
        from repro.runtime.sequences import random_protein

        hmm = tk_model()
        problems = [
            {"x": random_protein(6 + k, seed=k)} for k in range(5)
        ]
        scalar = Engine(
            backend="scalar", prob_mode="logspace"
        ).map_run(forward_func, {"h": hmm}, problems)
        batched = Engine(
            backend="vector", prob_mode="logspace"
        ).map_run(
            forward_func, {"h": hmm}, problems
        )
        assert batched.lane_batched_problems == len(problems)
        assert np.allclose(
            batched.values, scalar.values, rtol=1e-9, atol=1e-12
        )

    def test_pricing_covers_every_member_of_a_batch(self, edit_func):
        result = Engine().map_run(edit_func, BASE, edit_problems())
        assert result.lane_batches == 1
        assert result.report.problems == len(WORDS)
        assert len(result.costs) == len(WORDS)
        assert sum(result.schedule_usage.values()) == len(WORDS)

    def test_a_group_takes_its_rung_by_eligibility(
        self, edit_func, monkeypatch
    ):
        """Without a compiler every word is under the vector
        crossover, so alone each would run scalar; a group sweeps all
        its members' lanes at once, so its rung is chosen by
        eligibility alone, as ``ladder.demote`` steps a group."""
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        engine = Engine()
        result = engine.map_run(edit_func, BASE, edit_problems())
        assert result.batched_backends == ["vector-batched"]
        assert result.values == [3, 3, 4, 2]
        prepared, _, _, _ = engine.prepare_map(
            edit_func, BASE, edit_problems()
        )
        (group,) = plan_batches(prepared)
        assert prepared[group[0]][2].backend == "vector"
        # a member that launches alone keeps the crossover
        (alone,), _, _, _ = engine.prepare_map(
            edit_func, BASE, edit_problems(["sit"])
        )
        assert alone[2].backend == "scalar"

    def test_batching_off_engine_flag(self, edit_func):
        engine = Engine(batching=False)
        result = engine.map_run(edit_func, BASE, edit_problems())
        assert result.lane_batches == 0
        assert result.values == [3, 3, 4, 2]


class TestBatchedLaunch:
    def launch(self, edit_func):
        engine = Engine(backend="vector")
        prepared, _, _, _ = engine.prepare_map(
            edit_func, BASE, edit_problems()
        )
        (group,) = plan_batches(prepared)
        compiled = prepared[group[0]][2]
        members = [(prepared[i][0], prepared[i][1]) for i in group]
        return BatchedLaunch(pack_group(compiled, members, group))

    def test_padding_never_written(self, edit_func):
        launch = self.launch(edit_func)
        batch = launch.batch
        table = batch.table.copy()
        launch.run(table, batch.ctx)
        mask = np.ones_like(table, dtype=bool)
        for slot, domain in enumerate(batch.domains):
            mask[(slot,) + tuple(slice(0, e) for e in domain.extents)] = False
        assert (table[mask] == 0).all()

    def test_partition_split_reproduces_full_run(self, edit_func):
        launch = self.launch(edit_func)
        batch = launch.batch
        full = batch.table.copy()
        launch.run(full, batch.ctx)
        split = batch.table.copy()
        schedule = launch.schedule
        extents = dict(
            zip(schedule.dims, batch.padded_domain.extents)
        )
        span = schedule.span(extents)
        mid = span // 2
        launch.run(split, batch.ctx, part_lo=None, part_hi=mid)
        launch.run(split, batch.ctx, part_lo=mid + 1, part_hi=span)
        assert split.tobytes() == full.tobytes()

    def test_reference_run_agrees_with_batched(self, edit_func):
        launch = self.launch(edit_func)
        batch = launch.batch
        primary = batch.table.copy()
        launch.run(primary, batch.ctx)
        reference = batch.table.copy()
        launch.reference_run(reference, batch.ctx)
        for slot, domain in enumerate(batch.domains):
            sel = (slot,) + tuple(slice(0, e) for e in domain.extents)
            assert (primary[sel] == reference[sel]).all()


class TestNativeRung:
    """The batched-native rung: ladder position, demotion, parity."""

    from repro.runtime import native as _native_rt

    have_cc = _native_rt.available().ok

    def engine_and_launch(self, edit_func, backend="native"):
        engine = Engine(backend=backend)
        prepared, _, _, _ = engine.prepare_map(
            edit_func, BASE, edit_problems()
        )
        (group,) = plan_batches(prepared)
        compiled = prepared[group[0]][2]
        members = [(prepared[i][0], prepared[i][1]) for i in group]
        return engine, BatchedLaunch(pack_group(compiled, members, group))

    def launch_for(self, edit_func, backend="native"):
        return self.engine_and_launch(edit_func, backend)[1]

    def native_launch(self, edit_func):
        return self.launch_for(edit_func, "native")

    def assert_matches_reference(self, launch):
        batch = launch.batch
        table = batch.table.copy()
        launch.run(table, batch.ctx)
        reference = batch.table.copy()
        launch.reference_run(reference, batch.ctx)
        for slot, domain in enumerate(batch.domains):
            sel = (slot,) + tuple(slice(0, e) for e in domain.extents)
            assert table[sel].tobytes() == reference[sel].tobytes()

    def test_vector_compiled_starts_on_vector_rung(self, edit_func):
        launch = self.launch_for(edit_func, "vector")
        assert launch.backend == "vector-batched"
        assert launch.compiled.batched is launch.compiled.batched

    def test_demotion_ladder_bottoms_out_at_scalar(self, edit_func):
        engine, launch = self.engine_and_launch(edit_func, "vector")
        demoted = ladder.demote(
            engine, launch, launch.batch.padded_domain
        )
        assert demoted.backend == "scalar-batched"
        assert demoted.batch.table is launch.batch.table
        assert engine.native_demotions == 1
        self.assert_matches_reference(demoted)

    @pytest.mark.skipif(not have_cc, reason="no C compiler")
    def test_native_compiled_starts_on_native_rung(self, edit_func):
        engine, launch = self.engine_and_launch(edit_func)
        assert launch.backend == "native-batched"
        # The library's batched symbol, bound when it loaded.
        assert launch.compiled.batched == launch.compiled.run.batched
        domain = launch.batch.padded_domain
        vector = ladder.demote(engine, launch, domain)
        assert vector.backend == "vector-batched"
        scalar = ladder.demote(engine, vector, domain)
        assert scalar.backend == "scalar-batched"
        assert engine.native_demotions == 2
        for rung in (launch, vector, scalar):
            self.assert_matches_reference(rung)

    @pytest.mark.skipif(not have_cc, reason="no C compiler")
    def test_native_rung_matches_scalar_sweep(self, edit_func):
        launch = self.native_launch(edit_func)
        self.assert_matches_reference(launch)
        assert launch.backend == "native-batched"

    @pytest.mark.skipif(not have_cc, reason="no C compiler")
    def test_map_run_reports_native_batched(self, edit_func):
        result = Engine(backend="native").map_run(
            edit_func, BASE, edit_problems()
        )
        assert result.batched_backends == ["native-batched"]
        assert result.lane_batched_problems == len(WORDS)

    @pytest.mark.skipif(not have_cc, reason="no C compiler")
    def test_openmp_off_is_bitwise_identical(
        self, edit_func, monkeypatch
    ):
        """A toolchain whose probe finds no ``-fopenmp`` compiles a
        pragma-free TU (a different content hash, so a fresh .so);
        the batched rung must fill bit-identical tables either way."""
        native_rt = self._native_rt
        default = self.native_launch(edit_func)
        cc, _omp, detail = native_rt.toolchain()
        monkeypatch.setattr(native_rt, "_TOOLCHAIN", (cc, False, detail))
        serial = self.native_launch(edit_func)
        assert "#pragma omp" not in serial.compiled.source
        assert native_rt.effective_threads() == 1
        tables = []
        for launch in (default, serial):
            table = launch.batch.table.copy()
            launch.run(table, launch.batch.ctx)
            assert launch.backend == "native-batched"
            tables.append(table)
        assert tables[0].tobytes() == tables[1].tobytes()

    @pytest.mark.skipif(not have_cc, reason="no C compiler")
    def test_forced_single_thread_is_bitwise_identical(
        self, edit_func, monkeypatch
    ):
        """REPRO_NATIVE_THREADS=1 caps the OpenMP problem loop; the
        per-member nests are untouched, so results cannot move."""
        default = Engine(backend="native").map_run(
            edit_func, BASE, edit_problems()
        )
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "1")
        capped = Engine(backend="native").map_run(
            edit_func, BASE, edit_problems()
        )
        assert capped.batched_backends == ["native-batched"]
        assert [int(v) for v in capped.values] == [
            int(v) for v in default.values
        ]
