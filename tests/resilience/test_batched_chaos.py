"""Supervised execution of lane-batched map launches.

The supervisor packs a map's same-kernel problems into one batched
launch; everything the resilience layer guarantees for single-problem
launches — checkpointed replay, bitwise recovery, oracle
classification — must hold for the batch as a unit.
"""

import numpy as np
import pytest

from repro.lang.errors import BackendDivergenceError
from repro.resilience import (
    ExecutionSupervisor,
    FaultPlan,
    SupervisionPolicy,
)
from repro.resilience.faults import FaultInjector, FaultSite
from repro.runtime.engine import Engine
from repro.runtime.values import ENGLISH, Sequence

CHAOS = FaultPlan(
    seed=1234,
    launch_fail_rate=0.07,
    corrupt_rate=0.01,
    corrupt_mode="bitflip",
)

WORDS = ("kitten", "mitten", "witty", "sit", "knitting", "sitting")


def problems():
    return [{"s": Sequence(word, ENGLISH)} for word in WORDS]


def base(edit_bindings):
    return {"t": edit_bindings["t"]}


class TestSupervisedBatchedMap:
    def test_fault_free_batched_map_matches_engine(
        self, edit_func, edit_bindings
    ):
        baseline = Engine(backend="vector").map_run(
            edit_func, base(edit_bindings), problems()
        )
        supervisor = ExecutionSupervisor(
            engine=Engine(backend="vector")
        )
        result = supervisor.map_run(
            edit_func, base(edit_bindings), problems()
        )
        assert result.values == baseline.values
        assert result.lane_batches == 1
        assert result.lane_batched_problems == len(WORDS)
        # Logical problem accounting survives batching.
        assert supervisor.stats.problems == len(WORDS)

    def test_chaos_batched_map_matches_fault_free(
        self, edit_func, edit_bindings
    ):
        baseline = Engine(backend="vector").map_run(
            edit_func, base(edit_bindings), problems()
        )
        supervisor = ExecutionSupervisor(
            engine=Engine(backend="vector"),
            plan=CHAOS,
            policy=SupervisionPolicy(checkpoint_interval=4),
        )
        result = supervisor.map_run(
            edit_func, base(edit_bindings), problems()
        )
        assert result.values == baseline.values
        assert result.lane_batched_problems == len(WORDS)
        assert supervisor.stats.problems == len(WORDS)
        # The campaign actually exercised the fault path.
        assert supervisor.injector.log

    def test_corruption_in_batch_recovered_via_oracle(
        self, edit_func, edit_bindings
    ):
        plan = FaultPlan(
            seed=7, corrupt_rate=0.02, corrupt_mode="bitflip"
        )
        supervisor = ExecutionSupervisor(
            engine=Engine(backend="vector"),
            plan=plan,
            policy=SupervisionPolicy(checkpoint_interval=3),
        )
        baseline = Engine(backend="vector").map_run(
            edit_func, base(edit_bindings), problems()
        )
        result = supervisor.map_run(
            edit_func, base(edit_bindings), problems()
        )
        assert result.values == baseline.values
        stats = supervisor.stats
        assert stats.faults.get("CellCorruption", 0) > 0
        assert stats.corruption_recovered > 0
        assert stats.oracle_runs > 0

    def test_batching_disabled_engine_falls_back(
        self, edit_func, edit_bindings
    ):
        supervisor = ExecutionSupervisor(engine=Engine(batching=False))
        result = supervisor.map_run(
            edit_func, base(edit_bindings), problems()
        )
        assert result.lane_batches == 0
        assert supervisor.stats.problems == len(WORDS)

    def test_batched_codegen_bug_is_divergence(
        self, edit_func, edit_bindings
    ):
        """A deterministic bug in the *batched* generator must
        surface as BackendDivergenceError (the oracle's per-member
        scalar replay disagrees), never as recovered corruption."""
        supervisor = ExecutionSupervisor(
            engine=Engine(backend="vector"),
            plan=FaultPlan(seed=3, corrupt_rate=0.05,
                           corrupt_mode="bitflip"),
            policy=SupervisionPolicy(checkpoint_interval=2),
        )
        prepared, _, _, _ = supervisor.engine.prepare_map(
            edit_func, base(edit_bindings), problems()
        )
        compiled = prepared[0][2]
        real_run = compiled.batched

        def run(table, ctx, part_lo=None, part_hi=None):
            real_run(table, ctx, part_lo=part_lo, part_hi=part_hi)
            table[(0,) * table.ndim] += 1  # the "bug"

        compiled.batched = run
        with pytest.raises(BackendDivergenceError):
            supervisor.map_run(
                edit_func, base(edit_bindings), problems()
            )


class TestBatchedFaultInjection:
    def test_corrupt_cells_batched_partition_mapping(self, edit_func):
        """On a (B, d0, d1) table the partition of a victim comes
        from its trailing space coordinates; every problem row is at
        risk and damage never lands outside the launched range."""
        engine = Engine(backend="auto")
        compiled = engine.compile(
            edit_func,
            engine.schedule_for(
                edit_func,
                engine.domain_of(
                    edit_func,
                    __import__("repro").Bindings(
                        {
                            "s": Sequence("kitten", ENGLISH),
                            "t": Sequence("sitting", ENGLISH),
                        }
                    ),
                ),
            ),
        )
        schedule = compiled.kernel.schedule
        table = np.zeros((4, 7, 8), dtype=np.int64)
        plan = FaultPlan(seed=99, corrupt_rate=0.5,
                         corrupt_mode="bitflip")
        injector = FaultInjector(plan)
        site = FaultSite(problem=0, partition=3, sm=0, attempt=0,
                         stage="memory")
        victims = injector.corrupt_cells(
            table, schedule, partition_lo=3, partition_hi=6, site=site
        )
        assert victims  # the rate is high enough to hit
        for coords in victims:
            assert len(coords) == 3  # batched coordinates
            space = coords[1:]
            partition = schedule.partition_of(list(space))
            assert 3 <= partition <= 6
            assert table[coords] != 0  # damage landed
        # More than one problem row can be hit across sites.
        touched = {coords[0] for coords in victims}
        assert touched <= set(range(4))

    def test_unbatched_mapping_unchanged(self, edit_func):
        engine = Engine(backend="auto")
        compiled = engine.compile(
            edit_func,
            engine.schedule_for(
                edit_func,
                engine.domain_of(
                    edit_func,
                    __import__("repro").Bindings(
                        {
                            "s": Sequence("kitten", ENGLISH),
                            "t": Sequence("sitting", ENGLISH),
                        }
                    ),
                ),
            ),
        )
        schedule = compiled.kernel.schedule
        table = np.zeros((7, 8), dtype=np.int64)
        injector = FaultInjector(
            FaultPlan(seed=99, corrupt_rate=0.5,
                      corrupt_mode="bitflip")
        )
        site = FaultSite(problem=0, partition=2, sm=0, attempt=0,
                         stage="memory")
        victims = injector.corrupt_cells(
            table, schedule, partition_lo=2, partition_hi=5, site=site
        )
        for coords in victims:
            assert len(coords) == 2
            assert 2 <= schedule.partition_of(list(coords)) <= 5
