"""Chaos suite: the service under seeded fault injection.

The ISSUE's acceptance scenario: with 5% launch failures and 1% cell
corruption injected, a seeded run of single and map submissions
completes with results bitwise-identical to fault-free execution,
replaying only failed partition ranges; deterministic DSL errors are
never retried.
"""

import threading

import pytest

from repro.lang.errors import DslError, RuntimeDslError
from repro.resilience import (
    ExecutionSupervisor,
    FaultPlan,
    LaunchFault,
    SupervisionPolicy,
)
from repro.runtime.engine import Engine
from repro.service.programs import ProgramRegistry
from repro.service.queue import Batch, Job, JobQueue, JobState
from repro.service.server import ComputeService, chaos_plan_from_env
from repro.service.stats import StatsRegistry
from repro.service.workers import (
    MAX_RETRIES,
    WorkerPool,
    classify_failure,
)

from .conftest import EDIT_PROGRAM, workers_held

CHAOS_PLAN = FaultPlan(
    seed=20120611,  # PLDI'12
    launch_fail_rate=0.05,
    corrupt_rate=0.01,
    corrupt_mode="bitflip",
)

WORDS = ["kitten", "mitten", "sitting", "bitten", "written", "kit"]


class TestClassifyFailure:
    def test_dsl_errors_are_permanent(self):
        from repro.gpu.executor import RaceError
        from repro.lang.errors import BackendDivergenceError

        assert classify_failure(RuntimeDslError("bad")) == "permanent"
        assert classify_failure(RaceError("race")) == "permanent"
        assert (
            classify_failure(BackendDivergenceError("diverged"))
            == "permanent"
        )

    def test_device_faults_are_device(self):
        from repro.resilience.faults import (
            CellCorruption,
            FaultEscalation,
            SandboxHang,
            WorkerCrash,
        )

        for cls in (LaunchFault, WorkerCrash, SandboxHang,
                    CellCorruption, FaultEscalation):
            assert classify_failure(cls("boom")) == "device"

    def test_environment_errors_are_transient(self):
        assert classify_failure(OSError("io")) == "transient"
        assert classify_failure(MemoryError()) == "transient"
        assert classify_failure(TimeoutError()) == "transient"

    def test_unknown_errors_fail_fast(self):
        assert classify_failure(ValueError("?")) == "permanent"
        assert classify_failure(KeyError("?")) == "permanent"


def make_pool(stats, registry, **overrides):
    options = dict(workers=1, backoff_seconds=0.001)
    options.update(overrides)
    return WorkerPool(
        JobQueue(), Engine, registry, stats, **options
    )


def edit_batch(registry, words, args=(), **job_overrides):
    program = registry.register(EDIT_PROGRAM)
    jobs = []
    for word in words:
        bindings, at, initial = program.bind(
            "d", {"s": word, "t": "sitting", **dict(args)}
        )
        jobs.append(
            Job(
                program_sha=program.sha,
                function="d",
                bindings=bindings,
                at=at,
                initial=initial,
                **job_overrides,
            )
        )
    return Batch(jobs[0].group_key, jobs)


class BrokenDeviceEngine(Engine):
    """An engine whose device never completes a map_run."""

    def __init__(self):
        super().__init__()
        self.attempts = 0

    def map_run(self, *args, **kwargs):
        self.attempts += 1
        raise LaunchFault("device on fire")


class TestDemotion:
    def test_repeated_device_faults_demote_to_reference(self):
        stats, registry = StatsRegistry(), ProgramRegistry()
        pool = make_pool(stats, registry)
        engine = BrokenDeviceEngine()
        batch = edit_batch(registry, ["kitten", "mitten"])
        pool.execute_batch(engine, batch)
        values = [j.handle.result(timeout=5) for j in batch.jobs]
        assert values == [3, 3]  # correct despite a dead device
        # MAX_RETRIES + 1 attempts, the last one demotes.
        assert engine.attempts == MAX_RETRIES + 1
        snapshot = stats.snapshot()
        assert snapshot.demotions == 2
        assert snapshot.device_faults == 3
        assert snapshot.completed == 2
        assert snapshot.failed == 0

    def test_budget_exhaustion_demotes_instead_of_failing(self):
        """A demoted job answers what a served one does, a negative
        coordinate wrapped the same way."""
        for args, value in (
            ({}, 3), ({"i": -1}, 3), ({"i": -3}, 4), ({"j": -6}, 5)
        ):
            stats, registry = StatsRegistry(), ProgramRegistry()
            pool = make_pool(stats, registry)
            served = edit_batch(registry, ["kitten"], args)
            pool.execute_batch(Engine(), served)
            assert served.jobs[0].handle.result(timeout=5) == value
            batch = edit_batch(registry, ["kitten"], args)
            pool.execute_batch(BrokenDeviceEngine(), batch)
            assert batch.jobs[0].handle.result(timeout=5) == value
            assert stats.snapshot().demotions == 1
            assert stats.snapshot().failed == 0

    def test_dsl_error_still_fails_fast(self):
        """A RaceError-style DslError from a chaotic engine is never
        retried and never demoted: the input/compiler is at fault."""
        stats, registry = StatsRegistry(), ProgramRegistry()
        pool = make_pool(stats, registry)

        class BuggyEngine(Engine):
            attempts = 0

            def map_run(self, *args, **kwargs):
                BuggyEngine.attempts += 1
                raise RuntimeDslError("deterministic bug")

        batch = edit_batch(registry, ["kitten"])
        pool.execute_batch(BuggyEngine(), batch)
        assert BuggyEngine.attempts == 1
        assert batch.jobs[0].handle.state is JobState.FAILED
        assert stats.snapshot().retries == 0
        assert stats.snapshot().demotions == 0


class TestChaosService:
    def test_seeded_chaos_matches_fault_free(self):
        """Single and map-style submissions under 5% launch failure +
        1% corruption complete identical to fault-free execution."""
        fault_free = {}
        with ComputeService(workers=2) as service:
            for word in WORDS:
                fault_free[word] = service.submit(
                    EDIT_PROGRAM, "d", {"s": word, "t": "sitting"}
                ).result(timeout=30)

        with ComputeService(
            workers=2,
            fault_plan=CHAOS_PLAN,
            supervision=SupervisionPolicy(checkpoint_interval=4),
        ) as service:
            handles = {}
            barrier = threading.Barrier(len(WORDS) + 1)

            def submit(word):
                barrier.wait()
                handles[word] = service.submit(
                    EDIT_PROGRAM, "d", {"s": word, "t": "sitting"}
                )

            threads = [
                threading.Thread(target=submit, args=(w,))
                for w in WORDS
            ]
            # Workers parked while the words arrive: they run as
            # coalesced map launches.
            with workers_held(service):
                for thread in threads:
                    thread.start()
                barrier.wait()
                for thread in threads:
                    thread.join()
            chaotic = {
                word: handle.result(timeout=60)
                for word, handle in handles.items()
            }
            stats = service.stats()
        assert chaotic == fault_free
        assert stats.failed == 0
        assert stats.batches < len(WORDS)

    def test_chaos_is_deterministic_across_services(self):
        values = []
        for _ in range(2):
            with ComputeService(
                workers=1, fault_plan=CHAOS_PLAN
            ) as service:
                values.append([
                    service.submit(
                        EDIT_PROGRAM, "d",
                        {"s": w, "t": "sitting"},
                    ).result(timeout=30)
                    for w in WORDS
                ])
        assert values[0] == values[1]

    def test_dsl_errors_fail_fast_under_chaos(self):
        with ComputeService(
            workers=1, fault_plan=CHAOS_PLAN
        ) as service:
            with pytest.raises(DslError):
                service.submit("int f( = broken", "f")
            stats = service.stats()
        assert stats.retries == 0


class TestChaosEnv:
    def test_plan_from_env(self):
        plan = chaos_plan_from_env({
            "REPRO_CHAOS_RATE": "0.05",
            "REPRO_CHAOS_CORRUPT": "0.01",
            "REPRO_CHAOS_SEED": "99",
        })
        assert plan is not None
        assert plan.launch_fail_rate == 0.05
        assert plan.corrupt_rate == 0.01
        assert plan.seed == 99
        assert plan.corrupt_mode == "bitflip"

    def test_no_env_means_no_plan(self):
        assert chaos_plan_from_env({}) is None
        assert chaos_plan_from_env({"REPRO_CHAOS_RATE": "0"}) is None

    def test_service_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_RATE", "0.05")
        monkeypatch.setenv("REPRO_CHAOS_SEED", "7")
        with ComputeService(workers=1) as service:
            assert service.fault_plan is not None
            assert service.fault_plan.seed == 7
            engine = service.pool.engine_factory()
            assert isinstance(engine, ExecutionSupervisor)
            handle = service.submit(
                EDIT_PROGRAM, "d", {"s": "kitten", "t": "sitting"}
            )
            assert handle.result(timeout=30) == 3
