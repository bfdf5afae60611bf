"""Worker-pool semantics: timeout, retry with backoff, failure kinds."""

import threading
import time

import pytest

from repro.lang.errors import RuntimeDslError
from repro.runtime.engine import Engine
from repro.service.programs import ProgramRegistry
from repro.service.queue import (
    Batch,
    DeadlineError,
    Job,
    JobQueue,
    JobState,
    JobTimeoutError,
)
from repro.service.stats import StatsRegistry
from repro.service.workers import MAX_RETRIES, WorkerPool

from .conftest import EDIT_PROGRAM


def make_pool(stats=None, registry=None, **overrides):
    if registry is None:
        registry = ProgramRegistry()
    options = dict(workers=1, backoff_seconds=0.001)
    options.update(overrides)
    return WorkerPool(
        JobQueue(),
        Engine,
        registry,
        stats or StatsRegistry(),
        **options,
    )


def edit_batch(registry, words, program=EDIT_PROGRAM, **job_overrides):
    program = registry.register(program)
    jobs = []
    for word in words:
        bindings, at, initial = program.bind(
            "d", {"s": word, "t": "sitting"}
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


class TestExecution:
    def test_batch_resolves_every_job(self):
        stats, registry = StatsRegistry(), ProgramRegistry()
        pool = make_pool(stats, registry)
        batch = edit_batch(registry, ["kitten", "sitting", "mitten"])
        pool.execute_batch(Engine(), batch)
        values = [j.handle.result(timeout=1) for j in batch.jobs]
        assert values == [3, 0, 3]
        snapshot = stats.snapshot()
        assert snapshot.completed == 3
        assert snapshot.batches == 1
        assert snapshot.max_batch_size == 3

    def test_matches_serial_engine_runs(self, edit_func):
        """Determinism: a batched run is bitwise-identical to
        independent Engine.run calls."""
        from repro import Sequence
        from repro.runtime import ENGLISH

        words = ["kitten", "mitten", "witty", "sit", "knitting"]
        serial = [
            Engine().run(
                edit_func,
                {"s": Sequence(w, ENGLISH),
                 "t": Sequence("sitting", ENGLISH)},
            ).value
            for w in words
        ]
        registry = ProgramRegistry()
        pool = make_pool(registry=registry)
        batch = edit_batch(registry, words)
        pool.execute_batch(Engine(), batch)
        batched = [j.handle.result(timeout=1) for j in batch.jobs]
        assert batched == serial

    def test_declared_schedule_reaches_map_run(self):
        """A program's ``schedule`` is its functions' schedule on the
        service too, as it is for a script's ``print`` and ``map``."""
        usages = []

        class Recording(Engine):
            def map_run(self, *args, **kwargs):
                result = super().map_run(*args, **kwargs)
                usages.append(result.schedule_usage)
                return result

        registry = ProgramRegistry()
        pool = make_pool(registry=registry)
        batch = edit_batch(
            registry, ["kitten", "mitten"],
            program=EDIT_PROGRAM + "\nschedule d : 2*i + j\n",
        )
        pool.execute_batch(Recording(), batch)
        assert [j.handle.result(timeout=1) for j in batch.jobs] == [3, 3]
        assert usages == [{(2, 1): 2}]

    def test_unknown_program_fails_jobs(self):
        stats = StatsRegistry()
        pool = make_pool(stats)
        job = Job(
            program_sha="missing", function="d",
            bindings={}, at={}, initial={},
        )
        pool.execute_batch(Engine(), Batch(job.group_key, [job]))
        assert job.handle.state is JobState.FAILED
        assert stats.snapshot().failed == 1


class TestTimeout:
    def test_expired_job_shed_without_running(self):
        # A deadline that expires before *any* launch attempt is a
        # shed (the service declined the work), not a timeout.
        stats, registry = StatsRegistry(), ProgramRegistry()
        pool = make_pool(stats, registry)
        batch = edit_batch(registry, ["kitten"], timeout=0.001)
        time.sleep(0.01)  # let the deadline pass while "queued"
        pool.execute_batch(Engine(), batch)
        job = batch.jobs[0]
        assert job.handle.state is JobState.TIMED_OUT
        with pytest.raises(DeadlineError):
            job.handle.result(timeout=1)
        snapshot = stats.snapshot()
        assert snapshot.shed == 1
        assert snapshot.timed_out == 0
        assert snapshot.batches == 0  # nothing was executed

    def test_live_jobs_survive_expired_neighbours(self):
        stats, registry = StatsRegistry(), ProgramRegistry()
        pool = make_pool(stats, registry)
        expired = edit_batch(registry, ["kitten"], timeout=0.001)
        healthy = edit_batch(registry, ["mitten"])
        batch = Batch(
            healthy.key, [expired.jobs[0], healthy.jobs[0]]
        )
        time.sleep(0.01)
        pool.execute_batch(Engine(), batch)
        assert expired.jobs[0].handle.state is JobState.TIMED_OUT
        assert healthy.jobs[0].handle.result(timeout=1) == 3


class FlakyEngine(Engine):
    """Fails ``map_run`` a fixed number of times, then delegates."""

    def __init__(self, failures: int, error=None) -> None:
        super().__init__()
        self.failures = failures
        self.error = error or OSError("transient backend glitch")
        self.attempts = 0

    def map_run(self, *args, **kwargs):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise self.error
        return super().map_run(*args, **kwargs)


class TestRetry:
    def test_transient_failures_retry_with_backoff(self):
        stats, registry = StatsRegistry(), ProgramRegistry()
        pool = make_pool(stats, registry)
        engine = FlakyEngine(failures=2)
        batch = edit_batch(registry, ["kitten"])
        pool.execute_batch(engine, batch)
        assert batch.jobs[0].handle.result(timeout=1) == 3
        assert engine.attempts == 3
        assert stats.snapshot().retries == 2

    def test_retry_budget_bounds_attempts(self):
        stats, registry = StatsRegistry(), ProgramRegistry()
        pool = make_pool(stats, registry)
        engine = FlakyEngine(failures=100)
        batch = edit_batch(registry, ["kitten"])
        pool.execute_batch(engine, batch)
        job = batch.jobs[0]
        assert job.handle.state is JobState.FAILED
        with pytest.raises(OSError):
            job.handle.result(timeout=1)
        assert engine.attempts == MAX_RETRIES + 1  # initial + 2 retries
        assert stats.snapshot().failed == 1

    def test_dsl_errors_never_retry(self):
        stats, registry = StatsRegistry(), ProgramRegistry()
        pool = make_pool(stats, registry)
        engine = FlakyEngine(
            failures=100, error=RuntimeDslError("bad input")
        )
        batch = edit_batch(registry, ["kitten"])
        pool.execute_batch(engine, batch)
        assert engine.attempts == 1  # permanent: no second attempt
        assert batch.jobs[0].handle.state is JobState.FAILED
        assert stats.snapshot().retries == 0


class TestLifecycle:
    def test_pool_drains_queue_then_stops(self):
        stats, registry = StatsRegistry(), ProgramRegistry()
        jobs = JobQueue()
        pool = WorkerPool(jobs, Engine, registry, stats, workers=2)
        submitted = [
            job
            for _ in range(4)
            for job in edit_batch(registry, ["kitten", "mitten"]).jobs
        ]
        for job in submitted:
            jobs.submit(job)
        pool.start()
        pool.shutdown(timeout=30.0)
        assert stats.snapshot().completed == 8
        assert all(job.handle.done() for job in submitted)
        assert not any(thread.is_alive() for thread in pool._threads)

    def test_bucket_filled_under_saturation_leaves_on_task_done(self):
        """One worker held mid-batch: what arrives meanwhile shares
        one batch, which the worker takes as soon as it is done."""
        stats, registry = StatsRegistry(), ProgramRegistry()
        jobs = JobQueue(16)
        pool = WorkerPool(jobs, Engine, registry, stats, workers=1)
        release, entered = threading.Event(), threading.Event()
        execute = pool.execute_batch

        def held(engine, batch):
            entered.set()
            release.wait(30)
            execute(engine, batch)

        pool.execute_batch = held
        pool.start()
        try:
            first, *rest = edit_batch(
                registry, ["kitten", "mitten", "bitten", "sit"]
            ).jobs
            jobs.submit(first)
            assert entered.wait(30)
            for job in rest:
                jobs.submit(job)
            time.sleep(0.05)
            assert jobs.depth() == 3  # queued, not started
            release.set()
            values = [j.handle.result(timeout=10) for j in rest]
        finally:
            release.set()
            pool.shutdown(timeout=5.0)
        assert values == [3, 3, 4]
        snapshot = stats.snapshot()
        assert (snapshot.batches, snapshot.max_batch_size) == (2, 3)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            make_pool(workers=0)

    def test_rejects_max_batch_below_one(self):
        with pytest.raises(ValueError):
            make_pool(max_batch=0)
