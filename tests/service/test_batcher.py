"""How queued jobs become batches: ``JobQueue.take_batch`` and the
worker pool whose threads call it."""

import random
import threading
import time

from repro.service.programs import ProgramRegistry
from repro.service.queue import Batch, JobQueue
from repro.service.stats import StatsRegistry
from repro.service.workers import WorkerPool

from .test_queue import make_job


def take_all(jobs, max_batch=32):
    """Close ``jobs`` and take batches until it is empty."""
    jobs.close()
    out = []
    while True:
        batch = jobs.take_batch(max_batch)
        if batch is None:
            return out
        out.append(batch)


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


def ids(jobs):
    return [job.job_id for job in jobs]


class TestBatcher:
    def test_same_key_jobs_coalesce(self):
        jobs = JobQueue(64)
        submitted = [make_job() for _ in range(5)]
        for job in submitted:
            jobs.submit(job)
        batch = jobs.take_batch(32)
        assert ids(batch.jobs) == ids(submitted)
        assert jobs.depth() == 0

    def test_distinct_keys_stay_separate(self):
        jobs = JobQueue(64)
        for name in "dgdgd":
            jobs.submit(make_job(function=name))
        got = [(b.function, len(b)) for b in take_all(jobs)]
        # The oldest job's key goes first.
        assert got == [("d", 3), ("g", 2)]

    def test_max_batch_flushes_immediately(self):
        jobs = JobQueue(64)
        submitted = [make_job() for _ in range(10)]
        for job in submitted:
            jobs.submit(job)
        batches = take_all(jobs, max_batch=4)
        assert [len(b) for b in batches] == [4, 4, 2]
        assert [j for b in batches for j in ids(b.jobs)] == ids(submitted)

    def test_stop_drains_buffered_jobs(self):
        jobs = JobQueue(64)
        for _ in range(3):
            jobs.submit(make_job())
        assert sum(len(b) for b in take_all(jobs)) == 3
        assert jobs.take_batch(32) is None

    def test_batch_metadata(self):
        job = make_job()
        batch = Batch(job.group_key, [job])
        assert batch.program_sha == "sha"
        assert batch.function == "d"
        assert len(batch) == 1


class RecordingPool:
    """A :class:`WorkerPool` over ``jobs`` whose workers record the
    batches they take instead of running them; a batch of a function
    named in ``held`` parks its worker until :meth:`stop`."""

    def __init__(self, jobs, size, max_batch=32, held=()):
        self.jobs = jobs
        self.taken = []
        self.held = set(held)
        self.parked = threading.Semaphore(0)
        self._release = threading.Event()
        self.pool = WorkerPool(
            jobs, lambda: None, ProgramRegistry(), StatsRegistry(),
            workers=size, max_batch=max_batch,
        )
        self.pool.execute_batch = self._record
        self.pool.start()

    def _record(self, engine, batch):
        self.taken.append(batch)
        if batch.function in self.held:
            self.parked.release()
            self._release.wait(30)

    def park(self, name):
        """Submit a job of function ``name`` and wait until a worker
        is parked in it."""
        self.held.add(name)
        self.jobs.submit(make_job(function=name))
        assert self.parked.acquire(timeout=5), "no worker took it"

    def stop(self):
        """Release any parked worker, then drain and stop the pool."""
        self._release.set()
        self.pool.shutdown(timeout=5.0)
        return self.taken


class TestDispatchOnIdle:
    """A free worker takes its own batch: nothing waits for a timer."""

    def test_lone_job_leaves_at_once_when_a_worker_is_spare(self):
        pool = RecordingPool(JobQueue(8), size=1)
        began = time.monotonic()
        pool.jobs.submit(make_job())
        assert wait_for(lambda: pool.taken, timeout=0.5)
        assert time.monotonic() - began < 0.5
        assert [len(b) for b in pool.stop()] == [1]

    def test_oldest_bucket_goes_first_younger_stays_open(self):
        pool = RecordingPool(JobQueue(8), size=1)
        pool.park("busy")
        pool.jobs.submit(make_job(function="older"))
        pool.jobs.submit(make_job(function="younger"))
        time.sleep(0.05)
        assert pool.jobs.depth() == 2  # the worker is taken: both wait
        assert [b.function for b in pool.stop()] == [
            "busy", "older", "younger",
        ]

    def test_one_early_batch_per_spare_worker(self):
        pool = RecordingPool(JobQueue(8), size=3, held="abcde")
        for name in "abcde":
            pool.jobs.submit(make_job(function=name))
        for _ in range(3):
            assert pool.parked.acquire(timeout=5)
        time.sleep(0.05)
        assert sorted(b.function for b in pool.taken) == ["a", "b", "c"]
        assert pool.jobs.depth() == 2
        assert sorted(b.function for b in pool.stop()[3:]) == ["d", "e"]

    def test_arrivals_under_saturation_leave_as_one_batch(self):
        pool = RecordingPool(JobQueue(8), size=1)
        pool.park("d")
        rest = [make_job() for _ in range(3)]
        for job in rest:
            pool.jobs.submit(job)
            time.sleep(0.02)
        taken = pool.stop()
        assert len(taken) == 2
        assert ids(taken[1].jobs) == ids(rest)

    def test_every_job_flushed_once_in_order_under_any_interleaving(
        self,
    ):
        """Random arrivals over three keys, two workers that take a
        random while over each batch: per key, what comes out is what
        went in — nothing lost, duplicated or reordered — and no batch
        mixes keys or exceeds ``max_batch``."""
        for seed in range(12):
            rng = random.Random(seed)
            jobs = JobQueue(256)
            max_batch = rng.choice([1, 2, 5, 32])
            pool = RecordingPool(jobs, size=2, max_batch=max_batch)
            record, pause = pool._record, rng.random() * 0.002

            def slow(engine, batch):
                record(engine, batch)
                time.sleep(pause)

            pool.pool.execute_batch = slow
            sent = {"a": [], "b": [], "c": []}
            for _ in range(150):
                name = rng.choice("abc")
                job = make_job(function=name)
                sent[name].append(job.job_id)
                jobs.submit(job)
                if rng.random() < 0.1:
                    time.sleep(0.002)
            out = pool.stop()
            assert all(0 < len(b) <= max_batch for b in out)
            assert all(
                {j.function for j in b.jobs} == {b.function} for b in out
            )
            # Two workers may record their batches in either order;
            # laid out by first job, one key's batches must spell out
            # exactly what was sent for it.
            first = {
                job_id: n for order in sent.values()
                for n, job_id in enumerate(order)
            }
            got = {
                name: [j for b in sorted(
                    (b for b in out if b.function == name),
                    key=lambda b: first[b.jobs[0].job_id],
                ) for j in ids(b.jobs)]
                for name in sent
            }
            assert got == sent, f"seed {seed}"


class TestEventDrivenLoop:
    def test_idle_batcher_does_not_poll(self):
        """Idle workers, the pool's batchers, each sleep in one
        ``take_batch`` call until a job or a close wakes them."""
        jobs = JobQueue(8)
        calls = []
        take = jobs.take_batch

        def counting_take(max_batch):
            calls.append(max_batch)
            return take(max_batch)

        jobs.take_batch = counting_take
        pool = RecordingPool(jobs, size=2)
        time.sleep(0.2)
        assert len(calls) == 2
        jobs.submit(make_job())
        assert wait_for(lambda: pool.taken)
        assert [len(b) for b in pool.stop()] == [1]
        assert len(calls) <= 5
