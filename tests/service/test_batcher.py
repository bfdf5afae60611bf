"""Coalescing behaviour of the batch scheduler."""

import queue as _queue
import time

from repro.service.batcher import Batch, Batcher
from repro.service.queue import JobQueue

from .test_queue import make_job


def drain(batches):
    out = []
    while True:
        try:
            out.append(batches.get_nowait())
        except _queue.Empty:
            return out


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return False


class TestBatcher:
    def test_same_key_jobs_coalesce(self):
        jobs, batches = JobQueue(64), _queue.Queue()
        batcher = Batcher(jobs, batches, window=0.05, max_batch=32)
        batcher.start()
        submitted = [make_job() for _ in range(5)]
        for job in submitted:
            jobs.submit(job)
        assert wait_for(lambda: not batches.empty())
        batcher.stop()
        (batch,) = drain(batches)
        assert len(batch) == 5
        assert [j.job_id for j in batch.jobs] == [
            j.job_id for j in submitted
        ]

    def test_distinct_keys_stay_separate(self):
        jobs, batches = JobQueue(64), _queue.Queue()
        batcher = Batcher(jobs, batches, window=0.02, max_batch=32)
        batcher.start()
        for _ in range(3):
            jobs.submit(make_job(function="d"))
        for _ in range(2):
            jobs.submit(make_job(function="g"))
        assert wait_for(lambda: batches.qsize() >= 2)
        batcher.stop()
        got = {b.function: len(b) for b in drain(batches)}
        assert got == {"d": 3, "g": 2}

    def test_max_batch_flushes_immediately(self):
        jobs, batches = JobQueue(64), _queue.Queue()
        batcher = Batcher(jobs, batches, window=30.0, max_batch=4)
        batcher.start()
        for _ in range(4):
            jobs.submit(make_job())
        # The window is half a minute: only the size trigger can
        # flush this quickly.
        assert wait_for(lambda: not batches.empty(), timeout=2.0)
        batcher.stop(drain_timeout=1.0)
        sizes = sorted(len(b) for b in drain(batches))
        assert sizes[-1] == 4

    def test_window_flushes_partial_batch(self):
        jobs, batches = JobQueue(64), _queue.Queue()
        batcher = Batcher(jobs, batches, window=0.02, max_batch=1000)
        batcher.start()
        jobs.submit(make_job())
        assert wait_for(lambda: not batches.empty(), timeout=2.0)
        batcher.stop()
        (batch,) = drain(batches)
        assert len(batch) == 1

    def test_stop_drains_buffered_jobs(self):
        jobs, batches = JobQueue(64), _queue.Queue()
        batcher = Batcher(jobs, batches, window=60.0, max_batch=1000)
        batcher.start()
        for _ in range(3):
            jobs.submit(make_job())
        assert batcher.stop(drain_timeout=5.0)
        total = sum(len(b) for b in drain(batches))
        assert total == 3

    def test_batch_metadata(self):
        job = make_job()
        batch = Batch(job.group_key, [job])
        assert batch.program_sha == "sha"
        assert batch.function == "d"
        assert len(batch) == 1


class FakePool:
    """Stands in for the worker pool: ``size`` workers, a batch in
    flight from ``put`` until :meth:`finish` marks it done — the same
    count ``WorkerPool.spare`` reads."""

    def __init__(self, batches, size):
        self.batches, self.size = batches, size
        self.finished = []
        self.on_batch_done = None

    def spare(self):
        return self.size - self.batches.unfinished_tasks

    def finish(self):
        """One worker completes the oldest queued batch."""
        self.finished.append(self.batches.get_nowait())
        self.batches.task_done()
        self.on_batch_done()


def started(size, window=30.0, max_batch=32):
    jobs, batches = JobQueue(256), _queue.Queue()
    pool = FakePool(batches, size)
    batcher = Batcher(
        jobs, batches, window=window, max_batch=max_batch,
        spare=pool.spare,
    )
    pool.on_batch_done = batcher.capacity_freed
    batcher.start()
    return jobs, batches, pool, batcher


class TestDispatchOnIdle:
    """The third trigger: a bucket leaves when a worker is spare."""

    def test_lone_job_leaves_at_once_when_a_worker_is_spare(self):
        jobs, batches, _, batcher = started(size=1)
        began = time.monotonic()
        jobs.submit(make_job())
        # The window is half a minute: only the idle trigger is this
        # quick.
        assert wait_for(lambda: not batches.empty(), timeout=0.5)
        assert time.monotonic() - began < 0.5
        batcher.stop()
        assert [len(b) for b in drain(batches)] == [1]

    def test_no_spare_worker_waits_for_the_window(self):
        jobs, batches, _, batcher = started(size=0, window=0.15)
        began = time.monotonic()
        jobs.submit(make_job())
        time.sleep(0.05)
        assert batches.empty()
        assert wait_for(lambda: not batches.empty(), timeout=2.0)
        assert time.monotonic() - began >= 0.15
        batcher.stop()

    def test_oldest_bucket_goes_first_younger_stays_open(self):
        jobs, batches, pool, batcher = started(size=1)
        jobs.submit(make_job(function="busy"))
        assert wait_for(lambda: batches.qsize() == 1)
        jobs.submit(make_job(function="older"))
        jobs.submit(make_job(function="younger"))
        time.sleep(0.05)
        assert batches.qsize() == 1  # the worker is taken: both wait
        pool.finish()
        assert wait_for(lambda: batches.qsize() == 1)
        time.sleep(0.05)
        assert [b.function for b in drain(batches)] == ["older"]
        batcher.stop()
        assert [b.function for b in drain(batches)] == ["younger"]

    def test_one_early_batch_per_spare_worker(self):
        jobs, batches, _, batcher = started(size=3)
        for name in "abcde":
            jobs.submit(make_job(function=name))
        assert wait_for(lambda: batches.qsize() == 3)
        time.sleep(0.05)
        assert [b.function for b in drain(batches)] == ["a", "b", "c"]
        batcher.stop()
        assert [b.function for b in drain(batches)] == ["d", "e"]

    def test_arrivals_under_saturation_leave_as_one_batch(self):
        jobs, batches, pool, batcher = started(size=1)
        first, *rest = [make_job() for _ in range(4)]
        jobs.submit(first)
        assert wait_for(lambda: batches.qsize() == 1)
        for job in rest:
            jobs.submit(job)
        time.sleep(0.05)
        assert batches.qsize() == 1
        pool.finish()  # the wake, not the 30 s window, frees them
        assert wait_for(lambda: batches.qsize() == 1, timeout=1.0)
        (batch,) = drain(batches)
        assert batch.jobs == rest
        batcher.stop()

    def test_every_job_flushed_once_in_order_under_any_interleaving(
        self,
    ):
        """Random arrivals and completions over three keys, two
        workers, all three triggers live: per key, what comes out is
        what went in — nothing lost, duplicated or reordered."""
        import random

        for seed in range(12):
            rng = random.Random(seed)
            jobs, batches, pool, batcher = started(
                size=2, window=rng.choice([0.001, 0.005, 30.0]),
                max_batch=rng.choice([2, 5, 32]),
            )
            sent = {"a": [], "b": [], "c": []}
            for _ in range(150):
                if rng.random() < 0.6:
                    name = rng.choice("abc")
                    job = make_job(function=name)
                    sent[name].append(job.job_id)
                    jobs.submit(job)
                elif not batches.empty():
                    pool.finish()
                if rng.random() < 0.1:
                    time.sleep(0.002)
            assert batcher.stop()
            out = pool.finished + drain(batches)
            assert all(0 < len(b) <= batcher.max_batch for b in out)
            got = {
                name: [
                    j.job_id
                    for b in out if b.function == name
                    for j in b.jobs
                ]
                for name in sent
            }
            assert got == sent, f"seed {seed}"


class TestEventDrivenLoop:
    def test_idle_batcher_does_not_poll(self):
        jobs, batches = JobQueue(8), _queue.Queue()
        calls = []
        pop = jobs.pop

        def counting_pop(timeout=None):
            calls.append(timeout)
            return pop(timeout=timeout)

        jobs.pop = counting_pop
        batcher = Batcher(jobs, batches, window=0.001)
        batcher.start()
        time.sleep(0.2)
        assert len(calls) <= 5
        assert batcher.stop()

    def test_stop_is_prompt_under_a_long_window(self):
        jobs, batches = JobQueue(8), _queue.Queue()
        batcher = Batcher(jobs, batches, window=60.0, max_batch=1000)
        batcher.start()
        for _ in range(3):
            jobs.submit(make_job())
        assert wait_for(lambda: jobs.depth() == 0)
        began = time.monotonic()
        assert batcher.stop(drain_timeout=5.0)
        assert time.monotonic() - began < 0.2
        assert sum(len(b) for b in drain(batches)) == 3
