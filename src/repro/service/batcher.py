"""Coalesce concurrent single-problem requests into ``map`` batches.

The paper's conditional-parallelisation machinery (Section 4.7) packs
many independent problems into one launch; serially executing one-off
requests would waste it. The batcher buckets admitted jobs by their
:attr:`~repro.service.queue.Job.group_key` (same program, function
and extraction coordinates). Packing exists so that no execution
unit sits idle, so the batcher is work-conserving: a bucket leaves
the moment a worker is free to run it, and only while every worker
is busy does it stay open for company — until it reaches
``max_batch`` jobs or its oldest job has waited ``window`` seconds.
Batches therefore grow with load, not with a timer.
"""

from __future__ import annotations

import queue as _queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .queue import DeadlineError, GroupKey, Job, JobQueue, JobState


@dataclass
class Batch:
    """Jobs that will run as one batched ``map`` launch."""

    key: GroupKey
    jobs: List[Job] = field(default_factory=list)

    @property
    def program_sha(self) -> str:
        """The shared program hash."""
        return self.key[0]

    @property
    def function(self) -> str:
        """The shared function name."""
        return self.key[1]

    def __len__(self) -> int:
        return len(self.jobs)


#: With no bucket open only a job or a wake brings work; the batcher
#: still looks up this often, so that a ``jobs.pop`` swapped in by a
#: test or a tool is picked up without either.
IDLE_HEARTBEAT = 0.25


class Batcher(threading.Thread):
    """Pulls jobs off the admission queue into keyed buckets.

    A bucket leaves as one :class:`Batch` on the first of: ``spare()``
    reports an idle worker and it is the oldest open bucket (one batch
    per spare worker); it holds ``max_batch`` jobs; its first job has
    waited ``window`` seconds. ``spare`` defaults to "never", which
    leaves size-or-time. Between events the thread sleeps in
    ``jobs.pop``: a job, a :meth:`JobQueue.wake` (a worker finished,
    :meth:`stop`) or the oldest bucket's window ends the wait.

    Runs as a daemon thread; :meth:`stop` drains every open bucket so
    no admitted job is lost on shutdown.
    """

    def __init__(
        self,
        jobs: JobQueue,
        batches: "_queue.Queue[Optional[Batch]]",
        window: float = 0.01,
        max_batch: int = 32,
        stats=None,
        spare: Callable[[], int] = lambda: 0,
    ) -> None:
        super().__init__(name="repro-batcher", daemon=True)
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.jobs = jobs
        self.batches = batches
        self.window = max(0.0, window)
        self.max_batch = max_batch
        self.stats = stats
        self.spare = spare
        self._buckets: Dict[GroupKey, List[Job]] = {}
        #: Opening time per open bucket; insertion order is age order.
        self._opened: Dict[GroupKey, float] = {}
        self._stop = threading.Event()
        self._drained = threading.Event()

    # -- thread body ---------------------------------------------------------

    def run(self) -> None:
        while True:
            job = self.jobs.pop(timeout=self._patience())
            now = time.monotonic()
            if job is not None:
                self._add(job, now)
            self._flush_ready(now)
            if self._stop.is_set() and job is None:
                # Stop requested and the queue is empty: flush the
                # stragglers and leave.
                if self.jobs.depth() == 0:
                    self._flush_all()
                    self._drained.set()
                    return

    def _patience(self) -> float:
        """How long nothing can change unless a job or a wake arrives:
        until the oldest open bucket's window ends."""
        if self._stop.is_set():
            return 0.0
        oldest = next(iter(self._opened.values()), None)
        if oldest is None:
            return IDLE_HEARTBEAT
        return max(0.0, oldest + self.window - time.monotonic())

    def _add(self, job: Job, now: float) -> None:
        if job.expired(now):
            # Dequeue-time deadline check: a job whose budget was
            # eaten by queue wait is *shed* here — it never reaches a
            # bucket, so no launch is ever attempted on its behalf.
            job.handle.reject(
                DeadlineError(
                    f"job {job.job_id} deadline expired after "
                    f"{job.age(now):.3f}s in the queue "
                    f"(timeout {job.timeout}s); shed before launch"
                ),
                state=JobState.TIMED_OUT,
                latency=job.age(now),
            )
            if self.stats is not None:
                self.stats.job_shed()
            return
        key = job.group_key
        bucket = self._buckets.setdefault(key, [])
        if not bucket:
            self._opened[key] = now
        bucket.append(job)
        if len(bucket) >= self.max_batch:
            self._flush(key)

    def _flush_ready(self, now: float) -> None:
        """Oldest first: buckets whose window has ended, then one per
        spare worker — each flush puts a batch in flight, which is
        what ``spare`` counts."""
        for key, opened in list(self._opened.items()):
            if now - opened < self.window:
                if self.spare() <= 0:
                    return
                # Before feeding an idle worker, step aside once for
                # the submitters that are already running: free when
                # nobody else wants the interpreter, and when many do
                # (a front end at saturation) their jobs are in the
                # queue by the time this thread runs again — bucket
                # those first, so simultaneous requests share a launch.
                time.sleep(0)
                if self.jobs.depth():
                    return
            self._flush(key)

    def _flush_all(self) -> None:
        for key in list(self._buckets):
            self._flush(key)

    def _flush(self, key: GroupKey) -> None:
        bucket = self._buckets.pop(key, None)
        self._opened.pop(key, None)
        if bucket:
            self.batches.put(Batch(key, bucket))

    def capacity_freed(self) -> None:
        """A worker finished a batch (called on its thread): end the
        loop's wait if a bucket is open for that worker to take.
        Race-free without a lock: the worker's ``task_done`` precedes
        this read, so a bucket opened after it sees the capacity."""
        if self._opened:
            self.jobs.wake()

    # -- shutdown ------------------------------------------------------------

    def stop(self, drain_timeout: float = 5.0) -> bool:
        """Flush everything and stop; True if fully drained."""
        self._stop.set()
        if not self.is_alive():
            self._flush_all()
            return True
        self.jobs.wake()
        return self._drained.wait(drain_timeout)
