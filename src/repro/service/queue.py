"""Jobs, handles and the bounded submission queue.

Admission control happens at the front door: a full queue (or a
draining service) rejects the submission synchronously with a reason,
instead of buffering without bound — under overload the caller learns
immediately and can back off. Every job that has not started counts
against the bound, because jobs stay queued until a worker takes them.

Batching is the queue's other half. A worker that is free takes the
oldest job together with every queued job that shares its
:attr:`Job.group_key` (:meth:`JobQueue.take_batch`), and runs them as
one batched ``map`` launch — the paper's many-problem primitive
(Section 4.7). No job waits for a timer: a lone request meets an idle
worker at once, and batches grow with load because jobs pile up while
every worker is busy.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Deque, Dict, List, Optional, Tuple


class AdmissionError(RuntimeError):
    """The queue refused a submission; ``reason`` says why."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class JobTimeoutError(RuntimeError):
    """The job missed its deadline before (or while) executing."""


class DeadlineError(JobTimeoutError):
    """The job's deadline expired before it was ever launched.

    Raised by the dequeue-time and pre-launch deadline checks: the
    work was *shed* — no launch was attempted on its behalf — which
    the stats count separately from jobs that timed out mid-retry.
    The HTTP layer maps it (like any ``JobTimeoutError``) to 504.
    """


class JobState(Enum):
    """Lifecycle of a submitted job."""

    PENDING = "pending"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    TIMED_OUT = "timed_out"


class JobHandle:
    """The caller's side of one job: wait, then read value or error."""

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self.state = JobState.PENDING
        self.latency_seconds: Optional[float] = None
        self._done = threading.Event()
        self._value: object = None
        self._error: Optional[BaseException] = None

    # -- worker side ---------------------------------------------------------

    def resolve(self, value: object, latency: float) -> None:
        """Deliver a successful result."""
        self._value = value
        self.latency_seconds = latency
        self.state = JobState.COMPLETED
        self._done.set()

    def reject(
        self,
        error: BaseException,
        state: JobState = JobState.FAILED,
        latency: Optional[float] = None,
    ) -> None:
        """Deliver a failure (or timeout)."""
        self._error = error
        self.latency_seconds = latency
        self.state = state
        self._done.set()

    # -- caller side ---------------------------------------------------------

    def done(self) -> bool:
        """Has the job finished (either way)?"""
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> object:
        """The job's value; raises its error, or ``JobTimeoutError``
        if it is not done within ``timeout`` seconds."""
        if not self._done.wait(timeout):
            raise JobTimeoutError(
                f"job {self.job_id} not done after {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._value


def job_timeout(value: object) -> Optional[float]:
    """A job's timeout in seconds: a finite number > 0, or None.

    Anything else (a string, a bool, NaN, infinity, zero or a negative
    number) raises :class:`ValueError`, so a bad deadline is refused
    before the job is admitted.
    """
    if value is None:
        return None
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or value <= 0
    ):
        raise ValueError(
            f"timeout must be a finite number of seconds > 0, "
            f"got {value!r}"
        )
    return float(value)


#: Everything jobs must share to ride in one batched ``map`` run.
GroupKey = Tuple[str, str, Tuple[Tuple[str, int], ...],
                 Tuple[Tuple[str, int], ...], Optional[str]]

_job_ids = itertools.count(1)


@dataclass
class Job:
    """One bound, admitted unit of work."""

    program_sha: str
    function: str
    bindings: Dict[str, object]
    at: Dict[str, int]
    initial: Dict[str, int]
    reduce: Optional[str] = None
    timeout: Optional[float] = None
    job_id: str = field(
        default_factory=lambda: f"job-{next(_job_ids)}"
    )
    submitted_at: float = field(default_factory=time.monotonic)
    handle: JobHandle = field(init=False)

    def __post_init__(self) -> None:
        self.handle = JobHandle(self.job_id)

    @property
    def deadline(self) -> Optional[float]:
        """Monotonic deadline, or None for no per-job timeout."""
        if self.timeout is None:
            return None
        return self.submitted_at + self.timeout

    def expired(self, now: Optional[float] = None) -> bool:
        """Has the per-job timeout passed?"""
        deadline = self.deadline
        if deadline is None:
            return False
        return (now if now is not None else time.monotonic()) > deadline

    @property
    def group_key(self) -> GroupKey:
        """Batching key: jobs with equal keys coalesce into one
        ``map`` run (same program, function and result-extraction
        coordinates)."""
        return (
            self.program_sha,
            self.function,
            tuple(sorted(self.at.items())),
            tuple(sorted(self.initial.items())),
            self.reduce,
        )

    def age(self, now: Optional[float] = None) -> float:
        """Seconds since submission."""
        return (
            now if now is not None else time.monotonic()
        ) - self.submitted_at


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


class JobQueue:
    """Bounded FIFO of admitted jobs, with reject-with-reason, taken
    a batch at a time."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._jobs: Deque[Job] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._closed = False

    def submit(self, job: Job) -> None:
        """Admit ``job`` or raise :class:`AdmissionError`."""
        with self._lock:
            if self._closed:
                raise AdmissionError("service is shutting down")
            if len(self._jobs) >= self.capacity:
                raise AdmissionError(
                    f"queue full ({self.capacity} jobs waiting); "
                    f"retry later"
                )
            self._jobs.append(job)
            self._not_empty.notify()

    def take_batch(self, max_batch: int) -> Optional[Batch]:
        """Block until a job is queued, then take the oldest job and
        every queued job sharing its group key, oldest first, up to
        ``max_batch``. Jobs of other keys keep their order. Returns
        None once the queue is closed and empty."""
        with self._not_empty:
            while not self._jobs:
                if self._closed:
                    return None
                self._not_empty.wait()
            key = self._jobs[0].group_key
            taken: List[Job] = []
            left: Deque[Job] = deque()
            for job in self._jobs:
                if len(taken) < max_batch and job.group_key == key:
                    taken.append(job)
                else:
                    left.append(job)
            self._jobs = left
            if left:
                # Each submit wakes one taker; pass the turn on, so
                # jobs left behind never wait beside an idle worker.
                self._not_empty.notify()
            return Batch(key, taken)

    def depth(self) -> int:
        """Jobs currently waiting."""
        with self._lock:
            return len(self._jobs)

    def close(self) -> None:
        """Stop admitting; queued jobs still drain, then every
        :meth:`take_batch` returns None."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    @property
    def closed(self) -> bool:
        """Is the queue refusing new submissions?"""
        with self._lock:
            return self._closed
