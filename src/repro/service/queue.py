"""Jobs, handles and the bounded submission queue.

Admission control happens at the front door: a full queue (or a
draining service) rejects the submission synchronously with a reason,
instead of buffering without bound — under overload the caller learns
immediately and can back off.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Deque, Dict, Optional, Tuple


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

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until done; False if ``timeout`` elapsed first."""
        return self._done.wait(timeout)

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

    @property
    def error(self) -> Optional[BaseException]:
        """The delivered error, if any (None while pending)."""
        return self._error


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
    retries_left: int = 0
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


class JobQueue:
    """Bounded FIFO of admitted jobs, with reject-with-reason."""

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._jobs: Deque[Job] = deque()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._woken = False
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

    def pop(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Next job, or None after ``timeout`` seconds of emptiness
        (``None`` waits without limit) or a :meth:`wake`."""
        with self._not_empty:
            if not self._jobs and not self._woken:
                self._not_empty.wait(timeout)
            self._woken = False
            if not self._jobs:
                return None
            return self._jobs.popleft()

    def wake(self) -> None:
        """End the consumer's current ``pop`` or, if it is between
        two, its next: something it plans by (a worker freed, a stop
        request) changed. The flag keeps the wake from being lost."""
        with self._lock:
            self._woken = True
            self._not_empty.notify_all()

    def depth(self) -> int:
        """Jobs currently waiting."""
        with self._lock:
            return len(self._jobs)

    def close(self) -> None:
        """Stop admitting; queued jobs still drain."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    @property
    def closed(self) -> bool:
        """Is the queue refusing new submissions?"""
        with self._lock:
            return self._closed
