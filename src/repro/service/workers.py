"""The worker pool: N threads, one engine each, shared kernel cache.

Each worker owns a full :class:`~repro.runtime.engine.Engine` (the
engines share one kernel cache, so a function compiled by any worker
is a hit for all). A free worker takes its own batch from the job
queue (:meth:`~repro.service.queue.JobQueue.take_batch`) and executes
it through :meth:`~repro.runtime.engine.Engine.map_run` — the paper's
batched ``map`` path, not a serial loop of one-off runs.

Failure policy: a batch makes at most ``MAX_RETRIES + 1`` attempts,
and each failed attempt is classified (see :func:`classify_failure`):

* DSL errors (parse/type/schedule/runtime-DSL, including
  :class:`~repro.gpu.executor.RaceError` and
  :class:`~repro.lang.errors.BackendDivergenceError`) are
  *permanent*: the input — or the compiler — is wrong, retrying
  cannot help, every job in the batch fails immediately;
* :class:`~repro.resilience.faults.DeviceFault` is *device-transient*:
  retried with exponential backoff, and on the last attempt the batch
  is **demoted** to the serial reference interpreter (graceful
  degradation — slow but fault-free), recorded in
  :class:`~repro.service.stats.ServiceStats`;
* environmental errors (``OSError``/``MemoryError``/``TimeoutError``)
  are *transient*: retried with exponential backoff, and on the last
  attempt the batch fails;
* any other exception is treated as permanent — unknown failures
  fail fast rather than burn retries;
* a job whose per-job timeout has passed is failed with
  :class:`~repro.service.queue.JobTimeoutError` before an attempt
  starts — a batch already executing is never preempted (threads
  cannot be killed safely), so a timeout bounds *queue + retry* wait,
  not one engine call.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Callable, List, Optional

from ..lang.errors import DslError
from ..resilience.faults import DeviceFault
from ..resilience.reference import serial_reference_run
from ..runtime.engine import Engine
from .programs import ProgramRegistry
from .queue import (
    Batch,
    DeadlineError,
    Job,
    JobQueue,
    JobState,
    JobTimeoutError,
)
from .stats import StatsRegistry

#: How many times a batch is retried after a device or transient
#: failure; the last of its ``MAX_RETRIES + 1`` attempts demotes or fails.
MAX_RETRIES = 2

#: Upper bound, in seconds, on one retry's backoff sleep.
BACKOFF_CAP_SECONDS = 1.0


def classify_failure(error: BaseException) -> str:
    """Classify one batch-attempt failure for the retry policy.

    Returns ``"permanent"`` (fail fast, never retry), ``"device"``
    (transient device fault: retry, demote on the last attempt) or
    ``"transient"`` (environmental: retry, fail on the last attempt).
    DslError is checked first: BackendDivergenceError subclasses both
    worlds conceptually but *is* a DslError — a compiler bug must
    never be retried.
    """
    if isinstance(error, DslError):
        return "permanent"
    if isinstance(error, DeviceFault):
        return "device"
    if isinstance(error, (OSError, MemoryError, TimeoutError)):
        return "transient"
    return "permanent"


def backoff_delay(
    base: float, round_index: int, cap: float, token: str
) -> float:
    """Exponential backoff with *deterministic* jitter.

    ``base * 2**round`` scaled by a factor in ``[0.5, 1.5)`` derived
    from ``sha256(token | round)`` — so concurrent batches desynchronise
    (no thundering-herd retry waves) while any given (batch, round)
    always sleeps the same amount, keeping chaos runs reproducible.
    """
    digest = hashlib.sha256(
        f"{token}|{round_index}".encode("utf-8")
    ).hexdigest()
    unit = int(digest[:8], 16) / float(0xFFFFFFFF)
    return min(cap, base * (2.0 ** round_index) * (0.5 + unit))


class WorkerPool:
    """N threads, each taking batches of up to ``max_batch`` jobs
    from ``jobs`` until it is closed and empty."""

    def __init__(
        self,
        jobs: JobQueue,
        engine_factory: Callable[[], Engine],
        registry: ProgramRegistry,
        stats: StatsRegistry,
        workers: int = 4,
        max_batch: int = 64,
        backoff_seconds: float = 0.05,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.jobs = jobs
        self.max_batch = max_batch
        self.engine_factory = engine_factory
        self.registry = registry
        self.stats = stats
        self.backoff_seconds = backoff_seconds
        #: The engines (or supervisors) the worker threads built —
        #: the stats endpoint sums ``native_demotions`` across them.
        self.engines: List[object] = []
        self._engines_lock = threading.Lock()
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-worker-{index}",
                daemon=True,
            )
            for index in range(workers)
        ]
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start every worker thread (idempotent)."""
        if self._started:
            return
        self._started = True
        for thread in self._threads:
            thread.start()

    def shutdown(self, timeout: Optional[float] = 10.0) -> None:
        """Close the queue and wait for the workers to drain it and
        stop: at most ``timeout`` seconds, or for as long as that
        takes when it is None."""
        self.jobs.close()
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            if not self._started:
                break
            thread.join(
                None if deadline is None
                else max(0.0, deadline - time.monotonic())
            )

    @property
    def size(self) -> int:
        """Number of worker threads."""
        return len(self._threads)

    # -- execution -----------------------------------------------------------

    def native_demotions(self) -> int:
        """Launches the worker engines re-routed off native after a
        sandbox crash/hang or an open circuit breaker."""
        with self._engines_lock:
            return sum(
                getattr(engine, "native_demotions", 0)
                for engine in self.engines
            )

    def _worker_loop(self) -> None:
        engine = self.engine_factory()
        with self._engines_lock:
            self.engines.append(engine)
        while True:
            batch = self.jobs.take_batch(self.max_batch)
            if batch is None:
                return
            self.execute_batch(engine, batch)

    def execute_batch(self, engine: Engine, batch: Batch) -> None:
        """Run one batch to completion (public for tests/tools)."""
        try:
            program = self.registry.get(batch.program_sha)
            func = program.function(batch.function)
        except Exception as err:
            self._fail_jobs(batch.jobs, err)
            return
        at = dict(batch.key[2])
        initial = dict(batch.key[3])
        reduce = batch.key[4]

        live = list(batch.jobs)
        backoff_token = f"{batch.program_sha}:{batch.function}"
        for attempt in range(MAX_RETRIES + 1):
            # Until the first launch is attempted, an expired deadline
            # means the job was *shed* (queue wait ate its whole
            # budget) rather than timed out mid-retry.
            live = self._expire(live, shed=attempt == 0)
            if not live:
                return
            for job in live:
                job.handle.state = JobState.RUNNING
            try:
                result = engine.map_run(
                    func,
                    {},
                    [job.bindings for job in live],
                    at=at or None,
                    initial=initial or None,
                    reduce=reduce,
                    user_schedule=program.user_schedule(batch.function),
                )
            except Exception as err:
                kind = classify_failure(err)
                if kind == "permanent":
                    # Bad input or a compiler bug — retrying cannot
                    # change a deterministic outcome.
                    self._fail_jobs(live, err)
                    return
                if kind == "device":
                    self.stats.device_fault()
                if attempt == MAX_RETRIES:
                    if kind == "device":
                        # The device kept misbehaving on this batch:
                        # stop trusting it, finish on the serial
                        # reference interpreter.
                        self._demote(live, func, at, initial, reduce)
                    else:
                        self._fail_jobs(live, err)
                    return
                self.stats.retry()
                time.sleep(
                    backoff_delay(
                        self.backoff_seconds, attempt,
                        BACKOFF_CAP_SECONDS, backoff_token,
                    )
                )
                continue
            now = time.monotonic()
            self.stats.batch_executed(len(live))
            for job, value in zip(live, result.values):
                latency = job.age(now)
                job.handle.resolve(value, latency)
                self.stats.job_completed(latency)
            return

    # -- helpers -------------------------------------------------------------

    def _expire(
        self, jobs: List[Job], shed: bool = False
    ) -> List[Job]:
        """Drop jobs whose deadline has passed.

        ``shed=True`` marks the pre-first-launch check: the job is
        rejected with :class:`DeadlineError` and counted as shed —
        the service declined the work — instead of as a mid-retry
        timeout.
        """
        now = time.monotonic()
        live: List[Job] = []
        for job in jobs:
            if job.expired(now):
                if shed:
                    error: JobTimeoutError = DeadlineError(
                        f"job {job.job_id} deadline expired before "
                        f"launch (waited {job.age(now):.3f}s of its "
                        f"{job.timeout}s budget); shed"
                    )
                else:
                    error = JobTimeoutError(
                        f"job {job.job_id} exceeded its "
                        f"{job.timeout}s timeout after waiting "
                        f"{job.age(now):.3f}s"
                    )
                job.handle.reject(
                    error,
                    state=JobState.TIMED_OUT,
                    latency=job.age(now),
                )
                if shed:
                    self.stats.job_shed()
                else:
                    self.stats.job_timed_out()
            else:
                live.append(job)
        return live

    def _demote(
        self,
        jobs: List[Job],
        func,
        at: dict,
        initial: dict,
        reduce: Optional[str],
    ) -> None:
        """Finish ``jobs`` on the serial reference interpreter.

        The last rung of graceful degradation: no kernels, no device,
        no injection surface. Each job is solved independently; a job
        the interpreter also rejects fails permanently.
        """
        jobs = self._expire(jobs)
        for job in jobs:
            try:
                value = serial_reference_run(
                    func,
                    job.bindings,
                    at=at or None,
                    initial=initial or None,
                    reduce=reduce,
                )
            except Exception as err:
                self._fail_jobs([job], err)
                continue
            self.stats.demotion()
            latency = job.age()
            job.handle.resolve(value, latency)
            self.stats.job_completed(latency)

    def _fail_jobs(self, jobs: List[Job], error: BaseException) -> None:
        for job in jobs:
            job.handle.reject(error, latency=job.age())
            self.stats.job_failed()
