"""Service observability: counters, batch sizes, latency percentiles.

One :class:`StatsRegistry` per service; every component ticks it under
its own lock. :meth:`StatsRegistry.snapshot` produces the immutable
:class:`ServiceStats` the CLI and the HTTP ``/stats`` endpoint print.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import asdict, dataclass
from typing import Deque, Dict, Optional

from .cache import CacheInfo

#: The latency percentiles are over this many most recent jobs.
LATENCY_WINDOW = 4096


def percentile(samples, fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(
        0, min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))
    )
    return ordered[rank]


@dataclass(frozen=True)
class ServiceStats:
    """One immutable snapshot of the service."""

    submitted: int
    rejected: int
    completed: int
    failed: int
    timed_out: int
    #: Jobs whose deadline expired before any launch was attempted
    #: (dequeue-time / pre-launch shedding) — work the service
    #: declined, not work that failed.
    shed: int
    retries: int
    device_faults: int
    demotions: int
    #: Sandbox worker subprocesses that died (or were deadline-killed)
    #: mid-launch, and launches re-routed off the native backend after
    #: a crash or an open circuit breaker.
    worker_crashes: int
    demotions_native: int
    batches: int
    batched_jobs: int
    mean_batch_size: float
    max_batch_size: int
    #: Jobs admitted and not yet started: a job stays in the queue
    #: until a worker takes it, so this counts every one of them and
    #: is what ``queue_capacity`` bounds.
    queue_depth: int
    p50_latency_seconds: float
    p95_latency_seconds: float
    cache_hits: int
    cache_misses: int
    cache_hit_rate: float
    cache_disk_hits: int
    cache_evictions: int

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict form."""
        return asdict(self)

    def render(self) -> str:
        """Human-readable multi-line form (CLI ``--stats``)."""
        lines = [
            "service stats",
            f"  jobs        submitted={self.submitted} "
            f"completed={self.completed} failed={self.failed} "
            f"timed_out={self.timed_out} shed={self.shed} "
            f"rejected={self.rejected} "
            f"retries={self.retries}",
            f"  resilience  device_faults={self.device_faults} "
            f"demotions={self.demotions} "
            f"worker_crashes={self.worker_crashes} "
            f"demotions_native={self.demotions_native}",
            f"  queue       depth={self.queue_depth}",
            f"  batching    batches={self.batches} "
            f"jobs={self.batched_jobs} "
            f"mean_size={self.mean_batch_size:.2f} "
            f"max_size={self.max_batch_size}",
            f"  latency     p50={self.p50_latency_seconds * 1e3:.2f}ms "
            f"p95={self.p95_latency_seconds * 1e3:.2f}ms",
            f"  kernel-cache hits={self.cache_hits} "
            f"misses={self.cache_misses} "
            f"hit_rate={self.cache_hit_rate:.0%} "
            f"disk_hits={self.cache_disk_hits} "
            f"evictions={self.cache_evictions}",
        ]
        return "\n".join(lines)


class StatsRegistry:
    """Thread-safe mutable counters behind the snapshots."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.submitted = 0
        self.rejected = 0
        self.completed = 0
        self.failed = 0
        self.timed_out = 0
        self.shed = 0
        self.retries = 0
        self.device_faults = 0
        self.demotions = 0
        self.batches = 0
        self.batched_jobs = 0
        self.max_batch_size = 0
        self._latencies: Deque[float] = deque(maxlen=LATENCY_WINDOW)

    # -- ticks ---------------------------------------------------------------

    def job_submitted(self) -> None:
        """A job passed admission control."""
        with self._lock:
            self.submitted += 1

    def job_rejected(self) -> None:
        """A submission was refused at admission (queue full/closed)."""
        with self._lock:
            self.rejected += 1

    def job_completed(self, latency_seconds: float) -> None:
        """A job resolved successfully after ``latency_seconds``."""
        with self._lock:
            self.completed += 1
            self._latencies.append(latency_seconds)

    def job_failed(self) -> None:
        """A job failed permanently (bad input or retries exhausted)."""
        with self._lock:
            self.failed += 1

    def job_timed_out(self) -> None:
        """A job's deadline passed while it was being retried."""
        with self._lock:
            self.timed_out += 1

    def job_shed(self) -> None:
        """A job's deadline expired before any launch was attempted."""
        with self._lock:
            self.shed += 1

    def retry(self) -> None:
        """A batch attempt hit a transient error and will rerun."""
        with self._lock:
            self.retries += 1

    def device_fault(self) -> None:
        """A batch attempt failed with a (simulated) device fault."""
        with self._lock:
            self.device_faults += 1

    def demotion(self) -> None:
        """A job was demoted to the serial reference interpreter."""
        with self._lock:
            self.demotions += 1

    def batch_executed(self, size: int) -> None:
        """A batch of ``size`` jobs ran as one ``map`` launch."""
        with self._lock:
            self.batches += 1
            self.batched_jobs += size
            self.max_batch_size = max(self.max_batch_size, size)

    # -- snapshot ------------------------------------------------------------

    def snapshot(
        self,
        queue_depth: int = 0,
        cache_info: Optional[CacheInfo] = None,
        worker_crashes: int = 0,
        demotions_native: int = 0,
    ) -> ServiceStats:
        """The current :class:`ServiceStats`.

        ``worker_crashes``/``demotions_native`` are snapshot *inputs*
        (the sandbox module and the pool's engines own those
        counters), so the registry never double-counts them.
        """
        cache = cache_info or CacheInfo(0, 0, 0, 0, 0, 0, 0, 0)
        with self._lock:
            lookups = cache.hits + cache.misses
            return ServiceStats(
                submitted=self.submitted,
                rejected=self.rejected,
                completed=self.completed,
                failed=self.failed,
                timed_out=self.timed_out,
                shed=self.shed,
                retries=self.retries,
                device_faults=self.device_faults,
                demotions=self.demotions,
                worker_crashes=worker_crashes,
                demotions_native=demotions_native,
                batches=self.batches,
                batched_jobs=self.batched_jobs,
                mean_batch_size=(
                    self.batched_jobs / self.batches
                    if self.batches
                    else 0.0
                ),
                max_batch_size=self.max_batch_size,
                queue_depth=queue_depth,
                p50_latency_seconds=percentile(self._latencies, 0.50),
                p95_latency_seconds=percentile(self._latencies, 0.95),
                cache_hits=cache.hits,
                cache_misses=cache.misses,
                cache_hit_rate=(
                    cache.hits / lookups if lookups else 0.0
                ),
                cache_disk_hits=cache.disk_hits,
                cache_evictions=cache.evictions,
            )
