"""Jobs, handles and the bounded admission queue."""

import threading
import time

import pytest

from repro.service.queue import (
    AdmissionError,
    Job,
    JobQueue,
    JobState,
    JobTimeoutError,
)


def make_job(**overrides):
    fields = dict(
        program_sha="sha",
        function="d",
        bindings={},
        at={},
        initial={},
    )
    fields.update(overrides)
    return Job(**fields)


class TestJob:
    def test_ids_unique(self):
        assert make_job().job_id != make_job().job_id

    def test_group_key_groups_compatible_jobs(self):
        a = make_job(bindings={"s": "x"})
        b = make_job(bindings={"s": "y"})
        assert a.group_key == b.group_key

    def test_group_key_separates_functions_and_coords(self):
        base = make_job()
        assert make_job(function="g").group_key != base.group_key
        assert make_job(at={"i": 3}).group_key != base.group_key
        assert make_job(reduce="max").group_key != base.group_key
        assert (
            make_job(program_sha="other").group_key != base.group_key
        )

    def test_no_timeout_never_expires(self):
        assert not make_job().expired()

    def test_expired_after_deadline(self):
        job = make_job(timeout=0.0001)
        assert job.expired(now=job.submitted_at + 1.0)
        assert not job.expired(now=job.submitted_at)


class TestJobHandle:
    def test_resolve(self):
        job = make_job()
        job.handle.resolve(42, latency=0.5)
        assert job.handle.result() == 42
        assert job.handle.state is JobState.COMPLETED
        assert job.handle.latency_seconds == 0.5

    def test_reject_raises_on_result(self):
        job = make_job()
        job.handle.reject(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            job.handle.result()
        assert job.handle.state is JobState.FAILED

    def test_result_timeout(self):
        job = make_job()
        with pytest.raises(JobTimeoutError):
            job.handle.result(timeout=0.01)

    def test_wait_from_other_thread(self):
        job = make_job()
        threading.Timer(
            0.02, job.handle.resolve, args=(7, 0.02)
        ).start()
        assert job.handle.result(timeout=5.0) == 7


class TestJobQueue:
    def test_fifo(self):
        queue = JobQueue(capacity=4)
        first, second = make_job(), make_job()
        queue.submit(first)
        queue.submit(second)
        assert queue.pop() is first
        assert queue.pop() is second

    def test_admission_control_rejects_with_reason(self):
        queue = JobQueue(capacity=2)
        queue.submit(make_job())
        queue.submit(make_job())
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit(make_job())
        assert "queue full" in excinfo.value.reason
        assert queue.depth() == 2

    def test_closed_queue_rejects(self):
        queue = JobQueue(capacity=2)
        queue.close()
        with pytest.raises(AdmissionError) as excinfo:
            queue.submit(make_job())
        assert "shutting down" in excinfo.value.reason

    def test_close_still_drains(self):
        queue = JobQueue(capacity=2)
        job = make_job()
        queue.submit(job)
        queue.close()
        assert queue.pop() is job

    def test_pop_times_out_empty(self):
        queue = JobQueue(capacity=2)
        assert queue.pop(timeout=0.01) is None

    def test_wake_ends_a_blocked_pop(self):
        queue = JobQueue(capacity=2)
        threading.Timer(0.02, queue.wake).start()
        began = time.monotonic()
        assert queue.pop(timeout=30.0) is None
        assert time.monotonic() - began < 5.0

    def test_wake_between_pops_is_not_lost(self):
        queue = JobQueue(capacity=2)
        queue.wake()
        began = time.monotonic()
        assert queue.pop(timeout=30.0) is None  # the pending wake
        assert time.monotonic() - began < 5.0
        assert queue.pop(timeout=0.01) is None  # spent: times out

    def test_wake_does_not_hide_a_job(self):
        queue = JobQueue(capacity=2)
        job = make_job()
        queue.submit(job)
        queue.wake()
        assert queue.pop(timeout=1.0) is job

    def test_rejects_capacity_below_one(self):
        with pytest.raises(ValueError):
            JobQueue(capacity=0)
