"""Service-tier fault tolerance: deadlines, shedding, drain, backoff.

Request deadlines propagate from the HTTP layer (JSON field or
``X-Repro-Timeout`` header) through queue wait into execution; jobs
whose budget is eaten before any launch are *shed* (504 with
``shed: true``, counted separately from timeouts); a full queue sheds
load with 503 + ``Retry-After``; ``/healthz`` and ``/readyz`` split
liveness from readiness; SIGTERM drains gracefully.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.service.queue import DeadlineError, JobTimeoutError
from repro.service.server import (
    ComputeService,
    make_http_server,
    serve_in_thread,
    submit_remote,
)
from repro.service.workers import backoff_delay

from .conftest import EDIT_PROGRAM, workers_held
from .test_batcher import wait_for


def http_get(host, port, path):
    connection = http.client.HTTPConnection(host, port, timeout=10)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        payload = json.loads(response.read().decode("utf-8"))
        return response.status, dict(response.headers), payload
    finally:
        connection.close()


def http_post(host, port, path, payload, headers=None):
    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        body = json.dumps(payload).encode("utf-8")
        connection.request(
            "POST", path, body=body,
            headers={"Content-Type": "application/json",
                     **(headers or {})},
        )
        response = connection.getresponse()
        reply = json.loads(response.read().decode("utf-8"))
        return response.status, dict(response.headers), reply
    finally:
        connection.close()


@pytest.fixture
def http_service():
    service = ComputeService(workers=1, batch_window=0.005)
    server = make_http_server(service, "127.0.0.1", 0)
    serve_in_thread(server)
    host, port = server.server_address[:2]
    yield host, port, service
    server.shutdown()
    server.server_close()
    service.shutdown()


class TestHealthEndpoints:
    def test_healthz_always_ok(self, http_service):
        host, port, _ = http_service
        status, _, payload = http_get(host, port, "/healthz")
        assert status == 200 and payload["ok"] is True

    def test_readyz_ok_then_503_when_draining(self, http_service):
        host, port, service = http_service
        status, _, payload = http_get(host, port, "/readyz")
        assert status == 200 and payload["ok"] is True
        service.begin_drain()
        status, headers, payload = http_get(host, port, "/readyz")
        assert status == 503
        assert payload["ok"] is False
        assert headers["Retry-After"] == "1"
        # Liveness stays green while draining: kill -9 now would lose
        # in-flight work.
        status, _, _ = http_get(host, port, "/healthz")
        assert status == 200

    def test_draining_service_rejects_submissions(self, http_service):
        host, port, service = http_service
        service.begin_drain()
        status, headers, reply = http_post(
            host, port, "/submit",
            {"program": EDIT_PROGRAM, "function": "d",
             "args": {"s": "kitten", "t": "sitting"}},
        )
        assert status == 503
        assert reply["rejected"] is True
        assert headers["Retry-After"] == "1"


class TestDeadlinePropagation:
    def test_header_timeout_used_when_body_has_none(
        self, http_service
    ):
        host, port, _ = http_service
        status, _, reply = http_post(
            host, port, "/submit",
            {"program": EDIT_PROGRAM, "function": "d",
             "args": {"s": "kitten", "t": "sitting"}},
            headers={"X-Repro-Timeout": "30"},
        )
        assert status == 200
        assert reply["value"] == 3

    def test_bad_header_timeout_is_400(self, http_service):
        host, port, _ = http_service
        status, _, reply = http_post(
            host, port, "/submit",
            {"program": EDIT_PROGRAM, "function": "d",
             "args": {"s": "kitten", "t": "sitting"}},
            headers={"X-Repro-Timeout": "soon"},
        )
        assert status == 400
        assert "X-Repro-Timeout" in reply["error"]

    def test_expired_deadline_is_504_shed(self, http_service):
        host, port, service = http_service
        # A microscopic budget and no worker free to take the job:
        # the wait for one eats it, so the job is shed — at dequeue
        # or just before launch, never launched.
        result = []
        post = threading.Thread(
            target=lambda: result.extend(http_post(
                host, port, "/submit",
                {"program": EDIT_PROGRAM, "function": "d",
                 "args": {"s": "kitten", "t": "sitting"},
                 "timeout": 0.0005},
            ))
        )
        with workers_held(service):
            post.start()
            assert wait_for(lambda: service.stats().submitted == 1)
            time.sleep(0.005)
        post.join(30)
        status, _, reply = result
        assert status == 504
        assert reply["timed_out"] is True
        assert reply["shed"] is True
        stats = service.stats()
        assert stats.shed >= 1
        assert stats.failed == 0  # declined work is not failed work

    def test_deadline_error_is_a_job_timeout(self):
        assert issubclass(DeadlineError, JobTimeoutError)


class TestQueueFullShedding:
    def test_admission_rejection_carries_retry_after(self):
        """One admitted job holds the only queue slot — the batcher
        is parked so it cannot dequeue it — and the next submit is
        refused at admission. (Racing several submitters against the
        batcher's dequeue instead was a coin toss under load.)"""
        service = ComputeService(workers=1, queue_capacity=1)
        server = make_http_server(service, "127.0.0.1", 0)
        serve_in_thread(server)
        host, port = server.server_address[:2]
        pop = service.jobs.pop
        parked = threading.Event()

        def held(timeout=None):
            parked.set()
            time.sleep(0.005)

        service.jobs.pop = held
        try:
            # Past this point the batcher's calls all land in held().
            assert parked.wait(timeout=10)
            service.submit(
                EDIT_PROGRAM, "d", {"s": "kitten", "t": "sitting"}
            )
            assert service.jobs.depth() == 1
            status, headers, reply = http_post(
                host, port, "/submit",
                {"program": EDIT_PROGRAM, "function": "d",
                 "args": {"s": "kitten", "t": "sitting"}},
            )
            assert status == 503
            assert headers["Retry-After"] == "1"
            assert reply["rejected"] is True
            assert service.stats().rejected == 1
        finally:
            service.jobs.pop = pop
            server.shutdown()
            server.server_close()
            service.shutdown(drain=False)


class TestGracefulSigterm:
    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        """A real OS-level SIGTERM: the serve process stops accepting,
        finishes in-flight work, prints final stats, exits cleanly."""
        script = textwrap.dedent(
            """
            import sys, threading
            from repro.service.server import (
                ComputeService, install_signal_handlers,
                make_http_server,
            )
            service = ComputeService(workers=1)
            server = make_http_server(service, "127.0.0.1", 0)
            install_signal_handlers(server, service)
            print(server.server_address[1], flush=True)
            server.serve_forever()
            print("drained", flush=True)
            """
        )
        env = dict(os.environ)
        src_root = os.path.join(
            os.path.dirname(
                os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
            ),
            "src",
        )
        env["PYTHONPATH"] = (
            src_root + os.pathsep + env.get("PYTHONPATH", "")
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        try:
            port = int(proc.stdout.readline())
            reply = submit_remote(
                "127.0.0.1", port, EDIT_PROGRAM, "d",
                args={"s": "kitten", "t": "sitting"},
            )
            assert reply["value"] == 3
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=30)
            assert proc.returncode == 0
            assert b"drained" in out
            assert b"service stats" in err  # final snapshot flushed
            assert b"completed=1" in err
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


class TestBackoffDelay:
    def test_deterministic_for_token_and_round(self):
        a = backoff_delay(0.05, 2, 1.0, "sha:func")
        b = backoff_delay(0.05, 2, 1.0, "sha:func")
        assert a == b

    def test_jitter_separates_tokens(self):
        delays = {
            backoff_delay(0.05, 1, 10.0, f"batch-{i}")
            for i in range(16)
        }
        assert len(delays) == 16  # no thundering herd

    def test_exponential_growth_with_cap(self):
        base = backoff_delay(0.05, 0, 100.0, "t")
        doubled = backoff_delay(0.05, 1, 100.0, "t")
        assert 0.025 <= base < 0.075  # 0.05 * [0.5, 1.5)
        assert doubled > base
        assert backoff_delay(0.05, 30, 1.0, "t") == 1.0  # capped

    def test_jitter_window_is_half_to_three_halves(self):
        for round_index in range(6):
            delay = backoff_delay(1.0, round_index, 1e9, "w")
            assert 0.5 * 2**round_index <= delay < 1.5 * 2**round_index
