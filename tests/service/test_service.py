"""End-to-end compute service: batching, determinism, HTTP, overload."""

import threading

import pytest

from repro import Engine, Sequence
from repro.lang.errors import DslError
from repro.runtime import ENGLISH
from repro.service import server as server_module
from repro.service.queue import AdmissionError
from repro.service.server import (
    ComputeService,
    ServiceHTTPServer,
    fetch_remote_stats,
    make_http_server,
    serve_in_thread,
    submit_remote,
)

from .conftest import EDIT_PROGRAM, FORWARD_PROGRAM, workers_held
from .test_batcher import wait_for

WORDS = [
    "kitten", "mitten", "sitting", "sitten", "bitten", "written",
    "smitten", "knitting", "siting", "kit",
]


class TestComputeService:
    def test_single_submission(self):
        with ComputeService(workers=1) as service:
            handle = service.submit(
                EDIT_PROGRAM, "d", {"s": "kitten", "t": "sitting"}
            )
            assert handle.result(timeout=30) == 3

    def test_hundred_concurrent_submissions_batch_and_match_serial(
        self, edit_func
    ):
        """The acceptance demo: >= 100 concurrent submissions complete
        with batched execution (mean batch size > 1) and results
        identical to serial ``Engine.run``."""
        problems = [(w, WORDS[(i + 1) % len(WORDS)])
                    for i, w in enumerate(WORDS * 10)]
        assert len(problems) >= 100

        engine = Engine()
        serial = [
            engine.run(
                edit_func,
                {"s": Sequence(s, ENGLISH), "t": Sequence(t, ENGLISH)},
            ).value
            for s, t in problems
        ]

        with ComputeService(
            workers=4, max_batch=64
        ) as service:
            handles = [None] * len(problems)

            def submit(index, s, t):
                handles[index] = service.submit(
                    EDIT_PROGRAM, "d", {"s": s, "t": t}
                )

            threads = [
                threading.Thread(target=submit, args=(i, s, t))
                for i, (s, t) in enumerate(problems)
            ]
            # 100 submit threads at ~0.2 ms each do not keep four
            # workers busy; batching is what saturation does.
            with workers_held(service):
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            values = [h.result(timeout=60) for h in handles]
            stats = service.stats()

        assert values == serial  # bitwise-identical results
        assert stats.completed == len(problems)
        assert stats.mean_batch_size > 1
        assert stats.batches < len(problems)
        assert stats.p95_latency_seconds >= stats.p50_latency_seconds

    def test_unsaturated_request_does_not_wait_out_the_window(
        self, monkeypatch
    ):
        """Two idle workers and no batch window to wait out: a request
        is taken at once (typically 0.2 ms; the margin is the point),
        and the service's own latency figures agree. Timed without
        injected faults: a chaos leg's killed sandbox worker costs a
        respawn, which is recovery time, not dispatch."""
        import time

        for name in ("RATE", "CORRUPT", "KILL", "HANG", "SEED"):
            monkeypatch.delenv(f"REPRO_CHAOS_{name}", raising=False)
        args = {"s": "kitten", "t": "sitting"}
        with ComputeService(workers=2) as service:
            service.submit(EDIT_PROGRAM, "d", args).result(timeout=30)
            began = time.monotonic()
            value = service.submit(
                EDIT_PROGRAM, "d", args
            ).result(timeout=30)
            assert time.monotonic() - began < 0.25
            assert value == 3
            for _ in range(50):
                service.submit(
                    EDIT_PROGRAM, "d", args
                ).result(timeout=30)
            # 52 samples: the cold first one sits above the p95.
            assert service.stats().p95_latency_seconds < 0.25

    def test_distinct_functions_share_service(self):
        from repro import run_script

        expected = run_script(
            FORWARD_PROGRAM + '\nprint fw(h, h.end, "acgt", 4)\n'
        ).last
        with ComputeService(workers=2) as service:
            edit = service.submit(
                EDIT_PROGRAM, "d", {"s": "kitten", "t": "sitting"}
            )
            forward = service.submit(
                FORWARD_PROGRAM, "fw", {"x": "acgt"}
            )
            assert edit.result(timeout=30) == 3
            # Bitwise-identical to the script-runner's serial result.
            assert forward.result(timeout=30) == expected

    def test_bad_program_rejected_synchronously(self):
        with ComputeService(workers=1) as service:
            with pytest.raises(DslError):
                service.submit("int f(=", "f", {})
            assert service.stats().submitted == 0

    def test_overload_rejected_with_reason(self):
        service = ComputeService(workers=1, queue_capacity=1)
        try:
            with workers_held(service):
                service.submit(
                    EDIT_PROGRAM, "d", {"s": "kitten", "t": "sitting"}
                )
                with pytest.raises(AdmissionError) as excinfo:
                    service.submit(
                        EDIT_PROGRAM, "d",
                        {"s": "kitten", "t": "sitting"},
                    )
                assert "queue full" in excinfo.value.reason
            assert service.stats().rejected == 1
        finally:
            service.shutdown(drain=True, timeout=30)

    def test_shutdown_drains_admitted_jobs(self):
        service = ComputeService(workers=2)
        handles = [
            service.submit(
                EDIT_PROGRAM, "d", {"s": w, "t": "sitting"}
            )
            for w in WORDS
        ]
        service.shutdown(drain=True, timeout=30)
        assert all(h.done() for h in handles)
        assert [h.result(timeout=1) for h in handles[:2]] == [3, 3]

    def test_submissions_after_shutdown_rejected(self):
        service = ComputeService(workers=1)
        service.shutdown()
        with pytest.raises(AdmissionError, match="shutting down"):
            service.submit(
                EDIT_PROGRAM, "d", {"s": "a", "t": "b"}
            )

    def test_persistent_cache_warm_across_services(self, tmp_path):
        with ComputeService(
            workers=1, cache_dir=str(tmp_path)
        ) as warm:
            warm.submit(
                EDIT_PROGRAM, "d", {"s": "kitten", "t": "sitting"}
            ).result(timeout=30)
            assert warm.stats().cache_misses == 1

        with ComputeService(
            workers=1, cache_dir=str(tmp_path)
        ) as cold:
            value = cold.submit(
                EDIT_PROGRAM, "d", {"s": "kitten", "t": "sitting"}
            ).result(timeout=30)
            stats = cold.stats()
        assert value == 3
        assert stats.cache_misses == 0
        assert stats.cache_disk_hits == 1


class TestSaturation:
    """Every worker busy: jobs wait in the one queue, where they are
    bounded and where a freed worker finds them."""

    def test_spaced_arrivals_ride_in_one_batch(self):
        """No timer closes a batch: jobs 50 ms apart, none of them
        able to start, all leave with the first worker freed."""
        import time

        with ComputeService(workers=2) as service:
            with workers_held(service):
                handles = []
                for word in WORDS[:4]:
                    handles.append(service.submit(
                        EDIT_PROGRAM, "d", {"s": word, "t": "sitting"}
                    ))
                    time.sleep(0.05)
            values = [h.result(timeout=30) for h in handles]
            stats = service.stats()
        assert values == [3, 3, 0, 2]
        assert (stats.batches, stats.max_batch_size) == (1, 4)

    def test_queue_capacity_bounds_every_job_not_started(self):
        """Capacity C admits exactly C jobs while no worker is free,
        however slowly they arrive; the rest are refused with a
        reason, and the admitted C all complete once the workers
        are."""
        import time

        capacity = 3
        with ComputeService(
            workers=2, queue_capacity=capacity
        ) as service:
            admitted, refused = [], []
            with workers_held(service):
                for word in WORDS:
                    try:
                        admitted.append(service.submit(
                            EDIT_PROGRAM, "d",
                            {"s": word, "t": "sitting"},
                        ))
                    except AdmissionError as err:
                        refused.append(err.reason)
                    time.sleep(0.01)
                assert service.stats().queue_depth == capacity
            values = [h.result(timeout=30) for h in admitted]
            stats = service.stats()
        assert len(admitted) == capacity
        assert len(refused) == len(WORDS) - capacity
        assert all("queue full" in reason for reason in refused)
        assert values == [3, 3, 0]
        assert stats.rejected == len(refused)

    def test_a_service_runs_its_workers_and_no_other_thread(self):
        before = set(threading.enumerate())
        service = ComputeService(workers=3)
        try:
            started = set(threading.enumerate()) - before
            assert sorted(t.name for t in started) == [
                "repro-worker-0", "repro-worker-1", "repro-worker-2",
            ]
        finally:
            service.shutdown()
        assert not any(thread.is_alive() for thread in started)


@pytest.fixture
def http_service():
    service = ComputeService(workers=2)
    server = make_http_server(service, "127.0.0.1", 0)
    serve_in_thread(server)
    host, port = server.server_address[:2]
    yield host, port, service
    server.shutdown()
    service.shutdown()


class TestHttpFrontEnd:
    def test_submit_round_trip(self, http_service):
        host, port, _ = http_service
        reply = submit_remote(
            host, port, EDIT_PROGRAM, "d",
            args={"s": "kitten", "t": "sitting"},
        )
        assert reply["ok"] is True
        assert reply["value"] == 3
        assert reply["latency_seconds"] > 0
        assert reply["_status"] == 200

    def test_stats_endpoint(self, http_service):
        host, port, _ = http_service
        submit_remote(
            host, port, EDIT_PROGRAM, "d",
            args={"s": "kitten", "t": "sitting"},
        )
        stats = fetch_remote_stats(host, port)
        assert stats["_status"] == 200
        assert stats["completed"] >= 1
        assert 0.0 <= stats["cache_hit_rate"] <= 1.0

    def test_bad_program_is_400(self, http_service):
        host, port, _ = http_service
        reply = submit_remote(host, port, "int f(=", "f")
        assert reply["_status"] == 400
        assert reply["ok"] is False

    def test_bad_program_error_carries_caret_diagnostic(
        self, http_service
    ):
        """The error body is the rendered diagnostic (source line +
        caret), not just the bare message."""
        host, port, _ = http_service
        program = (
            'alphabet en = "ab"\n\n'
            "int f(seq[en] s, index[s] i) = if i == 0 then 0 "
            "else f(i-1) + notdefined\n"
        )
        reply = submit_remote(host, port, program, "f")
        assert reply["_status"] == 400
        error = reply["error"]
        assert "^" in error  # the caret line
        assert "<submit>:" in error  # file:line:column prefix
        assert "notdefined" in error  # the offending source line
        assert reply["message"] in error  # bare message still present

    def test_unknown_path_is_404(self, http_service):
        host, port, _ = http_service
        from repro.service.server import _http_json

        assert _http_json(host, port, "GET", "/nope")["_status"] == 404

    def test_concurrent_http_clients_batch(self, http_service):
        host, port, service = http_service
        replies = [None] * 24

        def call(index):
            replies[index] = submit_remote(
                host, port, EDIT_PROGRAM, "d",
                args={"s": WORDS[index % len(WORDS)], "t": "sitting"},
            )

        threads = [
            threading.Thread(target=call, args=(i,))
            for i in range(len(replies))
        ]
        with workers_held(service):
            for thread in threads:
                thread.start()
            assert wait_for(
                lambda: service.stats().submitted == len(replies),
                timeout=30,
            )
        for thread in threads:
            thread.join()
        assert all(r["ok"] for r in replies)
        assert service.stats().mean_batch_size > 1


    def test_kept_alive_connection_gets_one_segment_per_reply(
        self, http_service, monkeypatch
    ):
        """A reply sent as head then body meets Nagle's algorithm and
        the client's delayed ACK on a reused connection: ~40 ms each.
        One write per reply, and the round trip shows it."""
        import json
        import statistics
        import time
        from http.client import HTTPConnection

        from repro.service.server import _ServiceHandler

        writes = []

        class CountingWriter:
            def __init__(self, raw):
                self.raw = raw

            def write(self, data):
                writes.append(len(data))
                return self.raw.write(data)

            def __getattr__(self, name):
                return getattr(self.raw, name)

        setup = _ServiceHandler.setup

        def counting_setup(handler):
            setup(handler)
            handler.wfile = CountingWriter(handler.wfile)

        monkeypatch.setattr(_ServiceHandler, "setup", counting_setup)
        host, port, _ = http_service
        body = json.dumps(
            {"program": EDIT_PROGRAM, "function": "d",
             "args": {"s": "kitten", "t": "sitting"}}
        )
        connection = HTTPConnection(host, port, timeout=30)
        took = []
        try:
            for _ in range(6):  # the first one compiles; not timed
                began = time.monotonic()
                connection.request(
                    "POST", "/submit", body=body,
                    headers={"Content-Type": "application/json"},
                )
                reply = json.loads(connection.getresponse().read())
                took.append(time.monotonic() - began)
                assert reply["value"] == 3
        finally:
            connection.close()
        assert len(writes) == 6
        assert statistics.median(took[1:]) < 0.025


class CountingServer(ServiceHTTPServer):
    """Counts the connections it accepts and the ones it has closed."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.accepted = 0
        self.closed = 0

    def process_request(self, request, client_address) -> None:
        self.accepted += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        self.closed += 1


@pytest.fixture
def counted_service():
    service = ComputeService(workers=2)
    server = CountingServer(("127.0.0.1", 0), service)
    serve_in_thread(server)
    yield server, service
    server.shutdown()
    server.server_close()
    service.shutdown()


def held_connection():
    """This thread's kept-alive client connection, or None."""
    return getattr(server_module._client, "held", None)


class TestKeepAlive:
    def test_sequential_calls_share_one_connection(self, counted_service):
        server, _ = counted_service
        host, port = server.server_address[:2]
        for index in range(20):
            reply = submit_remote(
                host, port, EDIT_PROGRAM, "d",
                args={"s": WORDS[index % len(WORDS)], "t": "sitting"},
            )
            assert reply["ok"] is True
        assert server.accepted == 1

    def test_idle_drop_is_resent_once(self, counted_service, monkeypatch):
        """The server closes an idle connection; the next call finds it
        dead before any status line, sends once more on a fresh one,
        and the service sees that job once."""
        monkeypatch.setattr(server_module._ServiceHandler, "timeout", 0.2)
        server, service = counted_service
        host, port = server.server_address[:2]
        args = {"s": "kitten", "t": "sitting"}
        assert submit_remote(host, port, EDIT_PROGRAM, "d", args)["ok"]
        assert held_connection() is not None
        assert wait_for(lambda: server.closed == 1, timeout=10)
        reply = submit_remote(host, port, EDIT_PROGRAM, "d", args)
        assert reply["value"] == 3
        assert service.stats().submitted == 2
        assert server.accepted == 2

    def test_draining_server_closes_kept_alive_connections(
        self, counted_service
    ):
        import json
        from http.client import HTTPConnection

        server, service = counted_service
        host, port = server.server_address[:2]
        args = {"s": "kitten", "t": "sitting"}
        body = json.dumps(
            {"program": EDIT_PROGRAM, "function": "d", "args": args}
        )
        assert submit_remote(host, port, EDIT_PROGRAM, "d", args)["ok"]
        raw = HTTPConnection(host, port, timeout=30)
        try:
            raw.request("GET", "/healthz")
            first = raw.getresponse()
            first.read()
            assert not first.will_close
            service.begin_drain()
            raw.request("POST", "/submit", body=body)
            response = raw.getresponse()
            response.read()
            assert response.status == 503
            assert response.getheader("Connection") == "close"
            assert response.will_close
        finally:
            raw.close()
        reply = submit_remote(host, port, EDIT_PROGRAM, "d", args)
        assert reply["_status"] == 503
        assert server.accepted == 2
        assert held_connection() is None

    def test_not_found_keeps_the_connection(self, counted_service):
        server, _ = counted_service
        host, port = server.server_address[:2]
        assert server_module._http_json(
            host, port, "GET", "/nope"
        )["_status"] == 404
        reply = submit_remote(
            host, port, EDIT_PROGRAM, "d",
            args={"s": "kitten", "t": "sitting"},
        )
        assert reply["value"] == 3
        assert server.accepted == 1
        assert held_connection() is not None


class TestServiceCli:
    def test_submit_stats_against_live_server(
        self, http_service, capsys
    ):
        host, port, _ = http_service
        from repro.__main__ import main

        submit_remote(
            host, port, EDIT_PROGRAM, "d",
            args={"s": "kitten", "t": "sitting"},
        )
        assert main(
            ["submit", "--host", host, "--port", str(port), "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "service stats" in out
        assert "mean_size" in out

    def test_submit_program_file(self, http_service, tmp_path, capsys):
        host, port, _ = http_service
        from repro.__main__ import main

        program = tmp_path / "edit.dsl"
        program.write_text(EDIT_PROGRAM)
        code = main(
            ["submit", "--host", host, "--port", str(port),
             "--program", str(program), "--function", "d",
             "--args", '{"s": "kitten", "t": "sitting"}',
             "--count", "3"]
        )
        assert code == 0
        assert capsys.readouterr().out.split() == ["3", "3", "3"]
