"""The service's own HTTP/1.1 framing, checked over raw sockets.

The server parses request heads into a plain dict and the client
(``_http_json``) frames its requests and reads its replies itself;
``test_service.py`` and ``test_fault_tolerance.py`` keep talking to
the server through ``http.client`` as a third-party client.
"""

import json
import socket
import struct
import threading
import time

import pytest

from repro.service import server as server_module
from repro.service.server import (
    ComputeService,
    make_http_server,
    serve_in_thread,
    submit_remote,
)

from .conftest import EDIT_PROGRAM

ARGS = {"s": "kitten", "t": "sitting"}
BODY = json.dumps(
    {"program": EDIT_PROGRAM, "function": "d", "args": ARGS}
).encode()


@pytest.fixture
def http_service():
    service = ComputeService(workers=1)
    server = make_http_server(service, "127.0.0.1", 0)
    serve_in_thread(server)
    host, port = server.server_address[:2]
    yield host, port, service
    server.shutdown()
    server.server_close()
    service.shutdown()


def exchange(address, data, timeout=10.0):
    """Send ``data`` on a fresh connection and read until the server
    closes it; returns everything it sent. A reset ends the stream as
    EOF does (a server closing with unread bytes may send one)."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(data)
        received = b""
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                return received
            if not chunk:
                return received
            received += chunk


def replies(received):
    """Split a byte stream into its replies, each ``(status, head,
    body)``; a reply's body is ``Content-Length`` bytes long."""
    found = []
    while received:
        head, _, received = received.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        found.append((int(lines[0].split()[1]), head, received[:length]))
        received = received[length:]
    return found


def statuses(received):
    """The status codes of the replies in a byte stream."""
    return [status for status, _, _ in replies(received)]


def post(body, *headers):
    """A raw ``POST /submit`` with ``Content-Length`` and ``headers``."""
    head = [
        b"POST /submit HTTP/1.1",
        b"Host: x",
        b"Content-Length: %d" % len(body),
        *headers,
    ]
    return b"\r\n".join(head) + b"\r\n\r\n" + body


SMUGGLED = b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"


class TestUnreadBodyIsNotARequest:
    """A reply sent before the declared body was read ends the
    connection: the body's bytes are never parsed as the next request."""

    @pytest.mark.parametrize(
        "head, status",
        [
            (b"POST /submit HTTP/1.1\r\nHost: x\r\n"
             b"Content-Length: 20000000\r\n\r\n", 413),
            (b"POST /nope HTTP/1.1\r\nHost: x\r\n"
             b"Content-Length: %d\r\n\r\n" % len(SMUGGLED), 404),
        ],
        ids=["oversized", "unknown-path"],
    )
    def test_one_reply_then_eof(self, http_service, head, status):
        host, port, _ = http_service
        received = exchange((host, port), head + SMUGGLED)
        [(code, head, _)] = replies(received)
        assert code == status
        assert b"Connection: close" in head

    def test_transfer_encoding_is_501_and_closes(self, http_service):
        host, port, _ = http_service
        chunk = b"%x\r\n%s\r\n0\r\n\r\n" % (len(SMUGGLED), SMUGGLED)
        received = exchange(
            (host, port),
            b"POST /submit HTTP/1.1\r\nHost: x\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n" + chunk + SMUGGLED,
        )
        assert statuses(received) == [501]

    def test_disagreeing_lengths_are_400_and_close(self, http_service):
        host, port, _ = http_service
        received = exchange(
            (host, port),
            post(SMUGGLED, b"Content-Length: 0") + SMUGGLED,
        )
        assert statuses(received) == [400]

    def test_agreeing_lengths_are_one_length(self, http_service):
        host, port, _ = http_service
        received = exchange(
            (host, port),
            post(BODY, b"Content-Length: %d" % len(BODY),
                 b"Connection: close"),
        )
        assert statuses(received) == [200]


class TestRequestHead:
    def test_content_length_in_any_case(self, http_service):
        host, port, _ = http_service
        data = post(BODY, b"Connection: close").replace(
            b"Content-Length", b"cOnTeNt-LeNgTh"
        )
        received = exchange((host, port), data)
        [(status, _, body)] = replies(received)
        assert status == 200
        assert json.loads(body)["value"] == 3

    def test_expect_100_continue(self, http_service):
        host, port, _ = http_service
        head, body = post(
            BODY, b"Expect: 100-continue", b"Connection: close"
        ).split(b"\r\n\r\n", 1)
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(head + b"\r\n\r\n")
            interim = sock.recv(65536)
            assert interim.startswith(b"HTTP/1.1 100 Continue\r\n")
            sock.sendall(body)
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        assert statuses(received) == [200]

    @pytest.mark.parametrize(
        "headers",
        [
            [b"X-Big: " + b"a" * (65537 - len(b"X-Big: \r\n"))],
            [b"X-H%d: v" % k for k in range(101)],
        ],
        ids=["65537-byte-line", "101-headers"],
    )
    def test_oversized_head_is_431(self, http_service, headers):
        host, port, _ = http_service
        data = b"\r\n".join([b"GET /healthz HTTP/1.1", *headers])
        received = exchange((host, port), data + b"\r\n\r\n")
        assert statuses(received) == [431]

    def test_hundred_headers_are_accepted(self, http_service):
        host, port, _ = http_service
        headers = [b"X-H%d: v" % k for k in range(99)]
        data = b"\r\n".join(
            [b"GET /healthz HTTP/1.1", *headers, b"Connection: close"]
        )
        received = exchange((host, port), data + b"\r\n\r\n")
        assert statuses(received) == [200]

    @pytest.mark.parametrize(
        "line",
        [b"garbage", b"GET / HTTP/1.1 extra", b"GET / HTTQ/1.1",
         b"GET / HTTP/1.x"],
    )
    def test_malformed_request_line_is_400_and_closes(
        self, http_service, line
    ):
        host, port, _ = http_service
        received = exchange((host, port), line + b"\r\n\r\n" + SMUGGLED)
        assert statuses(received) == [400]

    def test_http2_is_505(self, http_service):
        host, port, _ = http_service
        received = exchange((host, port), b"GET / HTTP/2.0\r\n\r\n")
        assert statuses(received) == [505]

    def test_malformed_header_line_is_400(self, http_service):
        host, port, _ = http_service
        received = exchange(
            (host, port),
            b"GET /healthz HTTP/1.1\r\nno colon here\r\n\r\n",
        )
        assert statuses(received) == [400]

    def test_http10_closes_without_keep_alive(self, http_service):
        host, port, _ = http_service
        received = exchange(
            (host, port),
            b"GET /healthz HTTP/1.0\r\n\r\n" + SMUGGLED,
        )
        [(status, head, _)] = replies(received)
        assert status == 200
        assert b"Connection: close" in head

    def test_http10_keep_alive_keeps_the_connection(self, http_service):
        host, port, _ = http_service
        received = exchange(
            (host, port),
            b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        )
        assert statuses(received) == [200, 200]

    def test_pipelined_requests_are_answered_in_order(self, http_service):
        host, port, _ = http_service
        received = exchange(
            (host, port),
            post(BODY) + b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
            + post(BODY, b"Connection: close"),
        )
        assert statuses(received) == [200, 404, 200]


class CountingSocket:
    """A client socket that counts its ``sendall`` calls."""

    def __init__(self, sock, sends):
        self._sock = sock
        self._sends = sends

    def sendall(self, data, *args):
        self._sends.append(len(data))
        return self._sock.sendall(data, *args)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestClient:
    def test_each_request_is_one_sendall(self, http_service, monkeypatch):
        host, port, _ = http_service
        sends = []
        create = socket.create_connection
        monkeypatch.setattr(
            socket, "create_connection",
            lambda *a, **k: CountingSocket(create(*a, **k), sends),
        )
        for _ in range(3):
            reply = submit_remote(host, port, EDIT_PROGRAM, "d", ARGS)
            assert reply["value"] == 3
        assert len(sends) == 3

    def test_reply_without_length_is_read_to_eof(self):
        """A reply with no ``Content-Length`` ends at EOF, and the
        client does not keep that connection."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def serve_one():
            conn, _ = listener.accept()
            with conn:
                request = b""
                while b"\r\n\r\n" not in request:
                    request += conn.recv(65536)
                conn.sendall(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n\r\n"
                    b'{"ok": true, "value": 7}'
                )

        thread = threading.Thread(target=serve_one, daemon=True)
        thread.start()
        try:
            reply = server_module._http_json(
                "127.0.0.1", port, "GET", "/stats", timeout=10
            )
        finally:
            thread.join(10)
            listener.close()
        assert reply == {"ok": True, "value": 7, "_status": 200}
        assert getattr(server_module._client, "held", None) is None


    def test_reset_after_the_status_line_is_not_resent(self):
        """A reused connection that fails once its reply has begun is
        not a dropped idle connection: the request was read, so it is
        not sent again."""
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        requests = []

        def serve():
            conn, _ = listener.accept()
            with conn:
                for reply in (b"ok", None):
                    request = b""
                    while b"\r\n\r\n" not in request:
                        request += conn.recv(65536)
                    requests.append(request)
                    if reply is not None:
                        conn.sendall(
                            b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\n\r\n"
                            b'{"ok": true}'
                        )
                        continue
                    conn.sendall(b"HTTP/1.1 200 OK\r\nContent-")
                    time.sleep(0.3)
                    conn.setsockopt(
                        socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0),
                    )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            server_module._http_json(
                "127.0.0.1", port, "GET", "/a", timeout=10
            )
            with pytest.raises(ConnectionResetError):
                server_module._http_json(
                    "127.0.0.1", port, "GET", "/b", timeout=10
                )
        finally:
            thread.join(10)
            listener.close()
        assert len(requests) == 2
        assert getattr(server_module._client, "held", None) is None


class TestBodyFieldTypes:
    @pytest.mark.parametrize(
        "field, value",
        [("program", 5), ("function", ["d"]), ("args", ["s"]),
         ("args", 5), ("reduce", 3)],
    )
    def test_wrong_type_is_400_naming_the_field(
        self, http_service, field, value
    ):
        host, port, service = http_service
        request = {"program": EDIT_PROGRAM, "function": "d", "args": ARGS}
        request[field] = value
        body = json.dumps(request).encode()
        received = exchange((host, port), post(body, b"Connection: close"))
        [(status, _, body)] = replies(received)
        assert status == 400
        assert repr(field) in json.loads(body)["error"]
        # The one worker is still serving.
        assert submit_remote(host, port, EDIT_PROGRAM, "d", ARGS)[
            "_status"
        ] == 200

    @pytest.mark.parametrize(
        "kwargs",
        [{"program": 5}, {"function": ["d"]}, {"args": ["s"]},
         {"args": 5}, {"reduce": 3}],
    )
    def test_submit_raises_value_error(self, kwargs):
        call = {"program": EDIT_PROGRAM, "function": "d", "args": ARGS}
        call.update(kwargs)
        with ComputeService(workers=1) as service:
            with pytest.raises(ValueError, match=repr(next(iter(kwargs)))):
                service.submit(**call)
