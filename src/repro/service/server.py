"""The compute service facade and its HTTP front end.

:class:`ComputeService` wires the serving layer together::

    submit(program, function, args)
        │  parse/check once per program (ProgramRegistry)
        │  bind args, admission control (JobQueue)
        ▼
    WorkerPool ── an idle worker takes the oldest job and every
        │         queued job with its key, up to max_batch; N
        │         engines, shared kernel cache ──▶ map_run batches
        ▼
    JobHandle.result()

The HTTP layer is deliberately small (JSON bodies, no dependencies):
``http.server`` accepts connections and runs one handler thread per
connection, and this module frames HTTP/1.1 itself on both ends. A
request's head and body are one write, its header block is read into a
plain dict, and each side holds one buffered reader per connection.

* ``POST /submit``  ``{"program": "...", "function": "f",
  "args": {...}, "timeout": 5.0}`` → ``{"ok": true, "value": ...,
  "job_id": "...", "latency_seconds": ...}``;
* ``GET /stats`` → the :class:`~repro.service.stats.ServiceStats`
  snapshot as JSON;
* ``GET /healthz`` → ``{"ok": true}`` (liveness: the process serves);
* ``GET /readyz`` → ``{"ok": true}`` while accepting work, 503 with
  ``Retry-After`` once draining — load balancers stop routing here
  first.

Connections are kept alive: :func:`submit_remote` holds one per client
thread, and the server closes one after five idle seconds, or after its
next reply once draining. A reply sent before the request's declared
body was read closes its connection, as does a request framed by
``Transfer-Encoding`` (501) or by disagreeing ``Content-Length``
headers (400): bytes the server did not read as a body are never read
as the next request.

Fault-tolerance plumbing: request deadlines propagate from the JSON
body or the ``X-Repro-Timeout`` header through queue wait into
execution (expired jobs are shed, never launched → 504); a full
queue sheds load with 503 + ``Retry-After``; SIGTERM (see
:func:`install_signal_handlers`) drains gracefully — stop accepting,
finish in-flight jobs, flush stats.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import sys
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Mapping, Optional, Tuple

from ..lang.errors import DslError
from ..lang.source import SourceText
from ..resilience import (
    ExecutionSupervisor,
    FaultPlan,
    SupervisionPolicy,
)
from ..runtime.engine import Engine
from .cache import LRUKernelCache, PersistentKernelCache
from .programs import ProgramRegistry
from .queue import (
    AdmissionError,
    DeadlineError,
    Job,
    JobHandle,
    JobQueue,
    JobTimeoutError,
    job_timeout,
)
from .stats import ServiceStats, StatsRegistry
from .workers import WorkerPool


def chaos_plan_from_env(environ=None) -> Optional[FaultPlan]:
    """Build a :class:`FaultPlan` from ``REPRO_CHAOS_*`` variables.

    ``REPRO_CHAOS_RATE`` (launch failure rate),
    ``REPRO_CHAOS_CORRUPT`` (per-cell corruption rate),
    ``REPRO_CHAOS_KILL`` / ``REPRO_CHAOS_HANG`` (sandbox worker
    SIGKILL / hang rates — only live when the native sandbox is on)
    and ``REPRO_CHAOS_SEED`` let CI run the whole service suite under
    fault injection without touching any test. Returns ``None`` when
    chaos is not requested.
    """
    environ = os.environ if environ is None else environ
    rate = float(environ.get("REPRO_CHAOS_RATE", "0") or 0.0)
    corrupt = float(environ.get("REPRO_CHAOS_CORRUPT", "0") or 0.0)
    kill = float(environ.get("REPRO_CHAOS_KILL", "0") or 0.0)
    hang = float(environ.get("REPRO_CHAOS_HANG", "0") or 0.0)
    if rate <= 0.0 and corrupt <= 0.0 and kill <= 0.0 and hang <= 0.0:
        return None
    return FaultPlan(
        seed=int(environ.get("REPRO_CHAOS_SEED", "0") or 0),
        launch_fail_rate=rate,
        corrupt_rate=corrupt,
        corrupt_mode="bitflip",
        worker_kill_rate=kill,
        sandbox_hang_rate=hang,
    )


class ComputeService:
    """A long-running batch compile-and-execute service."""

    def __init__(
        self,
        workers: int = 4,
        queue_capacity: int = 1024,
        max_batch: int = 64,
        cache_dir: Optional[str] = None,
        cache_capacity: int = 256,
        prob_mode: str = "direct",
        backend: str = "auto",
        backoff_seconds: float = 0.05,
        fault_plan: Optional[FaultPlan] = None,
        supervision: Optional[SupervisionPolicy] = None,
    ) -> None:
        if fault_plan is None:
            fault_plan = chaos_plan_from_env()
        self.kernel_cache = (
            PersistentKernelCache(cache_dir, capacity=cache_capacity)
            if cache_dir is not None
            else LRUKernelCache(cache_capacity)
        )
        self.registry = ProgramRegistry()
        self.stats_registry = StatsRegistry()
        self.jobs = JobQueue(queue_capacity)

        self.fault_plan = fault_plan
        self.supervision = supervision

        def engine_factory() -> Engine:
            engine = Engine(
                prob_mode=prob_mode,
                backend=backend,
                kernel_cache=self.kernel_cache,
            )
            if fault_plan is None and supervision is None:
                return engine
            # Each worker gets its own supervisor (injection logs and
            # stats are per-engine); determinism is preserved because
            # fault decisions are pure functions of (seed, site).
            return ExecutionSupervisor(
                engine, plan=fault_plan, policy=supervision
            )

        self.pool = WorkerPool(
            self.jobs,
            engine_factory,
            self.registry,
            self.stats_registry,
            workers=workers,
            max_batch=max_batch,
            backoff_seconds=backoff_seconds,
        )
        self._closed = False
        self._draining = False
        self.pool.start()

    # -- submission ----------------------------------------------------------

    def submit(
        self,
        program: str,
        function: str,
        args: Optional[Mapping[str, object]] = None,
        timeout: Optional[float] = None,
        reduce: Optional[str] = None,
    ) -> JobHandle:
        """Admit one problem; returns its :class:`JobHandle`.

        Raises :class:`~repro.lang.errors.DslError` on a bad program
        or arguments (checked synchronously, so malformed work never
        occupies the queue), :class:`ValueError` on a field of the wrong
        type (``program`` and ``function`` strings, ``args`` a mapping
        or None, ``reduce`` a string or None) or a timeout that is not a
        finite number > 0 (:func:`~repro.service.queue.job_timeout`),
        and :class:`~repro.service.queue.AdmissionError` under overload.
        """
        for name, value, kind, what in (
            ("program", program, str, "a string"),
            ("function", function, str, "a string"),
            ("args", args, (Mapping, type(None)), "an object"),
            ("reduce", reduce, (str, type(None)), "a string"),
        ):
            if not isinstance(value, kind):
                raise ValueError(
                    f"field {name!r} must be {what}, got {value!r:.60}"
                )
        timeout = job_timeout(timeout)
        service_program = self.registry.register(program)
        bindings, at, initial = service_program.bind(
            function, args or {}
        )
        job = Job(
            program_sha=service_program.sha,
            function=function,
            bindings=bindings,
            at=at,
            initial=initial,
            reduce=reduce,
            timeout=timeout,
        )
        try:
            self.jobs.submit(job)
        except AdmissionError:
            self.stats_registry.job_rejected()
            raise
        self.stats_registry.job_submitted()
        return job.handle

    # -- observability -------------------------------------------------------

    def stats(self) -> ServiceStats:
        """Current service snapshot (queue, batches, cache, latency).

        Sandbox crash/hang counts come from the process-wide sandbox
        module and ``demotions_native`` from the worker engines —
        snapshot inputs, owned elsewhere, never double-ticked here.
        """
        from ..runtime import sandbox as native_sandbox

        counters = native_sandbox.counters()
        return self.stats_registry.snapshot(
            queue_depth=self.jobs.depth(),
            cache_info=self.kernel_cache.cache_info(),
            worker_crashes=counters["crashes"] + counters["hangs"],
            demotions_native=self.pool.native_demotions(),
        )

    # -- lifecycle -----------------------------------------------------------

    def ready(self) -> bool:
        """Is the service accepting new work (readiness probe)?"""
        return not (self._draining or self._closed or self.jobs.closed)

    def begin_drain(self) -> None:
        """Stop accepting; in-flight and queued jobs keep executing.

        First phase of graceful SIGTERM shutdown: ``/readyz`` flips
        to 503 (load balancers stop routing), new submissions get
        :class:`AdmissionError`, and :meth:`shutdown` then finishes
        whatever was already admitted.
        """
        self._draining = True
        self.jobs.close()

    def shutdown(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop the service. ``drain`` waits until every admitted job
        has finished; without it the wait ends after ``timeout``
        seconds and the workers finish what is left in the background."""
        if self._closed:
            return
        self._closed = True
        self._draining = True
        self.pool.shutdown(timeout=None if drain else timeout)

    def __enter__(self) -> "ComputeService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# -- HTTP framing -------------------------------------------------------------

#: The stdlib's limits on a header block, kept on both ends: a line of
#: at most 65 536 bytes and at most 100 header lines.
MAX_LINE = 65536
MAX_HEADERS = 100

_TOKEN = re.compile(r"[!#$%&'*+\-.^_`|~0-9A-Za-z]+")
_VERSION = re.compile(r"HTTP/([0-9]{1,10})\.([0-9]{1,10})")


class ProtocolError(ConnectionError):
    """The peer broke HTTP/1.1 framing; ``status`` is the reply the
    server sends for it (400, or 431 for an oversized header block)."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def _read_headers(rfile) -> Dict[str, str]:
    """Read header lines up to the blank line into a dict.

    Names are lower-cased. A repeated header's values are joined with
    ``", "``, except ``Content-Length``: a repeat must agree with the
    first. Raises :class:`ProtocolError` on a line without a ``name:``,
    disagreeing lengths, a line over :data:`MAX_LINE` bytes or more than
    :data:`MAX_HEADERS` lines (the last two with status 431).
    """
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise ProtocolError("header line too long", 431)
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or not _TOKEN.fullmatch(name):
            raise ProtocolError(f"bad header line {line[:80]!r}")
        name = name.lower()
        value = value.strip()
        if name in headers:
            if name != "content-length":
                value = f"{headers[name]}, {value}"
            elif value != headers[name]:
                raise ProtocolError("disagreeing Content-Length headers")
        headers[name] = value
    raise ProtocolError(f"more than {MAX_HEADERS} headers", 431)


def _tokens(value: str) -> set:
    """The lower-cased tokens of a comma-separated header value."""
    return {token.strip().lower() for token in value.split(",")}


# -- HTTP front end -----------------------------------------------------------


class _ServiceHandler(BaseHTTPRequestHandler):
    """JSON-over-HTTP adapter for one :class:`ComputeService`."""

    server: "ServiceHTTPServer"
    #: Cap a single request body at 16 MiB — admission control for
    #: memory, not just queue slots.
    MAX_BODY = 16 * 1024 * 1024
    protocol_version = "HTTP/1.1"
    #: Seconds a kept-alive connection may sit idle before its handler
    #: thread closes it (Apache's default): an idle client must not
    #: hold a thread forever. A timed-out read ends the connection
    #: quietly (``handle_one_request`` sets ``close_connection``).
    timeout = 5.0
    #: The request's header block, names lower-cased (:func:`_read_headers`).
    headers: Dict[str, str]
    #: Bytes of the request's declared body not read yet. A reply sent
    #: while any are left closes the connection: they are not a request.
    unread = 0

    def parse_request(self) -> bool:
        """Parse the request line and the header block.

        The stdlib's statuses, without its email parser: 400 for a
        malformed request line or header line, 505 for HTTP/2 and
        later, 431 for an oversized header block (:func:`_read_headers`).
        HTTP/1.0 closes unless it asks for ``keep-alive``, and
        ``Connection: close`` is honoured. A body is framed by
        ``Content-Length`` alone: ``Transfer-Encoding`` gets a 501, and
        a length that is not a number a 400, both closing the
        connection. ``Expect: 100-continue`` goes through
        :meth:`handle_expect_100`.
        """
        self.command = None
        # An error before the version is read is still sent with a
        # status line (the stdlib sends an HTTP/0.9 body alone).
        self.request_version = self.protocol_version
        self.close_connection = True
        self.unread = 0
        line = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = line
        words = line.split()
        if not words:
            return False
        if len(words) != 3:
            self.send_error(400, f"Bad request syntax ({line!r})")
            return False
        command, path, version = words
        number = _VERSION.fullmatch(version)
        if number is None:
            self.send_error(400, f"Bad request version ({version!r})")
            return False
        number = (int(number[1]), int(number[2]))
        if number >= (2, 0):
            self.send_error(505, f"Invalid HTTP version ({version[5:]})")
            return False
        self.command, self.request_version = command, version
        # As the stdlib does: a path starting with '//' would read as a
        # host to a client that follows it.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path
        try:
            self.headers = headers = _read_headers(self.rfile)
        except ProtocolError as err:
            self.send_error(err.status, str(err))
            return False
        connection = _tokens(headers.get("connection", ""))
        self.close_connection = "close" in connection or (
            number < (1, 1) and "keep-alive" not in connection
        )
        if "transfer-encoding" in headers:
            self.send_error(501, "Transfer-Encoding is not supported")
            return False
        length = headers.get("content-length", "0")
        if not (length.isascii() and length.isdigit()):
            self.send_error(400, f"Bad Content-Length ({length!r})")
            return False
        self.unread = int(length)
        if (
            headers.get("expect", "").lower() == "100-continue"
            and number >= (1, 1)
        ):
            return self.handle_expect_100()
        return True

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/stats":
            self._reply(200, self.server.service.stats().to_dict())
        elif self.path == "/healthz":
            # Liveness: the process is up and serving HTTP — true
            # even while draining (kill -9 would lose in-flight work).
            self._reply(200, {"ok": True})
        elif self.path == "/readyz":
            if self.server.service.ready():
                self._reply(200, {"ok": True})
            else:
                self._reply(
                    503,
                    {"ok": False, "error": "draining"},
                    headers={"Retry-After": "1"},
                )
        else:
            self._reply(404, {"ok": False, "error": "unknown path"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path != "/submit":
            self._reply(404, {"ok": False, "error": "unknown path"})
            return
        length = self.unread
        if length <= 0 or length > self.MAX_BODY:
            self._reply(
                413 if length > self.MAX_BODY else 400,
                {"ok": False, "error": "missing or oversized body"},
            )
            return
        body = self.rfile.read(length)
        self.unread = 0
        try:
            request = json.loads(body)
            program = request["program"]
            function = request["function"]
        except (json.JSONDecodeError, KeyError, TypeError) as err:
            self._reply(
                400,
                {"ok": False,
                 "error": f"bad request: {err!r} (need JSON with "
                          f"'program' and 'function')"},
            )
            return
        try:
            timeout = self._request_timeout(request)
            handle = self.server.service.submit(
                program,
                function,
                args=request.get("args"),
                timeout=timeout,
                reduce=request.get("reduce"),
            )
        except ValueError as err:
            self._reply(400, {"ok": False, "error": str(err)})
            return
        except Exception as err:
            self._reply_failure(err, program)
            return
        try:
            # Wait slightly *past* the job's own deadline: the
            # workers enforce it authoritatively (classifying the
            # outcome as shed vs timed-out mid-run), and that verdict
            # should win the race against this thread's stopwatch.
            value = handle.result(
                timeout=timeout + self.server.DEADLINE_GRACE
                if timeout is not None
                else self.server.RESULT_TIMEOUT
            )
        except Exception as err:
            self._reply_failure(err, program)
            return
        self._reply(
            200,
            {"ok": True,
             "value": value,
             "job_id": handle.job_id,
             "latency_seconds": handle.latency_seconds},
        )

    def _reply_failure(self, err: Exception, program: str) -> None:
        """Reply to a submission that was refused or whose job failed."""
        if isinstance(err, AdmissionError):
            # Queue-full / draining load shedding: tell the caller
            # when to come back instead of just slamming the door.
            self._reply(
                503, {"ok": False, "error": err.reason,
                      "rejected": True},
                headers={"Retry-After": "1"},
            )
        elif isinstance(err, JobTimeoutError):
            # The job missed its deadline — shed before launch
            # (DeadlineError) or timed out mid-retry. Gateway-timeout
            # semantics either way.
            self._reply(
                504,
                {"ok": False, "error": str(err),
                 "timed_out": True,
                 "shed": isinstance(err, DeadlineError)},
            )
        elif isinstance(err, DslError):
            # Full caret diagnostic, same rendering the CLI prints —
            # the client sees *where* in their program the error is.
            self._reply(
                400,
                {"ok": False,
                 "error": err.render(SourceText(program, name="<submit>")),
                 "message": err.message},
            )
        else:
            self._reply(500, {"ok": False, "error": str(err)})

    def _request_timeout(self, request: dict) -> Optional[float]:
        """The job's timeout: the body's ``timeout``, else the
        ``X-Repro-Timeout`` header, checked by
        :func:`~repro.service.queue.job_timeout` (:class:`ValueError`
        when it is not a finite number > 0)."""
        timeout = request.get("timeout")
        header = self.headers.get("x-repro-timeout")
        if timeout is None and header:
            # Deadline propagation from the transport layer: proxies
            # and load balancers can stamp the header without parsing
            # the body.
            try:
                timeout = float(header)
            except ValueError:
                raise ValueError(
                    f"bad X-Repro-Timeout header {header!r}: "
                    f"not a number"
                ) from None
        return job_timeout(timeout)

    def _reply(
        self,
        status: int,
        payload: Dict[str, object],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        lines = [
            f"{self.protocol_version} {status} "
            f"{HTTPStatus(status).phrase}",
            f"Server: {self.version_string()}",
            f"Date: {self.date_time_string()}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        lines += [f"{k}: {v}" for k, v in (headers or {}).items()]
        if (
            self.close_connection
            or self.unread
            or not self.server.service.ready()
        ):
            # The connection's last reply says so. Body bytes left
            # unread must not be read as the next request, and a
            # draining server sheds its kept-alive clients.
            self.close_connection = True
            lines.append("Connection: close")
        # One write, so one segment: head and body sent separately on
        # a kept-alive socket without TCP_NODELAY meet Nagle's
        # algorithm and the client's delayed ACK, ~40 ms per reply.
        self.wfile.write(
            "\r\n".join(lines + ["", ""]).encode("latin-1") + body
        )

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # requests are accounted in ServiceStats, not stderr


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one compute service."""

    daemon_threads = True
    # The stdlib default accept backlog is 5, which resets connections
    # when ~100 clients connect in the same instant (the service's
    # whole point). Match the admission queue's scale instead.
    request_queue_size = 128
    #: Extra seconds the handler waits beyond a job's deadline so the
    #: worker's shed/timeout classification arrives before we reply.
    DEADLINE_GRACE = 2.0
    #: Seconds the handler waits for a job that has no deadline.
    RESULT_TIMEOUT = 60.0

    def __init__(self, address, service: ComputeService) -> None:
        super().__init__(address, _ServiceHandler)
        self.service = service


def make_http_server(
    service: ComputeService, host: str = "127.0.0.1", port: int = 0
) -> ServiceHTTPServer:
    """Bind (but do not run) the HTTP front end; port 0 picks one."""
    return ServiceHTTPServer((host, port), service)


def serve_in_thread(server: ServiceHTTPServer) -> threading.Thread:
    """Run ``server.serve_forever`` on a daemon thread (for tests)."""
    thread = threading.Thread(
        target=server.serve_forever, name="repro-http", daemon=True
    )
    thread.start()
    return thread


def install_signal_handlers(
    server: ServiceHTTPServer,
    service: ComputeService,
    signals: tuple = (signal.SIGTERM,),
) -> None:
    """Wire graceful drain into SIGTERM (call from the main thread).

    On signal: :meth:`ComputeService.begin_drain` runs immediately
    (``/readyz`` flips to 503, admissions stop), then a background
    thread finishes every in-flight job, flushes the final stats
    snapshot to stderr, and stops the HTTP server — which unblocks
    ``serve_forever`` in the main thread. A second signal during the
    drain is ignored (the drain is already as graceful as it gets).
    """
    done = threading.Event()

    def handler(signum, frame) -> None:
        if done.is_set():
            return
        done.set()
        service.begin_drain()

        def drain() -> None:
            service.shutdown(drain=True)
            try:
                sys.stderr.write(service.stats().render() + "\n")
                sys.stderr.flush()
            except Exception:
                pass
            server.shutdown()

        threading.Thread(
            target=drain, name="repro-drain", daemon=True
        ).start()

    for signum in signals:
        signal.signal(signum, handler)


# -- client helpers -----------------------------------------------------------

#: Seconds a client waits for a ``/submit`` reply, and for a
#: ``/stats`` reply.
SUBMIT_TIMEOUT = 60.0
STATS_TIMEOUT = 10.0


class _Connection:
    """One kept-alive HTTP/1.1 client connection: a socket with
    ``TCP_NODELAY`` and one buffered reader for all of its replies."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.address = (host, port)
        self.sock = socket.create_connection((host, port), timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")
        bracketed = f"[{host}]" if ":" in host else host
        self.host = f"Host: {bracketed}:{port}\r\n"

    def close(self) -> None:
        self.rfile.close()
        self.sock.close()

    def request(
        self, method: str, path: str, body: Optional[bytes]
    ) -> bytes:
        """Send one request in one write; return the reply's status line.

        Raises :class:`ConnectionResetError` when the connection ends
        before a status line.
        """
        head = f"{method} {path} HTTP/1.1\r\n{self.host}"
        if body is not None:
            head += (
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        self.sock.sendall(head.encode("latin-1") + b"\r\n" + (body or b""))
        line = self.rfile.readline(MAX_LINE + 1)
        if not line:
            raise ConnectionResetError(
                "the server closed the connection before replying"
            )
        return line

    def reply(self, line: bytes) -> Tuple[int, bytes, bool]:
        """Read the rest of the reply whose status line is ``line``.

        Returns the status, the body and whether the connection stays
        open: it does not after ``Connection: close``, nor after a reply
        with no ``Content-Length``, whose body is read to EOF. Raises
        :class:`ProtocolError` on a malformed reply.
        """
        words = line.split(None, 2)
        if (
            len(words) < 2
            or not words[0].startswith(b"HTTP/")
            or not (len(words[1]) == 3 and words[1].isdigit())
        ):
            raise ProtocolError(f"bad status line {line[:80]!r}")
        headers = _read_headers(self.rfile)
        length = headers.get("content-length")
        if length is None:
            return int(words[1]), self.rfile.read(), False
        if not (length.isascii() and length.isdigit()):
            raise ProtocolError(f"bad Content-Length {length!r}")
        data = self.rfile.read(int(length))
        if len(data) < int(length):
            raise ProtocolError("the reply's body was cut short")
        keep = "close" not in _tokens(headers.get("connection", ""))
        return int(words[1]), data, keep


#: Each client thread's one kept-alive :class:`_Connection`, as
#: ``held``; a thread that has none has no ``held`` or ``held = None``.
_client = threading.local()


def _http_json(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Optional[Dict[str, object]] = None,
    timeout: float = SUBMIT_TIMEOUT,
) -> Dict[str, object]:
    """One JSON request over this thread's kept-alive connection.

    The thread holds at most one connection. A call to another
    ``(host, port)`` closes it and opens one there; a reply that says
    ``Connection: close`` or has no ``Content-Length``, and any error,
    drop it. A request that fails on a *reused* connection before a
    status line arrives (EOF, a reset, a broken pipe) is sent once more
    on a fresh one: the server closed the connection while it was
    idle, so it never read the request. Nothing else is retried, not a
    timeout and not a fresh connection's failure: the server may have
    admitted that POST, and a retry would submit the job twice.
    """
    body = (
        json.dumps(payload).encode("utf-8") if payload is not None else None
    )
    held = getattr(_client, "held", None)
    _client.held = None
    if held is not None and held.address != (host, port):
        held.close()
        held = None
    if held is None:
        connection = _Connection(host, port, timeout)
    else:
        connection = held
        connection.sock.settimeout(timeout)
    try:
        try:
            line = connection.request(method, path, body)
        except (ConnectionResetError, BrokenPipeError):
            if held is None:
                raise
            connection.close()
            connection = _Connection(host, port, timeout)
            line = connection.request(method, path, body)
        status, data, keep = connection.reply(line)
        reply = json.loads(data)
    except BaseException:
        connection.close()
        raise
    if keep:
        _client.held = connection
    else:
        connection.close()
    reply["_status"] = status
    return reply


def submit_remote(
    host: str,
    port: int,
    program: str,
    function: str,
    args: Optional[Mapping[str, object]] = None,
    timeout: Optional[float] = None,
    reduce: Optional[str] = None,
) -> Dict[str, object]:
    """POST one job to a running service; returns the JSON reply."""
    payload: Dict[str, object] = {
        "program": program,
        "function": function,
        "args": dict(args or {}),
    }
    if timeout is not None:
        payload["timeout"] = timeout
    if reduce is not None:
        payload["reduce"] = reduce
    return _http_json(host, port, "POST", "/submit", payload)


def fetch_remote_stats(host: str, port: int) -> Dict[str, object]:
    """GET the ``/stats`` snapshot of a running service."""
    return _http_json(host, port, "GET", "/stats", timeout=STATS_TIMEOUT)
