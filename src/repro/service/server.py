"""The compute service facade and its stdlib HTTP front end.

:class:`ComputeService` wires the serving layer together::

    submit(program, function, args)
        │  parse/check once per program (ProgramRegistry)
        │  bind args, admission control (JobQueue)
        ▼
    Batcher ── buckets same-function jobs; a bucket leaves when a
        │      worker is idle, at max-batch, or (all workers busy)
        ▼      after the batch window
    WorkerPool ── N engines, shared kernel cache ──▶ map_run batches
        │  a finished batch wakes the batcher: capacity to fill
        ▼
    JobHandle.result()

The HTTP layer is deliberately small (``http.server`` +
``http.client``, JSON bodies, no dependencies):

* ``POST /submit``  ``{"program": "...", "function": "f",
  "args": {...}, "timeout": 5.0}`` → ``{"ok": true, "value": ...,
  "job_id": "...", "latency_seconds": ...}``;
* ``GET /stats`` → the :class:`~repro.service.stats.ServiceStats`
  snapshot as JSON;
* ``GET /healthz`` → ``{"ok": true}`` (liveness: the process serves);
* ``GET /readyz`` → ``{"ok": true}`` while accepting work, 503 with
  ``Retry-After`` once draining — load balancers stop routing here
  first.

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
import queue as _queue
import signal
import sys
import threading
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Mapping, Optional

from ..gpu.spec import DeviceSpec
from ..lang.errors import DslError
from ..lang.source import SourceText
from ..resilience import (
    ExecutionSupervisor,
    FaultPlan,
    SupervisionPolicy,
)
from ..runtime.engine import Engine
from .batcher import Batch, Batcher
from .cache import LRUKernelCache, PersistentKernelCache
from .programs import ProgramRegistry
from .queue import (
    AdmissionError,
    DeadlineError,
    Job,
    JobHandle,
    JobQueue,
    JobTimeoutError,
)
from .stats import ServiceStats, StatsRegistry
from .workers import WorkerPool


def chaos_plan_from_env(environ=None) -> Optional[FaultPlan]:
    """Build a :class:`FaultPlan` from ``REPRO_CHAOS_*`` variables.

    ``REPRO_CHAOS_RATE`` (launch failure + transfer truncation rate),
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
        truncate_rate=rate,
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
        batch_window: float = 0.01,
        max_batch: int = 64,
        cache_dir: Optional[str] = None,
        cache_capacity: int = 256,
        prob_mode: str = "direct",
        backend: str = "auto",
        device: Optional[DeviceSpec] = None,
        default_timeout: Optional[float] = None,
        max_retries: int = 2,
        backoff_seconds: float = 0.05,
        fault_plan: Optional[FaultPlan] = None,
        supervision: Optional[SupervisionPolicy] = None,
        demote_after: int = 3,
        sandbox_native: Optional[bool] = None,
    ) -> None:
        if fault_plan is None:
            fault_plan = chaos_plan_from_env()
        if sandbox_native is not None:
            # Crash-isolate native launches in worker subprocesses
            # (process-wide: the engines share the native runtime).
            from ..runtime import sandbox as native_sandbox

            native_sandbox.configure(sandbox_native)
        self.kernel_cache = (
            PersistentKernelCache(cache_dir, capacity=cache_capacity)
            if cache_dir is not None
            else LRUKernelCache(cache_capacity)
        )
        self.registry = ProgramRegistry()
        self.stats_registry = StatsRegistry()
        self.jobs = JobQueue(queue_capacity)
        self.batch_queue: "_queue.Queue[Optional[Batch]]" = _queue.Queue()
        # Work-conserving batching is two wires: the batcher reads the
        # pool's spare capacity (late-bound: the pool is built below)
        # and a worker finishing a batch tells the batcher.
        self.batcher = Batcher(
            self.jobs, self.batch_queue,
            window=batch_window, max_batch=max_batch,
            stats=self.stats_registry,
            spare=lambda: self.pool.spare(),
        )
        self.default_timeout = default_timeout
        self.max_retries = max_retries

        self.fault_plan = fault_plan
        self.supervision = supervision

        def engine_factory() -> Engine:
            engine = Engine(
                device=device,
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
            self.batch_queue,
            engine_factory,
            self.registry,
            self.stats_registry,
            workers=workers,
            backoff_seconds=backoff_seconds,
            demote_after=demote_after,
            on_batch_done=self.batcher.capacity_freed,
        )
        self._closed = False
        self._draining = False
        self.batcher.start()
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
        occupies the queue) and
        :class:`~repro.service.queue.AdmissionError` under overload.
        """
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
            timeout=(
                timeout if timeout is not None else self.default_timeout
            ),
            retries_left=self.max_retries,
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
        """Stop the service; ``drain`` finishes every admitted job."""
        if self._closed:
            return
        self._closed = True
        self._draining = True
        self.jobs.close()
        if drain:
            self.batcher.stop(drain_timeout=timeout)
            self.batch_queue.join()  # all emitted batches executed
        else:
            self.batcher.stop(drain_timeout=0.0)
        self.pool.shutdown(timeout=timeout)

    def __enter__(self) -> "ComputeService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# -- HTTP front end -----------------------------------------------------------


class _ServiceHandler(BaseHTTPRequestHandler):
    """JSON-over-HTTP adapter for one :class:`ComputeService`."""

    server: "ServiceHTTPServer"
    #: Cap a single request body at 16 MiB — admission control for
    #: memory, not just queue slots.
    MAX_BODY = 16 * 1024 * 1024
    protocol_version = "HTTP/1.1"

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
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = 0
        if length <= 0 or length > self.MAX_BODY:
            self._reply(
                413 if length > self.MAX_BODY else 400,
                {"ok": False, "error": "missing or oversized body"},
            )
            return
        try:
            request = json.loads(self.rfile.read(length))
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
        timeout = request.get("timeout")
        if timeout is None:
            # Deadline propagation from the transport layer: proxies
            # and load balancers can stamp the header without parsing
            # the body.
            header = self.headers.get("X-Repro-Timeout")
            if header:
                try:
                    timeout = float(header)
                except ValueError:
                    self._reply(
                        400,
                        {"ok": False,
                         "error": f"bad X-Repro-Timeout header "
                                  f"{header!r}: not a number"},
                    )
                    return
        try:
            handle = self.server.service.submit(
                program,
                function,
                args=request.get("args") or {},
                timeout=timeout,
                reduce=request.get("reduce"),
            )
            # Wait slightly *past* the job's own deadline: the queue
            # and batcher enforce it authoritatively (classifying the
            # outcome as shed vs timed-out mid-run), and that verdict
            # should win the race against this thread's stopwatch.
            value = handle.result(
                timeout=timeout + self.server.DEADLINE_GRACE
                if timeout is not None
                else self.server.result_timeout
            )
        except AdmissionError as err:
            # Queue-full / draining load shedding: tell the caller
            # when to come back instead of just slamming the door.
            self._reply(
                503, {"ok": False, "error": err.reason,
                      "rejected": True},
                headers={"Retry-After": "1"},
            )
            return
        except JobTimeoutError as err:
            # The job missed its deadline — shed before launch
            # (DeadlineError) or timed out mid-retry. Gateway-timeout
            # semantics either way.
            self._reply(
                504,
                {"ok": False, "error": str(err),
                 "timed_out": True,
                 "shed": isinstance(err, DeadlineError)},
            )
            return
        except DslError as err:
            # Full caret diagnostic, same rendering the CLI prints —
            # the client sees *where* in their program the error is.
            rendered = err.render(
                SourceText(program, name="<submit>")
                if isinstance(program, str)
                else None
            )
            self._reply(
                400,
                {"ok": False, "error": rendered,
                 "message": err.message},
            )
            return
        except Exception as err:
            self._reply(500, {"ok": False, "error": str(err)})
            return
        self._reply(
            200,
            {"ok": True,
             "value": value,
             "job_id": handle.job_id,
             "latency_seconds": handle.latency_seconds},
        )

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
    #: batcher's shed/timeout classification arrives before we reply.
    DEADLINE_GRACE = 2.0

    def __init__(
        self,
        address,
        service: ComputeService,
        result_timeout: float = 60.0,
    ) -> None:
        super().__init__(address, _ServiceHandler)
        self.service = service
        self.result_timeout = result_timeout


def make_http_server(
    service: ComputeService,
    host: str = "127.0.0.1",
    port: int = 0,
    result_timeout: float = 60.0,
) -> ServiceHTTPServer:
    """Bind (but do not run) the HTTP front end; port 0 picks one."""
    return ServiceHTTPServer((host, port), service, result_timeout)


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


def _http_json(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: Optional[Dict[str, object]] = None,
    timeout: float = 60.0,
) -> Dict[str, object]:
    from http.client import HTTPConnection

    connection = HTTPConnection(host, port, timeout=timeout)
    try:
        body = (
            json.dumps(payload).encode("utf-8")
            if payload is not None
            else None
        )
        headers = {"Content-Type": "application/json"} if body else {}
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        data = json.loads(response.read().decode("utf-8"))
        data["_status"] = response.status
        return data
    finally:
        connection.close()


def submit_remote(
    host: str,
    port: int,
    program: str,
    function: str,
    args: Optional[Mapping[str, object]] = None,
    timeout: Optional[float] = None,
    reduce: Optional[str] = None,
    http_timeout: float = 60.0,
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
    return _http_json(
        host, port, "POST", "/submit", payload, timeout=http_timeout
    )


def fetch_remote_stats(
    host: str, port: int, http_timeout: float = 10.0
) -> Dict[str, object]:
    """GET the ``/stats`` snapshot of a running service."""
    return _http_json(host, port, "GET", "/stats", timeout=http_timeout)
