"""Crash-isolated native execution: a subprocess sandbox for kernels.

The native backend runs generated C in-process through ``ctypes`` —
the fastest rung of the ladder, but also the only one where a
miscompiled or corrupted kernel can take the whole service down with
a segfault. This module confines that blast radius to one
long-lived **worker subprocess**:

* The worker is a plain ``python -c`` child speaking a
  length-prefixed pickle frame protocol over its stdin/stdout pipes.
  A launch request carries the kernel payload, the ``.so`` path, the
  serialized numpy table and context; the reply carries the finished
  table. Because the parent's table is only overwritten on a
  successful reply, a crashed launch can never leave it torn.
* The parent detects worker death by EOF on the pipe plus
  ``poll()``, and enforces a per-launch **deadline**: a wedged worker
  is SIGKILLed for real (an in-process launch cannot be stopped at
  all) and respawned. Death raises :class:`~repro.resilience.faults.WorkerCrash`
  and a deadline kill raises
  :class:`~repro.resilience.faults.SandboxHang` — both
  ``DeviceFault`` subclasses, so the supervisor replays them and the
  service retry loop classifies them as device failures.
* A per-kernel-digest :class:`CircuitBreaker` demotes a kernel after
  :data:`BREAKER_THRESHOLD` crashes: the engine consults it at
  resolve time and re-routes the kernel down the ladder (native →
  vector → scalar); after :data:`BREAKER_COOLDOWN` seconds the
  breaker goes half-open and one probe launch may try native again.

Sandboxing is **opt-in** (serializing tables over a pipe costs real
throughput): set ``REPRO_NATIVE_SANDBOX=1`` or call
:func:`configure`. Launches share the one worker in turn, and a
launch without its own deadline gets :data:`LAUNCH_DEADLINE` seconds.
"""

from __future__ import annotations

import atexit
import hashlib
import io
import os
import pickle
import select
import signal
import struct
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "CircuitBreaker",
    "NativeSandbox",
    "SandboxedNativeRun",
    "configure",
    "counters",
    "enabled",
    "get_breaker",
    "get_sandbox",
    "kernel_digest",
    "reset",
    "worker_main",
]

_HEADER = struct.Struct(">Q")

#: Seconds a launch may take when its caller sets no deadline.
LAUNCH_DEADLINE = 60.0
#: Seconds a new worker has to start and answer its first ping.
SPAWN_TIMEOUT = 30.0
#: Consecutive crashes that open a kernel's circuit breaker.
BREAKER_THRESHOLD = 3
#: Seconds an open breaker waits before going half-open.
BREAKER_COOLDOWN = 30.0

#: ``src`` directory holding the ``repro`` package — prepended to the
#: worker's PYTHONPATH so ``python -c "from repro..."`` resolves.
_SRC_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


# ---------------------------------------------------------------------------
# frame protocol (shared by parent and worker)


def _write_frame(stream, obj) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(_HEADER.pack(len(data)))
    stream.write(data)
    stream.flush()


def _read_exact(stream, count: int) -> Optional[bytes]:
    """Blocking exact read; ``None`` on EOF (worker-side helper)."""
    chunks: List[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# worker side


def _handle_launch(request: dict, runs: dict) -> dict:
    """Execute one launch request inside the worker process."""
    try:
        fault = request.get("fault") or {}
        kind = fault.get("kind")
        if kind == "kill":
            # A *real* mid-launch death: the parent sees EOF, not an
            # exception reply. This is how chaos tests and the fault
            # injector simulate a segfault in generated C.
            os.kill(os.getpid(), signal.SIGKILL)
        elif kind == "hang":
            time.sleep(float(fault.get("seconds") or 3600.0))
        from ..ir.kernel import Kernel
        from .native import NativeRun

        # One loaded library per build: two builds of one kernel (a
        # test-seam tile, a doctored certificate) share a digest but
        # must not answer for each other.
        memo_key = (request["digest"], request["so_path"])
        run = runs.get(memo_key)
        if run is None:
            kernel = Kernel.from_payload(request["payload"])
            run = NativeRun(kernel, request["so_path"])
            runs[memo_key] = run
        if request["entry"] == "result":
            # A result-only launch: no table either way.
            return {
                "ok": True,
                "value": run.result(request["ctx"], *request["want"]),
            }
        table = np.array(request["table"], copy=True)
        out = getattr(run, request["entry"])(
            table,
            request["ctx"],
            request.get("part_lo"),
            request.get("part_hi"),
        )
        return {"ok": True, "table": out}
    except Exception as err:  # pragma: no cover - error shape only
        return {"ok": False, "error": f"{type(err).__name__}: {err}"}


def worker_main() -> None:
    """Entry point of a sandbox worker subprocess.

    Loops over length-prefixed pickle frames on stdin, writing one
    reply frame per request to stdout. Exits cleanly on EOF or an
    explicit ``exit`` op. ``NativeRun`` instances are memoised per
    (kernel digest, library), so a long-lived worker pays ``CDLL`` +
    argtype setup once per build, like the in-process path.
    """
    stdin = sys.stdin.buffer
    stdout = sys.stdout.buffer
    runs: Dict[tuple, object] = {}
    while True:
        header = _read_exact(stdin, _HEADER.size)
        if header is None:
            return
        (length,) = _HEADER.unpack(header)
        data = _read_exact(stdin, length)
        if data is None:
            return
        request = pickle.loads(data)
        op = request.get("op")
        if op == "ping":
            _write_frame(stdout, {"ok": True, "pid": os.getpid()})
        elif op == "exit":
            return
        elif op == "launch":
            _write_frame(stdout, _handle_launch(request, runs))
        else:
            _write_frame(
                stdout, {"ok": False, "error": f"unknown op {op!r}"}
            )


# ---------------------------------------------------------------------------
# parent side


class _WorkerDied(Exception):
    """Internal: the worker's pipe hit EOF / the process exited."""


class _WorkerTimeout(Exception):
    """Internal: no reply before the launch deadline."""


class WorkerProcess:
    """One long-lived sandbox subprocess plus its pipe endpoints."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["REPRO_NATIVE_SANDBOX"] = "0"
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            _SRC_ROOT + os.pathsep + existing if existing else _SRC_ROOT
        )
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-c",
                "from repro.runtime.sandbox import worker_main; "
                "worker_main()",
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        self._buffer = b""
        # Absorb interpreter start-up + imports here, with its own
        # generous timeout, so the first launch's deadline measures
        # the launch and not the spawn.
        self.send({"op": "ping"})
        self.read_reply(time.monotonic() + SPAWN_TIMEOUT)

    @property
    def pid(self) -> int:
        """The subprocess's OS process id."""
        return self.proc.pid

    def alive(self) -> bool:
        """Is the subprocess still running (no exit status yet)?"""
        return self.proc.poll() is None

    def send(self, request: dict) -> None:
        """Write one request frame; :class:`_WorkerDied` on a dead pipe."""
        try:
            _write_frame(self.proc.stdin, request)
        except (BrokenPipeError, OSError, ValueError) as err:
            raise _WorkerDied(str(err)) from err

    def read_reply(self, deadline: float) -> dict:
        """Read one reply frame, enforcing an absolute deadline.

        Raises :class:`_WorkerDied` on EOF/exit and
        :class:`_WorkerTimeout` when the deadline passes first.
        """
        header = self._read_bytes(_HEADER.size, deadline)
        (length,) = _HEADER.unpack(header)
        return pickle.loads(self._read_bytes(length, deadline))

    def _read_bytes(self, count: int, deadline: float) -> bytes:
        fd = self.proc.stdout.fileno()
        while len(self._buffer) < count:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _WorkerTimeout(
                    f"sandbox worker {self.pid} missed its deadline"
                )
            ready, _, _ = select.select(
                [fd], [], [], min(remaining, 0.1)
            )
            if not ready:
                if not self.alive():
                    raise _WorkerDied(
                        f"sandbox worker {self.pid} exited "
                        f"({self.proc.returncode})"
                    )
                continue
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                raise _WorkerDied(
                    f"sandbox worker {self.pid} closed its pipe "
                    f"(exit {self.proc.poll()})"
                )
            self._buffer += chunk
        data, self._buffer = (
            self._buffer[:count],
            self._buffer[count:],
        )
        return data

    def kill(self) -> None:
        """SIGKILL the worker and close both pipe ends (idempotent)."""
        try:
            self.proc.kill()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=5)
        except Exception:
            pass
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except Exception:
                pass

    def close(self) -> None:
        """Polite shutdown: ask the worker to exit, then reap it."""
        if self.alive():
            try:
                self.send({"op": "exit"})
                self.proc.wait(timeout=5)
            except Exception:
                pass
        self.kill()


class CircuitBreaker:
    """Per-kernel-digest crash circuit breaker.

    States per digest: **closed** (launches allowed), **open**
    (``threshold`` failures within the cooldown window — the engine
    resolves the kernel to a lower rung instead), **half-open**
    (cooldown elapsed — one probe launch may try native again; its
    outcome closes or re-opens the breaker).
    """

    def __init__(
        self,
        threshold: int = BREAKER_THRESHOLD,
        cooldown: float = BREAKER_COOLDOWN,
    ) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self._lock = threading.Lock()
        #: digest -> (consecutive failures, last-failure monotonic).
        self._entries: Dict[str, Tuple[int, float]] = {}

    def state(self, digest: str) -> str:
        """``"closed"``, ``"open"``, or ``"half-open"`` for this kernel."""
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None or entry[0] < self.threshold:
                return "closed"
            if time.monotonic() - entry[1] >= self.cooldown:
                return "half-open"
            return "open"

    def allows(self, digest: str) -> bool:
        """May this kernel launch natively right now?"""
        return self.state(digest) != "open"

    def record_failure(self, digest: str) -> int:
        """Count one crash; returns the new consecutive-failure tally."""
        with self._lock:
            failures = self._entries.get(digest, (0, 0.0))[0] + 1
            self._entries[digest] = (failures, time.monotonic())
            return failures

    def record_success(self, digest: str) -> None:
        """A clean launch: reset the tally, close the breaker."""
        with self._lock:
            self._entries.pop(digest, None)

    def open_count(self) -> int:
        """How many kernels are currently circuit-broken."""
        return sum(
            1
            for digest in list(self._entries)
            if self.state(digest) == "open"
        )

    def reset(self) -> None:
        """Forget all tallies and open breakers (tests, reconfigure)."""
        with self._lock:
            self._entries.clear()


class NativeSandbox:
    """The sandbox worker: one long-lived subprocess behind one lock.

    Launches take the lock in turn, so the worker runs one at a time.
    The counters are plain integers written under the lock and read
    without it, so a stats read never waits out a launch.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._worker: Optional[WorkerProcess] = None
        self.launches = 0
        self.crashes = 0
        self.hangs = 0
        self.restarts = 0
        self._closed = False

    # -- worker lifecycle -------------------------------------------------

    def _ready_worker(self) -> WorkerProcess:
        """The live worker, spawned on first use (lock held)."""
        if self._closed:
            raise RuntimeError("sandbox is shut down")
        worker = self._worker
        if worker is not None and not worker.alive():
            # Killed while idle (external SIGKILL, OOM): replace it
            # silently — no launch was harmed, so no crash is charged.
            worker.kill()
            worker = self._worker = None
            self.restarts += 1
        if worker is None:
            worker = self._worker = WorkerProcess()
        return worker

    def _respawn(self) -> None:
        """Kill a crashed or hung worker and eagerly start its
        successor (lock held); a failed spawn is left to the next
        launch."""
        self._worker.kill()
        self._worker = None
        self.restarts += 1
        try:
            self._worker = WorkerProcess()
        except Exception:
            pass

    def _stop(self) -> None:
        """Close the worker, if there is one (lock held)."""
        worker, self._worker = self._worker, None
        if worker is not None:
            worker.close()

    # -- the launch path --------------------------------------------------

    def launch(
        self,
        digest: str,
        payload: bytes,
        so_path: str,
        T: np.ndarray,
        ctx: Dict[str, object],
        part_lo: Optional[int] = None,
        part_hi: Optional[int] = None,
        fault: Optional[dict] = None,
        deadline: Optional[float] = None,
        entry: str = "__call__",
        want: Optional[tuple] = None,
    ):
        """Run one kernel launch in the worker; copy the result into ``T``.

        ``entry`` names the :class:`~repro.runtime.native.NativeRun`
        launch the worker makes: ``"__call__"`` (the table launch),
        ``"batched"`` (``T`` is a whole map group's padded ``(B, ...)``
        table) or ``"result"`` (``want=(reduce, coords)``; ``T`` is
        ``None``, no table travels either way and the raw value is
        returned).

        Raises ``WorkerCrash`` when the worker dies mid-launch and
        ``SandboxHang`` when it misses the deadline (in which case it
        is SIGKILLed). Either way the worker is respawned eagerly and
        ``T`` is left untouched.
        """
        from ..resilience.faults import SandboxHang, WorkerCrash

        if deadline is None:
            deadline = LAUNCH_DEADLINE
        request = {
            "op": "launch",
            "digest": digest,
            "payload": payload,
            "so_path": so_path,
            "entry": entry,
            "table": None if T is None else np.ascontiguousarray(T),
            "want": want,
            "ctx": ctx,
            "part_lo": part_lo,
            "part_hi": part_hi,
            "fault": fault,
        }
        with self._lock:
            worker = self._ready_worker()
            try:
                worker.send(request)
                reply = worker.read_reply(time.monotonic() + deadline)
            except _WorkerDied as err:
                self.crashes += 1
                self._respawn()
                raise WorkerCrash(
                    f"sandbox worker died mid-launch: {err}"
                ) from err
            except _WorkerTimeout as err:
                self.hangs += 1
                self._respawn()
                raise SandboxHang(
                    f"sandbox launch exceeded {deadline:.3f}s deadline "
                    f"(worker SIGKILLed): {err}"
                ) from err
            finally:
                if self._closed:
                    self._stop()
            self.launches += 1
        if not reply.get("ok"):
            raise RuntimeError(
                f"sandboxed launch failed: {reply.get('error')}"
            )
        if T is None:
            return reply["value"]
        np.copyto(T, reply["table"])
        return T

    # -- observability / teardown ----------------------------------------

    def counters(self) -> Dict[str, int]:
        """Launches/crashes/hangs/restarts plus live worker count."""
        return {
            "launches": self.launches,
            "crashes": self.crashes,
            "hangs": self.hangs,
            "restarts": self.restarts,
            "workers": int(self._worker is not None),
        }

    def shutdown(self) -> None:
        """Close the worker; one mid-launch is closed when its launch
        returns."""
        self._closed = True
        if self._lock.acquire(blocking=False):
            try:
                self._stop()
            finally:
                self._lock.release()


# ---------------------------------------------------------------------------
# module singletons and the compiled-run wrapper


_LOCK = threading.Lock()
_SANDBOX: Optional[NativeSandbox] = None
_BREAKER: Optional[CircuitBreaker] = None
_ENABLED_OVERRIDE: Optional[bool] = None


def enabled() -> bool:
    """Is sandboxed native execution on for this process?"""
    if _ENABLED_OVERRIDE is not None:
        return _ENABLED_OVERRIDE
    return os.environ.get("REPRO_NATIVE_SANDBOX") == "1"


def configure(enabled: Optional[bool]) -> None:
    """Override (or, with ``None``, un-override) sandbox enablement."""
    global _ENABLED_OVERRIDE
    _ENABLED_OVERRIDE = enabled


def get_sandbox() -> NativeSandbox:
    """The process-wide sandbox (created on first use)."""
    global _SANDBOX
    with _LOCK:
        if _SANDBOX is None:
            _SANDBOX = NativeSandbox()
            atexit.register(_SANDBOX.shutdown)
        return _SANDBOX


def get_breaker() -> CircuitBreaker:
    """The process-wide per-kernel circuit breaker."""
    global _BREAKER
    with _LOCK:
        if _BREAKER is None:
            _BREAKER = CircuitBreaker()
        return _BREAKER


def counters() -> Dict[str, int]:
    """Process-wide sandbox counters (zeros when never used)."""
    with _LOCK:
        sandbox = _SANDBOX
        breaker = _BREAKER
    stats = (sandbox or NativeSandbox()).counters()
    stats["open_breakers"] = (
        breaker.open_count() if breaker is not None else 0
    )
    return stats


def reset() -> None:
    """Tear down the singletons (tests); leaves the override alone."""
    global _SANDBOX, _BREAKER
    with _LOCK:
        sandbox, _SANDBOX = _SANDBOX, None
        _BREAKER = None
    if sandbox is not None:
        sandbox.shutdown()


def kernel_digest(kernel) -> str:
    """Content digest keying the circuit breaker and worker memo.

    Taken over a memo-free pickle (``Pickler.fast``), not the payload:
    the payload's pickle shares objects by identity, and a kernel
    restored from disk shares its strings differently from a fresh
    build of the same plan, so the two would digest apart.
    """
    out = io.BytesIO()
    pickler = pickle.Pickler(out, pickle.HIGHEST_PROTOCOL)
    pickler.fast = True
    pickler.dump(kernel)
    return hashlib.sha256(out.getvalue()).hexdigest()


class SandboxedNativeRun:
    """:class:`~repro.runtime.native.NativeRun` in the sandbox worker:
    the same launches, each shipped to the worker.

    Crucially the ``.so`` is **never** loaded into the parent
    process — this object only holds the kernel payload and artifact
    path. The breaker is consulted before every launch: an open
    breaker raises ``WorkerCrash`` without spawning anything, so
    callers demote exactly as they would for a real death. Every
    launch of one kernel shares its digest on purpose: the breaker
    tracks the *kernel's* crash history, so a batched crash demotes
    per-problem launches too.
    """

    sandboxed = True

    def __init__(self, kernel, so_path: str) -> None:
        self.kernel = kernel
        self.so_path = so_path
        self.payload = kernel.to_payload()
        self.digest = kernel_digest(kernel)

    def __call__(
        self,
        T: np.ndarray,
        ctx: Dict[str, object],
        part_lo: Optional[int] = None,
        part_hi: Optional[int] = None,
        fault: Optional[dict] = None,
        deadline: Optional[float] = None,
    ):
        return self._launch(
            "__call__", T, ctx, part_lo, part_hi, fault, deadline
        )

    def batched(
        self,
        T: np.ndarray,
        ctx: Dict[str, object],
        part_lo: Optional[int] = None,
        part_hi: Optional[int] = None,
        fault: Optional[dict] = None,
        deadline: Optional[float] = None,
    ):
        """:meth:`repro.runtime.native.NativeRun.batched` in a worker:
        one crash costs one disposable worker, not the service."""
        return self._launch(
            "batched", T, ctx, part_lo, part_hi, fault, deadline
        )

    def result(self, ctx: Dict[str, object], reduce, coords):
        """:meth:`repro.runtime.native.NativeRun.result` in a worker.
        There is no ``result_only`` flag here: the engine keeps a
        sandboxed run on the table path (its demotion re-runs on the
        table); this is how a sanitized build's halo tiles get
        launched at all.
        """
        return self._launch(
            "result", None, ctx, want=(reduce, tuple(coords))
        )

    def _launch(
        self, entry, T, ctx, part_lo=None, part_hi=None, fault=None,
        deadline=None, want=None,
    ):
        from ..resilience.faults import DeviceFault, WorkerCrash

        breaker = get_breaker()
        if not breaker.allows(self.digest):
            raise WorkerCrash(
                f"circuit open for kernel {self.digest[:12]} "
                f"({breaker.threshold} crashes; retry after "
                f"{breaker.cooldown:.0f}s cooldown)"
            )
        try:
            result = get_sandbox().launch(
                self.digest,
                self.payload,
                self.so_path,
                T,
                ctx,
                part_lo=part_lo,
                part_hi=part_hi,
                fault=fault,
                deadline=deadline,
                entry=entry,
                want=want,
            )
        except DeviceFault:
            breaker.record_failure(self.digest)
            raise
        breaker.record_success(self.digest)
        return result
