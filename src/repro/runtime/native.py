"""Native execution: compile emitted C99 with ``cc``, run via ctypes.

This is the fastest rung of the backend ladder (native > vector >
scalar): :mod:`repro.ir.cbackend` emits a portable C99 translation
unit for a kernel, this module builds it into a shared object with
the system compiler and dispatches whole runs — every partition, one
call — through ``ctypes`` on the *same* numpy table and context
buffers the other backends use (the C code writes straight into the
table's memory; nothing is copied for contiguous tables).

Robustness contract:

* **Toolchain probe** — ``cc``/``gcc``/``clang`` (override with
  ``REPRO_CC``) are probed once per process with a real test
  compilation — of the ``dlopen`` helper below, with ``-fopenmp``, so
  one compiler run says both "cc works" and "OpenMP links" (a failure
  retries without). The verdict is cached, so an environment without
  a compiler pays the probe exactly once and every engine falls back
  down the ladder with a machine-readable
  :class:`~repro.ir.npbackend.Eligibility` reason.
  ``REPRO_NATIVE_DISABLE=1`` force-disables the backend (checked on
  every call, not cached — tests rely on that).
* **Segfault-guarded load** — a freshly built (or cache-restored)
  ``.so`` is first ``dlopen``-ed in a *subprocess*: a ten-line C
  program (``dlopen(argv[1], RTLD_NOW | RTLD_LOCAL)``, ``dlerror`` to
  stderr, exit 1) that the toolchain probe built into a directory of
  this process's own — a millisecond to start where an interpreter
  took thirteen. If that probe dies — including by signal — the
  library is never loaded into this process and a
  :class:`~repro.lang.errors.NativeBuildError` (a permanent
  ``DslError``, never retried) is raised instead. A compiler that
  cannot build the helper is not a working toolchain, so every
  library *built* here is probed by it; only a process with no
  compiler at all — which can still be handed a cache-restored
  ``.so`` — probes with ``sys.executable -c "ctypes.CDLL(...)"``.
* **Content-addressed artifacts** — builds land in
  ``$REPRO_NATIVE_CACHE_DIR`` (or a per-process temp dir) under the
  sha256 of (source, compiler, flags), so recompilation is skipped
  whenever the artifact already exists.

OpenMP is **on by default when the toolchain probe finds
``-fopenmp``**: the emitter adds ``#pragma omp parallel for`` over
each partition's lane loop (the paper's parfor over cells) — or, for
a blocked-wavefront kernel, one region with an ``omp for`` over the
blocks of each block diagonal — and over the batched entry's problem
loop, and the build adds ``-fopenmp``; a toolchain without it builds
pragma-free TUs. Results are bitwise-identical at any thread count by
construction, since the parallel axes (cells of one partition,
blocks of one diagonal, problems of one batch) never share a written
cell and every reduction stays serial inside its cell.
``REPRO_NATIVE_THREADS=N`` (a positive integer) caps the OpenMP team
size (written into each library through its ``repro_set_threads``
export when it loads, and read by every parallel region of it, on
whichever thread launches). The pragmas
themselves are licensed: :func:`repro.ir.cbackend
.emit_native_source` writes a pragma only with a licence
:mod:`repro.verify.races` granted from a CONFIRMED parallel-safety
verdict, so an unproved kernel builds a pragma-free (serial-native)
TU with its own content hash.

``REPRO_NATIVE_SANITIZE=address,undefined`` builds *instrumented*
translation units — the dynamic, independent check on the static
race certificates. The sanitizer flags join the build flags (and
therefore the content-address digest, so instrumented and plain
artifacts never collide); the ``dlopen`` probe subprocess and the
sandbox workers run with ``ASAN_OPTIONS=verify_asan_link_order=0``
(neither the probe helper nor the Python binary is ASan-linked, so
the runtime arrives via the ``.so`` rather than first in the initial
library list) plus
``detect_leaks=0`` (the interpreter's own allocations are not this
backend's findings). Because ASan reads ``/proc/self/environ``
directly — immune to ``putenv`` after start-up — sanitized libraries
are **never** loaded in-process: every launch routes through the
sandbox worker pool. Sanitized artifacts are also never embedded
into ``native-so`` service-cache records
(:mod:`repro.service.cache` skips them).
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..ir import cbackend
from ..ir.kernel import Kernel
from ..ir.npbackend import Eligibility
from ..lang.errors import CodegenError, NativeBuildError
from ..verify import races

#: ``part_lo``/``part_hi`` sentinels for "no clamp" (any real
#: partition index is strictly inside this range).
_NO_LO = -(2 ** 62)
_NO_HI = 2 ** 62

_CFLAGS = ("-std=c99", "-O2", "-fPIC", "-shared")

#: Memoised toolchain probe: ``(cc_path_or_None, openmp_ok, detail)``.
_TOOLCHAIN: Optional[Tuple[Optional[str], bool, str]] = None

#: Per-process fallback build directory (created lazily).
_BUILD_DIR: Optional[str] = None

#: Shared objects already probed (and passed) in this process.
_PROBED: Dict[str, bool] = {}


def _candidate_compilers() -> List[str]:
    override = os.environ.get("REPRO_CC")
    if override:
        return [override]
    return ["cc", "gcc", "clang"]


def build_dir() -> str:
    """Where compiled ``.so`` artifacts live for this process."""
    global _BUILD_DIR
    configured = os.environ.get("REPRO_NATIVE_CACHE_DIR")
    if configured:
        path = os.path.expanduser(configured)
        os.makedirs(path, exist_ok=True)
        return path
    if _BUILD_DIR is None:
        _BUILD_DIR = tempfile.mkdtemp(prefix="repro-native-")
        atexit.register(shutil.rmtree, _BUILD_DIR, True)
    return _BUILD_DIR


#: The ``dlopen`` probe, as a program: loading a library is all it
#: does, so a library that takes its loader down takes only this.
#: ``RTLD_NOW | RTLD_LOCAL`` is what ``ctypes.CDLL`` asks for.
_PROBE_HELPER_SOURCE = """\
#include <dlfcn.h>
#include <stdio.h>
int main(int argc, char** argv) {
  if (argc != 2) return 2;
  if (dlopen(argv[1], RTLD_NOW | RTLD_LOCAL)) return 0;
  fprintf(stderr, "%s\\n", dlerror());
  return 1;
}
"""

#: The helper :func:`toolchain` built, set with its verdict (``None``
#: with a verdict of "no compiler").
_PROBE_HELPER: Optional[str] = None


def _build_probe_helper(cc: str, openmp: bool, out: str) -> Optional[str]:
    """Compile the ``dlopen`` helper to ``out``; ``None`` on success,
    else why not. The source goes in on stdin: there is no ``.c`` file
    for another process to find half-written."""
    try:
        result = subprocess.run(
            [
                cc, "-std=c99", *(["-fopenmp"] if openmp else []),
                "-x", "c", "-", "-o", out, "-ldl",
            ],
            input=_PROBE_HELPER_SOURCE.encode("ascii"),
            capture_output=True, timeout=60,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        return str(err)
    if result.returncode != 0:
        return f"exit {result.returncode}"
    return None


def toolchain() -> Tuple[Optional[str], bool, str]:
    """Probe (once) for a working C compiler.

    Returns ``(cc, openmp_ok, detail)``; ``cc`` is ``None`` when no
    candidate both exists and builds the ``dlopen`` probe helper —
    the test compilation and the one program every later build needs.
    It is built with ``-fopenmp`` first, so where OpenMP links (the
    usual case) one compiler run answers both questions; only a
    failure retries without. The helper lands in a directory of this
    process's own, never in :func:`build_dir`: that one may be shared,
    read-only, or re-pointed after the probe ran.
    """
    global _TOOLCHAIN, _PROBE_HELPER
    if _TOOLCHAIN is not None:
        return _TOOLCHAIN
    tried: List[str] = []
    helper: Optional[str] = None
    for name in _candidate_compilers():
        path = shutil.which(name)
        if path is None:
            tried.append(f"{name}: not found")
            continue
        if helper is None:
            private = tempfile.mkdtemp(prefix="repro-dlopen-probe-")
            atexit.register(shutil.rmtree, private, True)
            helper = os.path.join(private, "dlopen-probe")
        for openmp in (True, False):
            error = _build_probe_helper(path, openmp, helper)
            if error is None:
                _PROBE_HELPER = helper
                _TOOLCHAIN = (path, openmp, f"system compiler {path}")
                return _TOOLCHAIN
        tried.append(f"{name}: {error}")
    _TOOLCHAIN = (
        None, False,
        "no working C compiler (" + "; ".join(tried) + ")",
    )
    return _TOOLCHAIN


def reset_toolchain_cache() -> None:
    """Forget the probe verdict and the helper it built (tests
    exercising the no-cc path)."""
    global _TOOLCHAIN, _PROBE_HELPER
    _TOOLCHAIN = None
    _PROBE_HELPER = None


def available() -> Eligibility:
    """Can this process use the native backend at all?

    The environment kill-switch is consulted on every call; the
    compiler probe itself is paid once per process.
    """
    if os.environ.get("REPRO_NATIVE_DISABLE"):
        return Eligibility(
            False, "disabled",
            "native backend disabled by REPRO_NATIVE_DISABLE",
        )
    cc, _omp, detail = toolchain()
    if cc is None:
        return Eligibility(False, "no-compiler", detail)
    return Eligibility(True, "ok", detail)


#: Recognised ``REPRO_NATIVE_SANITIZE`` components and their flags.
_SANITIZERS = {
    "address": "-fsanitize=address",
    "undefined": "-fsanitize=undefined",
}


def sanitize_flags() -> Tuple[str, ...]:
    """Extra cflags for ``REPRO_NATIVE_SANITIZE`` (empty when unset).

    The variable is a comma-separated subset of ``address`` and
    ``undefined``; unknown names raise immediately (a typo silently
    building uninstrumented kernels would defeat the whole point).
    Instrumented builds keep symbols and frames so findings name the
    emitted entry points. Read fresh on every build.
    """
    raw = os.environ.get("REPRO_NATIVE_SANITIZE", "").strip()
    if not raw:
        return ()
    flags: List[str] = []
    for name in raw.split(","):
        name = name.strip().lower()
        if not name:
            continue
        if name not in _SANITIZERS:
            raise NativeBuildError(
                f"unknown sanitizer {name!r} in REPRO_NATIVE_SANITIZE"
                f" (expected a comma list of: "
                f"{', '.join(sorted(_SANITIZERS))})"
            )
        flags.append(_SANITIZERS[name])
    if not flags:
        return ()
    return tuple(flags) + ("-g", "-fno-omit-frame-pointer")


def sanitize_active() -> bool:
    """Is this process building instrumented translation units?"""
    return bool(sanitize_flags())


def _sanitizer_env() -> Dict[str, str]:
    """Runtime options every sanitized load needs.

    ``verify_asan_link_order=0`` because the interpreter is not
    ASan-linked (the runtime enters via our ``dlopen``-ed ``.so``);
    ``detect_leaks=0`` because LSan would report the interpreter's
    own allocations at exit; ``halt_on_error=1`` so a UBSan finding
    fails the probe subprocess instead of scrolling past.
    """
    return {
        "ASAN_OPTIONS": "verify_asan_link_order=0:detect_leaks=0",
        "UBSAN_OPTIONS": "halt_on_error=1:print_stacktrace=1",
    }


def _export_sanitizer_env() -> None:
    """Publish the sanitizer runtime options process-wide (children —
    probe subprocesses, sandbox workers — inherit them; an explicit
    user setting wins)."""
    for key, value in _sanitizer_env().items():
        os.environ.setdefault(key, value)


def thread_count() -> Optional[int]:
    """The ``REPRO_NATIVE_THREADS`` cap, or ``None`` when unset (let
    the OpenMP runtime pick). Anything but a positive integer raises
    :class:`ValueError`: a typo silently running on every core would
    defeat the cap."""
    raw = os.environ.get("REPRO_NATIVE_THREADS")
    if not raw:
        return None
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(
            f"REPRO_NATIVE_THREADS={raw!r}: expected a positive integer"
        )
    return n


def effective_threads() -> int:
    """How many threads a native launch will use: 1 when the
    toolchain has no OpenMP, else the ``REPRO_NATIVE_THREADS`` cap,
    else every core."""
    if not toolchain()[1]:
        return 1
    forced = thread_count()
    if forced is not None:
        return forced
    return max(1, os.cpu_count() or 1)


def _apply_thread_cap(lib: ctypes.CDLL) -> None:
    """Write the ``REPRO_NATIVE_THREADS`` cap into a freshly loaded
    library via its ``repro_set_threads`` export (0 when unset: the
    OpenMP runtime picks). The cap is the library's, read by every
    parallel region whichever thread launches it; a serial build's
    export is a no-op. Every translation unit exports it: a library
    without it fails to load, as one missing an entry does."""
    setter = lib.repro_set_threads
    setter.restype = None
    setter.argtypes = [ctypes.c_long]
    setter(thread_count() or 0)


def build_shared_object(source: str) -> str:
    """Compile ``source`` into a content-addressed ``.so``.

    The artifact path is ``<sha256(cc, flags, source)>.so`` under
    :func:`build_dir`; an existing artifact short-circuits the
    compiler entirely (warm starts across processes when
    ``REPRO_NATIVE_CACHE_DIR`` is shared).
    """
    cc, omp, detail = toolchain()
    if cc is None:
        raise NativeBuildError(detail)
    flags = list(_CFLAGS)
    if omp:
        flags.append("-fopenmp")
    sanitize = sanitize_flags()
    if sanitize:
        flags.extend(sanitize)
        _export_sanitizer_env()
    digest = hashlib.sha256(
        "\x00".join([cc, " ".join(flags), source]).encode("utf-8")
    ).hexdigest()
    directory = build_dir()
    so_path = os.path.join(directory, digest + ".so")
    if os.path.exists(so_path):
        return so_path
    src_path = os.path.join(directory, digest + ".c")
    # The temp name must be unique per *build*, not per process: two
    # worker threads compiling the same kernel concurrently share a
    # pid, and a pid-suffixed name lets the second cc truncate the
    # file while the first publishes it — torn (even empty) .so
    # artifacts. mkstemp gives each build its own output; identical
    # content makes the concurrent replaces a benign last-writer-wins.
    fd, tmp_out = tempfile.mkstemp(
        prefix=digest + ".tmp", suffix=".so", dir=directory
    )
    os.close(fd)
    try:
        with open(src_path, "w") as handle:
            handle.write(source)
        result = subprocess.run(
            [cc, *flags, "-o", tmp_out, src_path, "-lm"],
            capture_output=True, timeout=300,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        _remove_quietly(tmp_out)
        raise NativeBuildError(f"native build failed: {err}") from err
    if result.returncode != 0:
        _remove_quietly(tmp_out)
        stderr = result.stderr.decode("utf-8", "replace").strip()
        raise NativeBuildError(
            f"{cc} exited {result.returncode} compiling kernel "
            f"module:\n{stderr[:2000]}"
        )
    if os.path.getsize(tmp_out) == 0:
        _remove_quietly(tmp_out)
        raise NativeBuildError(
            f"{cc} exited 0 but produced an empty shared object"
        )
    os.replace(tmp_out, so_path)
    return so_path


def _remove_quietly(path: str) -> None:
    """Best-effort unlink of a build leftover."""
    try:
        os.remove(path)
    except OSError:
        pass


def _probe_command(so_path: str) -> List[str]:
    """What to run to ``dlopen`` ``so_path`` somewhere else: the C
    helper wherever :func:`toolchain` built one. Without a compiler
    nothing is built here, but a cache-restored library can still
    arrive, and an interpreter can load it."""
    toolchain()
    if _PROBE_HELPER is not None:
        return [_PROBE_HELPER, so_path]
    return [
        sys.executable, "-c",
        "import ctypes, sys; ctypes.CDLL(sys.argv[1])",
        so_path,
    ]


def probe_shared_object(so_path: str) -> None:
    """``dlopen`` the library in a throwaway subprocess first.

    A corrupt or ABI-incompatible artifact can take the whole process
    down inside ``dlopen``; the probe confines that blast radius to a
    child that does nothing else (:func:`_probe_command`). Failure —
    any nonzero exit, including death by signal —
    raises :class:`NativeBuildError`, which is a permanent
    ``DslError``: the supervisor and service will not retry it.
    Verdicts are memoised per path for the life of the process.
    """
    if _PROBED.get(so_path):
        return
    env = None
    if sanitize_active():
        _export_sanitizer_env()
        env = dict(os.environ)
    try:
        result = subprocess.run(
            _probe_command(so_path),
            capture_output=True, timeout=60, env=env,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        raise NativeBuildError(
            f"subprocess dlopen probe failed for {so_path}: {err}"
        ) from err
    if result.returncode != 0:
        reason = (
            f"died with signal {-result.returncode}"
            if result.returncode < 0
            else f"exited {result.returncode}"
        )
        stderr = result.stderr.decode("utf-8", "replace").strip()
        raise NativeBuildError(
            f"subprocess dlopen probe of {so_path} {reason}"
            + (f": {stderr[:500]}" if stderr else "")
        )
    _PROBED[so_path] = True


def _bind(lib: ctypes.CDLL, symbol: str, spec) -> tuple:
    """``(entry, spec)``: ``symbol`` of ``lib`` with argtypes matching
    its param spec."""
    types: List[object] = []
    for param in spec:
        if "*" in param.ctext:
            types.append(ctypes.c_void_p)
        elif param.ctext == "double":
            types.append(ctypes.c_double)
        else:
            types.append(ctypes.c_long)
    entry = getattr(lib, symbol)
    entry.restype = None
    entry.argtypes = types
    return entry, spec


#: numpy dtype of each array-valued :class:`~repro.ir.cbackend.Param`
#: kind.
_ARRAY_DTYPES = {"i64[]": np.int64, "i32[]": np.int32, "f64[]": np.float64}


def _call(
    bound: tuple,
    ctx: Dict[str, object],
    table: Optional[np.ndarray] = None,
    part_lo: Optional[int] = None,
    part_hi: Optional[int] = None,
    result: int = 0,
    reduce: int = 0,
    at: Tuple[int, ...] = (),
) -> None:
    """Marshal one call of a :func:`_bind` entry from its param spec.

    ``table`` is the contiguous table (a packed group's ``(B, ...)``
    one for the batched entry, whose batch size and padded extents
    are read off its shape), or ``None`` for a result-only launch,
    whose scratch address is ``result``.
    """
    entry, spec = bound
    args: List[object] = []
    keepalive: List[np.ndarray] = []
    pads = iter(table.shape[1:] if table is not None else ())
    at = iter(at)
    for param in spec:
        if param.kind == "table":
            args.append(0 if table is None else table.ctypes.data)
        elif param.kind == "nprob":
            args.append(int(table.shape[0]))
        elif param.kind == "pad":
            args.append(int(next(pads)))
        elif param.name == "part_lo":
            args.append(_NO_LO if part_lo is None else int(part_lo))
        elif param.name == "part_hi":
            args.append(_NO_HI if part_hi is None else int(part_hi))
        elif param.kind in ("ub", "scalar_int"):
            args.append(int(ctx[param.key]))
        elif param.kind == "cols":
            args.append(int(np.asarray(ctx[param.key]).shape[1]))
        elif param.kind == "scalar_f64":
            args.append(float(ctx[param.key]))
        elif param.kind == "result":
            args.append(result)
        elif param.kind == "reduce":
            args.append(reduce)
        elif param.kind == "at":
            args.append(next(at, 0))
        else:
            arr = np.ascontiguousarray(
                ctx[param.key], dtype=_ARRAY_DTYPES[param.kind]
            )
            keepalive.append(arr)
            args.append(arr.ctypes.data)
    entry(*args)


def _fill(bound: tuple, T: np.ndarray, ctx, part_lo, part_hi) -> np.ndarray:
    """One table launch of ``bound``, written into ``T``."""
    table = np.ascontiguousarray(T)
    _call(bound, ctx, table, part_lo, part_hi)
    if table is not T:
        np.copyto(T, table)
    return T


class NativeRun:
    """The compiled-kernel callable for a loaded shared object.

    Binds both entries of the library when it loads: the per-problem
    ``repro_<name>`` and the lane-batched ``repro_<name>_batched``. A
    library missing either does not load. Each launch is a method:

    * ``run(T, ctx, part_lo=None, part_hi=None)`` — the backend
      calling convention; which order it runs in is the kernel's tile
      licence (:func:`repro.verify.races.tile_licence`);
    * :meth:`result` — where :attr:`result_only` is set, the same
      entry without a table, handing back one value;
    * :meth:`batched` — a whole packed map group in one call.
    """

    def __init__(self, kernel: Kernel, so_path: str) -> None:
        self.kernel = kernel
        self.so_path = so_path
        self._lib = ctypes.CDLL(so_path)
        _apply_thread_cap(self._lib)
        self._entry = _bind(
            self._lib, cbackend.entry_symbol(kernel),
            cbackend.native_param_spec(kernel),
        )
        self._batched = _bind(
            self._lib, cbackend.entry_symbol(kernel, batched=True),
            cbackend.native_batched_param_spec(kernel),
        )
        licence = races.tile_licence(kernel)
        #: May :meth:`result` be used (a blocked entry whose halo
        #: tile is bounded)?
        self.result_only = licence is not None and licence.result_only
        self._reach = licence.reach if licence else None
        self._ub_keys = tuple(f"ub_{d}" for d in kernel.dims)
        self._dtype = (
            np.int64 if cbackend.value_ctype(kernel) == "long"
            else np.float64
        )

    def __call__(
        self,
        T: np.ndarray,
        ctx: Dict[str, object],
        part_lo: Optional[int] = None,
        part_hi: Optional[int] = None,
    ) -> np.ndarray:
        return _fill(self._entry, T, ctx, part_lo, part_hi)

    def batched(
        self,
        T: np.ndarray,
        ctx: Dict[str, object],
        part_lo: Optional[int] = None,
        part_hi: Optional[int] = None,
    ) -> np.ndarray:
        """One launch of a whole map group: ``T`` is the padded
        ``(B, d0max, ...)`` group table and ``ctx`` is
        :func:`~repro.runtime.batching.pack_group`'s stacked context
        (``(B, 1)`` bounds, ``(B, Lmax)`` sequences, ``(B, 1)`` scalar
        columns, shared models)."""
        return _fill(self._batched, T, ctx, part_lo, part_hi)

    def result(
        self,
        ctx: Dict[str, object],
        reduce: Optional[str],
        coords: Tuple[int, ...],
    ):
        """Run every partition without a table; return the raw value
        a full launch's table would give for ``table.max()`` /
        ``table.min()`` (``reduce``) or ``table[coords]`` (``reduce``
        None; ``coords`` non-negative and in range, or no tile holds
        them and nothing would be handed back).

        The scratch — two boundary strips and a partial per block
        row — belongs to this call, so concurrent launches of one
        run share nothing.
        """
        extents = [int(ctx[key]) + 1 for key in self._ub_keys]
        if reduce is None and not (
            len(coords) == len(extents)
            and all(0 <= c < e for c, e in zip(coords, extents))
        ):
            raise IndexError(
                f"coordinates {tuple(coords)} outside the "
                f"{'x'.join(map(str, extents))} table"
            )
        scratch = np.empty(
            cbackend.result_scratch_cells(self._reach, extents),
            dtype=self._dtype,
        )
        _call(
            self._entry, ctx, result=scratch.ctypes.data,
            reduce=cbackend.REDUCTIONS[reduce], at=coords,
        )
        return scratch[0]


def compile_native(kernel: Kernel):
    """Emit, build, probe and load one kernel natively.

    Returns ``(run, source, so_path)``; raises
    :class:`NativeBuildError` on any failure (no compiler, compile
    error, probe death).
    """
    verdict = available()
    if not verdict.ok:
        raise NativeBuildError(verdict.detail)
    try:
        source = cbackend.emit_native_source(
            kernel, openmp=toolchain()[1]
        )
    except CodegenError as err:
        raise NativeBuildError(f"no C99 rendering: {err}") from err
    so_path = build_shared_object(source)
    probe_shared_object(so_path)
    return _make_run(kernel, so_path), source, so_path


def _make_run(kernel: Kernel, so_path: str):
    """In-process ``NativeRun``, or the sandbox proxy when enabled.

    When ``REPRO_NATIVE_SANDBOX=1`` (or :func:`repro.runtime.sandbox
    .configure`) the ``.so`` is never ``CDLL``-ed into this process:
    the proxy ships launches to a worker subprocess instead, so a
    segfault in the generated C kills only the worker.

    Sanitized builds are *always* sandboxed: the ASan runtime reads
    ``/proc/self/environ`` directly, so ``verify_asan_link_order=0``
    cannot be injected into an already-running interpreter — only a
    freshly exec'd worker (whose initial environ carries the exported
    options) can ``dlopen`` the instrumented library. A finding
    aborts the worker, which surfaces as a contained crash instead of
    taking the session down.
    """
    from . import sandbox

    if sandbox.enabled() or sanitize_active():
        return sandbox.SandboxedNativeRun(kernel, so_path)
    try:
        return NativeRun(kernel, so_path)
    except (OSError, AttributeError) as err:
        raise NativeBuildError(f"cannot load {so_path}: {err}") from err


def load_compiled(kernel: Kernel, so_path: str):
    """Load an existing artifact (persistent-cache warm path).

    Still routed through the subprocess probe — a cache-restored
    ``.so`` gets no more trust than a fresh build.
    """
    probe_shared_object(so_path)
    return _make_run(kernel, so_path)

