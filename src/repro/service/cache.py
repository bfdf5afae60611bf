"""Content-addressed kernel caches: in-memory LRU + persistent disk.

The paper's economics (Section 6) hinge on compiling once per
function (~1 s of CLooG overhead) and running thousands of problems
against the product. This module makes that amortisation survive the
process: compilation products are keyed by a canonical content hash
of everything that determines the generated code —

    (checked function source form, schedule dims + coefficients,
     probability mode, backend, serial format version)

— and stored in two tiers:

* :class:`LRUKernelCache` — a bounded, thread-safe in-memory tier with
  hit/miss/eviction counters (the :class:`~repro.runtime.engine.Engine`
  default);
* :class:`PersistentKernelCache` — the same memory tier backed by a
  directory of pickled kernel plans. Every file is written to a temp
  file and published with ``os.replace``, so processes share one
  directory with no lock; loads are corruption-tolerant (a bad entry
  is evicted and counted, never fatal); the executable callable is
  rebuilt by re-exec'ing the backend's generated source.

Nothing here imports the runtime at module level, so the engine can
depend on this module without a cycle.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from typing import Dict, List, NamedTuple, Optional, Tuple

#: Bump when the cache key derivation or the serialized record schema
#: changes; old on-disk entries then simply miss instead of colliding.
#: v2: kernels accept partition-range arguments (``part_lo`` /
#: ``part_hi``) and records carry the producing backend.
#: v3: records carry an artifact ``kind`` — ``"python-src"`` rebuilds
#: by re-exec'ing generated source, ``"native-so"`` additionally
#: embeds the compiled shared object (sha256-verified before it is
#: ever ``dlopen``'d).
#: v4: adds the ``"autotune-schedule"`` kind — the autotuner's winner
#: persisted per (kernel digest, domain-size bucket) so warm
#: processes and service replicas skip the search. Old-schema
#: entries are evicted by the MAGIC check as before.
#: v5: native records of backward-only kernels carry the blocked
#: wavefront (no ``_windowed`` symbol in source or ``.so``) and every
#: pickled parallelism certificate has a ``tile`` axis; a v4 record
#: holds the untiled source, a ring entry and a three-axis
#: certificate.
#: v6: the per-problem entry of a blocked-wavefront kernel takes the
#: result-only parameters (``_res``, ``_red``, ``_at_<dim>``); a v5
#: record's ``.so`` would be called through argtypes it was not built
#: for, and its pickled tile verdict has no ``reach``.
#: v7: no ``autotune-schedule`` kind; no ``_windowed`` symbol; pickled
#: certificates have three axes. A v6 record — a persisted autotune
#: winner, or a native record whose certificate still has a ``ring``
#: field — is evicted unread.
#: v8: the Python and NumPy preludes are rendered from one operation
#: table (``repro.ir.cell.OPS``) with C's helper names and formulas; a
#: v7 ``python-src`` record re-exec'd its stored source, old prelude
#: and all, so it would keep answering with the old ``min``/``max``
#: and ``safelog``.
#: v9: a pickled kernel carries no memos (``Kernel.memo`` is left out
#: of the payload). A v8 kernel brings its filled memos back as stray
#: attributes, so its sandbox digest differs from a fresh build's and
#: the two would keep separate crash histories.
KEY_FORMAT = 9

#: Leading magic of every on-disk record. Checked *before* the pickle
#: payload is touched: entries written by an older (or entirely
#: foreign) schema are evicted without ever being unpickled.
MAGIC = b"repro-kernel-cache:%d\n" % KEY_FORMAT


class CacheInfo(NamedTuple):
    """A ``functools.lru_cache``-style counter snapshot, extended with
    the disk tier's counters (all zero for memory-only caches).

    ``backends`` breaks the resident entries down by the code
    generator that produced them (``(("vector", 3), ("scalar", 1))``),
    so operators can see at a glance which kernels took the vector
    path — the per-kernel eligibility *reason* lives on
    ``CompiledKernel.eligibility``.
    """

    hits: int
    misses: int
    maxsize: int
    currsize: int
    evictions: int
    disk_hits: int
    disk_stores: int
    corrupt_evictions: int
    backends: Tuple[Tuple[str, int], ...] = ()
    #: Filled by ``Engine.cache_info()``: schedules the independent
    #: verifier confirmed / rejected for this engine.
    verified: int = 0
    verify_failures: int = 0


def function_source_form(func) -> str:
    """The checked function's canonical source text (memoised).

    ``str(func.definition)`` is the function's source form (return
    type, parameter types, body) — everything compilation reads from
    the function. Alphabet contents, matrices and models are
    *runtime* context (the generated code reads them from ``ctx``)
    and are deliberately absent. Memoised on the function object —
    ``map`` workloads derive a key per problem.
    """
    form = getattr(func, "_cache_source_form", None)
    if form is None:
        form = str(func.definition)
        try:
            func._cache_source_form = form
        except AttributeError:  # frozen/slotted functions: recompute
            pass
    return form


def canonical_kernel_form(
    func, schedule, prob_mode: str, backend: str
) -> str:
    """The canonical text a cache key hashes."""
    form = function_source_form(func)
    return "\n".join(
        (
            f"v{KEY_FORMAT}",
            form,
            ",".join(schedule.dims),
            ",".join(str(c) for c in schedule.coefficients),
            prob_mode,
            backend,
        )
    )


def kernel_cache_key(
    func, schedule, prob_mode: str, backend: str
) -> str:
    """Content-addressed cache key: sha256 of the canonical form."""
    text = canonical_kernel_form(func, schedule, prob_mode, backend)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def encode_compiled(compiled) -> bytes:
    """Serialize a ``CompiledKernel`` for the disk tier.

    The record is the :data:`MAGIC` header followed by a pickled
    payload; the header carries the schema version in cleartext so
    readers can reject stale entries without unpickling them.

    Native products embed the compiled shared object itself (kind
    ``"native-so"``) with its sha256, so a warm process on the same
    platform skips the C compiler entirely; the digest is re-verified
    at decode time before the bytes go anywhere near ``dlopen``.
    """
    record = {
        "format": KEY_FORMAT,
        "kind": "python-src",
        "payload": compiled.kernel.to_payload(),
        "source": compiled.source,
        "compile_seconds": compiled.compile_seconds,
        "backend": getattr(compiled, "backend", "scalar"),
    }
    so_path = getattr(compiled, "so_path", None)
    if getattr(compiled, "backend", "scalar") == "native":
        from ..runtime import native

        if native.sanitize_active():
            # Instrumented (REPRO_NATIVE_SANITIZE) artifacts are a
            # diagnostic build: embedding one would hand every warm
            # process an ASan/UBSan-linked library it cannot dlopen
            # in-process. Memory tier only; the disk tier misses.
            raise ValueError(
                "refusing to embed a sanitizer-instrumented shared "
                "object in a cache record"
            )
        if not so_path:
            raise ValueError(
                "native compilation product has no shared object path"
            )
        with open(so_path, "rb") as handle:
            so_bytes = handle.read()
        if not so_bytes:
            # A torn build artifact (e.g. a concurrent compile racing
            # the publish) must not be immortalised as a cache record.
            raise ValueError(
                f"refusing to embed empty shared object {so_path}"
            )
        record["kind"] = "native-so"
        record["so"] = so_bytes
        record["so_sha256"] = hashlib.sha256(so_bytes).hexdigest()
    return MAGIC + pickle.dumps(
        record, protocol=pickle.HIGHEST_PROTOCOL
    )


def decode_compiled(data: bytes, so_dir: Optional[str] = None):
    """Rebuild a ``CompiledKernel`` from :func:`encode_compiled` bytes.

    The :data:`MAGIC` header is verified *before* any unpickling: an
    entry from an older schema (or not written by this cache at all)
    raises ``ValueError`` immediately — callers evict it as corrupt —
    rather than being fed to ``pickle.loads`` and trusted to fail.
    Python products are reconstructed by re-exec'ing the generated
    source (the backends emit a self-contained module defining
    ``kernel(T, ctx, part_lo=None, part_hi=None)``).

    ``"native-so"`` records are reconstructed by materialising the
    embedded shared object as ``<sha256>.so`` under ``so_dir`` (the
    cache directory; the native build dir when None) — but only after
    the recorded digest matches the embedded bytes. A bit-flipped
    record is evicted as corrupt; it is **never** handed to
    ``dlopen``, where damage would be undefined behaviour instead of
    a checksum error. The restored object still passes the native
    runtime's segfault-guarded subprocess probe before any in-process
    load.
    """
    from ..ir.kernel import Kernel
    from ..runtime.engine import CompiledKernel

    if not data.startswith(MAGIC):
        head = bytes(data[:32])
        raise ValueError(
            f"cache record header {head!r} does not match "
            f"format {KEY_FORMAT} — stale or foreign entry"
        )
    try:
        record = pickle.loads(data[len(MAGIC):])
        if record["format"] != KEY_FORMAT:
            raise ValueError(
                f"cache record format {record['format']!r} != {KEY_FORMAT}"
            )
        kernel = Kernel.from_payload(record["payload"])
        source = record["source"]
        kind = record.get("kind", "python-src")
        so_path = None
        if kind == "native-so":
            run, so_path = _decode_native(record, kernel, so_dir)
        elif kind == "python-src":
            namespace: Dict[str, object] = {}
            exec(  # noqa: S102 - our own generated code
                compile(
                    source, f"<cached-kernel:{kernel.name}>", "exec"
                ),
                namespace,
            )
            run = namespace["kernel"]
        else:
            raise ValueError(f"unknown cache record kind {kind!r}")
    except ValueError:
        raise
    except Exception as err:
        raise ValueError(f"corrupt cache record: {err}") from err
    return CompiledKernel(
        kernel,
        run,
        source,
        float(record.get("compile_seconds", 0.0)),
        backend=str(record.get("backend", "scalar")),
        so_path=so_path,
    )


def _decode_native(record, kernel, so_dir: Optional[str]):
    """Verify and materialise an embedded shared object.

    Returns ``(run, so_path)``. Raises ``ValueError`` on digest
    mismatch — before the bytes touch the filesystem, let alone
    ``dlopen`` — and converts a
    :class:`~repro.lang.errors.NativeBuildError` (probe death, no
    loader on this host) into ``ValueError`` so the caller evicts
    the record as corrupt and recompiles.
    """
    so_bytes = record["so"]
    recorded = record["so_sha256"]
    actual = hashlib.sha256(so_bytes).hexdigest()
    if actual != recorded:
        raise ValueError(
            f"native cache record digest mismatch "
            f"({actual[:12]} != {recorded[:12]}) — refusing to load "
            f"the shared object"
        )
    if so_dir is None:
        from ..runtime import native

        so_dir = native.build_dir()
    os.makedirs(so_dir, exist_ok=True)
    so_path = os.path.join(so_dir, recorded + ".so")
    if not os.path.exists(so_path):
        fd, tmp_path = tempfile.mkstemp(
            prefix=".tmp-", suffix=".so", dir=so_dir
        )
        with os.fdopen(fd, "wb") as handle:
            handle.write(so_bytes)
        os.replace(tmp_path, so_path)
    from ..lang.errors import NativeBuildError
    from ..runtime import native

    try:
        run = native.load_compiled(kernel, so_path)
    except NativeBuildError as err:
        raise ValueError(
            f"cached shared object failed the load probe: {err}"
        ) from err
    return run, so_path


class LRUKernelCache:
    """Bounded in-memory tier: least-recently-used eviction, counters.

    Thread-safe; also speaks enough of the mapping protocol
    (``values``/``__len__``/``__contains__``/``__getitem__``) for the
    existing callers that iterate the engine's cache.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.RLock()
        #: key -> event set when the build in flight for it ends.
        self._flights: Dict[str, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0
        self.disk_stores = 0
        self.corrupt_evictions = 0

    # -- core protocol -------------------------------------------------------

    def lookup(self, key: str):
        """The cached product for ``key``, or None (counted)."""
        with self._lock:
            entry = self._hit(key)
            if entry is not None:
                return entry
        entry = self._load(key)
        with self._lock:
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
            return entry

    def get(self, key: str, build):
        """The product for ``key``, made by ``build()`` on a miss.

        Single-flight: the first caller to miss builds, and concurrent
        callers for the same key wait for it and count as hits, so
        ``misses`` equals builds. A build that raises wakes the
        waiters, and the next of them builds.
        """
        while True:
            with self._lock:
                entry = self._hit(key)
                if entry is not None:
                    return entry
                flight = self._flights.get(key)
                if flight is None:
                    flight = self._flights[key] = threading.Event()
                    break
            flight.wait()
        try:
            entry = self.lookup(key)
            if entry is None:
                entry = build()
                self.store(key, entry)
            return entry
        finally:
            with self._lock:
                del self._flights[key]
            flight.set()

    def store(self, key: str, compiled) -> None:
        """Insert (or refresh) ``key``, evicting the LRU overflow."""
        with self._lock:
            self._store_memory(key, compiled)

    def _hit(self, key: str):
        """The memory tier's entry for ``key``, counted as a hit, or
        None (lock held)."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
        return entry

    def _load(self, key: str):
        """A memory miss's second tier: none here."""
        return None

    def _store_memory(self, key: str, compiled) -> None:
        self._entries[key] = compiled
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def cache_info(self) -> CacheInfo:
        """Counter snapshot."""
        with self._lock:
            by_backend: Dict[str, int] = {}
            for entry in self._entries.values():
                backend = getattr(entry, "backend", "scalar")
                by_backend[backend] = by_backend.get(backend, 0) + 1
            return CacheInfo(
                self.hits,
                self.misses,
                self.capacity,
                len(self._entries),
                self.evictions,
                self.disk_hits,
                self.disk_stores,
                self.corrupt_evictions,
                tuple(sorted(by_backend.items())),
            )

    # -- mapping compatibility ----------------------------------------------

    def values(self) -> List[object]:
        """The cached products, least- to most-recently used."""
        with self._lock:
            return list(self._entries.values())

    def keys(self) -> List[str]:
        """The cached keys, least- to most-recently used."""
        with self._lock:
            return list(self._entries.keys())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __getitem__(self, key: str):
        with self._lock:
            return self._entries[key]


class PersistentKernelCache(LRUKernelCache):
    """Memory tier + content-addressed directory of kernel plans.

    One file per key (``<sha256>.kpkl``) under ``directory``, which
    any number of processes may share without a lock. Every record,
    and every shared object a native record embeds, is written to an
    ``mkstemp`` file and published with ``os.replace``: a reader
    opens either the whole old file or the whole new one, and two
    writers of one digest write the same content, so the last rename
    wins harmlessly. A crash-recovery sweep at start-up quarantines
    torn or foreign entries into ``.quarantine/`` — preserved for
    post-mortem, never re-read, never fatal — and clears stale temp
    files left by crashed writers. A load that fails for any reason
    likewise quarantines the file and counts a ``corrupt_eviction``
    — a damaged cache degrades to recompilation, never to a crash.
    Nothing bounds the directory; only the memory tier is an LRU.
    """

    SUFFIX = ".kpkl"
    QUARANTINE = ".quarantine"
    #: A ``.tmp-*`` file older than this is a crashed writer's
    #: leftover, not a write in flight, and is swept.
    STALE_TMP_SECONDS = 60.0

    def __init__(self, directory: str, capacity: int = 256) -> None:
        super().__init__(capacity)
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._recover_sweep()

    # -- tiered lookup -------------------------------------------------------

    def _load(self, key: str):
        """A memory miss falls to disk, promoting a hit into memory."""
        compiled = self._load_from_disk(key)
        if compiled is not None:
            with self._lock:
                self.disk_hits += 1
                self._store_memory(key, compiled)
        return compiled

    def store(self, key: str, compiled) -> None:
        """Insert into both tiers; disk errors degrade to memory-only."""
        with self._lock:
            self._store_memory(key, compiled)
        try:
            self._write_to_disk(key, compiled)
            with self._lock:
                self.disk_stores += 1
        except (OSError, ValueError):
            pass  # a read-only / full disk (or an unencodable
            # product, e.g. a torn .so) never fails compilation —
            # the disk tier just misses next time

    # -- disk tier -----------------------------------------------------------

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + self.SUFFIX)

    def _load_from_disk(self, key: str):
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        try:
            return decode_compiled(data, so_dir=self.directory)
        except ValueError:
            self._quarantine(path)
            with self._lock:
                self.corrupt_evictions += 1
            return None

    def _write_to_disk(self, key: str, compiled) -> None:
        data = encode_compiled(compiled)
        fd, tmp_path = tempfile.mkstemp(
            prefix=".tmp-", suffix=self.SUFFIX, dir=self.directory
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp_path, self._path(key))
        except OSError:
            self._evict_file(tmp_path)
            raise

    @staticmethod
    def _evict_file(path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

    def _quarantine(self, path: str) -> None:
        """Move a torn/foreign record into ``.quarantine/``.

        Quarantined entries are kept for post-mortem instead of
        silently deleted, and — crucially for multi-process safety —
        the atomic rename means two processes discovering the same
        torn record race benignly: exactly one wins the move, the
        loser's rename fails on the vanished source and is ignored.
        """
        quarantine_dir = os.path.join(self.directory, self.QUARANTINE)
        try:
            os.makedirs(quarantine_dir, exist_ok=True)
            os.replace(
                path,
                os.path.join(
                    quarantine_dir,
                    f"{os.path.basename(path)}.{os.getpid()}",
                ),
            )
        except OSError:
            self._evict_file(path)

    def _recover_sweep(self) -> None:
        """Crash recovery at start-up: clear wreckage, keep evidence.

        Quarantines every record whose :data:`MAGIC` header does not
        match (a torn write, a schema change, or a foreign file) and
        removes ``.tmp-*`` files older than
        :data:`STALE_TMP_SECONDS` — the leftovers of writers that
        died between ``mkstemp`` and ``os.replace``. Young temp
        files are left alone: they may be a live sibling's write in
        flight. Best-effort throughout; a contended or read-only
        directory never blocks construction.
        """
        import time

        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        now = time.time()
        for name in names:
            path = os.path.join(self.directory, name)
            if name.startswith(".tmp-"):
                try:
                    age = now - os.path.getmtime(path)
                except OSError:
                    continue
                if age > self.STALE_TMP_SECONDS:
                    self._evict_file(path)
                continue
            if not name.endswith(self.SUFFIX):
                continue
            try:
                with open(path, "rb") as handle:
                    head = handle.read(len(MAGIC))
            except OSError:
                continue
            if head != MAGIC:
                self._quarantine(path)
                with self._lock:
                    self.corrupt_evictions += 1

    def disk_keys(self) -> Tuple[str, ...]:
        """The keys currently present on disk."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return ()
        return tuple(
            name[: -len(self.SUFFIX)]
            for name in sorted(names)
            if name.endswith(self.SUFFIX) and not name.startswith(".tmp-")
        )
