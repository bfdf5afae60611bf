"""The persistent cache's native tier: embedded .so round trips.

Cold start compiles with ``cc`` and stores the shared object's bytes
(sha256-stamped) inside the cache record; a warm process re-verifies
the digest, materialises the artifact and ``dlopen``s it — without
ever invoking a compiler. A record whose digest disagrees with its
bytes is refused before ``dlopen`` and counted as a corrupt eviction.
"""

import hashlib
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro import Engine, Sequence
from repro.runtime import ENGLISH
from repro.runtime import native
from repro.runtime.values import Bindings
from repro.service.cache import (
    MAGIC,
    PersistentKernelCache,
    decode_compiled,
    encode_compiled,
)
from repro.service.server import ComputeService

from .conftest import EDIT_PROGRAM

pytestmark = pytest.mark.skipif(
    not native.available().ok,
    reason="no working C compiler in this environment",
)

ARGS = {"s": Sequence("kitten", ENGLISH), "t": Sequence("sitting", ENGLISH)}


def native_compiled(edit_func, cache=None):
    engine = Engine(backend="native", kernel_cache=cache)
    bound = Bindings(dict(ARGS))
    domain = engine.domain_of(edit_func, bound)
    schedule = engine.schedule_for(edit_func, domain)
    compiled = engine.compile(edit_func, schedule, domain)
    return engine, compiled, bound, domain, schedule


class TestRecordFormat:
    def test_native_record_embeds_so(self, edit_func):
        _engine, compiled, *_ = native_compiled(edit_func)
        assert compiled.backend == "native"
        data = encode_compiled(compiled)
        record = pickle.loads(data[len(MAGIC):])
        assert record["kind"] == "native-so"
        with open(compiled.so_path, "rb") as handle:
            so_bytes = handle.read()
        assert record["so"] == so_bytes
        assert (
            record["so_sha256"] == hashlib.sha256(so_bytes).hexdigest()
        )

    def test_decode_materialises_and_runs(self, edit_func, tmp_path):
        engine, compiled, bound, domain, schedule = native_compiled(
            edit_func
        )
        data = encode_compiled(compiled)
        clone = decode_compiled(data, so_dir=str(tmp_path))
        assert clone.backend == "native"
        assert os.path.dirname(clone.so_path) == str(tmp_path)
        ctx = engine.build_context(compiled, bound, domain)
        expected = engine._table_for(compiled.kernel, domain)
        actual = expected.copy()
        lo = schedule.min_partition(domain)
        hi = schedule.max_partition(domain)
        compiled.run(expected, ctx, part_lo=lo, part_hi=hi)
        clone.run(actual, ctx, part_lo=lo, part_hi=hi)
        assert actual.tobytes() == expected.tobytes()

    def test_digest_mismatch_refused_before_dlopen(
        self, edit_func, tmp_path
    ):
        _engine, compiled, *_ = native_compiled(edit_func)
        data = encode_compiled(compiled)
        record = pickle.loads(data[len(MAGIC):])
        so = bytearray(record["so"])
        so[100] ^= 0xFF  # one flipped bit in the machine code
        record["so"] = bytes(so)
        tampered = MAGIC + pickle.dumps(record)
        with pytest.raises(ValueError) as err:
            decode_compiled(tampered, so_dir=str(tmp_path))
        assert "digest mismatch" in str(err.value)
        # Nothing was written for dlopen to find.
        assert not any(
            name.endswith(".so") for name in os.listdir(tmp_path)
        )


class TestPersistentTier:
    def test_cold_then_warm(self, edit_func, tmp_path):
        cold_cache = PersistentKernelCache(str(tmp_path))
        native_compiled(edit_func, cache=cold_cache)
        info = cold_cache.cache_info()
        assert info.misses == 1
        assert info.disk_stores == 1

        warm_cache = PersistentKernelCache(str(tmp_path))
        _engine, compiled, *_ = native_compiled(
            edit_func, cache=warm_cache
        )
        info = warm_cache.cache_info()
        assert info.misses == 0
        assert info.disk_hits == 1
        assert info.backends == (("native", 1),)
        assert compiled.backend == "native"

    def test_warm_start_needs_no_compiler(self, edit_func, tmp_path,
                                          monkeypatch):
        """The whole point of embedding the .so: a warm process on the
        same platform runs natively even if cc has vanished."""
        cold_cache = PersistentKernelCache(str(tmp_path))
        engine, compiled, bound, domain, schedule = native_compiled(
            edit_func, cache=cold_cache
        )
        value_ctx = engine.build_context(compiled, bound, domain)
        expected = engine._table_for(compiled.kernel, domain)
        compiled.run(
            expected, value_ctx,
            part_lo=schedule.min_partition(domain),
            part_hi=schedule.max_partition(domain),
        )

        # What a fresh process on a host without cc starts from: no
        # verdict, no probe helper, nothing probed.
        monkeypatch.setenv("REPRO_CC", "/nonexistent/cc-missing")
        native.reset_toolchain_cache()
        monkeypatch.setattr(native, "_PROBED", {})
        try:
            assert not native.available().ok
            assert native._PROBE_HELPER is None
            warm_cache = PersistentKernelCache(str(tmp_path))
            key = warm_cache.disk_keys()[0]
            clone = warm_cache.lookup(key)
            assert clone is not None and clone.backend == "native"
            assert warm_cache.cache_info().corrupt_evictions == 0
            assert len(native._PROBED) == 1  # loaded through a probe
            actual = expected.copy()
            actual[:] = 0
            actual[0, :] = expected[0, :]
            actual[:, 0] = expected[:, 0]
            clone.run(
                actual, value_ctx,
                part_lo=schedule.min_partition(domain),
                part_hi=schedule.max_partition(domain),
            )
            assert actual.tobytes() == expected.tobytes()
        finally:
            native.reset_toolchain_cache()

    def test_fresh_process_without_compiler_keeps_the_record(
        self, edit_func, tmp_path
    ):
        """The same, with nothing carried over: a new interpreter that
        never had a compiler loads the record natively and leaves it
        on disk."""
        native_compiled(edit_func, cache=PersistentKernelCache(str(tmp_path)))
        script = (
            "import sys\n"
            "from repro.runtime import native\n"
            "from repro.service.cache import PersistentKernelCache\n"
            "assert not native.available().ok\n"
            "cache = PersistentKernelCache(sys.argv[1])\n"
            "(key,) = cache.disk_keys()\n"
            "clone = cache.lookup(key)\n"
            "info = cache.cache_info()\n"
            "assert clone is not None and clone.backend == 'native'\n"
            "assert info.disk_hits == 1 and not info.corrupt_evictions\n"
        )
        env = dict(os.environ, REPRO_CC="/nonexistent/cc-missing")
        env.pop("REPRO_NATIVE_CACHE_DIR", None)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        result = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert len(PersistentKernelCache(str(tmp_path)).disk_keys()) == 1

    def test_corrupt_record_evicted_and_recompiled(
        self, edit_func, tmp_path
    ):
        cold_cache = PersistentKernelCache(str(tmp_path))
        native_compiled(edit_func, cache=cold_cache)
        (path,) = [
            os.path.join(str(tmp_path), name)
            for name in os.listdir(tmp_path)
            if name.endswith(cold_cache.SUFFIX)
        ]
        with open(path, "r+b") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            handle.truncate(size // 2)

        damaged = PersistentKernelCache(str(tmp_path))
        _engine, compiled, *_ = native_compiled(
            edit_func, cache=damaged
        )
        info = damaged.cache_info()
        assert info.corrupt_evictions == 1
        assert info.misses == 1
        assert compiled.backend == "native"  # recompiled, not crashed


class TestServiceRoundTrip:
    def test_native_service_warm_start(self, tmp_path):
        cache_dir = str(tmp_path / "kernels")
        with ComputeService(
            workers=1, batch_window=0.001,
            cache_dir=cache_dir, backend="native",
        ) as service:
            handle = service.submit(
                EDIT_PROGRAM, "d", {"s": "kitten", "t": "sitting"}
            )
            assert handle.result(timeout=30) == 3
            cold = service.kernel_cache.cache_info()
            assert cold.disk_stores >= 1
            assert ("native", 1) in cold.backends

        with ComputeService(
            workers=1, batch_window=0.001,
            cache_dir=cache_dir, backend="native",
        ) as service:
            handle = service.submit(
                EDIT_PROGRAM, "d", {"s": "sunday", "t": "saturday"}
            )
            assert handle.result(timeout=30) == 3
            warm = service.kernel_cache.cache_info()
            assert warm.disk_hits >= 1
            assert warm.misses == 0
