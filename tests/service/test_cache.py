"""The content-addressed kernel caches: LRU tier, disk tier, keys."""

import os
import pickle

import pytest

from repro import Engine, Sequence
from repro.ir.kernel import Kernel
from repro.runtime import ENGLISH
from repro.schedule.schedule import Schedule
from repro.lang.errors import ScheduleError
from repro.service.cache import (
    LRUKernelCache,
    PersistentKernelCache,
    decode_compiled,
    encode_compiled,
    kernel_cache_key,
)

ARGS = {"s": Sequence("kitten", ENGLISH), "t": Sequence("sitting", ENGLISH)}


def record_names(directory):
    """The ``.kpkl`` records on disk (the directory also holds the
    ``.lock`` sidecar and, after quarantines, ``.quarantine/``)."""
    return [
        name
        for name in os.listdir(directory)
        if name.endswith(PersistentKernelCache.SUFFIX)
    ]


class TestScheduleSerialisation:
    def test_round_trip(self):
        schedule = Schedule(("i", "j"), (1, 2))
        assert Schedule.from_json(schedule.to_json()) == schedule

    def test_json_safe(self):
        import json

        schedule = Schedule(("i", "j"), (1, -1))
        assert json.loads(json.dumps(schedule.to_json())) == {
            "dims": ["i", "j"],
            "coefficients": [1, -1],
        }

    def test_malformed_rejected(self):
        with pytest.raises(ScheduleError):
            Schedule.from_json({"dims": ["i"]})
        with pytest.raises(ScheduleError):
            Schedule.from_json({"dims": ["i"], "coefficients": ["x"]})


class TestKernelPayload:
    def test_round_trip(self, edit_func):
        engine = Engine()
        schedule = engine.schedule_for(
            edit_func, engine.domain_of(
                edit_func,
                __import__("repro").Bindings(dict(ARGS)),
            ),
        )
        kernel = engine.compile(edit_func, schedule).kernel
        clone = Kernel.from_payload(kernel.to_payload())
        assert clone.name == kernel.name
        assert clone.schedule == kernel.schedule
        assert clone.dims == kernel.dims

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            Kernel.from_payload(b"not a payload")

    def test_wrong_format_rejected(self):
        data = pickle.dumps(
            {"format": -1, "schedule": {}, "kernel": None}
        )
        with pytest.raises(ValueError):
            Kernel.from_payload(data)


class TestCacheKey:
    def test_stable_across_objects(self, edit_func):
        schedule = Schedule(("i", "j"), (1, 1))
        a = kernel_cache_key(edit_func, schedule, "direct", "auto")
        b = kernel_cache_key(edit_func, schedule, "direct", "auto")
        assert a == b and len(a) == 64

    def test_every_component_differentiates(self, edit_func):
        schedule = Schedule(("i", "j"), (1, 1))
        base = kernel_cache_key(edit_func, schedule, "direct", "auto")
        assert base != kernel_cache_key(
            edit_func, Schedule(("i", "j"), (2, 1)), "direct", "auto"
        )
        assert base != kernel_cache_key(
            edit_func, schedule, "logspace", "auto"
        )
        assert base != kernel_cache_key(
            edit_func, schedule, "direct", "scalar"
        )

    def test_source_form_not_just_name(self, edit_func):
        """Two functions named ``d`` with different bodies get
        different keys — the key is content-addressed."""
        from repro import check_function, parse_function

        other = check_function(
            parse_function(
                "int d(seq[en] s, index[s] i) = "
                "if i == 0 then 0 else d(i-1) + 1"
            ),
            {"en": ENGLISH.chars},
        )
        schedule = Schedule(("i",), (1,))
        full = Schedule(("i", "j"), (1, 1))
        assert kernel_cache_key(
            other, schedule, "direct", "auto"
        ) != kernel_cache_key(edit_func, full, "direct", "auto")


class TestLRUKernelCache:
    def test_bounded_with_lru_eviction(self):
        cache = LRUKernelCache(capacity=2)
        cache.store("a", 1)
        cache.store("b", 2)
        assert cache.lookup("a") == 1  # refreshes a
        cache.store("c", 3)  # evicts b (the LRU)
        assert cache.lookup("b") is None
        assert cache.lookup("a") == 1
        assert cache.lookup("c") == 3
        info = cache.cache_info()
        assert info.evictions == 1
        assert info.currsize == 2
        assert info.maxsize == 2

    def test_counters(self):
        cache = LRUKernelCache(capacity=4)
        assert cache.lookup("missing") is None
        cache.store("k", "v")
        assert cache.lookup("k") == "v"
        info = cache.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_mapping_compatibility(self):
        cache = LRUKernelCache(capacity=4)
        cache.store("k", "v")
        assert "k" in cache
        assert cache["k"] == "v"
        assert cache.values() == ["v"]
        assert len(cache) == 1

    def test_rejects_silly_capacity(self):
        with pytest.raises(ValueError):
            LRUKernelCache(capacity=0)


class TestEngineCacheIntegration:
    def test_engine_cache_is_bounded(self, edit_func):
        engine = Engine(cache_capacity=1)
        engine.run(edit_func, ARGS)
        assert engine.cache_info().maxsize == 1
        assert engine.cache_info().currsize == 1

    def test_cache_info_counts_runs(self, edit_func):
        engine = Engine()
        engine.run(edit_func, ARGS)
        engine.run(edit_func, ARGS)
        info = engine.cache_info()
        assert info.misses == 1
        assert info.hits >= 1
        assert engine.cache_hits == info.hits
        assert engine.cache_misses == info.misses


class TestPersistentKernelCache:
    def test_round_trip_product_still_runs(self, tmp_path, edit_func):
        engine = Engine(
            kernel_cache=PersistentKernelCache(str(tmp_path))
        )
        first = engine.run(edit_func, ARGS)
        compiled = engine._cache.values()[0]
        restored = decode_compiled(encode_compiled(compiled))
        assert restored.source == compiled.source
        assert restored.kernel.schedule == compiled.kernel.schedule
        # The re-exec'd callable computes the same table.
        domain = engine.domain_of(
            edit_func, __import__("repro").Bindings(dict(ARGS))
        )
        ctx = engine.build_context(
            restored, __import__("repro").Bindings(dict(ARGS)), domain
        )
        table = engine._table_for(restored.kernel, domain)
        restored.run(table, ctx)
        assert table[6, 7] == first.value == 3

    def test_cold_process_warm_disk_compiles_nothing(
        self, tmp_path, edit_func
    ):
        """The acceptance criterion: a fresh engine + fresh cache
        instance over a warm directory performs zero compilations."""
        warm = Engine(kernel_cache=PersistentKernelCache(str(tmp_path)))
        expected = warm.run(edit_func, ARGS).value
        assert warm.cache_info().disk_stores == 1

        cold = Engine(kernel_cache=PersistentKernelCache(str(tmp_path)))
        result = cold.run(edit_func, ARGS)
        assert result.value == expected
        info = cold.cache_info()
        assert cold.cache_misses == 0
        assert info.misses == 0
        assert info.disk_hits == 1

    def test_corrupt_entry_evicted_not_fatal(self, tmp_path, edit_func):
        warm = Engine(kernel_cache=PersistentKernelCache(str(tmp_path)))
        warm.run(edit_func, ARGS)
        (path,) = [
            tmp_path / name for name in record_names(tmp_path)
        ]
        path.write_bytes(b"\x00garbage\x00")

        cold = Engine(kernel_cache=PersistentKernelCache(str(tmp_path)))
        result = cold.run(edit_func, ARGS)
        assert result.value == 3  # recompiled, no crash
        info = cold.cache_info()
        assert info.corrupt_evictions == 1
        assert info.misses == 1
        # The bad file was replaced by a fresh store.
        assert cold.cache_info().disk_stores == 1

    def test_truncated_pickle_evicted(self, tmp_path, edit_func):
        warm = Engine(kernel_cache=PersistentKernelCache(str(tmp_path)))
        warm.run(edit_func, ARGS)
        (name,) = record_names(tmp_path)
        path = tmp_path / name
        path.write_bytes(path.read_bytes()[:50])
        cold = Engine(kernel_cache=PersistentKernelCache(str(tmp_path)))
        assert cold.run(edit_func, ARGS).value == 3
        assert cold.cache_info().corrupt_evictions == 1

    def test_atomic_writes_leave_no_temp_files(
        self, tmp_path, edit_func
    ):
        engine = Engine(
            kernel_cache=PersistentKernelCache(str(tmp_path))
        )
        engine.run(edit_func, ARGS)
        names = [
            name
            for name in os.listdir(tmp_path)
            if name != ".lock"
            and name != PersistentKernelCache.QUARANTINE
        ]
        assert all(name.endswith(".kpkl") for name in names)
        assert not any(name.startswith(".tmp-") for name in names)

    def test_disk_capacity_prunes_oldest(self, tmp_path):
        cache = PersistentKernelCache(str(tmp_path), disk_capacity=2)
        from repro import check_function, parse_function

        engine = Engine(kernel_cache=cache)
        for extra in (0, 1, 2):
            func = check_function(
                parse_function(
                    f"int f(seq[en] s, index[s] i) = "
                    f"if i == 0 then {extra} else f(i-1) + 1"
                ),
                {"en": ENGLISH.chars},
            )
            engine.run(func, {"s": Sequence("abc", ENGLISH)})
        assert len(cache.disk_keys()) == 2

    def test_shared_across_engines(self, tmp_path, edit_func):
        cache = PersistentKernelCache(str(tmp_path))
        a = Engine(kernel_cache=cache)
        b = Engine(kernel_cache=cache)
        a.run(edit_func, ARGS)
        b.run(edit_func, ARGS)
        assert a.cache_misses == 1
        assert b.cache_misses == 0  # compiled by a, hit for b


class Tripwire:
    """Records whether it was ever reconstructed by ``pickle.loads``."""

    unpickled = False

    @staticmethod
    def _mark():
        Tripwire.unpickled = True
        return Tripwire()

    def __reduce__(self):
        return (Tripwire._mark, ())


class TestFormatGuard:
    """The on-disk schema guard: stale entries are rejected *before*
    their pickle payload is ever deserialised."""

    def test_records_carry_magic_header(self, edit_func):
        from repro.service.cache import MAGIC

        engine = Engine()
        engine.run(edit_func, ARGS)
        compiled = engine._cache.values()[0]
        data = encode_compiled(compiled)
        assert data.startswith(MAGIC)
        assert str(__import__("repro").service.cache.KEY_FORMAT) in (
            MAGIC.decode()
        )

    def test_empty_shared_object_refused_at_encode(
        self, edit_func, tmp_path
    ):
        """A torn build artifact (zero bytes on disk) must never be
        immortalised as a native-so record — and a store hitting one
        degrades to memory-only instead of failing the compile."""
        engine = Engine()
        engine.run(edit_func, ARGS)
        compiled = engine._cache.values()[0]
        torn = tmp_path / "torn.so"
        torn.write_bytes(b"")
        compiled = type(compiled)(
            compiled.kernel, compiled.run, compiled.source,
            compiled.compile_seconds, backend="native",
            so_path=str(torn),
        )
        with pytest.raises(ValueError, match="empty shared object"):
            encode_compiled(compiled)
        cache = PersistentKernelCache(str(tmp_path / "cache"))
        cache.store("torn-key", compiled)  # must not raise
        assert cache.lookup("torn-key") is compiled  # memory tier intact
        assert "torn-key" not in cache.disk_keys()

    def test_headerless_record_rejected_without_unpickling(self):
        """A v1-era record (bare pickle, no magic) must be refused
        before pickle.loads ever runs on it."""
        Tripwire.unpickled = False
        stale = pickle.dumps(
            {"format": 1, "payload": Tripwire(), "source": ""}
        )
        assert pickle.loads(stale) and Tripwire.unpickled  # trap armed
        Tripwire.unpickled = False
        with pytest.raises(ValueError, match="header"):
            decode_compiled(stale)
        assert Tripwire.unpickled is False

    def test_old_schema_file_evicted_on_load(self, tmp_path, edit_func):
        warm = Engine(kernel_cache=PersistentKernelCache(str(tmp_path)))
        warm.run(edit_func, ARGS)
        (name,) = record_names(tmp_path)
        path = tmp_path / name
        # Rewrite the entry as an older schema would have: same pickle
        # payload, previous version in the header.
        data = path.read_bytes()
        from repro.service.cache import MAGIC

        path.write_bytes(
            b"repro-kernel-cache:1\n" + data[len(MAGIC):]
        )
        cold = Engine(kernel_cache=PersistentKernelCache(str(tmp_path)))
        assert cold.run(edit_func, ARGS).value == 3  # recompiled
        info = cold.cache_info()
        assert info.corrupt_evictions == 1
        assert info.disk_stores == 1  # replaced with a fresh record

    def test_previous_format_record_is_a_miss_not_a_misload(
        self, tmp_path, edit_func
    ):
        """Format 6 records are a persisted autotune winner — a kind
        this format no longer has — or a native product whose pickled
        certificate still carries a ``ring`` axis: neither may be
        unpickled into today's classes. Keys embed the format, so a
        format-7 process never asks for one; and a file that does sit
        under a current key with the old header is evicted unread,
        then replaced by a fresh build."""
        from repro.service import cache as cache_mod
        from repro.service.cache import MAGIC, canonical_kernel_form

        assert cache_mod.KEY_FORMAT == 7
        warm = Engine(kernel_cache=PersistentKernelCache(str(tmp_path)))
        warm.run(edit_func, ARGS)
        compiled = warm._cache.values()[0]
        form = canonical_kernel_form(
            edit_func, compiled.schedule, "direct", compiled.backend
        )
        assert form.startswith("v7\n")
        (name,) = record_names(tmp_path)
        path = tmp_path / name
        for stale in (
            {"format": 6, "payload": Tripwire()},
            {
                "format": 6,
                "kind": "autotune-schedule",
                "schedule": {"dims": ["i", "j"], "coefficients": [1, 2]},
                "meta": {"predicted_cycles": Tripwire()},
            },
        ):
            Tripwire.unpickled = False
            record = b"repro-kernel-cache:6\n" + pickle.dumps(stale)
            with pytest.raises(ValueError, match="stale or foreign"):
                decode_compiled(record)
            path.write_bytes(record)
            cold = Engine(
                kernel_cache=PersistentKernelCache(str(tmp_path))
            )
            assert cold.run(edit_func, ARGS).value == 3  # recompiled
            assert Tripwire.unpickled is False
            info = cold.cache_info()
            assert info.disk_hits == 0
            assert info.corrupt_evictions == 1
            assert info.disk_stores == 1
            assert path.read_bytes().startswith(MAGIC)
        if compiled.backend == "native":
            rebuilt = cold._cache.values()[0]
            assert "_windowed" not in rebuilt.source
            assert "for (long _bd = 0;" in rebuilt.source
            assert "long* _res, long _red, long _at_i" in rebuilt.source

    def test_backend_survives_round_trip(self, edit_func):
        engine = Engine(backend="vector")
        engine.run(edit_func, ARGS)
        compiled = engine._cache.values()[0]
        restored = decode_compiled(encode_compiled(compiled))
        assert restored.backend == compiled.backend == "vector"


class TestBackendBreakdown:
    def test_cache_info_counts_entries_per_backend(self, edit_func):
        cache = LRUKernelCache(capacity=8)
        vector = Engine(backend="vector", kernel_cache=cache)
        vector.run(edit_func, ARGS)
        scalar = Engine(backend="scalar", kernel_cache=cache)
        scalar.run(edit_func, ARGS)
        info = cache.cache_info()
        assert dict(info.backends) == {"scalar": 1, "vector": 1}

    def test_empty_cache_reports_no_backends(self):
        assert LRUKernelCache().cache_info().backends == ()

    def test_breakdown_tracks_eviction(self, edit_func):
        cache = LRUKernelCache(capacity=1)
        vector = Engine(backend="vector", kernel_cache=cache)
        vector.run(edit_func, ARGS)
        scalar = Engine(backend="scalar", kernel_cache=cache)
        scalar.run(edit_func, ARGS)  # evicts the vector entry
        info = cache.cache_info()
        assert dict(info.backends) == {"scalar": 1}
