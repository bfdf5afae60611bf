"""Multi-process kernel cache: atomic renames, quarantine, crash recovery.

The acceptance scenario: two concurrent OS processes sharing one
cache directory both complete a warm-start round trip with zero
corrupt-eviction races; writers renaming records into place while a
reader loads them never show the reader a torn record — plus the
crash-recovery sweep that makes a shared directory safe to reopen
after a writer died mid-store.
"""

import os
import subprocess
import sys
import time

from repro import Engine, Sequence, check_function, parse_function
from repro.runtime import ENGLISH
from repro.service.cache import MAGIC, PersistentKernelCache

SRC_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(Engine.__init__.__code__.co_filename)))
)

EDIT_FUNC_SRC = """
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
""".strip()

#: What each racing child runs: same function, same shared cache
#: directory, so both processes compile + store the same digest.
CHILD_SCRIPT = """
import sys
from repro import Engine, Sequence, check_function, parse_function
from repro.runtime import ENGLISH
from repro.service.cache import PersistentKernelCache

func = check_function(
    parse_function({src!r}), {{"en": ENGLISH.chars}}
)
cache = PersistentKernelCache(sys.argv[1])
engine = Engine(kernel_cache=cache)
for _ in range(3):
    result = engine.run(
        func,
        {{"s": Sequence("kitten", ENGLISH),
          "t": Sequence("sitting", ENGLISH)}},
    )
    assert result.value == 3, result.value
info = cache.cache_info()
assert info.corrupt_evictions == 0, info
print(result.value)
"""


def edit_func():
    return check_function(
        parse_function(EDIT_FUNC_SRC), {"en": ENGLISH.chars}
    )


def spawn(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-c", script] + [str(arg) for arg in args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )


def run_children(cache_dir, count=2):
    script = CHILD_SCRIPT.format(src=EDIT_FUNC_SRC)
    children = [spawn(script, cache_dir) for _ in range(count)]
    outcomes = []
    for child in children:
        out, err = child.communicate(timeout=120)
        outcomes.append((child.returncode, out, err))
    return outcomes


class TestTwoProcessRace:
    def test_concurrent_writers_share_one_directory(self, tmp_path):
        """Two processes compile-and-store the same kernel into the
        same directory simultaneously: both succeed, and a cold
        reader afterwards warm-starts with zero corrupt evictions."""
        outcomes = run_children(tmp_path, count=2)
        for code, out, err in outcomes:
            assert code == 0, err.decode()
            assert out.strip() == b"3"
        # The directory holds exactly one record per digest — the
        # concurrent stores each renamed a whole record into place.
        cold = PersistentKernelCache(str(tmp_path))
        assert len(cold.disk_keys()) >= 1
        engine = Engine(kernel_cache=cold)
        result = engine.run(
            edit_func(),
            {"s": Sequence("kitten", ENGLISH),
             "t": Sequence("sitting", ENGLISH)},
        )
        assert result.value == 3
        info = cold.cache_info()
        assert info.corrupt_evictions == 0
        assert info.disk_hits >= 1  # warm start, no recompilation


class TestRecoverySweep:
    def warm_cache(self, tmp_path):
        warm = Engine(
            kernel_cache=PersistentKernelCache(str(tmp_path))
        )
        warm.run(
            edit_func(),
            {"s": Sequence("kitten", ENGLISH),
             "t": Sequence("sitting", ENGLISH)},
        )

    def test_torn_record_quarantined_not_deleted(self, tmp_path):
        self.warm_cache(tmp_path)
        (key,) = PersistentKernelCache(str(tmp_path)).disk_keys()
        record = tmp_path / (key + PersistentKernelCache.SUFFIX)
        record.write_bytes(b"\x00torn write, no magic")
        cache = PersistentKernelCache(str(tmp_path))
        # Swept at construction: quarantined for post-mortem, counted.
        assert cache.cache_info().corrupt_evictions == 1
        assert cache.disk_keys() == ()
        quarantine = tmp_path / PersistentKernelCache.QUARANTINE
        (moved,) = os.listdir(quarantine)
        assert moved.startswith(key + PersistentKernelCache.SUFFIX)
        # And the next run recompiles cleanly into the same directory.
        engine = Engine(kernel_cache=cache)
        assert engine.run(
            edit_func(),
            {"s": Sequence("kitten", ENGLISH),
             "t": Sequence("sitting", ENGLISH)},
        ).value == 3

    def test_stale_tmp_files_swept_young_ones_kept(self, tmp_path):
        stale = tmp_path / ".tmp-dead-writer.kpkl"
        stale.write_bytes(b"partial")
        old = time.time() - 2 * PersistentKernelCache.STALE_TMP_SECONDS
        os.utime(stale, (old, old))
        young = tmp_path / ".tmp-live-writer.kpkl"
        young.write_bytes(b"in flight")
        PersistentKernelCache(str(tmp_path))
        assert not stale.exists()  # crashed writer's leftover
        assert young.exists()  # may be a live sibling's write

    def test_valid_records_survive_the_sweep(self, tmp_path):
        self.warm_cache(tmp_path)
        cache = PersistentKernelCache(str(tmp_path))
        assert cache.cache_info().corrupt_evictions == 0
        assert len(cache.disk_keys()) == 1

    def test_magic_header_is_versioned(self):
        assert MAGIC.startswith(b"repro-kernel-cache:")


#: A writer compiles the two shared kernels and its own, then stores
#: each again and again, so its renames land while the reader reads.
WRITER_SCRIPT = """
import sys
from repro import Engine, Sequence, check_function, parse_function
from repro.runtime import ENGLISH
from repro.service.cache import PersistentKernelCache

cache = PersistentKernelCache(sys.argv[1])
engine = Engine(kernel_cache=cache)
for extra in (0, 1, 100 + int(sys.argv[2])):
    func = check_function(
        parse_function(
            f"int f(seq[en] s, index[s] i) = "
            f"if i == 0 then {extra} else f(i-1) + 1"
        ),
        {"en": ENGLISH.chars},
    )
    result = engine.run(func, {"s": Sequence("abc", ENGLISH)})
    assert result.value == extra + 3, result.value
for _ in range(20):
    for key in cache.keys():
        cache.store(key, cache.lookup(key))
info = cache.cache_info()
assert info.corrupt_evictions == 0, info
print(info.disk_stores)
"""

#: The reader opens a fresh cache over the directory and loads every
#: listed record, round after round, until the stop file appears.
READER_SCRIPT = """
import os, sys
from repro.service.cache import PersistentKernelCache

loads = 0
while True:
    stopping = os.path.exists(sys.argv[2])
    cache = PersistentKernelCache(sys.argv[1])
    for key in cache.disk_keys():
        assert cache.lookup(key) is not None, key
        loads += 1
    info = cache.cache_info()
    assert info.corrupt_evictions == 0, info
    if stopping:
        break
print(loads)
"""


class TestRenamePublication:
    def test_reader_never_sees_a_partial_record(self, tmp_path):
        """Three writers store shared and distinct kernels into one
        directory while a fourth process keeps loading everything
        listed there: no process counts a corrupt record, every
        record decodes, and no temp file is left behind."""
        stop = tmp_path / "stop"
        cache_dir = tmp_path / "kcache"
        cache_dir.mkdir()
        reader = spawn(READER_SCRIPT, cache_dir, stop)
        writers = [
            spawn(WRITER_SCRIPT, cache_dir, index) for index in range(3)
        ]
        try:
            for writer in writers:
                out, err = writer.communicate(timeout=120)
                assert writer.returncode == 0, err.decode()
                assert int(out) > 0
        finally:
            stop.touch()
            out, err = reader.communicate(timeout=120)
        assert reader.returncode == 0, err.decode()
        assert int(out) > 0
        names = os.listdir(cache_dir)
        assert not [name for name in names if name.startswith(".tmp-")]
        assert PersistentKernelCache.QUARANTINE not in names
        cold = PersistentKernelCache(str(cache_dir))
        keys = cold.disk_keys()
        assert len(keys) == 5  # two shared kernels, one per writer
        for key in keys:
            assert cold.lookup(key) is not None
        assert cold.cache_info().corrupt_evictions == 0
