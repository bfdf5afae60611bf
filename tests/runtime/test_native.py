"""Tests for the native compiled backend (cc + ctypes runtime)."""

import os
import sys

import numpy as np
import pytest

from repro.ir import cbackend
from repro.lang.errors import CodegenError, DslError, NativeBuildError
from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.runtime import native
from repro.runtime.engine import Engine
from repro.runtime.ladder import VECTOR_CROSSOVER
from repro.runtime.values import Bindings, Sequence
from repro.verify.races import licences

EN = {"en": "abcdefghijklmnopqrstuvwxyz"}
ALPHABET = "abcdefghijklmnopqrstuvwxyz"

EDIT_DISTANCE = """
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""

# One read looks forward in j: the partition sweep, not the blocked
# wavefront.
FORWARD_LOOKING = """
int g(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j > 7 then g(i-1, j) + 1
  else g(i-1, j+1) + 1
"""

have_cc = native.available().ok
needs_cc = pytest.mark.skipif(
    not have_cc, reason="no working C compiler in this environment"
)


@pytest.fixture
def spawned(monkeypatch):
    """Every command ``native`` hands to ``subprocess.run``."""
    commands = []
    run = native.subprocess.run

    def counting(cmd, **kwargs):
        commands.append(cmd)
        return run(cmd, **kwargs)

    monkeypatch.setattr(native.subprocess, "run", counting)
    return commands


def edit_func():
    return check_function(parse_function(EDIT_DISTANCE.strip()), EN)


def edit_bindings(n=9, m=11):
    return {
        "s": Sequence("abacadabra"[:n], ALPHABET),
        "t": Sequence("abracadabra"[:m], ALPHABET),
    }


def compile_edit(engine, bindings=None, func=None, user_schedule=None):
    func = func or edit_func()
    bound = Bindings(dict(bindings or edit_bindings()))
    domain = engine.domain_of(func, bound)
    schedule = engine.schedule_for(func, domain, user_schedule)
    compiled = engine.compile(func, schedule, domain)
    ctx = engine.build_context(compiled, bound, domain)
    table = engine._table_for(compiled.kernel, domain)
    return compiled, ctx, table, domain, schedule


class TestAvailability:
    def test_disable_env_checked_fresh(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        verdict = native.available()
        assert not verdict.ok
        assert verdict.rule == "disabled"
        monkeypatch.delenv("REPRO_NATIVE_DISABLE")
        assert native.available().rule != "disabled"

    def test_no_compiler_is_machine_readable(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_DISABLE", raising=False)
        monkeypatch.setenv("REPRO_CC", "/nonexistent/cc-missing")
        native.reset_toolchain_cache()
        try:
            verdict = native.available()
            assert not verdict.ok
            assert verdict.rule == "no-compiler"
            assert "not found" in verdict.detail
        finally:
            native.reset_toolchain_cache()

    @pytest.mark.parametrize("raw", ["abc", "0", "-2"])
    def test_thread_cap_must_be_a_positive_integer(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_NATIVE_THREADS", raw)
        with pytest.raises(ValueError, match="REPRO_NATIVE_THREADS") as err:
            native.thread_count()
        assert "positive integer" in str(err.value)
        monkeypatch.setenv("REPRO_NATIVE_THREADS", "3")
        assert native.thread_count() == 3

    @needs_cc
    def test_thread_cap_holds_on_every_launching_thread(self, monkeypatch):
        """The cap belongs to the library, not to the thread that
        loaded it: a service worker or a client thread launching it
        reads the same cap, and a load without the variable clears
        it."""
        import ctypes
        import threading

        if not native.toolchain()[1] or (os.cpu_count() or 1) < 2:
            pytest.skip("needs OpenMP and two cores")
        if native.sanitize_active():
            pytest.skip("a sanitized library never loads in-process")
        engine = Engine(backend="scalar")
        kernels = [
            compile_edit(engine, func=check_function(
                parse_function(text.strip()), EN
            ))[0].kernel
            for text in (EDIT_DISTANCE, FORWARD_LOOKING)
        ]
        assert licences(kernels[0]).tile is not None
        assert licences(kernels[1]).tile is None

        def reads(lib):
            """``repro_max_threads()`` here and on a new thread."""
            probe = lib.repro_max_threads
            probe.restype = ctypes.c_long
            seen = []
            worker = threading.Thread(target=lambda: seen.append(probe()))
            worker.start()
            worker.join(timeout=30)
            return probe(), seen[0]

        for kernel in kernels:
            so_path = native.build_shared_object(
                cbackend.emit_native_source(kernel, openmp=True)
            )
            monkeypatch.setenv("REPRO_NATIVE_THREADS", "1")
            run = native.NativeRun(kernel, so_path)
            assert reads(run._lib) == (1, 1)
            monkeypatch.delenv("REPRO_NATIVE_THREADS")
            run = native.NativeRun(kernel, so_path)
            assert min(reads(run._lib)) >= 2

    @needs_cc
    def test_toolchain_memoised(self):
        assert native.toolchain() is native.toolchain()

    @needs_cc
    def test_one_compiler_run_answers_cc_and_openmp(self, spawned):
        """The probe builds the dlopen helper with ``-fopenmp``; where
        that links, nothing is left to ask a second compiler."""
        if not native.toolchain()[1]:
            pytest.skip("OpenMP does not link here: the probe retries")
        del spawned[:]
        native.reset_toolchain_cache()
        cc, omp, _detail = native.toolchain()
        assert omp and len(spawned) == 1
        assert spawned[0][0] == cc and "-fopenmp" in spawned[0]


class TestBuild:
    @needs_cc
    def test_artifacts_content_addressed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path))
        source = "int repro_one(int x) { return x + 1; }\n"
        first = native.build_shared_object(source)
        stamp = os.stat(first).st_mtime_ns
        again = native.build_shared_object(source)
        assert again == first
        # Warm build never re-ran the compiler.
        assert os.stat(again).st_mtime_ns == stamp
        other = native.build_shared_object(
            "int repro_two(int x) { return x + 2; }\n"
        )
        assert other != first

    @needs_cc
    def test_concurrent_same_source_builds_never_torn(
        self, tmp_path, monkeypatch
    ):
        """Regression: the temp output used to be pid-suffixed, so two
        threads compiling the same kernel shared one temp file and the
        second cc could truncate it while the first published it —
        torn (even empty) .so artifacts in the shared cache. Each
        build now gets its own temp file."""
        import threading

        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path))
        source = "int repro_race(int x) { return x * 3; }\n"
        paths, errors = [], []

        def build():
            try:
                paths.append(native.build_shared_object(source))
            except Exception as err:  # noqa: BLE001 - collected
                errors.append(err)

        threads = [threading.Thread(target=build) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(set(paths)) == 1
        assert os.path.getsize(paths[0]) > 0
        # No temp leftovers: every racer either published or cleaned up.
        leftovers = [
            name for name in os.listdir(tmp_path) if ".tmp" in name
        ]
        assert leftovers == []

    @needs_cc
    def test_compile_error_raises_native_build_error(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path))
        with pytest.raises(NativeBuildError) as err:
            native.build_shared_object("this is not C\n")
        assert "exited" in str(err.value)

    def test_no_compiler_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_CC", "/nonexistent/cc-missing")
        native.reset_toolchain_cache()
        try:
            with pytest.raises(NativeBuildError):
                native.build_shared_object("int f(void) { return 0; }\n")
        finally:
            native.reset_toolchain_cache()


class TestProbe:
    def test_corrupt_library_rejected_in_subprocess(self, tmp_path):
        """A garbage .so must die in the probe child, not here."""
        bogus = tmp_path / "bogus.so"
        bogus.write_bytes(b"\x7fELF not really a library")
        with pytest.raises(NativeBuildError) as err:
            native.probe_shared_object(str(bogus))
        assert "probe" in str(err.value)

    @needs_cc
    @pytest.mark.parametrize("damage", ["truncated", "zero-filled"])
    def test_damaged_library_names_how_the_probe_ended(
        self, tmp_path, monkeypatch, damage
    ):
        """Half a library maps pages the file does not back and kills
        the helper (SIGBUS), as it killed the interpreter; zeros are
        refused by the loader and the helper exits 1."""
        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path))
        good = native.build_shared_object(
            "int repro_whole(int x) { return x + 1; }\n"
        )
        with open(good, "rb") as handle:
            data = handle.read()
        bad = tmp_path / "damaged.so"
        bad.write_bytes(
            data[: len(data) // 2] if damage == "truncated"
            else bytes(len(data))
        )
        with pytest.raises(NativeBuildError) as err:
            native.probe_shared_object(str(bad))
        message = str(err.value)
        assert "died with signal" in message or "exited 1" in message
        if damage == "zero-filled":
            assert "exited 1" in message and "ELF" in message
        native.probe_shared_object(good)  # the helper itself is sound

    @needs_cc
    def test_helper_is_built_once_and_reused(
        self, tmp_path, monkeypatch, spawned
    ):
        """``toolchain()`` builds the helper, outside the build
        directory; probes only run it, wherever that points by then."""
        native.toolchain()
        helper = native._PROBE_HELPER
        assert os.access(helper, os.X_OK)
        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path))
        paths = [
            native.build_shared_object(
                f"int repro_reuse_{k}(int x) {{ return x + {k}; }}\n"
            )
            for k in range(2)
        ]
        del spawned[:]
        for path in paths:
            native.probe_shared_object(path)
        assert spawned == [[helper, path] for path in paths]
        assert os.path.dirname(helper) != str(tmp_path)

    @needs_cc
    def test_reset_forgets_the_helper(self):
        native.toolchain()
        first = native._PROBE_HELPER
        native.reset_toolchain_cache()
        assert native._PROBE_HELPER is None
        native.toolchain()
        assert native._PROBE_HELPER not in (None, first)

    @needs_cc
    def test_without_a_compiler_the_interpreter_probes(
        self, tmp_path, monkeypatch, spawned
    ):
        """No compiler, no helper — but a cache-restored library can
        still turn up, and gets the same isolated ``dlopen``."""
        monkeypatch.setenv("REPRO_NATIVE_CACHE_DIR", str(tmp_path))
        good = native.build_shared_object(
            "int repro_nocc(int x) { return x + 1; }\n"
        )
        bad = tmp_path / "zeros.so"
        bad.write_bytes(bytes(os.path.getsize(good)))
        monkeypatch.setenv("REPRO_CC", "/nonexistent/cc-missing")
        native.reset_toolchain_cache()
        try:
            del spawned[:]
            native.probe_shared_object(good)
            assert [cmd[0] for cmd in spawned] == [sys.executable]
            with pytest.raises(NativeBuildError, match="exited 1"):
                native.probe_shared_object(str(bad))
        finally:
            native.reset_toolchain_cache()

    @needs_cc
    def test_a_library_without_the_batched_entry_fails_to_load(
        self, monkeypatch
    ):
        """Both entries are bound when a library loads, or it does
        not load: a map group never finds its entry missing later.
        (An in-process load: a sandbox worker binds them instead.)"""
        monkeypatch.delenv("REPRO_NATIVE_SANITIZE", raising=False)
        monkeypatch.delenv("REPRO_NATIVE_SANDBOX", raising=False)
        compiled = compile_edit(Engine(backend="native"))[0]
        symbol = cbackend.entry_symbol(compiled.kernel, batched=True)
        source = compiled.source.replace(symbol, "unrelated_name")
        so_path = native.build_shared_object(source)
        with pytest.raises(NativeBuildError, match=symbol):
            native.load_compiled(compiled.kernel, so_path)

    def test_probe_failure_is_permanent(self):
        """NativeBuildError is a DslError: the supervisor's retry loop
        only catches DeviceFault, so native failures never retry."""
        assert issubclass(NativeBuildError, DslError)


@needs_cc
class TestNativeExecution:
    def test_matches_scalar_bitwise(self):
        scalar_engine = Engine(backend="scalar")
        native_engine = Engine(backend="native")
        c1, ctx1, t1, d1, _ = compile_edit(scalar_engine)
        c2, ctx2, t2, d2, _ = compile_edit(native_engine)
        assert c2.backend == "native"
        assert c2.so_path is not None
        sched = c1.schedule
        c1.run(t1, ctx1, part_lo=sched.min_partition(d1),
               part_hi=sched.max_partition(d1))
        c2.run(t2, ctx2, part_lo=sched.min_partition(d2),
               part_hi=sched.max_partition(d2))
        assert t1.tobytes() == t2.tobytes()

    @pytest.mark.parametrize("algorithm", ["forward", "viterbi"])
    def test_logspace_tables_match_scalar_bitwise(self, algorithm):
        """``logaddexp``/``safelog`` are one formula in the C and the
        scalar prelude, so float tables agree to the last bit."""
        from repro.apps import hmm_algorithms
        from repro.apps.profile_hmm import tk_model
        from repro.runtime.sequences import random_protein

        func = getattr(hmm_algorithms, f"{algorithm}_function")()
        bindings = {"h": tk_model(seed=7), "x": random_protein(90, seed=7)}
        tables = [
            Engine(backend=backend, prob_mode="logspace")
            .run(func, bindings).table
            for backend in ("scalar", "native")
        ]
        assert np.isfinite(tables[0]).any()
        assert np.array_equal(tables[0], tables[1], equal_nan=True)

    def test_mid_schedule_replay_split(self):
        """part_lo/part_hi splits reproduce the single full run —
        a later launch reads the earlier one's cells from the table."""
        engine = Engine(backend="native")
        compiled, ctx, table, domain, schedule = compile_edit(engine)
        lo = schedule.min_partition(domain)
        hi = schedule.max_partition(domain)
        full = table.copy()
        compiled.run(full, ctx, part_lo=lo, part_hi=hi)
        mid = (lo + hi) // 2
        split = table.copy()
        compiled.run(split, ctx, part_lo=lo, part_hi=mid)
        compiled.run(split, ctx, part_lo=mid + 1, part_hi=hi)
        assert split.tobytes() == full.tobytes()

    @pytest.mark.parametrize("op, step", [("max", 1), ("min", -1)])
    def test_int_minmax_exact_above_2p53(self, op, step):
        """Integer ``min``/``max`` stay in ``long``: the native
        prelude's ``double`` helpers used to round every operand past
        2**53 (and promote the surrounding ``?:``, rounding the base
        case's literal too), so native said ...992 where the other
        rungs say ...998."""
        base = 2 ** 53 + 1
        func = check_function(
            parse_function(
                f"""
int f(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then {base}
  else if j == 0 then {base}
  else (f(i - 1, j) + {step}) {op} f(i, j - 1)
""".strip()
            ),
            EN,
        )
        tables = {
            backend: Engine(backend=backend)
            .run(func, edit_bindings(5, 2)).table
            for backend in ("scalar", "vector", "native")
        }
        expected = np.array(
            [
                [base + step * (i if j else 0) for j in range(3)]
                for i in range(6)
            ],
            dtype=np.int64,
        )
        for backend, table in tables.items():
            assert np.array_equal(table, expected), backend

    @pytest.mark.parametrize(
        "lengths", [(11, 9), (131, 130)], ids=["small", "big"]
    )
    @pytest.mark.parametrize(
        "body, schedule",
        [
            (
                "if i == 0 then j else if j == 0 then i"
                " else if j > {last} then g(i-1, j) + 1"
                " else (g(i-1, j) min g(i, j-1) min g(i-1, j+1)) + 1",
                "2*i + j",
            ),
            (
                "if i < 2 then i + j else if j > {last} then i + j"
                " else g(i-1, j+1) + 1",
                "i",
            ),
        ],
        ids=["2i+j", "S=i"],
    )
    def test_forward_looking_kernel_one_entry(
        self, body, schedule, lengths
    ):
        """A read looking forward in j (``g(i-1, j+1)``) is refused
        the block order, so ``repro_g`` is the partition sweep — the
        kernel's only per-problem symbol, at a table no larger than a
        tile and at one that is. Its table is bitwise the scalar
        rung's for one full launch and for every split of the
        partition range into two launches (a supervised replay
        resuming from the table alone)."""
        from repro.lang.parser import parse_expr

        n, m = lengths
        func = check_function(
            parse_function(
                "int g(seq[en] s, index[s] i, seq[en] t, index[t] j) =\n"
                "  " + body.format(last=m - 1)
            ),
            EN,
        )
        bindings = {
            "s": Sequence(("abacadabra" * 14)[:n], ALPHABET),
            "t": Sequence(("abracadabra" * 12)[:m], ALPHABET),
        }
        tables = {}
        for backend in ("scalar", "native"):
            compiled, ctx, table, domain, sched = compile_edit(
                Engine(backend=backend), bindings, func=func,
                user_schedule=parse_expr(schedule),
            )
            lo = sched.min_partition(domain)
            hi = sched.max_partition(domain)
            full = table.copy()
            compiled.run(full, ctx, part_lo=lo, part_hi=hi)
            tables[backend] = full
        assert licences(compiled.kernel).tile is None
        assert compiled.source.count("\nvoid repro_g") == 2
        assert "void repro_g_batched(" in compiled.source
        assert np.array_equal(tables["scalar"], tables["native"])
        for mid in range(lo, hi):
            split = table.copy()
            compiled.run(split, ctx, part_lo=lo, part_hi=mid)
            compiled.run(split, ctx, part_lo=mid + 1, part_hi=hi)
            assert split.tobytes() == full.tobytes(), mid


class TestEngineLadder:
    @needs_cc
    def test_auto_resolves_native(self):
        engine = Engine(backend="auto")
        compiled, _ctx, _table, _domain, _schedule = compile_edit(engine)
        assert compiled.backend == "native"

    def test_auto_degrades_without_compiler(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        engine = Engine(backend="auto")
        compiled, _ctx, _table, _domain, _schedule = compile_edit(engine)
        assert compiled.backend in ("vector", "scalar")

    def test_forced_native_raises_when_disabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        engine = Engine(backend="native")
        with pytest.raises(CodegenError) as err:
            compile_edit(engine)
        assert "disabled" in str(err.value)

    def test_forced_native_build_failure_names_the_detail(
        self, monkeypatch
    ):
        """A forced backend='native' whose build fails must render
        the compiler/probe detail the way a forced vector CodegenError
        names its eligibility rule."""
        from repro.runtime import native as native_mod

        def broken_compile(kernel):
            raise NativeBuildError(
                "cc exited with status 1: synthetic probe detail"
            )

        monkeypatch.setattr(
            native_mod, "compile_native", broken_compile
        )
        monkeypatch.setattr(
            native_mod, "available",
            lambda: native_mod.Eligibility(True, "ok", "stubbed"),
        )
        engine = Engine(backend="native")
        with pytest.raises(NativeBuildError) as err:
            compile_edit(engine)
        message = str(err.value)
        assert "backend='native' was forced" in message
        assert "'d'" in message  # the kernel is named
        assert "[build-failed]" in message
        assert "synthetic probe detail" in message

    @needs_cc
    def test_a_cold_run_emits_once(self, monkeypatch):
        """Eligibility looks for the one construct C cannot render
        instead of emitting a trial TU, so a cold native run emits
        its translation unit once."""
        from tests.verify.test_extent_free import count_calls

        func, bindings = edit_func(), edit_bindings()
        expected = Engine(backend="scalar").run(func, bindings).value
        emitted = count_calls(monkeypatch, cbackend.emit_native_source)
        assert Engine(backend="native").run(func, bindings).value == (
            expected
        )
        assert len(emitted) == 1

    def test_a_tu_without_a_rendering_is_a_build_failure(
        self, monkeypatch
    ):
        """A ``CodegenError`` at emission is a failed build: the
        ladder records ``[build-failed]`` and takes the rung below."""

        def refuse(kernel, openmp=False, tile=None):
            raise CodegenError("synthetic: no C99 rendering")

        monkeypatch.setattr(cbackend, "emit_native_source", refuse)
        monkeypatch.setattr(
            native, "available",
            lambda: native.Eligibility(True, "ok", "stubbed"),
        )
        engine = Engine(backend="auto")
        compiled, _ctx, _table, _domain, schedule = compile_edit(engine)
        assert compiled.backend in ("vector", "scalar")
        with pytest.raises(NativeBuildError, match="synthetic"):
            native.compile_native(compiled.kernel)

    @needs_cc
    def test_engine_value_parity_end_to_end(self):
        func = edit_func()
        bindings = edit_bindings()
        a = Engine(backend="scalar").run(func, bindings)
        b = Engine(backend="native").run(func, bindings)
        assert a.value == b.value
        assert a.table.tobytes() == b.table.tobytes()


class TestCrossover:
    def test_small_problems_prefer_scalar(self, monkeypatch):
        """Below the crossover extent, auto picks scalar over vector:
        interpreter startup dominates tiny tables."""
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        engine = Engine(backend="auto")
        small, *_ = compile_edit(engine, edit_bindings(4, 5))
        assert small.backend == "scalar"

    def test_large_problems_prefer_vector(self, monkeypatch):
        """One extent at the crossover is enough: the size test reads
        the *largest* extent."""
        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        engine = Engine(backend="auto")
        bindings = {
            "s": Sequence("abacadabra"[:9], ALPHABET),
            "t": Sequence("a" * (VECTOR_CROSSOVER - 1), ALPHABET),
        }
        big, _ctx, _table, domain, _schedule = compile_edit(
            engine, bindings
        )
        assert max(domain.extents) == VECTOR_CROSSOVER
        assert big.backend == "vector"

    @needs_cc
    def test_crossover_does_not_gate_native(self):
        """The crossover only arbitrates scalar vs vector; native is
        faster than both at every size."""
        engine = Engine(backend="auto")
        small, *_ = compile_edit(engine, edit_bindings(4, 5))
        assert small.backend == "native"
