"""Crash-isolated native execution: sandbox, breaker, recovery."""

import os
import signal
import time

import pytest

from repro.lang.parser import parse_function
from repro.lang.typecheck import check_function
from repro.resilience.faults import SandboxHang, WorkerCrash
from repro.runtime import native, sandbox
from repro.runtime.engine import Engine
from repro.runtime.values import Sequence

EN = {"en": "abcdefghijklmnopqrstuvwxyz"}
ALPHABET = "abcdefghijklmnopqrstuvwxyz"

EDIT_DISTANCE = """
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""

have_cc = native.available().ok
needs_cc = pytest.mark.skipif(
    not have_cc, reason="no working C compiler in this environment"
)


def edit_func():
    return check_function(parse_function(EDIT_DISTANCE.strip()), EN)


def edit_args():
    return {
        "s": Sequence("kitten", ALPHABET),
        "t": Sequence("sitting", ALPHABET),
    }


@pytest.fixture
def sandboxed():
    """Fresh sandbox state, enabled, torn down afterwards."""
    sandbox.configure(True)
    sandbox.reset()
    yield
    sandbox.configure(None)
    sandbox.reset()


class TestCircuitBreaker:
    """Pure state-machine tests — no toolchain, no subprocesses."""

    def test_closed_until_threshold(self):
        breaker = sandbox.CircuitBreaker(threshold=3, cooldown=30.0)
        assert breaker.state("k") == "closed"
        breaker.record_failure("k")
        breaker.record_failure("k")
        assert breaker.state("k") == "closed"
        assert breaker.allows("k")
        breaker.record_failure("k")
        assert breaker.state("k") == "open"
        assert not breaker.allows("k")
        assert breaker.open_count() == 1

    def test_success_resets_the_tally(self):
        breaker = sandbox.CircuitBreaker(threshold=2, cooldown=30.0)
        breaker.record_failure("k")
        breaker.record_success("k")
        breaker.record_failure("k")
        assert breaker.state("k") == "closed"

    def test_half_open_after_cooldown(self):
        breaker = sandbox.CircuitBreaker(threshold=1, cooldown=0.05)
        breaker.record_failure("k")
        assert breaker.state("k") == "open"
        time.sleep(0.06)
        # Cooldown elapsed: one probe launch may try native again.
        assert breaker.state("k") == "half-open"
        assert breaker.allows("k")
        # A failed probe re-opens it with a fresh cooldown window.
        breaker.record_failure("k")
        assert breaker.state("k") == "open"

    def test_digests_are_independent(self):
        breaker = sandbox.CircuitBreaker(threshold=1, cooldown=30.0)
        breaker.record_failure("a")
        assert not breaker.allows("a")
        assert breaker.allows("b")

    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_SANDBOX_BREAKER_K", "7")
        monkeypatch.setenv("REPRO_SANDBOX_BREAKER_COOLDOWN", "1.5")
        breaker = sandbox.CircuitBreaker()
        assert breaker.threshold == 7
        assert breaker.cooldown == 1.5


@needs_cc
class TestSandboxedExecution:
    def test_bitwise_identical_to_scalar(self, sandboxed):
        func = edit_func()
        scalar = Engine(backend="scalar").run(func, edit_args())
        native_run = Engine(backend="native").run(func, edit_args())
        assert native_run.value == scalar.value == 3
        assert (native_run.table == scalar.table).all()
        counts = sandbox.counters()
        assert counts["launches"] >= 1
        assert counts["crashes"] == 0

    def test_compiled_run_is_sandboxed(self, sandboxed):
        engine = Engine(backend="native")
        func = edit_func()
        from repro.runtime.values import Bindings

        bound = Bindings(edit_args())
        domain = engine.domain_of(func, bound)
        schedule = engine.schedule_for(func, domain)
        compiled = engine.compile(func, schedule, domain)
        assert getattr(compiled.run, "sandboxed", False)
        # The .so is never loaded into this process: the wrapper only
        # carries the payload and the artifact path.
        assert isinstance(compiled.run, sandbox.SandboxedNativeRun)
        assert os.path.exists(compiled.run.so_path)

    def test_two_builds_of_one_kernel_do_not_answer_for_each_other(
        self, sandboxed
    ):
        """A worker memoises its loaded runs; a second build of the
        same kernel (a test-seam tile, a doctored certificate) is a
        different shared object and must be loaded as one."""
        import numpy as np

        from repro.ir import cbackend
        from repro.runtime.values import Bindings

        engine = Engine(backend="native")
        func = edit_func()
        bound = Bindings(edit_args())
        domain = engine.domain_of(func, bound)
        compiled = engine.compile(
            func, engine.schedule_for(func, domain), domain
        )
        ctx = engine.build_context(compiled, bound, domain)
        source = cbackend.emit_native_source(
            compiled.kernel, openmp=native.toolchain()[1]
        )
        store = "farr[(i) * (_ts) + j] = _t0;"
        assert source.count(store) == 1
        skewed = native.load_compiled(
            compiled.kernel,
            native.build_shared_object(
                source.replace(store, store[:-1] + " + 100;")
            ),
        )
        assert skewed.digest == compiled.run.digest
        # Back to back, both launches land on the one idle worker.
        plain = compiled.run(np.zeros(domain.extents, np.int64), ctx)
        other = skewed(np.zeros(domain.extents, np.int64), ctx)
        assert plain[6, 7] == 3
        assert other[0, 0] == 100 and not np.array_equal(plain, other)

    def test_kill_fault_raises_worker_crash(self, sandboxed):
        engine = Engine(backend="native")
        func = edit_func()
        from repro.runtime.values import Bindings

        bound = Bindings(edit_args())
        domain = engine.domain_of(func, bound)
        schedule = engine.schedule_for(func, domain)
        compiled = engine.compile(func, schedule, domain)
        ctx = engine.build_context(compiled, bound, domain)
        table = engine._table_for(compiled.kernel, domain)
        before = table.copy()
        with pytest.raises(WorkerCrash):
            compiled.run(table, ctx, fault={"kind": "kill"})
        # The parent table is only written on a successful reply — a
        # crashed launch can never leave it torn.
        assert (table == before).all()
        counts = sandbox.counters()
        assert counts["crashes"] == 1
        assert counts["restarts"] >= 1
        # And the restarted worker serves the next launch fine.
        compiled.run(table, ctx)
        assert table[-1, -1] == 3

    def test_hang_fault_raises_sandbox_hang(self, sandboxed):
        engine = Engine(backend="native")
        func = edit_func()
        from repro.runtime.values import Bindings

        bound = Bindings(edit_args())
        domain = engine.domain_of(func, bound)
        schedule = engine.schedule_for(func, domain)
        compiled = engine.compile(func, schedule, domain)
        ctx = engine.build_context(compiled, bound, domain)
        table = engine._table_for(compiled.kernel, domain)
        start = time.monotonic()
        with pytest.raises(SandboxHang):
            compiled.run(
                table, ctx,
                fault={"kind": "hang", "seconds": 30.0},
                deadline=0.3,
            )
        # The wedged worker was SIGKILLed, not waited out.
        assert time.monotonic() - start < 10.0
        assert sandbox.counters()["hangs"] == 1

    def test_worker_killed_while_idle_is_restarted(self, sandboxed):
        func = edit_func()
        engine = Engine(backend="native")
        assert engine.run(func, edit_args()).value == 3
        pool = sandbox.get_sandbox()
        (worker,) = pool._idle
        os.kill(worker.pid, signal.SIGKILL)
        worker.proc.wait(timeout=5)
        # Next launch notices the corpse, replaces it silently (no
        # crash is charged — no launch was harmed) and succeeds.
        assert engine.run(
            func,
            {"s": Sequence("mitten", ALPHABET),
             "t": Sequence("sitting", ALPHABET)},
        ).value == 3
        counts = sandbox.counters()
        assert counts["crashes"] == 0
        assert counts["restarts"] == 1

    def test_engine_demotes_after_crash_bitwise_identical(
        self, sandboxed
    ):
        func = edit_func()
        expected = Engine(backend="scalar").run(func, edit_args())

        # Drive the engine's own recovery (no supervisor): a crashing
        # launch demotes to the next rung and recomputes from zeros.
        engine = Engine(backend="native")
        original = sandbox.SandboxedNativeRun.__call__

        def crashing(self, T, ctx, **kwargs):
            kwargs["fault"] = {"kind": "kill"}
            return original(self, T, ctx, **kwargs)

        sandbox.SandboxedNativeRun.__call__ = crashing
        try:
            result = engine.run(func, edit_args())
        finally:
            sandbox.SandboxedNativeRun.__call__ = original
        assert result.value == expected.value == 3
        assert (result.table == expected.table).all()
        assert engine.native_demotions >= 1


class TestKernelDigest:
    @needs_cc
    def test_digest_is_stable_and_content_keyed(self, sandboxed):
        engine = Engine(backend="native")
        func = edit_func()
        from repro.runtime.values import Bindings

        bound = Bindings(edit_args())
        domain = engine.domain_of(func, bound)
        schedule = engine.schedule_for(func, domain)
        compiled = engine.compile(func, schedule, domain)
        digest = sandbox.kernel_digest(compiled.kernel)
        assert digest == compiled.run.digest
        assert len(digest) == 64


class TestEnablement:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_SANDBOX", raising=False)
        sandbox.configure(None)
        assert not sandbox.enabled()

    def test_env_opt_in(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_SANDBOX", "1")
        sandbox.configure(None)
        assert sandbox.enabled()

    def test_configure_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_SANDBOX", "1")
        sandbox.configure(False)
        try:
            assert not sandbox.enabled()
        finally:
            sandbox.configure(None)

    def test_counters_zero_when_never_used(self):
        sandbox.reset()
        counts = sandbox.counters()
        assert counts["launches"] == 0
        assert counts["workers"] == 0
        assert counts["open_breakers"] == 0
