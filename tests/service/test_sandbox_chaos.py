"""Sandbox chaos: the service survives real worker SIGKILLs.

The acceptance scenario of the crash-isolation tentpole: a forced
worker death (or hang) mid-launch never terminates the service
process — the worker is restarted, the kernel circuit-broken after
repeated crashes, and the recovered result is **bitwise-identical**
to the fault-free run via the demoted backend.
"""

import pytest

from repro import Engine, Sequence
from repro.resilience import (
    ExecutionSupervisor,
    FaultPlan,
    SupervisionPolicy,
)
from repro.runtime import ENGLISH, native, sandbox
from repro.service.server import (
    ComputeService,
    fetch_remote_stats,
    make_http_server,
    serve_in_thread,
    submit_remote,
)

from .conftest import EDIT_PROGRAM

needs_cc = pytest.mark.skipif(
    not native.available().ok,
    reason="no working C compiler in this environment",
)

WORDS = ["kitten", "mitten", "sitting", "bitten", "written", "kit"]

KILL_PLAN = FaultPlan(
    seed=20120611,
    worker_kill_rate=0.25,
    sandbox_hang_rate=0.05,
    hang_seconds=0.2,
)


@pytest.fixture
def sandboxed():
    sandbox.configure(True)
    sandbox.reset()
    yield
    sandbox.configure(None)
    sandbox.reset()


def expected_values(edit_func):
    engine = Engine(backend="scalar")
    return [
        engine.run(
            edit_func,
            {"s": Sequence(w, ENGLISH), "t": Sequence("sitting", ENGLISH)},
        ).value
        for w in WORDS
    ]


@needs_cc
class TestSupervisedSandboxChaos:
    def test_sigkill_mid_launch_recovers_bitwise(
        self, sandboxed, edit_func
    ):
        """Real SIGKILLs at a 25% launch rate: every answer matches
        fault-free scalar execution exactly."""
        expected = expected_values(edit_func)
        supervisor = ExecutionSupervisor(
            Engine(backend="native"), plan=KILL_PLAN
        )
        values = [
            supervisor.run(
                edit_func,
                {"s": Sequence(w, ENGLISH),
                 "t": Sequence("sitting", ENGLISH)},
            ).value
            for w in WORDS
        ]
        assert values == expected
        counts = sandbox.counters()
        assert counts["crashes"] + counts["hangs"] >= 1
        assert counts["restarts"] >= 1
        # The sandbox healed: its one worker is live again.
        assert counts["workers"] == 1

    def test_breaker_opens_and_engine_demotes(
        self, sandboxed, edit_func
    ):
        """Every launch killed: after K crashes the breaker opens and
        the engine re-routes the kernel down the ladder — still
        producing the right answer."""
        expected = expected_values(edit_func)
        original = sandbox.SandboxedNativeRun.__call__

        def always_kill(self, T, ctx, **kwargs):
            kwargs["fault"] = {"kind": "kill"}
            return original(self, T, ctx, **kwargs)

        engine = Engine(backend="native")
        sandbox.SandboxedNativeRun.__call__ = always_kill
        try:
            values = [
                engine.run(
                    edit_func,
                    {"s": Sequence(w, ENGLISH),
                     "t": Sequence("sitting", ENGLISH)},
                ).value
                for w in WORDS
            ]
        finally:
            sandbox.SandboxedNativeRun.__call__ = original
        assert values == expected
        assert engine.native_demotions >= 1
        # The kernel was circuit-broken, so later runs skip native
        # entirely (no further crashes needed).
        assert sandbox.counters()["open_breakers"] >= 1
        crashes_before = sandbox.counters()["crashes"]
        assert engine.run(
            edit_func,
            {"s": Sequence("kitten", ENGLISH),
             "t": Sequence("sitting", ENGLISH)},
        ).value == expected[0]
        assert sandbox.counters()["crashes"] == crashes_before


@needs_cc
class TestSupervisedSandboxedGroup:
    """A lane-batched group on sandboxed native takes the injection
    plane's kill/hang directives and the supervisor's deadline, as a
    single run does."""

    GROUP = ["kitten", "mitten", "bitten", "smitten"]

    def map_group(self, edit_func, engine):
        return engine.map_run(
            edit_func,
            {"t": Sequence("sitting", ENGLISH)},
            [{"s": Sequence(w, ENGLISH)} for w in self.GROUP],
        )

    def expected(self, edit_func):
        return self.map_group(edit_func, Engine(backend="scalar")).values

    def test_kill_directives_reach_the_group(
        self, sandboxed, edit_func
    ):
        expected = self.expected(edit_func)
        supervisor = ExecutionSupervisor(
            Engine(backend="native"),
            plan=FaultPlan(seed=20120611, worker_kill_rate=0.5),
        )
        result = self.map_group(edit_func, supervisor)
        assert result.lane_batches == 1
        assert result.values == expected
        assert supervisor.stats.faults.get("WorkerCrash", 0) >= 1
        assert sandbox.counters()["crashes"] >= 1

    def test_group_hang_is_killed_at_the_policy_deadline(
        self, sandboxed, edit_func
    ):
        import time

        expected = self.expected(edit_func)
        supervisor = ExecutionSupervisor(
            Engine(backend="native"),
            plan=FaultPlan(
                seed=1, sandbox_hang_rate=1.0, hang_seconds=30.0
            ),
            policy=SupervisionPolicy(watchdog_seconds=0.3),
        )
        start = time.monotonic()
        result = self.map_group(edit_func, supervisor)
        assert time.monotonic() - start < 10.0
        assert result.lane_batches == 1
        assert result.values == expected
        assert supervisor.stats.faults.get("SandboxHang", 0) >= 1


@needs_cc
class TestServiceSandboxChaos:
    def test_http_service_survives_worker_kills(
        self, sandboxed, edit_func
    ):
        """End to end over HTTP: sandbox workers are SIGKILLed under
        the service yet every reply is 200 with the exact value, the
        process stays up, and the stats report the crashes."""
        expected = expected_values(edit_func)
        service = ComputeService(
            workers=1,
            backend="native",
            fault_plan=KILL_PLAN,
        )
        server = make_http_server(service, "127.0.0.1", 0)
        serve_in_thread(server)
        host, port = server.server_address[:2]
        try:
            for word, want in zip(WORDS, expected):
                reply = submit_remote(
                    host, port, EDIT_PROGRAM, "d",
                    args={"s": word, "t": "sitting"},
                )
                assert reply["_status"] == 200, reply
                assert reply["value"] == want
            stats = fetch_remote_stats(host, port)
            assert stats["completed"] == len(WORDS)
            assert stats["failed"] == 0
            assert stats["worker_crashes"] >= 1
        finally:
            server.shutdown()
            server.server_close()
            service.shutdown(drain=True)
