"""Sandbox chaos: the service survives real worker SIGKILLs.

The acceptance scenario of the crash-isolation tentpole: a forced
worker death (or hang) mid-launch never terminates the service
process — the worker is restarted, the kernel circuit-broken after
repeated crashes, and the recovered result is **bitwise-identical**
to the fault-free run via the demoted backend.
"""

import pytest

from repro import Engine, Sequence
from repro.resilience import ExecutionSupervisor, FaultPlan
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
        # The pool healed: every slot has a live worker again.
        assert counts["workers"] == sandbox.POOL_SIZE

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
