"""The supervised, checkpointed execution layer."""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.lang.errors import BackendDivergenceError
from repro.resilience import (
    ExecutionSupervisor,
    FaultEscalation,
    FaultPlan,
    SupervisionPolicy,
    partition_ranges,
)
from repro.runtime.engine import Engine


CHAOS = FaultPlan(
    seed=1234,
    launch_fail_rate=0.07,
    corrupt_rate=0.01,
    corrupt_mode="bitflip",
)


def fault_log(supervisor):
    return [
        (event.kind, event.site)
        for event in supervisor.injector.log
    ]


class TestFaultFree:
    def test_matches_plain_engine(self, edit_func, edit_bindings):
        baseline = Engine().run(edit_func, dict(edit_bindings))
        supervisor = ExecutionSupervisor()
        result = supervisor.run(edit_func, dict(edit_bindings))
        assert result.value == baseline.value == 3
        assert result.table.tobytes() == baseline.table.tobytes()
        stats = supervisor.stats
        assert stats.replays == 0
        assert stats.total_faults == 0
        assert stats.partitions_launched == stats.partitions_committed

    def test_checkpoints_cover_whole_span(
        self, edit_func, edit_bindings
    ):
        supervisor = ExecutionSupervisor(
            policy=SupervisionPolicy(checkpoint_interval=3)
        )
        result = supervisor.run(edit_func, dict(edit_bindings))
        schedule, domain = result.schedule, result.domain
        p_lo = schedule.min_partition(domain)
        p_hi = schedule.max_partition(domain)
        epochs = partition_ranges(p_lo, p_hi, 3)
        assert len(epochs) >= 2
        stats = supervisor.stats
        # Every epoch committed once, and together they cover the
        # whole span exactly once.
        assert stats.epochs_committed == len(epochs)
        assert stats.partitions_committed == p_hi - p_lo + 1

    def test_float_kernel_matches(
        self, forward_func, forward_bindings
    ):
        baseline = Engine().run(
            forward_func, dict(forward_bindings), reduce="max"
        )
        supervisor = ExecutionSupervisor()
        result = supervisor.run(
            forward_func, dict(forward_bindings), reduce="max"
        )
        assert result.value == baseline.value
        assert result.table.tobytes() == baseline.table.tobytes()


class TestOneCodePath:
    """A supervised run *is* ``Engine.run`` with a different launch:
    everything before and after the launch is the engine's."""

    def test_supervised_run_verifies_its_schedule(
        self, edit_func, edit_bindings
    ):
        supervisor = ExecutionSupervisor(Engine())
        assert supervisor.run(edit_func, dict(edit_bindings)).value == 3
        info = supervisor.cache_info()
        assert info.verified == 1
        assert info.verify_failures == 0

    def test_rejected_schedule_raises_supervised_as_plain(
        self, edit_func, edit_bindings, monkeypatch
    ):
        from repro.lang.errors import VerificationError
        from repro.schedule.schedule import Schedule

        bad = Schedule(edit_func.dim_names, (1, -1))
        for runner in (Engine(), ExecutionSupervisor(Engine())):
            engine = getattr(runner, "engine", runner)
            monkeypatch.setattr(
                engine, "schedule_for", lambda *a, **k: bad
            )
            with pytest.raises(VerificationError, match="V-SCHED-DELTA"):
                runner.run(edit_func, dict(edit_bindings))

    def test_supervised_run_resolves_the_same_rung(
        self, edit_func, monkeypatch
    ):
        """The rung is chosen with the domain in hand: a 4x5 table
        sits under the vector crossover, supervised or not."""
        from repro.runtime.values import ENGLISH, Sequence

        monkeypatch.setenv("REPRO_NATIVE_DISABLE", "1")
        bindings = {
            "s": Sequence("abac", ENGLISH),
            "t": Sequence("abrac", ENGLISH),
        }
        backends = []
        for runner in (Engine(), ExecutionSupervisor(Engine())):
            runner.run(edit_func, bindings)
            backends.append(runner.cache_info().backends)
        assert backends == [(("scalar", 1),), (("scalar", 1),)]

    def test_supervised_map_reports_batched_rungs(
        self, edit_func, edit_bindings
    ):
        from repro.runtime.values import ENGLISH, Sequence

        problems = [
            {"s": Sequence(word, ENGLISH)}
            for word in ("kitten", "mitten", "witty", "sit")
        ]
        base = {"t": edit_bindings["t"]}
        plain = Engine(backend="vector").map_run(
            edit_func, base, problems
        )
        supervised = ExecutionSupervisor(
            Engine(backend="vector")
        ).map_run(edit_func, base, problems)
        assert supervised.values == plain.values
        assert supervised.batched_backends == plain.batched_backends
        assert supervised.batched_backends == ["vector-batched"]
        assert len(supervised.batched_costs) == 1


class TestChaosRecovery:
    def test_bitwise_identical_to_fault_free(
        self, edit_func, edit_bindings
    ):
        baseline = Engine().run(edit_func, dict(edit_bindings))
        supervisor = ExecutionSupervisor(
            plan=CHAOS,
            policy=SupervisionPolicy(checkpoint_interval=4),
        )
        result = supervisor.run(edit_func, dict(edit_bindings))
        assert result.value == baseline.value
        assert result.table.tobytes() == baseline.table.tobytes()

    def test_same_seed_same_faults_and_results(
        self, edit_func, edit_bindings
    ):
        runs = []
        for _ in range(2):
            supervisor = ExecutionSupervisor(
                plan=CHAOS,
                policy=SupervisionPolicy(checkpoint_interval=4),
            )
            result = supervisor.run(edit_func, dict(edit_bindings))
            runs.append((supervisor, result))
        (sup_a, res_a), (sup_b, res_b) = runs
        assert fault_log(sup_a) == fault_log(sup_b)
        assert res_a.table.tobytes() == res_b.table.tobytes()
        assert sup_a.stats.replayed_ranges == sup_b.stats.replayed_ranges

    def test_different_seed_different_faults(
        self, edit_func, edit_bindings
    ):
        logs = []
        for seed in (1, 2):
            plan = FaultPlan(seed=seed, launch_fail_rate=0.4)
            supervisor = ExecutionSupervisor(
                plan=plan,
                policy=SupervisionPolicy(checkpoint_interval=2),
            )
            supervisor.run(edit_func, dict(edit_bindings))
            logs.append(fault_log(supervisor))
        assert logs[0] != logs[1]

    def test_nan_corruption_on_float_kernel_recovers(
        self, forward_func, forward_bindings
    ):
        baseline = Engine().run(
            forward_func, dict(forward_bindings), reduce="max"
        )
        plan = FaultPlan(seed=11, corrupt_rate=0.08,
                         corrupt_mode="nan")
        supervisor = ExecutionSupervisor(
            plan=plan, policy=SupervisionPolicy(checkpoint_interval=3)
        )
        result = supervisor.run(
            forward_func, dict(forward_bindings), reduce="max"
        )
        assert supervisor.stats.faults.get("CellCorruption", 0) > 0
        assert supervisor.stats.corruption_recovered > 0
        assert result.table.tobytes() == baseline.table.tobytes()


class TestReplayAccounting:
    def test_only_failed_ranges_replayed(
        self, edit_func, edit_bindings
    ):
        """Launch accounting: extra partitions == replayed ranges,
        and every replayed range maps to a logged fault."""
        plan = FaultPlan(seed=5, launch_fail_rate=0.25)
        supervisor = ExecutionSupervisor(
            plan=plan, policy=SupervisionPolicy(checkpoint_interval=2)
        )
        result = supervisor.run(edit_func, dict(edit_bindings))
        assert result.value == 3
        stats = supervisor.stats
        assert stats.replays > 0  # the campaign was not a no-op
        extra = stats.partitions_launched - stats.partitions_committed
        replayed = sum(
            hi - lo + 1 for _, lo, hi in stats.replayed_ranges
        )
        assert extra == replayed
        faulted_ranges = {
            (event.site.problem, event.site.partition)
            for event in supervisor.injector.log
        }
        for problem, lo, _hi in stats.replayed_ranges:
            assert (problem, lo) in faulted_ranges

    def test_accounting_balances_under_full_chaos(
        self, edit_func, edit_bindings
    ):
        """With verification legs and oracle recoveries in play, the
        books still balance: every partition launched beyond commit +
        verification belongs to a replayed (faulted) range."""
        supervisor = ExecutionSupervisor(
            plan=CHAOS,
            policy=SupervisionPolicy(checkpoint_interval=4),
        )
        supervisor.run(edit_func, dict(edit_bindings))
        stats = supervisor.stats
        extra = (
            stats.partitions_launched
            - stats.partitions_committed
            - stats.partitions_verified
        )
        replayed = sum(
            hi - lo + 1 for _, lo, hi in stats.replayed_ranges
        )
        assert extra == replayed
        assert stats.corruption_recovered == len(
            stats.recovered_ranges
        )
        # Oracle recoveries happened (the campaign injected bit-flips)
        # and each recovered range maps to a logged memory fault.
        assert stats.recovered_ranges
        memory_faults = {
            (event.site.problem, event.site.partition)
            for event in supervisor.injector.log
            if event.kind == "memory"
        }
        for problem, lo, hi in stats.recovered_ranges:
            assert any(
                lo <= partition <= hi
                for p, partition in memory_faults
                if p == problem
            )

    def test_clean_epochs_launch_once(self, edit_func, edit_bindings):
        plan = FaultPlan(seed=5, launch_fail_rate=0.25)
        supervisor = ExecutionSupervisor(
            plan=plan, policy=SupervisionPolicy(checkpoint_interval=2)
        )
        supervisor.run(edit_func, dict(edit_bindings))
        stats = supervisor.stats
        # launch-only plan => scan verification => exactly one launch
        # per committed epoch plus one per replayed round.
        assert stats.launches == stats.epochs_committed + stats.replays


class TestEscalation:
    def test_permanent_launch_failure_escalates(
        self, edit_func, edit_bindings
    ):
        plan = FaultPlan(seed=0, launch_fail_rate=1.0)
        supervisor = ExecutionSupervisor(
            plan=plan, policy=SupervisionPolicy(max_replays=2)
        )
        with pytest.raises(FaultEscalation):
            supervisor.run(edit_func, dict(edit_bindings))
        assert supervisor.stats.faults["LaunchFault"] == 3

    def test_escalation_is_a_device_fault(self):
        from repro.resilience.faults import DeviceFault

        assert issubclass(FaultEscalation, DeviceFault)


class TestWatchdog:
    """Hangs: only a sandboxed launch can wedge, and its deadline
    SIGKILLs the worker; the range then replays like a launch fault."""

    def test_hung_kernel_detected_and_replayed(
        self, edit_func, edit_bindings
    ):
        from repro.runtime import native, sandbox

        if not native.available().ok:
            pytest.skip("no working C compiler in this environment")
        sandbox.configure(True)
        sandbox.reset()
        try:
            plan = FaultPlan(
                seed=1, sandbox_hang_rate=0.2, hang_seconds=0.2
            )
            supervisor = ExecutionSupervisor(
                Engine(backend="native"),
                plan=plan,
                policy=SupervisionPolicy(checkpoint_interval=2),
            )
            result = supervisor.run(edit_func, dict(edit_bindings))
            assert result.value == 3
            assert supervisor.stats.faults.get("SandboxHang", 0) > 0
            assert supervisor.stats.replays > 0
        finally:
            sandbox.configure(None)
            sandbox.reset()

    def test_in_process_wedge_is_not_waited_out(
        self, edit_func, edit_bindings
    ):
        """An in-process launch cannot be stopped, so it is never
        hung: the plan's sandbox hangs are inert there, and nothing
        waits out the derived deadline (``hang_seconds / 4``, 7.5 s)."""
        import time

        plan = FaultPlan(seed=1, sandbox_hang_rate=0.5, hang_seconds=30.0)
        supervisor = ExecutionSupervisor(
            Engine(backend="vector"), plan=plan
        )
        start = time.monotonic()
        result = supervisor.run(edit_func, dict(edit_bindings))
        assert time.monotonic() - start < 2.0
        assert result.value == 3
        assert supervisor.stats.total_faults == 0
        assert not supervisor.injector.log

    def test_abandoned_hangs_do_not_leak_threads(
        self, edit_func, edit_bindings
    ):
        """A wedged sandbox worker is killed at its deadline, never
        left running on a thread of its own: the thread count does not
        grow over a run."""
        import threading

        from repro.runtime import native, sandbox

        if not native.available().ok:
            pytest.skip("no working C compiler in this environment")
        sandbox.configure(True)
        sandbox.reset()
        try:
            supervisor = ExecutionSupervisor(
                Engine(backend="native"),
                plan=FaultPlan(
                    seed=1, sandbox_hang_rate=0.5, hang_seconds=30.0
                ),
                policy=SupervisionPolicy(
                    checkpoint_interval=4, watchdog_seconds=0.3
                ),
            )
            baseline = threading.active_count()
            result = supervisor.run(edit_func, dict(edit_bindings))
            assert result.value == 3
            assert supervisor.stats.faults.get("SandboxHang", 0) > 0
            assert threading.active_count() <= baseline
        finally:
            sandbox.configure(None)
            sandbox.reset()

    def test_hang_without_watchdog_surfaces(self):
        """A plan that hangs sandbox workers derives the deadline."""
        plan = FaultPlan(seed=0, sandbox_hang_rate=0.5, hang_seconds=0.1)
        supervisor = ExecutionSupervisor(plan=plan)
        assert supervisor._watchdog is not None
        assert ExecutionSupervisor(
            plan=FaultPlan(seed=0, launch_fail_rate=0.5)
        )._watchdog is None


def held_after(supervisor, func, bindings, count):
    """Traced bytes still held after ``count`` more supervised runs."""
    for _ in range(count):
        supervisor.run(func, dict(bindings))
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


class TestLongLived:
    def test_memory_does_not_grow_with_problems(
        self, edit_func, edit_bindings
    ):
        """A supervisor in a long-lived service keeps nothing per
        committed epoch: 200 problems hold what 10 do."""
        supervisor = ExecutionSupervisor(
            policy=SupervisionPolicy(checkpoint_interval=1)
        )
        tracemalloc.start()
        try:
            after_10 = held_after(supervisor, edit_func, edit_bindings, 10)
            after_200 = held_after(
                supervisor, edit_func, edit_bindings, 190
            )
        finally:
            tracemalloc.stop()
        # The slack absorbs warm-up (interned names, pickle and
        # allocator caches); the checksum log this replaced grew by
        # ~600 KiB over the same runs.
        assert after_200 - after_10 < 64 * 1024

    def test_fault_history_is_a_window(self, edit_func, edit_bindings):
        """Under chaos the fault log and the range lists keep a fixed
        window while the counters stay exact: 2 000 problems hold what
        200 do (unbounded lists grew by ~860 KiB over the same runs)."""
        from repro.resilience.faults import HISTORY

        supervisor = ExecutionSupervisor(
            plan=FaultPlan(seed=5, launch_fail_rate=0.05,
                           corrupt_rate=0.01)
        )
        tracemalloc.start()
        try:
            after_200 = held_after(
                supervisor, edit_func, edit_bindings, 200
            )
            after_2000 = held_after(
                supervisor, edit_func, edit_bindings, 1800
            )
        finally:
            tracemalloc.stop()
        assert after_2000 - after_200 < 64 * 1024
        stats = supervisor.stats
        assert stats.problems == 2000
        assert stats.replays > len(stats.replayed_ranges)
        assert stats.corruption_recovered > len(stats.recovered_ranges)
        assert len(supervisor.injector.log) == HISTORY


class TestSupervisedMap:
    def test_map_matches_fault_free(self, edit_func, edit_bindings):
        from repro.runtime.values import ENGLISH, Sequence

        problems = [
            {"s": Sequence(word, ENGLISH)}
            for word in ("kitten", "mitten", "witty", "sit")
        ]
        base = {"t": edit_bindings["t"]}
        baseline = Engine().map_run(edit_func, base, problems)
        supervisor = ExecutionSupervisor(
            plan=CHAOS,
            policy=SupervisionPolicy(checkpoint_interval=4),
        )
        result = supervisor.map_run(edit_func, base, problems)
        assert result.values == baseline.values
        assert supervisor.stats.problems == len(problems)

    def test_pricing_matches_the_bare_engine(
        self, edit_func, edit_bindings
    ):
        """Supervision changes how a launch runs, not how it is
        priced: replays and checkpoints cost the model nothing."""
        from repro.runtime.values import ENGLISH, Sequence

        problems = [{"s": Sequence("kitten", ENGLISH)}]
        base = {"t": edit_bindings["t"]}
        supervisor = ExecutionSupervisor(plan=CHAOS)
        result = supervisor.map_run(edit_func, base, problems)
        bare = Engine().map_run(edit_func, base, problems)
        assert supervisor.stats.problems == 1
        assert result.report == bare.report
        assert result.costs == bare.costs


class TestDivergencePropagation:
    def test_buggy_backend_is_permanent(
        self, edit_func, edit_bindings
    ):
        """A deterministic miscompile surfaces as
        BackendDivergenceError (a DslError), not as a retried fault."""
        import dataclasses

        supervisor = ExecutionSupervisor(
            plan=FaultPlan(seed=3, corrupt_rate=0.05,
                           corrupt_mode="bitflip"),
            policy=SupervisionPolicy(checkpoint_interval=2),
        )
        engine = supervisor.engine
        real_compile = engine.compile

        def buggy_compile(func, schedule, domain=None):
            compiled = real_compile(func, schedule, domain)
            real_run = compiled.run

            def run(table, ctx, part_lo=None, part_hi=None):
                real_run(table, ctx, part_lo=part_lo, part_hi=part_hi)
                table[tuple(0 for _ in table.shape)] += 1  # the "bug"

            return dataclasses.replace(compiled, run=run)

        engine.compile = buggy_compile
        with pytest.raises(BackendDivergenceError):
            supervisor.run(edit_func, dict(edit_bindings))
