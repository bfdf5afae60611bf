"""The supervised, checkpointed execution layer."""

import numpy as np
import pytest

from repro.lang.errors import BackendDivergenceError
from repro.resilience import (
    ExecutionSupervisor,
    FaultEscalation,
    FaultPlan,
    SupervisionPolicy,
)
from repro.runtime.engine import Engine


CHAOS = FaultPlan(
    seed=1234,
    launch_fail_rate=0.05,
    corrupt_rate=0.01,
    truncate_rate=0.02,
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
        supervisor.run(edit_func, dict(edit_bindings))
        checkpoints = supervisor.checkpoints.for_problem(0)
        assert len(checkpoints) >= 2
        spans = [
            (c.partition_lo, c.partition_hi) for c in checkpoints
        ]
        flat = [p for lo, hi in spans for p in range(lo, hi + 1)]
        assert flat == sorted(set(flat))  # contiguous, no overlap

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
    def test_hung_kernel_detected_and_replayed(
        self, edit_func, edit_bindings
    ):
        plan = FaultPlan(seed=1, hang_rate=0.2, hang_seconds=0.2)
        supervisor = ExecutionSupervisor(
            plan=plan,
            policy=SupervisionPolicy(
                checkpoint_interval=2, watchdog_seconds=0.02
            ),
        )
        result = supervisor.run(edit_func, dict(edit_bindings))
        assert result.value == 3
        # Sandboxed native launches surface the wedge as SandboxHang
        # (the worker is SIGKILLed); in-process launches as KernelHang
        # (the watchdog abandons the thread). Both replay the range.
        faults = supervisor.stats.faults
        assert (faults.get("KernelHang", 0)
                + faults.get("SandboxHang", 0)) > 0

    def test_hang_without_watchdog_surfaces(self):
        """A plan that injects hangs auto-enables the watchdog."""
        plan = FaultPlan(seed=0, hang_rate=0.5, hang_seconds=0.1)
        supervisor = ExecutionSupervisor(plan=plan)
        assert supervisor._watchdog is not None

    def test_abandoned_hangs_do_not_leak_threads(
        self, edit_func, edit_bindings
    ):
        """Regression: each watchdog trip used to strand one epoch
        thread sleeping out the full injected hang. The wedge is a
        cancellable wait now, so the thread count returns to baseline
        as soon as the run finishes."""
        import threading
        import time

        plan = FaultPlan(seed=1, hang_rate=0.5, hang_seconds=30.0)
        # Pin the vector backend: the in-process thread watchdog is
        # the code path under test (sandboxed launches hang in the
        # worker subprocess and spawn no parent-side thread at all).
        supervisor = ExecutionSupervisor(
            Engine(backend="vector"),
            plan=plan,
            policy=SupervisionPolicy(
                checkpoint_interval=2, watchdog_seconds=0.02
            ),
        )
        baseline = threading.active_count()
        result = supervisor.run(edit_func, dict(edit_bindings))
        assert result.value == 3
        assert supervisor.stats.faults.get("KernelHang", 0) > 0
        # Cancelled epoch threads unwind promptly — with 30 s wedges,
        # any leak would still be alive here.
        deadline = time.monotonic() + 5.0
        while (threading.active_count() > baseline
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert threading.active_count() <= baseline


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

    def test_pricing_only_passes_through(
        self, edit_func, edit_bindings
    ):
        from repro.runtime.values import ENGLISH, Sequence

        problems = [{"s": Sequence("kitten", ENGLISH)}]
        supervisor = ExecutionSupervisor(plan=CHAOS)
        result = supervisor.map_run(
            edit_func, {"t": edit_bindings["t"]}, problems,
            execute=False,
        )
        assert supervisor.stats.problems == 0  # unsupervised path
        assert result.report.problems == 1


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
