#!/usr/bin/env python3
"""Fault injection and supervised recovery, end to end.

Three acts:

1. **Chaos campaign** — edit distance under 7% launch failures and
   1% silent bit-flip corruption. The
   supervisor detects every fault, replays only the failed partition
   ranges, and the final table is bitwise-identical to a fault-free
   run. The launch accounting proves no clean epoch was recomputed.
2. **Determinism** — the same seed replays the exact same faults at
   the exact same sites; a different seed draws a different storm.
3. **Graceful degradation** — a service whose device never completes
   a launch still answers correctly: its last attempt
   (`MAX_RETRIES + 1` = 3) demotes the jobs to the serial reference
   interpreter.

Run:  python examples/chaos_demo.py
"""


from repro import check_function, parse_function
from repro.resilience import (
    ExecutionSupervisor,
    FaultPlan,
    LaunchFault,
    SupervisionPolicy,
)
from repro.runtime import ENGLISH
from repro.runtime.engine import Engine
from repro.runtime.values import Sequence

PROGRAM = """
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
"""

SERVICE_PROGRAM = 'alphabet en = "abcdefghijklmnopqrstuvwxyz"\n' + PROGRAM


def chaos_campaign(func, bindings):
    print("=== 1. chaos campaign ===")
    baseline = Engine().run(func, dict(bindings))
    plan = FaultPlan(
        seed=1234,
        launch_fail_rate=0.07,
        corrupt_rate=0.01,
        corrupt_mode="bitflip",
    )
    supervisor = ExecutionSupervisor(
        plan=plan, policy=SupervisionPolicy(checkpoint_interval=4)
    )
    result = supervisor.run(func, dict(bindings))
    stats = supervisor.stats
    print(f"value: {result.value} (baseline {baseline.value})")
    print(f"bitwise identical to fault-free run: "
          f"{result.table.tobytes() == baseline.table.tobytes()}")
    print(f"faults injected: "
          f"{[(e.kind, e.site.tokens()) for e in supervisor.injector.log]}")
    print(f"detected by kind: {stats.faults}")
    print(f"epochs committed: {stats.epochs_committed}, "
          f"replays: {stats.replays}, "
          f"replayed ranges: {list(stats.replayed_ranges)}")
    print(f"oracle recoveries: {stats.corruption_recovered} "
          f"(ranges {list(stats.recovered_ranges)}, "
          f"{stats.oracle_runs} oracle runs)")
    extra = (stats.partitions_launched
             - stats.partitions_committed
             - stats.partitions_verified)
    replayed = sum(hi - lo + 1 for _, lo, hi in stats.replayed_ranges)
    print(f"launch accounting: {extra} partitions launched beyond "
          f"commit + verification == {replayed} partitions in replayed "
          f"ranges -> only failed ranges were recomputed")
    assert result.table.tobytes() == baseline.table.tobytes()
    assert extra == replayed


def determinism(func, bindings):
    print("\n=== 2. determinism ===")

    def storm(seed):
        plan = FaultPlan(seed=seed, launch_fail_rate=0.25)
        supervisor = ExecutionSupervisor(
            plan=plan, policy=SupervisionPolicy(checkpoint_interval=2)
        )
        supervisor.run(func, dict(bindings))
        return [(e.kind, e.site.tokens())
                for e in supervisor.injector.log]

    first, again, other = storm(7), storm(7), storm(8)
    print(f"seed 7, run 1: {len(first)} faults")
    print(f"seed 7, run 2: identical log: {first == again}")
    print(f"seed 8:        different log: {first != other}")
    assert first == again and first != other


def degradation():
    print("\n=== 3. graceful degradation ===")
    from repro.service.programs import ProgramRegistry
    from repro.service.queue import Batch, Job, JobQueue
    from repro.service.stats import StatsRegistry
    from repro.service.workers import WorkerPool

    class BrokenDeviceEngine(Engine):
        attempts = 0

        def map_run(self, *args, **kwargs):
            BrokenDeviceEngine.attempts += 1
            raise LaunchFault("device on fire")

    registry = ProgramRegistry()
    stats = StatsRegistry()
    pool = WorkerPool(
        JobQueue(), Engine, registry, stats,
        workers=1, backoff_seconds=0.001,
    )
    program = registry.register(SERVICE_PROGRAM)
    jobs = []
    for word in ("kitten", "mitten"):
        bindings, at, initial = program.bind(
            "d", {"s": word, "t": "sitting"}
        )
        jobs.append(Job(program_sha=program.sha, function="d",
                        bindings=bindings, at=at, initial=initial))
    pool.execute_batch(
        BrokenDeviceEngine(), Batch(jobs[0].group_key, jobs)
    )
    values = [job.handle.result(timeout=10) for job in jobs]
    snapshot = stats.snapshot()
    print(f"device attempts before giving up: "
          f"{BrokenDeviceEngine.attempts}")
    print(f"values from the reference interpreter: {values}")
    print(f"stats: demotions={snapshot.demotions} "
          f"device_faults={snapshot.device_faults} "
          f"failed={snapshot.failed}")
    assert values == [3, 3] and snapshot.failed == 0


def main():
    func = check_function(
        parse_function(PROGRAM.strip()), {"en": ENGLISH.chars}
    )
    bindings = {
        "s": Sequence("kitten", ENGLISH),
        "t": Sequence("sitting", ENGLISH),
    }
    chaos_campaign(func, bindings)
    determinism(func, bindings)
    degradation()
    print("\nall invariants held.")


if __name__ == "__main__":
    main()
