"""The supervised, checkpointed execution layer.

:class:`ExecutionSupervisor` wraps an
:class:`~repro.runtime.engine.Engine` and exposes the same
``run``/``map_run`` surface — they *are* the engine's, with
:meth:`ExecutionSupervisor._execute_supervised` passed at the
engine's launch seam — so each problem (or lane-batched group)
executes *epoch by epoch*, an epoch being a bounded range of schedule
partitions, the natural consistency points of the paper's time loop
(Fig. 9):

* before an epoch, the committed table state is the checkpoint;
* the epoch runs as a partition-range launch
  (``compiled.run(T, ctx, part_lo, part_hi)``) under an optional
  watchdog deadline;
* fault detection: launch/transfer faults surface as exceptions from
  the injection plane (or real infrastructure), hangs trip the
  watchdog, poisoned cells are caught by a NaN scan, and silent
  bit-flips by replay verification (the epoch runs twice from the
  same checkpoint and must agree bitwise);
* recovery restores the checkpoint and replays *only the failed
  partition range* — earlier epochs are never recomputed;
* a detected corruption consults the
  :class:`~repro.resilience.oracle.DivergenceOracle`, which separates
  injected/transient damage from genuine compiler bugs
  (:class:`~repro.lang.errors.BackendDivergenceError`, permanent);
* a range that keeps faulting past ``max_replays`` escalates with
  :class:`~repro.resilience.faults.FaultEscalation` so the serving
  layer can retry the whole batch or demote to the serial reference
  interpreter.

Because recovery always re-derives cell values from a clean replay,
the final tables are bitwise-identical to a fault-free execution.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..runtime import ladder
from .checkpoint import CheckpointLog, partition_ranges
from .faults import (
    CellCorruption,
    DeviceFault,
    FaultEscalation,
    FaultInjector,
    FaultPlan,
    FaultSite,
    KernelHang,
)
from .oracle import DivergenceOracle


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs of the supervised execution layer.

    ``checkpoint_interval`` is the epoch size in partitions (the
    recovery granularity: smaller = cheaper replays, more snapshot
    copies). ``verify`` picks the corruption detector: ``"scan"``
    (NaN scan only — catches poison, misses silent bit-flips),
    ``"replay"`` (every epoch executes twice and must agree bitwise),
    ``"off"``, or ``"auto"`` (replay when the fault plan can corrupt
    cells, scan otherwise). ``watchdog_seconds`` bounds one epoch's
    wall time; ``None`` disables the watchdog unless the plan injects
    hangs.
    """

    checkpoint_interval: int = 8
    max_replays: int = 8
    watchdog_seconds: Optional[float] = None
    verify: str = "auto"
    use_oracle: bool = True

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")
        if self.max_replays < 0:
            raise ValueError("max_replays must be >= 0")
        if self.verify not in ("auto", "scan", "replay", "off"):
            raise ValueError(f"unknown verify mode {self.verify!r}")


@dataclass
class SupervisorStats:
    """Launch accounting of one supervisor (the recovery audit trail).

    ``launches``/``partitions_launched`` count every epoch attempt,
    including verification legs and replays;
    ``partitions_verified`` counts just the verification legs (the
    second execution of each round in replay-verify mode);
    ``epochs_committed``/``partitions_committed`` count each epoch
    once. The books must balance:

        partitions_launched - partitions_committed
            - partitions_verified  ==  sum of replayed_ranges widths

    i.e. every partition launched beyond commit + verification belongs
    to a faulted range that was replayed — recovery never re-ran a
    clean epoch. Ranges a corruption verdict recovered through the
    oracle (whose clean re-executions are counted in ``oracle_runs``,
    not in ``partitions_launched``) are itemised separately in
    ``recovered_ranges``.
    """

    problems: int = 0
    launches: int = 0
    partitions_launched: int = 0
    partitions_verified: int = 0
    epochs_committed: int = 0
    partitions_committed: int = 0
    replays: int = 0
    corruption_recovered: int = 0
    oracle_runs: int = 0
    faults: Dict[str, int] = field(default_factory=dict)
    replayed_ranges: List[Tuple[int, int, int]] = field(
        default_factory=list
    )
    recovered_ranges: List[Tuple[int, int, int]] = field(
        default_factory=list
    )

    def note_fault(self, fault: DeviceFault) -> None:
        """Count one detected fault under its exception class name."""
        name = type(fault).__name__
        self.faults[name] = self.faults.get(name, 0) + 1

    @property
    def total_faults(self) -> int:
        """Detected faults of every kind, summed."""
        return sum(self.faults.values())


class ExecutionSupervisor:
    """Supervised ``run``/``map_run`` with checkpointed recovery.

    Drop-in for an engine wherever only ``run``/``map_run`` (and
    read-only engine attributes, via delegation) are used — the
    worker pool hands batches to either interchangeably.
    """

    def __init__(
        self,
        engine=None,
        plan: Optional[FaultPlan] = None,
        policy: Optional[SupervisionPolicy] = None,
        injector: Optional[FaultInjector] = None,
        on_fault=None,
    ) -> None:
        if engine is None:
            from ..runtime.engine import Engine

            engine = Engine()
        self.engine = engine
        self.policy = policy or SupervisionPolicy()
        if injector is None and plan is not None:
            injector = FaultInjector(plan)
        self.injector = injector
        self.oracle = DivergenceOracle()
        self.stats = SupervisorStats()
        self.checkpoints = CheckpointLog()
        self.on_fault = on_fault
        self._problem_ids = itertools.count()

        plan = injector.plan if injector is not None else None
        verify = self.policy.verify
        if verify == "auto":
            verify = (
                "replay"
                if plan is not None and plan.corrupt_rate > 0.0
                else "scan"
            )
        self._verify = verify
        watchdog = self.policy.watchdog_seconds
        if watchdog is None and plan is not None and (
            plan.hang_rate > 0 or plan.sandbox_hang_rate > 0
        ):
            watchdog = max(0.02, plan.hang_seconds / 4.0)
        self._watchdog = watchdog

    def __getattr__(self, name: str):
        # Everything we don't supervise (cache_info, spec, compile,
        # ...) falls through to the wrapped engine.
        return getattr(self.engine, name)

    # -- public surface ------------------------------------------------------

    def run(self, *args, **options):
        """:meth:`Engine.run` with its launch supervised."""
        return self.engine.run(
            *args, _launch=self._execute_supervised, **options
        )

    def map_run(self, *args, **options):
        """:meth:`Engine.map_run` with every launch supervised.

        A lane-batched group is *one* supervised launch: one
        checkpoint stream over the padded batch table, with epoch
        ranges from the padded domain (a superset of every member's;
        the batched kernel clamps internally, so an epoch outside a
        member's range is a no-op for it). Replay, verification and
        oracle recovery therefore apply to the whole batch at once.
        """
        return self.engine.map_run(
            *args, _launch=self._execute_supervised, **options
        )

    # -- supervised execution ------------------------------------------------

    def _execute_supervised(
        self, compiled, table: np.ndarray, ctx: dict, domain
    ) -> np.ndarray:
        """Fill ``table`` epoch by epoch with checkpointed recovery
        (the engine's launch seam: ``compiled`` is a compiled kernel
        or a lane-batched launch)."""
        problem = next(self._problem_ids)
        # One supervised launch, however many logical problems it packs.
        batch = getattr(compiled, "batch", None)
        self.stats.problems += len(batch.indices) if batch else 1
        schedule = compiled.schedule
        p_lo = schedule.min_partition(domain)
        p_hi = schedule.max_partition(domain)
        sm = problem % self.engine.spec.sm_count
        state = table
        for elo, ehi in partition_ranges(
            p_lo, p_hi, self.policy.checkpoint_interval
        ):
            # ``compiled`` can change mid-problem: a sandboxed native
            # kernel whose circuit breaker opens is swapped for its
            # demoted (vector/scalar) twin, and later epochs keep
            # using the demoted rung.
            state, compiled = self._run_epoch(
                compiled, ctx, state, elo, ehi, problem, sm
            )
            self.stats.epochs_committed += 1
            self.stats.partitions_committed += ehi - elo + 1
            self.checkpoints.record(problem, elo, ehi, state)
        if state is not table:
            np.copyto(table, state)
        return table

    def _run_epoch(
        self,
        compiled,
        ctx: dict,
        base: np.ndarray,
        elo: int,
        ehi: int,
        problem: int,
        sm: int,
    ) -> Tuple[np.ndarray, object]:
        """One epoch to a committed state, replaying on faults.

        Returns ``(state, compiled)`` — the compiled kernel may have
        been swapped for its demoted twin when the sandbox circuit
        breaker opened mid-epoch.
        """
        attempts = itertools.count()
        for round_index in range(self.policy.max_replays + 1):
            try:
                scratch = self._attempt(
                    compiled, ctx, base, elo, ehi, problem, sm,
                    next(attempts),
                )
                if self._verify == "replay":
                    self.stats.partitions_verified += ehi - elo + 1
                    again = self._attempt(
                        compiled, ctx, base, elo, ehi, problem, sm,
                        next(attempts),
                    )
                    if scratch.tobytes() != again.tobytes():
                        raise CellCorruption(
                            f"replay verification mismatch on "
                            f"partitions [{elo}, {ehi}]",
                            FaultSite(problem, elo, sm, round_index,
                                      "memory"),
                        )
                return scratch, compiled
            except DeviceFault as fault:
                self.stats.note_fault(fault)
                if self.on_fault is not None:
                    self.on_fault(fault)
                if (
                    isinstance(fault, CellCorruption)
                    and self.policy.use_oracle
                ):
                    # The oracle replays the range cleanly on two
                    # backends: recovery value on agreement, a
                    # permanent BackendDivergenceError otherwise.
                    self.stats.recovered_ranges.append(
                        (problem, elo, ehi)
                    )
                    verdict, recovered = self.oracle.classify(
                        compiled, ctx, base, elo, ehi
                    )
                    self.stats.oracle_runs = self.oracle.runs
                    self.stats.corruption_recovered += 1
                    return recovered, compiled
                # A sandboxed kernel whose breaker opened keeps
                # raising "circuit open" on every replay — burning
                # the budget can only end in escalation. Step down
                # the ladder instead and replay there (a transient
                # crash under a closed breaker retries on native).
                if ladder.circuit_open(compiled):
                    compiled = ladder.demote(self.engine, compiled)
                self.stats.replays += 1
                self.stats.replayed_ranges.append((problem, elo, ehi))
        raise FaultEscalation(
            f"partitions [{elo}, {ehi}] of problem {problem} still "
            f"faulting after {self.policy.max_replays} replays",
            FaultSite(problem, elo, sm, self.policy.max_replays,
                      "kernel"),
        )

    def _attempt(
        self,
        compiled,
        ctx: dict,
        base: np.ndarray,
        elo: int,
        ehi: int,
        problem: int,
        sm: int,
        attempt: int,
    ) -> np.ndarray:
        """One launch of partitions ``[elo, ehi]`` from the checkpoint."""
        site = FaultSite(problem, elo, sm, attempt, "launch")
        self.stats.launches += 1
        self.stats.partitions_launched += ehi - elo + 1
        injector = self.injector
        if injector is not None:
            injector.check_launch(site)
        scratch = base.copy()
        self._run_range(compiled, scratch, ctx, elo, ehi, site)
        if injector is not None:
            injector.check_transfer(
                FaultSite(problem, elo, sm, attempt, "transfer")
            )
            injector.corrupt_cells(
                scratch, compiled.schedule, elo, ehi,
                FaultSite(problem, elo, sm, attempt, "memory"),
            )
        if (
            self._verify in ("scan", "replay")
            and scratch.dtype.kind == "f"
            and bool(np.isnan(scratch).any())
        ):
            raise CellCorruption(
                f"NaN cells detected in partitions [{elo}, {ehi}]",
                FaultSite(problem, elo, sm, attempt, "memory"),
            )
        return scratch

    def _run_range(
        self,
        compiled,
        scratch: np.ndarray,
        ctx: dict,
        elo: int,
        ehi: int,
        site: FaultSite,
    ) -> None:
        """Execute the partition range, under the watchdog if set."""
        injector = self.injector
        hang = (
            injector.hang_delay(site) if injector is not None else 0.0
        )
        deadline = self._watchdog
        if getattr(compiled.run, "sandboxed", False):
            # Sandboxed native launch: the subprocess pool *is* the
            # watchdog (a wedged worker gets SIGKILLed for real, no
            # thread is left behind), so hang injection routes
            # through the worker as a fault directive instead of a
            # parent-side sleep. Kill/hang directives come from the
            # injection plane; WorkerCrash / SandboxHang surface as
            # DeviceFaults and replay like any other launch fault.
            fault = (
                injector.sandbox_fault(site)
                if injector is not None
                else None
            )
            if fault is None and hang > 0.0:
                fault = {"kind": "hang", "seconds": hang}
            compiled.run(
                scratch, ctx, part_lo=elo, part_hi=ehi,
                fault=fault, deadline=deadline,
            )
            return
        if deadline is None:
            if hang > 0.0:
                # No watchdog configured: surface the wedge directly
                # rather than blocking the worker forever.
                raise KernelHang(
                    f"kernel wedged on partitions [{elo}, {ehi}] "
                    f"(no watchdog configured)", site
                )
            compiled.run(scratch, ctx, part_lo=elo, part_hi=ehi)
            return

        done = threading.Event()
        cancel = threading.Event()
        failure: List[BaseException] = []

        def body() -> None:
            try:
                # The injected wedge the watchdog catches. A
                # cancellable wait, not a sleep: when the watchdog
                # fires it sets ``cancel`` and this thread exits
                # promptly instead of leaking for ``hang`` seconds.
                if hang > 0.0 and cancel.wait(hang):
                    return
                compiled.run(scratch, ctx, part_lo=elo, part_hi=ehi)
            except BaseException as err:  # noqa: BLE001 - relayed
                failure.append(err)
            finally:
                done.set()

        thread = threading.Thread(
            target=body, name="repro-epoch", daemon=True
        )
        thread.start()
        if not done.wait(deadline):
            # Abandon the wedged launch; it ran on its own scratch
            # copy of the checkpoint, so the committed state is safe.
            # Cancelling the injected wedge lets the thread unwind
            # now (a *real* runaway launch still needs the sandbox —
            # only a subprocess can be killed for real).
            cancel.set()
            raise KernelHang(
                f"watchdog: partitions [{elo}, {ehi}] exceeded "
                f"{deadline}s", site
            )
        if failure:
            raise failure[0]
