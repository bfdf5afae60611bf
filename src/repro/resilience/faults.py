"""Deterministic fault injection for the simulated device.

The paper's execution template assumes every partition launch
completes and every barrier commits. A service built on the simulator
must instead survive the classic GPU failure modes: launches that
fail (refused by the device, or cut short at copy-back — either way
the range's output is lost), cells silently corrupted in device memory,
sandbox workers that die or wedge. This module makes those failure
modes *explicit, seeded and replayable*:

* a :class:`FaultPlan` fixes the rates (and optionally the sites) of
  each fault kind plus a seed;
* a :class:`FaultInjector` turns the plan into per-site decisions by
  hashing ``(seed, kind, site)`` — no hidden RNG stream, so the same
  plan over the same workload produces the *same* faults regardless
  of retry interleaving, and the latest :data:`HISTORY` decisions
  are kept in :attr:`FaultInjector.log` for the tests' accounting;
* the fault exceptions all derive from :class:`DeviceFault`, the
  marker the serving layer uses to classify an error as transient
  (retry from checkpoint) rather than deterministic (fail fast).

Nothing here imports the runtime; the only consumer of a plan is
:class:`~repro.resilience.supervisor.ExecutionSupervisor`.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from dataclasses import dataclass
from typing import Deque, FrozenSet, List, Optional

import numpy as np


# -- fault exceptions ---------------------------------------------------------


class DeviceFault(RuntimeError):
    """A transient fault of the (simulated) device.

    The serving layer treats any subclass as retryable: the input was
    fine, the hardware misbehaved. ``site`` pins the fault to a
    (problem, partition, SM, attempt) coordinate when known.
    """

    def __init__(self, message: str, site: Optional["FaultSite"] = None):
        super().__init__(message)
        self.site = site


class LaunchFault(DeviceFault):
    """A partition-range launch produced no usable output: it failed
    before executing any cell, or its copy-back was cut short. Either
    way the range is discarded and replayed."""


class WorkerCrash(DeviceFault):
    """A sandbox worker process died mid-launch (signal or exit).

    Raised by the native sandbox when the subprocess executing a
    kernel launch is killed — a segfault or abort in generated C
    code, an external SIGKILL, or an open circuit breaker refusing
    further launches of a crash-prone kernel. The launch never
    touched the parent's table, so recovery is a clean re-resolution
    down the backend ladder.
    """


class SandboxHang(DeviceFault):
    """A sandboxed kernel launch exceeded its deadline and was killed.

    The wedge is terminated for real: the worker process is
    SIGKILLed and respawned. (An in-process launch cannot be stopped,
    so only sandboxed launches are ever hung.)
    """


class CellCorruption(DeviceFault):
    """Table cells were detected to hold corrupted values."""


class FaultEscalation(DeviceFault):
    """A partition range kept faulting past the replay budget."""


# -- sites and plans ----------------------------------------------------------


@dataclass(frozen=True)
class FaultSite:
    """One injectable coordinate: which problem, where, which try.

    ``partition`` is the lower bound of the partition range being
    launched (or ``-1`` for whole-problem launches outside the
    supervisor). ``attempt`` distinguishes replays of the same range
    so a fault does not recur forever: each retry re-rolls the dice.
    """

    problem: int
    partition: int
    sm: int
    attempt: int
    stage: str = "kernel"  # "launch" | "kernel" | "memory"

    def tokens(self) -> str:
        """Canonical ``problem:partition:sm:attempt:stage`` form."""
        return (
            f"{self.problem}:{self.partition}:{self.sm}:"
            f"{self.attempt}:{self.stage}"
        )


#: How many fault events, and how many replayed and recovered ranges, an
#: injector and a supervisor keep, newest last. A service worker's supervisor lives as
#: long as the service, so its history is a window; the counters beside
#: it stay exact.
HISTORY = 256


@dataclass(frozen=True)
class FaultEvent:
    """One recorded injection (the accounting unit of the tests)."""

    kind: str
    site: FaultSite
    detail: str = ""


@dataclass(frozen=True)
class FaultPlan:
    """Rates, modes and site filters of a fault campaign.

    Rates are probabilities per opportunity: ``launch_fail_rate`` per
    partition-range launch, ``corrupt_rate`` per table cell.
    ``corrupt_mode`` picks the damage pattern: ``"nan"`` writes NaN
    into float tables (scan-detectable) and ``"bitflip"`` flips a
    high mantissa/exponent bit of the raw 64-bit word (silent —
    only replay-verification or the oracle catches it; integer tables
    always bit-flip, NaN has no int encoding). ``only_partitions`` /
    ``only_sms`` restrict which sites may fault at all.

    ``worker_kill_rate`` and ``sandbox_hang_rate`` are per sandboxed
    partition-range launch: the sandbox worker process is SIGKILLed
    mid-launch (the real process-death failure mode, not an
    exception) or wedged for ``hang_seconds``, past the launch
    deadline (and then killed for real). Both are inert for in-process
    backends — only launches routed through :mod:`repro.runtime.sandbox`
    can honour them.
    """

    seed: int = 0
    launch_fail_rate: float = 0.0
    corrupt_rate: float = 0.0
    worker_kill_rate: float = 0.0
    sandbox_hang_rate: float = 0.0
    corrupt_mode: str = "nan"
    hang_seconds: float = 0.2
    only_partitions: Optional[FrozenSet[int]] = None
    only_sms: Optional[FrozenSet[int]] = None

    def __post_init__(self) -> None:
        for name in ("launch_fail_rate", "corrupt_rate",
                     "worker_kill_rate", "sandbox_hang_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.corrupt_mode not in ("nan", "bitflip"):
            raise ValueError(
                f"corrupt_mode must be 'nan' or 'bitflip', "
                f"got {self.corrupt_mode!r}"
            )


class FaultInjector:
    """Turns a :class:`FaultPlan` into deterministic per-site faults.

    Decisions are pure functions of ``(seed, kind, site)`` — two
    injectors with the same plan walking the same workload make the
    same calls in the same order and therefore build identical logs.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        #: The latest :data:`HISTORY` faults injected, in injection order.
        self.log: Deque[FaultEvent] = deque(maxlen=HISTORY)

    # -- deterministic dice --------------------------------------------------

    def _digest(self, kind: str, site: FaultSite, extra: str = "") -> bytes:
        text = f"{self.plan.seed}|{kind}|{site.tokens()}|{extra}"
        return hashlib.sha256(text.encode("utf-8")).digest()

    def _uniform(self, kind: str, site: FaultSite, extra: str = "") -> float:
        value = int.from_bytes(self._digest(kind, site, extra)[:8], "big")
        return value / float(1 << 64)

    def _enabled(self, site: FaultSite) -> bool:
        plan = self.plan
        if (
            plan.only_partitions is not None
            and site.partition not in plan.only_partitions
        ):
            return False
        if plan.only_sms is not None and site.sm not in plan.only_sms:
            return False
        return True

    def _record(self, kind: str, site: FaultSite, detail: str = "") -> None:
        self.log.append(FaultEvent(kind, site, detail))

    # -- injection points ----------------------------------------------------

    def check_launch(self, site: FaultSite) -> None:
        """Raise :class:`LaunchFault` when this launch is doomed."""
        rate = self.plan.launch_fail_rate
        if rate <= 0.0 or not self._enabled(site):
            return
        if self._uniform("launch", site) < rate:
            self._record("launch", site)
            raise LaunchFault(
                f"injected launch failure at {site.tokens()}", site
            )

    def sandbox_fault(self, site: FaultSite) -> Optional[dict]:
        """The fault directive for one *sandboxed* launch, or None.

        Returns ``{"kind": "kill"}`` (the worker SIGKILLs itself
        mid-launch) or ``{"kind": "hang", "seconds": s}`` (the worker
        wedges until the parent's deadline kills it). Only launches
        dispatched through the native sandbox consult this — the
        directive travels inside the pipe request, so the failure is
        a *real* process death, not a simulated exception.
        """
        plan = self.plan
        if not self._enabled(site):
            return None
        kill = plan.worker_kill_rate
        if kill > 0.0 and self._uniform("worker-kill", site) < kill:
            self._record("worker-kill", site)
            return {"kind": "kill"}
        hang = plan.sandbox_hang_rate
        if hang > 0.0 and self._uniform("sandbox-hang", site) < hang:
            self._record("sandbox-hang", site)
            return {"kind": "hang", "seconds": plan.hang_seconds}
        return None

    def corrupt_cells(
        self,
        table: np.ndarray,
        schedule,
        partition_lo: int,
        partition_hi: int,
        site: FaultSite,
    ) -> List[tuple]:
        """Corrupt cells whose partition lies in the launched range.

        Each cell of the range independently corrupts with probability
        ``corrupt_rate`` (realised through a seeded RNG, so the victim
        set is a pure function of the site). Returns the corrupted
        coordinates; damage follows ``corrupt_mode``.

        Lane-batched tables carry a leading problem axis
        (``table.ndim == len(schedule.dims) + 1``): the batch index is
        not a schedule dimension, so the partition of a cell is
        computed from its trailing (space) coordinates only — every
        problem row of the batch is equally at risk.
        """
        plan = self.plan
        if plan.corrupt_rate <= 0.0 or not self._enabled(site):
            return []
        rng = random.Random(self._digest("memory", site))
        span = max(1, partition_hi - partition_lo + 1)
        batched = table.ndim == len(schedule.dims) + 1
        space_shape = table.shape[1:] if batched else table.shape
        extents = dict(zip(schedule.dims, space_shape))
        num_partitions = schedule.span(extents) + 1
        expected = plan.corrupt_rate * table.size * span / num_partitions
        count = int(expected)
        if rng.random() < expected - count:
            count += 1
        victims: List[tuple] = []
        seen = set()
        flat_extent = table.size
        for _ in range(count):
            for _try in range(64):
                flat = rng.randrange(flat_extent)
                # A cell corrupts at most once per event: a repeat
                # bit-flip would cancel itself out.
                if flat in seen:
                    continue
                coords = np.unravel_index(flat, table.shape)
                space = coords[1:] if batched else coords
                partition = schedule.partition_of(
                    [int(c) for c in space]
                )
                if partition_lo <= partition <= partition_hi:
                    seen.add(flat)
                    self._damage(table, coords)
                    victims.append(tuple(int(c) for c in coords))
                    self._record(
                        "memory", site, detail=f"cell={coords}"
                    )
                    break
        return victims

    # -- damage patterns -----------------------------------------------------

    def _damage(self, table: np.ndarray, coords) -> None:
        if table.dtype.kind == "f" and self.plan.corrupt_mode == "nan":
            table[coords] = np.nan
            return
        # Bit-flip: flip a high bit of the raw 64-bit word. For floats
        # this lands in the exponent (a silently huge/tiny value), for
        # ints in the magnitude — either way a wrong-but-plausible
        # payload that only verification can catch.
        view = table.view(np.int64)
        view[coords] = int(view[coords]) ^ (1 << 52)
