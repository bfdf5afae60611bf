"""The simulated device: problem placement and launch accounting.

One *problem* equals one block on one multiprocessor (the paper's
intra-task scheme); ``map`` workloads place many problems across the
device's multiprocessors (Section 4.7), each possibly running a
different generated code path (conditional parallelisation). The
device time of a launch is the heaviest multiprocessor's queue, plus
launch and transfer overheads — timings in the paper include setup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from .spec import DeviceSpec, GTX480


@dataclass(frozen=True)
class ProblemCost:
    """One problem's priced kernel execution (see ``KernelCost``).

    ``packing`` is the number of such problems one multiprocessor runs
    concurrently (occupancy packing of narrow problems); the effective
    per-SM occupancy time is ``seconds / packing``.
    """

    seconds: float
    bytes_in: float = 0.0
    bytes_out: float = 0.0
    packing: int = 1


@dataclass
class LaunchReport:
    """Accounting of one simulated launch."""

    device: str
    problems: int
    kernel_seconds: float
    transfer_seconds: float
    overhead_seconds: float
    sm_seconds: List[float] = field(default_factory=list)

    @property
    def total_seconds(self) -> float:
        """Kernel + transfer + launch overhead."""
        return (
            self.kernel_seconds
            + self.transfer_seconds
            + self.overhead_seconds
        )

    @property
    def sm_utilisation(self) -> float:
        """Mean busy fraction across multiprocessors."""
        if not self.sm_seconds:
            return 0.0
        busiest = max(self.sm_seconds)
        if busiest == 0.0:
            return 0.0
        return sum(self.sm_seconds) / (len(self.sm_seconds) * busiest)


class SimulatedDevice:
    """Places problems on multiprocessors and accumulates time.

    Pricing only: a launch has no state and no ordering constraint,
    so the engine may price a run whenever its report is first read.
    Fault injection happens at the engine's launch seam (the
    resilience supervisor), not here.
    """

    def __init__(self, spec: Optional[DeviceSpec] = None) -> None:
        self.spec = spec or GTX480

    def launch(
        self,
        costs: Sequence[ProblemCost],
        run: Optional[Callable[[int], None]] = None,
    ) -> LaunchReport:
        """Simulate one launch over ``costs`` problems.

        ``run(k)``, when given, performs the functional execution of
        problem ``k``; the simulator calls it for every problem, then
        prices the launch analytically. (The engine executes before
        pricing and passes no callback.)

        Placement is greedy least-loaded — the natural block scheduler
        behaviour for a queue of independent blocks.
        """
        sm_load = [0.0] * self.spec.sm_count
        bytes_total = 0.0
        for index, cost in enumerate(costs):
            target = sm_load.index(min(sm_load))
            if run is not None:
                run(index)
            sm_load[target] += cost.seconds / max(1, cost.packing)
            bytes_total += cost.bytes_in + cost.bytes_out
        kernel_seconds = max(sm_load) if costs else 0.0
        transfer = (
            self.spec.transfer_seconds(bytes_total) if costs else 0.0
        )
        return LaunchReport(
            device=self.spec.name,
            problems=len(costs),
            kernel_seconds=kernel_seconds,
            transfer_seconds=transfer,
            overhead_seconds=self.spec.launch_overhead_s,
            sm_seconds=sm_load,
        )


def greedy_makespan(
    durations: Sequence[float], machines: int
) -> Tuple[float, List[float]]:
    """Least-loaded placement of ``durations`` on ``machines``.

    Exposed for the baselines (CUDASW++-style schedulers use the same
    policy).
    """
    loads = [0.0] * machines
    for duration in sorted(durations, reverse=True):
        target = loads.index(min(loads))
        loads[target] += duration
    return (max(loads) if durations else 0.0), loads
