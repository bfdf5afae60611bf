"""The simulated device: problem placement and launch accounting.

One *problem* equals one block on one multiprocessor (the paper's
intra-task scheme); ``map`` workloads place many problems across the
device's multiprocessors (Section 4.7), each possibly running a
different generated code path (conditional parallelisation). The
device time of a launch is the heaviest multiprocessor's queue, plus
launch and transfer overheads — timings in the paper include setup.
:func:`price_launch` is the one pricer of a launch: a run is its
one-member call, a ``map`` its many-member one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..analysis.domain import Domain
from ..ir.kernel import Kernel
from .spec import DeviceSpec, GTX480
from .timing import (
    KernelCost,
    batched_launch_cost,
    kernel_cost,
    partition_sizes,
    problems_per_sm,
)


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
    so a result may be priced whenever its report is first read.
    Fault injection happens at the engine's launch seam (the
    resilience supervisor), not here.
    """

    def __init__(self, spec: Optional[DeviceSpec] = None) -> None:
        self.spec = spec or GTX480

    def launch(self, costs: Sequence[ProblemCost]) -> LaunchReport:
        """Simulate one launch over ``costs`` problems.

        Placement is greedy least-loaded — the natural block scheduler
        behaviour for a queue of independent blocks.
        """
        sm_load = [0.0] * self.spec.sm_count
        bytes_total = 0.0
        for cost in costs:
            target = sm_load.index(min(sm_load))
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


#: One problem of a launch as the pricer reads it: its kernel, its
#: box, the mean transition in-degree of its bound models and its
#: host->device payload in bytes.
Member = Tuple[Kernel, Domain, float, float]


class Pricing(NamedTuple):
    """The simulated-device accounting of one launch."""

    report: LaunchReport
    #: Every problem's analytic kernel cost, in problem order.
    costs: List[KernelCost]
    #: Schedule coefficients -> how many problems ran under them.
    schedule_usage: Dict[Tuple[int, ...], int]
    #: Each lane-batched group's amortised cost, in group order.
    batched_costs: List[KernelCost]
    #: Every problem's launch-queue entry, in problem order.
    problem_costs: List[ProblemCost]


def price_launch(
    members: Sequence[Member],
    spec: DeviceSpec,
    use_window: bool = True,
    groups: Iterable[Tuple[Sequence[int], int]] = (),
) -> Pricing:
    """Price one launch of ``members`` on ``spec``.

    Every member is priced on its own (``kernel_cost``) and queued on
    the device with its occupancy packing; ``groups`` pairs each
    lane-batched group's member indices with the thread count it ran
    on, and prices the group's amortised sweep
    (``batched_launch_cost``). The report keeps the per-problem
    costs: placement and device time are modelled the same whether
    or not members ran in a packed group.
    """
    costs: List[KernelCost] = []
    usage: Dict[Tuple[int, ...], int] = {}
    problems: List[ProblemCost] = []
    for kernel, domain, mean_degree, bytes_in in members:
        # One convolution per member: the cost model and the packing
        # rule both read it.
        sizes = partition_sizes(kernel.schedule, domain)
        cost = kernel_cost(
            kernel, domain, spec,
            mean_degree=mean_degree, use_window=use_window, sizes=sizes,
        )
        costs.append(cost)
        coeffs = kernel.schedule.coefficients
        usage[coeffs] = usage.get(coeffs, 0) + 1
        problems.append(ProblemCost(
            cost.seconds,
            bytes_in=bytes_in,
            packing=problems_per_sm(kernel, domain, spec, sizes=sizes),
        ))
    batched_costs = [
        batched_launch_cost(
            members[group[0]][0],
            [members[i][1] for i in group],
            spec,
            mean_degree=members[group[0]][2],
            threads=threads,
        )
        for group, threads in groups
    ]
    return Pricing(
        SimulatedDevice(spec).launch(problems),
        costs, usage, batched_costs, problems,
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
