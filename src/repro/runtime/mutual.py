"""Execution of mutually recursive groups (Section 9).

The global time axis interleaves the group's functions: at partition
``p``, every function evaluates its cells with ``S_f(x) + o_f == p``,
then the group synchronises. A single function is served as a group
of one, ``MutualSchedule({f: FunctionSchedule(schedule, 0)})``: the
validity condition of Section 4.5 is the compatibility criterion with
``g = f``. Three engines, picked by :func:`solve_mutual`'s ``engine``:

* :class:`MutualTabulator` (``"serial"``) — serial evaluation in
  global partition order (the functional reference);
* :class:`MutualLockStep` (``"lockstep"``) — barrier semantics with
  race detection: a cell may only read cells (of any table in the
  group) written at a strictly earlier global partition. This is the
  executable form of the partition ordering condition (1),
  independent of the algebraic criteria;
* :class:`MutualCompiled` (``"compiled"``) — the generated group
  module of :mod:`repro.ir.pybackend`, for sizes the interpreters
  cannot reach.

Pricing uses the same warp-batch model as single kernels, summed over
the group per global partition (:func:`mutual_cost`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..analysis.domain import Domain
from ..gpu.spec import DeviceSpec, GTX480
from ..gpu.timing import cell_cost_cycles, partition_sizes
from ..ir.lower import lower_function
from ..lang.errors import RuntimeDslError
from ..lang.typecheck import CheckedFunction
from ..lang.types import IntType
from ..schedule.mutual_rec import MutualSchedule, find_mutual_schedules
from .interpreter import Evaluator, domain_extents
from .values import Bindings


class MutualRaceError(RuntimeDslError):
    """A cross-table read was not separated by a barrier."""


@dataclass
class MutualResult:
    """A solved mutual group."""

    tables: Dict[str, np.ndarray]
    mutual: MutualSchedule
    domains: Dict[str, Domain]
    seconds: float

    def value(self, name: str, coords: Tuple[int, ...]):
        """Read one cell of one function's table."""
        return self.tables[name][coords]


class _GroupEvaluation:
    """Shared plumbing of the two mutual engines."""

    def __init__(
        self,
        funcs: Mapping[str, CheckedFunction],
        bindings: Mapping[str, Bindings],
        mutual: MutualSchedule,
        initial: Optional[Mapping[str, Dict[str, int]]] = None,
    ) -> None:
        initial = initial or {}
        self.funcs = dict(funcs)
        self.mutual = mutual
        self.bindings = {name: bindings[name] for name in funcs}
        self.domains = {
            name: Domain(
                func.dim_names,
                domain_extents(
                    func, self.bindings[name], initial.get(name)
                ),
            )
            for name, func in funcs.items()
        }
        self.tables = {
            name: np.zeros(
                self.domains[name].extents,
                dtype=np.int64
                if isinstance(func.return_type, IntType)
                else np.float64,
            )
            for name, func in funcs.items()
        }
        self.filled = {
            name: np.zeros(self.domains[name].extents, dtype=bool)
            for name in funcs
        }

    def read(self, name: str, args: Tuple[int, ...]):
        domain = self.domains[name]
        if not domain.contains_tuple(args):
            raise RuntimeDslError(
                f"call {name}{args} leaves the domain {domain}"
            )
        if not self.filled[name][args]:
            raise RuntimeDslError(
                f"cell {name}{args} read before it was computed; the "
                f"schedules {self.mutual} are not valid for the group"
            )
        value = self.tables[name][args]
        return (
            int(value)
            if self.tables[name].dtype.kind == "i"
            else float(value)
        )

    def cells_by_partition(self):
        """Global partition -> list of (function, point)."""
        buckets: Dict[int, list] = {}
        for name, domain in self.domains.items():
            fs = self.mutual[name]
            for point in domain.points():
                buckets.setdefault(
                    fs.partition_of(point), []
                ).append((name, point))
        return dict(sorted(buckets.items()))


class MutualTabulator(_GroupEvaluation):
    """Serial evaluation of a group, in global partition order."""

    def run(self) -> Dict[str, np.ndarray]:
        """Evaluate the group serially; returns the tables."""
        evaluators = {
            name: Evaluator(
                func,
                self.bindings[name],
                on_call=lambda args, n=name: self.read(n, args),
                on_cross_call=self.read,
            )
            for name, func in self.funcs.items()
        }
        for _, cells in self.cells_by_partition().items():
            for name, point in cells:
                self.tables[name][point] = (
                    evaluators[name].evaluate(point)
                )
                self.filled[name][point] = True
        return self.tables


class MutualLockStep(_GroupEvaluation):
    """Barrier semantics: partitions commit atomically; reads must
    target strictly earlier partitions (of any table)."""

    def run(self) -> Dict[str, np.ndarray]:
        """Evaluate with barrier semantics; returns the tables."""
        written_at = {
            name: np.zeros(self.domains[name].extents, dtype=np.int64)
            for name in self.funcs
        }
        current = {"p": 0}

        def read_checked(name: str, args: Tuple[int, ...]):
            domain = self.domains[name]
            if not domain.contains_tuple(args):
                raise RuntimeDslError(
                    f"call {name}{args} leaves the domain {domain}"
                )
            # Partitions may be negative: ``filled`` says whether a
            # cell was written, ``written_at`` only when.
            if not self.filled[name][args]:
                raise MutualRaceError(
                    f"cell {name}{args} read before any partition "
                    f"wrote it (current partition {current['p']})"
                )
            stamp = written_at[name][args]
            if stamp >= current["p"]:
                raise MutualRaceError(
                    f"cell {name}{args} (written at partition {stamp}) "
                    f"read by partition {current['p']}: the group's "
                    f"schedules are not compatible"
                )
            value = self.tables[name][args]
            return (
                int(value)
                if self.tables[name].dtype.kind == "i"
                else float(value)
            )

        evaluators = {
            name: Evaluator(
                func,
                self.bindings[name],
                on_call=lambda args, n=name: read_checked(n, args),
                on_cross_call=read_checked,
            )
            for name, func in self.funcs.items()
        }
        for partition, cells in self.cells_by_partition().items():
            current["p"] = partition
            staged = []
            for name, point in cells:
                staged.append(
                    (name, point, evaluators[name].evaluate(point))
                )
            for name, point, value in staged:  # the barrier
                self.tables[name][point] = value
                written_at[name][point] = partition
                self.filled[name][point] = True
        return self.tables


class MutualCompiled(_GroupEvaluation):
    """Compiled execution: one generated module drives the group.

    The group module inlines every member's space loops under a
    single global time loop (see
    :func:`repro.ir.pybackend.emit_group_source`); this is the fast
    functional path for mutual groups, validated against the
    interpreted engines in the test-suite.
    """

    def run(self) -> Dict[str, np.ndarray]:
        """Run the generated group module; returns the tables."""
        from ..ir.pybackend import compile_group
        from ..ir.kernel import build_kernel
        from .context import build_context

        kernels = {
            name: build_kernel(
                func, self.mutual[name].schedule,
                compute_window=False,
            )
            for name, func in self.funcs.items()
        }
        ctxs = {
            name: build_context(
                kernels[name], self.bindings[name], self.domains[name]
            )
            for name in self.funcs
        }
        run, self.source = compile_group(kernels, self.mutual)
        global_lo, global_hi = self.mutual.global_range(self.domains)
        run(self.tables, ctxs, global_lo, global_hi)
        for name in self.funcs:
            self.filled[name][...] = True
        return self.tables


def mutual_cost(
    funcs: Mapping[str, CheckedFunction],
    mutual: MutualSchedule,
    domains: Mapping[str, Domain],
    spec: DeviceSpec = GTX480,
    mean_degree: float = 1.0,
) -> float:
    """Device seconds for one mutual-group launch.

    Per global partition, each function contributes its warp batches;
    one barrier closes the partition.
    """
    # A group's tables live in global memory: no shared window.
    low, high = mutual.global_range(domains)
    cycles = 0.0
    for name, func in funcs.items():
        per_cell = cell_cost_cycles(
            lower_function(func), spec, mean_degree, table_in_shared=False
        )
        sizes = partition_sizes(mutual[name].schedule, domains[name])
        batches = np.ceil(sizes / spec.warp_size)
        cycles += float(batches.sum()) * (
            per_cell["compute"] + per_cell["memory"]
        )
    cycles += (high - low + 1) * spec.sync_cycles
    return cycles / spec.clock_hz


def solve_mutual(
    funcs: Mapping[str, CheckedFunction],
    bindings: Mapping[str, Bindings],
    initial: Optional[Mapping[str, Dict[str, int]]] = None,
    coeff_bound: int = 2,
    offset_bound: int = 2,
    spec: DeviceSpec = GTX480,
    engine: str = "lockstep",
) -> MutualResult:
    """Schedule and evaluate one mutual group, end to end.

    ``engine``: ``"compiled"`` (the generated group module — the fast
    path), ``"lockstep"`` (interpreted, with barrier/race checking,
    the default) or ``"serial"`` (interpreted tabulation). Anything
    else raises :class:`~repro.lang.errors.RuntimeDslError`.
    """
    initial = initial or {}
    domains = {
        name: Domain(
            func.dim_names,
            domain_extents(func, bindings[name], initial.get(name)),
        )
        for name, func in funcs.items()
    }
    mutual = find_mutual_schedules(
        funcs, domains, coeff_bound, offset_bound
    )
    engine_cls = {
        "compiled": MutualCompiled,
        "lockstep": MutualLockStep,
        "serial": MutualTabulator,
    }.get(engine)
    if engine_cls is None:
        raise RuntimeDslError(f"unknown mutual engine {engine!r}")
    engine = engine_cls(funcs, bindings, mutual, initial)
    tables = engine.run()
    seconds = mutual_cost(funcs, mutual, domains, spec)
    return MutualResult(tables, mutual, domains, seconds)
