"""Execution of mutually recursive groups (Section 9).

The global time axis interleaves the group's functions: at partition
``p``, every function evaluates its cells with ``S_f(x) + o_f == p``,
then the group synchronises. Two engines:

* :class:`MutualTabulator` — serial evaluation in global partition
  order (the functional reference);
* :class:`MutualLockStep` — barrier semantics with race detection:
  a cell may only read cells (of any table in the group) written at a
  strictly earlier global partition.

Pricing uses the same warp-batch model as single kernels, summed over
the group per global partition (:func:`mutual_cost`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..analysis.domain import Domain
from ..gpu.spec import DeviceSpec, GTX480
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
                f"schedules {self.mutual} are not compatible"
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
            name: np.full(self.domains[name].extents, -1,
                          dtype=np.int64)
            for name in self.funcs
        }
        current = {"p": 0}

        def read_checked(name: str, args: Tuple[int, ...]):
            domain = self.domains[name]
            if not domain.contains_tuple(args):
                raise RuntimeDslError(
                    f"call {name}{args} leaves the domain {domain}"
                )
            stamp = written_at[name][args]
            if stamp < 0 or stamp >= current["p"]:
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

    The group backend inlines every member's space loops under a
    single global time loop (see :mod:`repro.ir.groupbackend`); this
    is the fast functional path for mutual groups, validated against
    the interpreted engines in the test-suite.
    """

    def run(self) -> Dict[str, np.ndarray]:
        """Run the generated group module; returns the tables."""
        from ..ir.groupbackend import compile_group
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


class MutualVectorised(_GroupEvaluation):
    """Vectorised compiled execution: each member's space sweep runs
    as NumPy lanes under the single global time loop.

    The vector group backend
    (:func:`repro.ir.npbackend.compile_vector_group`) is the lane-wise
    twin of the scalar group module — same global partition
    interleaving, whole partitions at a time. Falls back with a
    :class:`~repro.lang.errors.CodegenError` when a member fails the
    vector shape rules (the caller can retry ``engine="compiled"``).
    """

    def run(self) -> Dict[str, np.ndarray]:
        """Run the vectorised group module; returns the tables."""
        from ..ir.kernel import build_kernel
        from ..ir.npbackend import compile_vector_group
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
        run, self.source = compile_vector_group(kernels, self.mutual)
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
    per_cell = {}
    for name, func in funcs.items():
        body = lower_function(func)
        totals = body.counts.scaled_total(mean_degree)
        per_cell[name] = (
            totals["arith"] * spec.arith_cycles
            + totals["compare"] * spec.compare_cycles
            + totals["select"] * spec.select_cycles
            + totals["special"] * spec.special_cycles
            + (
                totals["table_reads"] * spec.global_read_cycles
                + totals["seq_reads"] * spec.shared_read_cycles
                + totals["matrix_reads"] * spec.shared_read_cycles
                + totals["hmm_reads"] * spec.shared_read_cycles
            )
            + spec.global_write_cycles
        )

    # Partition-size profiles per function, aligned on the global axis.
    low, high = mutual.global_range(domains)
    cycles = 0.0
    from ..gpu.timing import partition_sizes

    for name, func in funcs.items():
        fs = mutual[name]
        sizes = partition_sizes(fs.schedule, domains[name])
        batches = np.ceil(sizes / spec.warp_size)
        cycles += float(batches.sum()) * per_cell[name]
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

    ``engine``: ``"vector"`` (vectorised group module — fastest),
    ``"compiled"`` (generated scalar group module), ``"lockstep"``
    (interpreted, with barrier/race checking, the default) or
    ``"serial"`` (interpreted tabulation).
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
        "vector": MutualVectorised,
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
