"""Lock-step execution of a schedule, with dependence checking.

Small-scale *semantic* simulation of the template of Figure 8: within
one partition all cells are computed simultaneously (writes commit at
the barrier), partitions run in order. If any cell reads a table entry
that was not written by an *earlier* partition, the schedule is wrong
and a :class:`RaceError` is raised — this is the executable form of
the partition ordering condition (1), independent of the algebraic
criteria, and the test-suite uses it as a third validity check.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..analysis.domain import Domain
from ..lang.errors import RuntimeDslError
from ..lang.typecheck import CheckedFunction
from ..runtime.interpreter import Evaluator
from ..runtime.values import Bindings
from ..schedule.schedule import Schedule


class RaceError(RuntimeDslError):
    """A cell read a value its partition cannot have waited for."""


class LockStepExecutor:
    """Executes a (function, schedule) pair partition by partition."""

    def __init__(
        self,
        func: CheckedFunction,
        schedule: Schedule,
        bindings: Bindings,
        domain: Domain,
    ) -> None:
        self.func = func
        self.schedule = schedule
        self.bindings = bindings
        self.domain = domain
        self._table: Dict[Tuple[int, ...], object] = {}
        #: Partition that wrote each cell (barrier bookkeeping).
        self._written_at: Dict[Tuple[int, ...], int] = {}
        self._current_partition: Optional[int] = None
        self._evaluator = Evaluator(func, bindings, self._on_call)

    def _on_call(self, args: Tuple[int, ...]) -> object:
        if not self.domain.contains_tuple(args):
            raise RuntimeDslError(
                f"recursive call {self.func.name}{args} leaves the "
                f"domain {self.domain}"
            )
        if args not in self._table:
            raise RaceError(
                f"cell {args} read before any partition wrote it "
                f"(current partition "
                f"{self._current_partition})"
            )
        written = self._written_at[args]
        assert self._current_partition is not None
        if written >= self._current_partition:
            raise RaceError(
                f"cell {args} (written at partition {written}) read by "
                f"partition {self._current_partition}: not separated by "
                f"a barrier"
            )
        return self._table[args]

    def run(self) -> np.ndarray:
        """Execute all partitions; returns the completed table."""
        groups = self.schedule.partitions(self.domain)
        for partition, cells in groups.items():
            self._current_partition = partition
            staged = {}
            for cell in cells:
                staged[cell] = self._evaluator.evaluate(cell)
            # Barrier: all of this partition's writes commit at once.
            for cell, value in staged.items():
                self._table[cell] = value
                self._written_at[cell] = partition
        table = np.zeros(self.domain.extents, dtype=np.float64)
        for cell, value in self._table.items():
            table[cell] = value
        return table
