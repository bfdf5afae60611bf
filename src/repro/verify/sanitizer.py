"""Runtime sanitizer: poison-filled execution with barrier checks.

The static passes prove what they can; this module checks the rest at
run time on the simulated device, the way a debug allocator would on
real hardware:

* tables start **poison-filled** (NaN for float tables, a large
  negative sentinel for int tables), so any cell consumed before the
  schedule wrote it is observable;
* the **scalar** backend gets an instrumented twin kernel (emitted by
  :func:`repro.ir.pybackend.compile_kernel` with ``sanitize=True``)
  that routes every access through a :class:`TableSanitizer`: poison
  reads, out-of-bounds indices, wrong-partition writes, and
  intra-partition read/write overlap all fail at the partition
  barrier that exposes them;
* the **vector** backend cannot intercept individual reads, so
  :func:`sanitized_partition_scan` steps the compiled kernel one
  partition at a time and scans the poison mask between partitions —
  NaN propagation turns any poison read into a poison *result* for
  float tables, and unwritten cells stay poison for both dtypes.

Every observation raises :class:`~repro.lang.errors.SanitizerError`:
a deterministic codegen or schedule bug, which must fail fast.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.domain import Domain
from ..lang.errors import SanitizerError
from ..schedule.schedule import Schedule
from .diagnostics import Diagnostic, Severity

#: Poison sentinel for int64 tables (NaN has no integer encoding).
#: Far outside any score a paper workload can produce.
POISON_INT = -(2 ** 62)


def poison_fill(table: np.ndarray) -> np.ndarray:
    """Fill ``table`` with the poison pattern for its dtype, in place."""
    if table.dtype.kind == "f":
        table.fill(np.nan)
    else:
        table.fill(POISON_INT)
    return table


def poison_mask(table: np.ndarray) -> np.ndarray:
    """Boolean mask of cells still holding the poison pattern."""
    if table.dtype.kind == "f":
        return np.isnan(table)
    return table == POISON_INT


def _is_poison_value(value) -> bool:
    if isinstance(value, float):
        return value != value  # NaN
    return value == POISON_INT


class TableSanitizer:
    """Access monitor for one sanitized scalar kernel execution.

    The instrumented kernel calls :meth:`barrier` when it enters each
    partition, :meth:`tread`/:meth:`sread` for every table/sequence
    read, :meth:`twrite` for every cell write and :meth:`finish` after
    the time loop. Violations raise immediately (reads, bounds) or at
    the barrier/final scan that exposes them (overlap, write misses);
    every finding is also recorded in :attr:`findings`.
    """

    def __init__(self, schedule: Schedule, domain: Domain) -> None:
        self.schedule = schedule
        self.domain = domain
        self.findings: List[Diagnostic] = []
        self._partition: Optional[int] = None
        self._reads: set = set()
        self._writes: set = set()

    # -- failure plumbing -----------------------------------------------------

    def _fail(self, rule: str, message: str) -> None:
        self.findings.append(
            Diagnostic(Severity.ERROR, rule, message)
        )
        raise SanitizerError(f"[{rule}] {message}")

    # -- kernel entry points --------------------------------------------------

    def barrier(self, partition: int) -> None:
        """Enter ``partition``: commit and check the previous one."""
        self._check_overlap()
        self._partition = partition
        self._reads.clear()
        self._writes.clear()

    def tread(
        self, table: np.ndarray, coords: Tuple[int, ...],
        own: bool = True,
    ):
        """A table read: bounds + poison check, then the value."""
        for axis, (c, n) in enumerate(zip(coords, table.shape)):
            if not 0 <= c < n:
                self._fail(
                    "S-OOB",
                    f"table read at {coords} leaves the table "
                    f"(axis {axis}: {c} not in 0..{n - 1}) in "
                    f"partition {self._partition}",
                )
        value = table[coords]
        if _is_poison_value(
            value.item() if hasattr(value, "item") else value
        ):
            self._fail(
                "S-POISON-READ",
                f"cell {coords} was read while poisoned (never "
                f"written) in partition {self._partition}",
            )
        if own:
            self._reads.add(coords)
        return value

    def twrite(
        self, table: np.ndarray, coords: Tuple[int, ...], value
    ) -> None:
        """A cell write: bounds + partition-membership check."""
        for axis, (c, n) in enumerate(zip(coords, table.shape)):
            if not 0 <= c < n:
                self._fail(
                    "S-OOB",
                    f"write at {coords} leaves the table "
                    f"(axis {axis}: {c} not in 0..{n - 1}) in "
                    f"partition {self._partition}",
                )
        expected = self.schedule.partition_of(coords)
        if self._partition is not None and expected != self._partition:
            self._fail(
                "S-PART-MISMATCH",
                f"cell {coords} belongs to partition {expected} but "
                f"was written in partition {self._partition}",
            )
        self._writes.add(coords)
        table[coords] = value

    def sread(self, array: np.ndarray, index: int):
        """A sequence read: bounds check, then the code."""
        if not 0 <= index < len(array):
            self._fail(
                "S-OOB",
                f"sequence read at position {index} leaves the "
                f"sequence (length {len(array)}) in partition "
                f"{self._partition}",
            )
        return array[index]

    def finish(self, table: np.ndarray) -> None:
        """After the time loop: final barrier + whole-table scan."""
        self._check_overlap()
        mask = poison_mask(table)
        if mask.any():
            coords = tuple(
                int(c) for c in np.argwhere(mask)[0]
            )
            self._fail(
                "S-WRITE-MISS",
                f"cell {coords} (and {int(mask.sum()) - 1} more) "
                f"was never written by any partition",
            )

    def _check_overlap(self) -> None:
        overlap = self._reads & self._writes
        if overlap:
            cell = sorted(overlap)[0]
            self._fail(
                "S-PART-OVERLAP",
                f"cell {cell} was both read and written inside "
                f"partition {self._partition} (an intra-partition "
                f"race: concurrent cells would observe it in an "
                f"arbitrary state)",
            )


def _sanitized_twin(compiled):
    """The instrumented scalar kernel of a compilation product.

    Compiled lazily and cached on the :class:`CompiledKernel` so the
    sanitized twin amortises like the plain kernel does.
    """
    from ..ir.pybackend import compile_kernel

    twin = getattr(compiled, "_sanitized_run", None)
    if twin is None:
        twin, _source = compile_kernel(compiled.kernel, sanitize=True)
        compiled._sanitized_run = twin
    return twin


def run_sanitized(
    compiled,
    table: np.ndarray,
    ctx: Dict[str, object],
    domain: Domain,
) -> np.ndarray:
    """Execute one problem with sanitization, whatever the backend.

    Scalar products run their instrumented twin; vector products run
    the partition-at-a-time poison scan. Returns the filled table (the
    same values a plain run produces — the sanitizer only *observes*).
    """
    if compiled.backend == "vector":
        return sanitized_partition_scan(compiled, table, ctx, domain)
    poison_fill(table)
    sanitizer = TableSanitizer(compiled.schedule, domain)
    instrumented_ctx = dict(ctx)
    instrumented_ctx["_san"] = sanitizer
    _sanitized_twin(compiled)(table, instrumented_ctx)
    return table


def partition_mesh(
    schedule: Schedule, domain: Domain
) -> np.ndarray:
    """``S(x)`` evaluated at every cell of the box, as an array."""
    mesh = np.zeros(domain.extents, dtype=np.int64)
    grids = np.indices(domain.extents)
    coeffs = schedule.coefficient_map()
    for axis, dim in enumerate(domain.dims):
        coeff = coeffs.get(dim, 0)
        if coeff:
            mesh += coeff * grids[axis]
    return mesh


def sanitized_partition_scan(
    compiled,
    table: np.ndarray,
    ctx: Dict[str, object],
    domain: Domain,
) -> np.ndarray:
    """Vector-backend sanitization: step partitions, scan poison.

    After each partition executes, its own cells must have left the
    poison state (a float cell that reads poison computes NaN and so
    *stays* poison — detected here; an unwritten cell of either dtype
    likewise), and no later partition's cell may have been written
    yet.
    """
    mesh = partition_mesh(compiled.schedule, domain)
    poison_fill(table)

    def fail(rule: str, message: str) -> None:
        raise SanitizerError(f"[{rule}] {message}")

    for partition in range(int(mesh.min()), int(mesh.max()) + 1):
        compiled.run(table, ctx, part_lo=partition, part_hi=partition)
        mask = poison_mask(table)
        stale = mask & (mesh == partition)
        if stale.any():
            coords = tuple(int(c) for c in np.argwhere(stale)[0])
            rule = (
                "S-POISON-READ" if table.dtype.kind == "f"
                else "S-WRITE-MISS"
            )
            fail(
                rule,
                f"cell {coords} of partition {partition} is still "
                f"poison after its partition executed (read a "
                f"not-yet-written cell, or was never written)",
            )
        early = (~mask) & (mesh > partition)
        if early.any():
            where = np.argwhere(early)[0]
            coords = tuple(int(c) for c in where)
            fail(
                "S-PART-MISMATCH",
                f"cell {coords} of partition "
                f"{int(mesh[tuple(where)])} was written during "
                f"partition {partition}",
            )
    return table
