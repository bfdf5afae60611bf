"""Fasta ``ssearch`` baseline (Section 6.1).

The paper compares against the ``ssearch`` tool of the FASTA package,
compiled *without* SSE2 vector instructions — i.e. a careful scalar C
implementation of full Smith-Waterman on one core. Here:

* :func:`sw_score` / :func:`sw_table` — an independent functional
  implementation (the correctness reference for the DSL pipeline);
* :class:`SSearchBaseline` — the cost model: per-cell scalar cost on
  the CPU spec, linear in query x database cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ...gpu.spec import CpuSpec, XEON_E5520
from ...runtime.values import Sequence


def sw_table(
    query: Sequence,
    target: Sequence,
    scores: np.ndarray,
    row_index: np.ndarray,
    col_index: np.ndarray,
    gap: int = 8,
) -> np.ndarray:
    """Full Smith-Waterman table, vectorised along anti-diagonals.

    The anti-diagonal order is exactly the paper's diagonal schedule;
    NumPy plays the role of the synchronous cores.
    """
    m, n = len(query), len(target)
    q = row_index[query.codes]
    d = col_index[target.codes]
    table = np.zeros((m + 1, n + 1), dtype=np.int64)
    for p in range(2, m + n + 1):
        lo = max(1, p - n)
        hi = min(m, p - 1)
        if lo > hi:
            continue
        i = np.arange(lo, hi + 1)
        j = p - i
        subst = scores[q[i - 1], d[j - 1]]
        best = np.maximum(table[i - 1, j - 1] + subst, 0)
        best = np.maximum(best, table[i - 1, j] - gap)
        best = np.maximum(best, table[i, j - 1] - gap)
        table[i, j] = best
    return table


def sw_score(
    query: Sequence,
    target: Sequence,
    scores: np.ndarray,
    row_index: np.ndarray,
    col_index: np.ndarray,
    gap: int = 8,
) -> int:
    """The local alignment score (max over the table)."""
    return int(
        sw_table(query, target, scores, row_index, col_index, gap).max()
    )


#: Cycles per DP cell for tuned scalar C Smith-Waterman. The classic
#: inner loop is ~10 arithmetic/compare ops and 3 loads; careful C is
#: a little leaner than machine-generated code.
SSEARCH_CYCLES_PER_CELL = 14.0


@dataclass
class SSearchBaseline:
    """Cost model of scalar ssearch on one CPU core."""

    spec: CpuSpec = XEON_E5520
    cycles_per_cell: float = SSEARCH_CYCLES_PER_CELL

    name: str = "ssearch (Fasta, no SSE2)"

    def seconds(
        self, query_length: int, db_lengths: Iterable[int]
    ) -> float:
        """Modelled wall-clock: cells x cycles / clock."""
        cells = float(query_length) * float(sum(db_lengths))
        return cells * self.cycles_per_cell / self.spec.clock_hz
