"""Affine-gap alignment (Gotoh) — a three-table mutual group.

The second flagship application of the mutual-recursion extension
(Section 9): Gotoh's affine-gap global alignment is *naturally* a
mutual recursion over three tables,

    M(i,j) — best alignment ending in a match/mismatch at (i, j)
    X(i,j) — best alignment ending in a gap in the second sequence
    Y(i,j) — best alignment ending in a gap in the first sequence

with M reading all three at ``(i-1, j-1)``, X reading M/X at
``(i-1, j)`` and Y reading M/Y at ``(i, j-1)``. Every dependence
strictly decreases ``i + j``, so the joint solver derives three
*identical* schedules ``S = i + j`` with zero offsets — the mutual
machinery handling a group that needs no interleaving at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..lang.parser import parse_program
from ..lang.typecheck import CheckedProgram, check_program
from ..runtime.mutual import MutualResult, solve_mutual
from ..runtime.values import Bindings, ENGLISH, Alphabet, Sequence

#: Effectively minus infinity for int tables (scores stay far above).
NEG = -1_000_000

GOTOH_TEMPLATE = """\
alphabet {alpha} = "{chars}"

int m(seq[{alpha}] s, index[s] i, seq[{alpha}] t, index[t] j) =
  if i == 0 then (if j == 0 then 0 else {neg})
  else if j == 0 then {neg}
  else (m(i-1, j-1) max x(i-1, j-1) max y(i-1, j-1))
       + (if s[i-1] == t[j-1] then {match} else {mismatch})

int x(seq[{alpha}] s, index[s] i, seq[{alpha}] t, index[t] j) =
  if i == 0 then {neg}
  else if j == 0 then 0 - {open} - ({extend} * (i - 1))
  else (m(i-1, j) - {open}) max (x(i-1, j) - {extend})

int y(seq[{alpha}] s, index[s] i, seq[{alpha}] t, index[t] j) =
  if j == 0 then {neg}
  else if i == 0 then 0 - {open} - ({extend} * (j - 1))
  else (m(i, j-1) - {open}) max (y(i, j-1) - {extend})
"""


def gotoh_source(
    alphabet: Alphabet,
    match: int = 2,
    mismatch: int = -1,
    gap_open: int = 5,
    gap_extend: int = 1,
) -> str:
    """The DSL text of the three-table affine-gap group."""
    return GOTOH_TEMPLATE.format(
        alpha=alphabet.name,
        chars=alphabet.chars,
        match=match,
        mismatch=mismatch,
        open=gap_open,
        extend=gap_extend,
        neg=NEG,
    )


def gotoh_reference(
    a: Sequence,
    b: Sequence,
    match: int = 2,
    mismatch: int = -1,
    gap_open: int = 5,
    gap_extend: int = 1,
) -> int:
    """Independent NumPy Gotoh (global, affine gaps)."""
    n, m_len = len(a), len(b)
    m = np.full((n + 1, m_len + 1), NEG, dtype=np.int64)
    x = np.full((n + 1, m_len + 1), NEG, dtype=np.int64)
    y = np.full((n + 1, m_len + 1), NEG, dtype=np.int64)
    m[0, 0] = 0
    for i in range(1, n + 1):
        x[i, 0] = -gap_open - gap_extend * (i - 1)
    for j in range(1, m_len + 1):
        y[0, j] = -gap_open - gap_extend * (j - 1)
    for i in range(1, n + 1):
        for j in range(1, m_len + 1):
            score = match if a[i - 1] == b[j - 1] else mismatch
            m[i, j] = max(m[i-1, j-1], x[i-1, j-1], y[i-1, j-1]) + score
            x[i, j] = max(m[i-1, j] - gap_open, x[i-1, j] - gap_extend)
            y[i, j] = max(m[i, j-1] - gap_open, y[i, j-1] - gap_extend)
    return int(max(m[n, m_len], x[n, m_len], y[n, m_len]))


@dataclass
class GotohResult:
    score: int
    result: MutualResult

    @property
    def schedules(self) -> str:
        """The group's jointly derived schedules, rendered."""
        return str(self.result.mutual)


class GotohAligner:
    """Affine-gap global alignment via the mutual-group pipeline."""

    def __init__(
        self,
        alphabet: Optional[Alphabet] = None,
        match: int = 2,
        mismatch: int = -1,
        gap_open: int = 5,
        gap_extend: int = 1,
        coeff_bound: int = 1,
        offset_bound: int = 1,
    ) -> None:
        # The affine-gap group needs only unit coefficients and zero
        # offsets (S = i + j for all three tables); the tight default
        # bounds keep the joint search space small.
        self.coeff_bound = coeff_bound
        self.offset_bound = offset_bound
        self.alphabet = alphabet or ENGLISH
        self.params = dict(
            match=match, mismatch=mismatch,
            gap_open=gap_open, gap_extend=gap_extend,
        )
        source = gotoh_source(self.alphabet, match, mismatch,
                              gap_open, gap_extend)
        checked: CheckedProgram = check_program(parse_program(source))
        self.funcs = {
            name: checked.function(name) for name in ("m", "x", "y")
        }

    def align(
        self, a: Sequence, b: Sequence, engine: str = "compiled"
    ) -> GotohResult:
        """Align two sequences; returns score and schedules.

        ``engine`` is :func:`~repro.runtime.mutual.solve_mutual`'s:
        the default ``"compiled"`` group module, or the interpreted
        ``"lockstep"`` (race-checked) and ``"serial"`` references.
        """
        bindings = {
            name: Bindings({"s": a, "t": b}) for name in self.funcs
        }
        result = solve_mutual(
            self.funcs,
            bindings,
            coeff_bound=self.coeff_bound,
            offset_bound=self.offset_bound,
            engine=engine,
        )
        n, m_len = len(a), len(b)
        score = max(
            int(result.value(name, (n, m_len)))
            for name in self.funcs
        )
        return GotohResult(score, result)
