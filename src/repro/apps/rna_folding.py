"""RNA secondary-structure prediction (Nussinov) — an extension
case study.

The paper names RNA secondary structure as the application family
motivating its future work (Section 9) and explicitly allows language
extensions that "create new looping expressions ... and can therefore
derive solvable criteria on recursions within the loop" (Section 5).
This module exercises exactly that: the Nussinov base-pair
maximisation, whose bifurcation term is a bounded range reduction

    ``max(k in i+1 .. j-1 : nuss(i, k) + nuss(k, j))``

The dependence analysis derives the interval schedule ``S = j - i``
(compute short spans before long ones) with the range binder folded
into the validity criterion as an affine constraint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..lang.parser import parse_function
from ..lang.typecheck import CheckedFunction, check_function
from ..runtime.engine import Engine, RunResult
from ..runtime.values import Alphabet, Sequence

#: The RNA alphabet.
RNA = Alphabet("rna", "acgu")

#: Watson-Crick plus wobble pairs.
CANONICAL_PAIRS = frozenset(
    {("a", "u"), ("u", "a"), ("c", "g"), ("g", "c"),
     ("g", "u"), ("u", "g")}
)

#: The recursion over half-open intervals [i, j): a cell scores the
#: best pairing of x[i..j-1]. ``{min_span}`` is the minimum hairpin
#: span (j - i below it scores 0).
NUSSINOV_TEMPLATE = """\
int nuss(seq[rna] x, index[x] i, index[x] j) =
  if j < i + {min_span} then 0
  else (
    nuss(i+1, j)
    max nuss(i, j-1)
    max (nuss(i+1, j-1) + {pair_expr})
    max max(k in i+1 .. j-1 : nuss(i, k) + nuss(k, j))
  )
"""

_PAIR_EXPR = (
    "(if x[i] == 'a' then (if x[j-1] == 'u' then 1 else 0)\n"
    "   else if x[i] == 'u' then"
    " (if x[j-1] == 'a' then 1 else (if x[j-1] == 'g' then 1 else 0))\n"
    "   else if x[i] == 'c' then (if x[j-1] == 'g' then 1 else 0)\n"
    "   else (if x[j-1] == 'c' then 1 else"
    " (if x[j-1] == 'u' then 1 else 0)))"
)


def nussinov_source(min_span: int = 2) -> str:
    """The DSL text of the Nussinov recursion."""
    return NUSSINOV_TEMPLATE.format(
        min_span=min_span, pair_expr=_PAIR_EXPR
    )


def nussinov_function(min_span: int = 2) -> CheckedFunction:
    """The checked Nussinov recursion for ``min_span``."""
    return check_function(
        parse_function(nussinov_source(min_span)), {"rna": RNA.chars}
    )


def pairs(a: str, b: str) -> bool:
    """Do two bases form a canonical or wobble pair?"""
    return (a, b) in CANONICAL_PAIRS


def nussinov_reference(seq: Sequence, min_span: int = 2) -> np.ndarray:
    """Independent NumPy Nussinov (the correctness reference)."""
    n = len(seq)
    table = np.zeros((n + 1, n + 1), dtype=np.int64)
    for span in range(min_span, n + 1):
        for i in range(0, n - span + 1):
            j = i + span
            best = max(table[i + 1, j], table[i, j - 1])
            bonus = 1 if pairs(seq[i], seq[j - 1]) else 0
            best = max(best, table[i + 1, j - 1] + bonus)
            for k in range(i + 1, j):
                best = max(best, table[i, k] + table[k, j])
            table[i, j] = best
    return table


def traceback(
    seq: Sequence, table: np.ndarray, min_span: int = 2
) -> List[Tuple[int, int]]:
    """Recover one optimal set of base pairs from a filled table."""
    pairs_found: List[Tuple[int, int]] = []
    stack = [(0, len(seq))]
    while stack:
        i, j = stack.pop()
        if j < i + min_span:
            continue
        score = table[i, j]
        if score == table[i + 1, j]:
            stack.append((i + 1, j))
            continue
        if score == table[i, j - 1]:
            stack.append((i, j - 1))
            continue
        bonus = 1 if pairs(seq[i], seq[j - 1]) else 0
        if bonus and score == table[i + 1, j - 1] + bonus:
            pairs_found.append((i, j - 1))
            stack.append((i + 1, j - 1))
            continue
        for k in range(i + 1, j):
            if score == table[i, k] + table[k, j]:
                stack.append((i, k))
                stack.append((k, j))
                break
    return sorted(pairs_found)


def dot_bracket(seq: Sequence, pair_list: List[Tuple[int, int]]) -> str:
    """Render a pair list as dot-bracket notation."""
    chars = ["."] * len(seq)
    for i, j in pair_list:
        chars[i] = "("
        chars[j] = ")"
    return "".join(chars)


@dataclass
class FoldResult:
    """One folded sequence."""

    sequence: Sequence
    score: int
    pairs: List[Tuple[int, int]]
    structure: str
    run: RunResult


class RnaFolding:
    """Nussinov folding on the simulated GPU."""

    def __init__(
        self,
        engine: Optional[Engine] = None,
        min_span: int = 2,
    ) -> None:
        self.engine = engine or Engine()
        self.min_span = min_span
        self.func = nussinov_function(min_span)

    def fold(self, seq: Sequence) -> FoldResult:
        """Fold one sequence: score, pairs and dot-bracket."""
        run = self.engine.run(
            self.func, {"x": seq}, at={"i": 0, "j": len(seq)}
        )
        pair_list = traceback(seq, run.table, self.min_span)
        return FoldResult(
            seq, int(run.value), pair_list,
            dot_bracket(seq, pair_list), run,
        )
