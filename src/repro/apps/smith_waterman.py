"""Case study 1: Smith-Waterman database search (Section 6.1).

Local edit distance for sequence alignment, written in the DSL with
the substitution-matrix extension; "the expected parallelisation is
along the diagonal x + y, as with other edit distance algorithms."
The typical application compares one query sequence against a database
(one problem per database sequence — the ``map`` primitive).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence as Seq

from ..extensions.submatrix import SubstitutionMatrix, blosum62
from ..lang.parser import parse_function
from ..lang.typecheck import CheckedFunction, check_function
from ..runtime.engine import Engine, MapResult, RunResult
from ..runtime.values import PROTEIN, Alphabet, Sequence

#: The DSL source of the recursion; ``{gap}`` is the linear gap
#: penalty (the paper's base language takes constants inline).
SMITH_WATERMAN_TEMPLATE = """\
int sw(matrix[{alpha}, {alpha}] m,
       seq[{alpha}] q, index[q] i,
       seq[{alpha}] d, index[d] j) =
  if i == 0 then 0
  else if j == 0 then 0
  else 0 max (sw(i-1, j-1) + m[q[i-1], d[j-1]])
         max (sw(i-1, j) - {gap})
         max (sw(i, j-1) - {gap})
"""


def smith_waterman_source(
    alphabet: str = "protein", gap: int = 8
) -> str:
    """The DSL text of the Smith-Waterman recursion."""
    return SMITH_WATERMAN_TEMPLATE.format(alpha=alphabet, gap=gap)


def smith_waterman_function(
    alphabet: Optional[Alphabet] = None, gap: int = 8
) -> CheckedFunction:
    """The checked Smith-Waterman recursion."""
    alphabet = alphabet or PROTEIN
    source = smith_waterman_source(alphabet.name, gap)
    return check_function(
        parse_function(source), {alphabet.name: alphabet.chars}
    )


@dataclass
class AlignmentHit:
    """One database hit: the best local score for a database entry."""

    target: Sequence
    score: int


class SmithWaterman:
    """Query-vs-database Smith-Waterman on the simulated GPU.

    The score of a local alignment is the maximum cell of the DP
    table (not a corner), hence ``reduce='max'``.
    """

    def __init__(
        self,
        engine: Optional[Engine] = None,
        matrix: Optional[SubstitutionMatrix] = None,
        gap: int = 8,
        alphabet: Optional[Alphabet] = None,
    ) -> None:
        self.engine = engine or Engine()
        self.alphabet = alphabet or PROTEIN
        self.matrix = matrix or blosum62(self.alphabet)
        self.gap = gap
        self.func = smith_waterman_function(self.alphabet, gap)

    def align(self, query: Sequence, target: Sequence) -> RunResult:
        """Score one pair; the run's ``value`` is the local score."""
        return self.engine.run(
            self.func,
            {"m": self.matrix, "q": query, "d": target},
            reduce="max",
        )

    def search(
        self, query: Sequence, database: Seq[Sequence]
    ) -> MapResult:
        """Score the query against every database sequence (map)."""
        return self.engine.map_run(
            self.func,
            {"m": self.matrix, "q": query},
            [{"d": target} for target in database],
            reduce="max",
        )

    def hits(
        self,
        query: Sequence,
        database: Seq[Sequence],
        top: int = 10,
    ) -> List[AlignmentHit]:
        """The best-scoring database entries, highest first."""
        result = self.search(query, database)
        scored = [
            AlignmentHit(target, int(score))
            for target, score in zip(database, result.values)
        ]
        scored.sort(key=lambda hit: -hit.score)
        return scored[:top]
