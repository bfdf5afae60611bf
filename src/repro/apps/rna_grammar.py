"""Mutually recursive RNA structure grammar — the Section 9 extension.

The paper's future work: "support mutually recursive functions, by
deriving multiple scheduling functions, one for each function, whose
partition time-step values are compatible ... This would allow us to
support more complicated applications, such as RNA secondary structure
prediction."

This module implements exactly that application: the classic
two-nonterminal structure grammar (``S -> .S | (S)S``, the backbone of
SCFG/ADP-style folders)

    struct(i, j) = max( struct(i+1, j),
                        max k: paired(i, k) + struct(k, j) )
    paired(i, j) = pair_bonus(x[i], x[j-1]) + struct(i+1, j-1)

scheduled jointly: the solver derives the compatible pair
``S_paired = j - i`` and ``S_struct = j - i + 1`` — ``paired`` spans
of length L run one global time-step before ``struct`` spans of the
same length. The scores coincide with single-function Nussinov, which
the tests exploit as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..lang.parser import parse_program
from ..lang.typecheck import CheckedProgram, check_program
from ..runtime.mutual import MutualResult, solve_mutual
from ..runtime.values import Bindings, Sequence

#: A large negative score standing in for "no pairing possible" (the
#: grammar has no partial domains; the outer max discards it).
FORBIDDEN = -1000

GRAMMAR_SOURCE = f"""\
alphabet rna = "acgu"

int struct(seq[rna] x, index[x] i, index[x] j) =
  if j < i + 2 then 0
  else struct(i+1, j)
       max max(k in i+2 .. j : paired(i, k) + struct(k, j))

int paired(seq[rna] y, index[y] i, index[y] j) =
  if j < i + 2 then 0 - {-FORBIDDEN}
  else
    (if y[i] == 'a' then (if y[j-1] == 'u' then 1 else 0 - {-FORBIDDEN})
     else if y[i] == 'u' then
       (if y[j-1] == 'a' then 1
        else (if y[j-1] == 'g' then 1 else 0 - {-FORBIDDEN}))
     else if y[i] == 'c' then
       (if y[j-1] == 'g' then 1 else 0 - {-FORBIDDEN})
     else (if y[j-1] == 'c' then 1
           else (if y[j-1] == 'u' then 1 else 0 - {-FORBIDDEN})))
    + struct(i+1, j-1)
"""


def grammar_program() -> CheckedProgram:
    """Parse and check the two-nonterminal grammar."""
    return check_program(parse_program(GRAMMAR_SOURCE))


@dataclass
class GrammarFold:
    """One folded sequence via the mutual grammar."""

    sequence: Sequence
    score: int
    result: MutualResult

    @property
    def schedules(self) -> str:
        """The group's jointly derived schedules, rendered."""
        return str(self.result.mutual)

    @property
    def seconds(self) -> float:
        """Modelled device time of the group launch."""
        return self.result.seconds


class RnaGrammar:
    """Two-nonterminal RNA folding on jointly derived schedules."""

    def __init__(self, coeff_bound: int = 2, offset_bound: int = 2):
        checked = grammar_program()
        self.funcs = {
            name: checked.function(name)
            for name in ("struct", "paired")
        }
        self.coeff_bound = coeff_bound
        self.offset_bound = offset_bound

    def fold(
        self, seq: Sequence, engine: str = "lockstep"
    ) -> GrammarFold:
        """Fold one sequence. ``engine`` is
        :func:`~repro.runtime.mutual.solve_mutual`'s: ``"compiled"``
        (the generated group module) for long inputs; the default
        ``"lockstep"`` additionally race-checks the joint schedules;
        ``"serial"`` is the plain interpreted reference."""
        bindings = {
            "struct": Bindings({"x": seq}),
            "paired": Bindings({"y": seq}),
        }
        result = solve_mutual(
            self.funcs,
            bindings,
            coeff_bound=self.coeff_bound,
            offset_bound=self.offset_bound,
            engine=engine,
        )
        score = int(result.value("struct", (0, len(seq))))
        return GrammarFold(seq, score, result)
