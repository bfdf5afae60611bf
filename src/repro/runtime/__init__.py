"""Runtime: values, interpretation, tabulation, the Engine, scripts."""

from .engine import CompiledKernel, Engine, MapResult, RunResult
from .interpreter import Evaluator, domain_extents, memoised
from .sequences import (
    parse_fasta,
    random_database,
    random_dna,
    random_protein,
    read_fasta,
    write_fasta,
)
from .mutual import (
    MutualLockStep,
    MutualResult,
    MutualTabulator,
    solve_mutual,
)
from .values import (
    DNA,
    ENGLISH,
    PROTEIN,
    Alphabet,
    Bindings,
    Sequence,
    make_sequences,
)

__all__ = [
    "CompiledKernel",
    "Engine",
    "MapResult",
    "RunResult",
    "Evaluator",
    "domain_extents",
    "memoised",
    "parse_fasta",
    "random_database",
    "random_dna",
    "random_protein",
    "read_fasta",
    "write_fasta",
    "MutualLockStep",
    "MutualResult",
    "MutualTabulator",
    "solve_mutual",
    "DNA",
    "ENGLISH",
    "PROTEIN",
    "Alphabet",
    "Bindings",
    "Sequence",
    "make_sequences",
]
