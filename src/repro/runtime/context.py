"""Device-context preparation, shared by the engines.

A *context* is the dict of arrays/scalars a generated kernel unpacks:
dimension bounds, encoded sequences, matrix tables with their
character-index maps, and the HMM array bundle — the concrete layout
behind Section 3.3's abstract target environment.
"""

from __future__ import annotations

from typing import Dict

from ..analysis.domain import Domain
from ..extensions.hmm import Hmm
from ..extensions.submatrix import SubstitutionMatrix
from ..ir.kernel import Kernel, UB_PREFIX
from ..lang.errors import RuntimeDslError
from .values import Bindings, Sequence


def sequence_codes(bindings: Bindings, name: str):
    """The encoded characters of the sequence bound to ``name``."""
    seq = bindings[name]
    if not isinstance(seq, Sequence):
        raise RuntimeDslError(f"parameter {name!r} must be a Sequence")
    return seq.codes


def build_context(
    kernel: Kernel,
    bindings: Bindings,
    domain: Domain,
) -> Dict[str, object]:
    """Materialise the context one kernel expects."""
    ctx: Dict[str, object] = {}
    for dim, extent in zip(domain.dims, domain.extents):
        ctx[UB_PREFIX + dim] = extent - 1
    refs = kernel.referenced_names()
    for name in refs["seqs"]:
        ctx[f"seq_{name}"] = sequence_codes(bindings, name)
    for name in refs["scalars"]:
        ctx[f"arg_{name}"] = bindings[name]
    for name in refs["matrices"]:
        matrix = bindings[name]
        if not isinstance(matrix, SubstitutionMatrix):
            raise RuntimeDslError(
                f"parameter {name!r} must be a SubstitutionMatrix"
            )
        ctx[f"mat_{name}"] = matrix.scores
        ctx[f"rowidx_{name}"] = matrix.row_alphabet.index_table()
        ctx[f"colidx_{name}"] = matrix.col_alphabet.index_table()
    for name in refs["hmms"]:
        hmm = bindings[name]
        if not isinstance(hmm, Hmm):
            raise RuntimeDslError(f"parameter {name!r} must be a Hmm")
        arrays = hmm.arrays(logspace=kernel.logspace)
        ctx[f"hmm_{name}_isstart"] = arrays.is_start
        ctx[f"hmm_{name}_isend"] = arrays.is_end
        ctx[f"hmm_{name}_emis"] = arrays.emissions
        ctx[f"hmm_{name}_symidx"] = arrays.sym_index
        ctx[f"hmm_{name}_tprob"] = arrays.trans_prob
        ctx[f"hmm_{name}_tsrc"] = arrays.trans_source
        ctx[f"hmm_{name}_ttgt"] = arrays.trans_target
        ctx[f"hmm_{name}_inoff"] = arrays.in_offsets
        ctx[f"hmm_{name}_inids"] = arrays.in_ids
        ctx[f"hmm_{name}_outoff"] = arrays.out_offsets
        ctx[f"hmm_{name}_outids"] = arrays.out_ids
    return ctx
