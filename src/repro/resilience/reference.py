"""The serial reference path: last resort of graceful degradation.

When a job keeps hitting device faults past every retry and replay
budget, the serving layer stops trusting the simulated device
entirely and *demotes* the job to the memoised recursive interpreter
(the paper's "implicit method of evaluation", Section 2) — no
kernels, no device, no injection surface. Slow, but it always
terminates with the semantically-correct answer, which for a
production service beats failing the request.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..analysis.domain import Domain
from ..runtime.interpreter import domain_extents, memoised
from ..runtime.values import Bindings


def serial_reference_run(
    func,
    bindings: Mapping[str, object],
    at: Optional[Mapping[str, int]] = None,
    initial: Optional[Dict[str, int]] = None,
    reduce: Optional[str] = None,
) -> object:
    """Solve one problem with the memoised interpreter.

    Settles the request with the engine's own rule
    (:func:`~repro.runtime.engine.settle`: default coordinates per
    dimension kind, a negative ``at`` wrapped within the extents, an
    out-of-range ``at`` an ``IndexError``, an unknown ``reduce`` a
    ``RuntimeDslError``), so a demoted job answers (or refuses)
    exactly as a served one. Interpreter semantics are direct-space —
    the match is exact for integer kernels and direct-mode
    probability kernels (the service default).
    """
    from ..runtime.engine import settle

    bound = Bindings(dict(bindings))
    domain = Domain(func.dim_names, domain_extents(func, bound, initial))
    coords = settle(func, [(bound, domain)], at, reduce)
    call = memoised(func, bound)
    if coords is not None:
        return call(tuple(coords[0].tolist()))
    pick = max if reduce == "max" else min
    return pick(call(tuple(point)) for point in domain.points())
