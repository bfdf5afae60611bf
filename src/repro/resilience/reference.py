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

from ..runtime.interpreter import memoised
from ..runtime.values import Bindings


def serial_reference_run(
    func,
    bindings: Mapping[str, object],
    at: Optional[Mapping[str, int]] = None,
    initial: Optional[Dict[str, int]] = None,
    reduce: Optional[str] = None,
) -> object:
    """Solve one problem with the memoised interpreter.

    Settles the request with :meth:`~repro.runtime.engine.Engine.run`'s
    own rule — default coordinates per dimension kind, a negative
    ``at`` wrapped within the extents, an out-of-range ``at`` an
    ``IndexError``, an unknown ``reduce`` a ``RuntimeDslError`` — so
    a demoted job answers (or refuses) exactly as a served one.
    Interpreter semantics are direct-space — the match is exact for
    integer kernels and direct-mode probability kernels (the service
    default).
    """
    from ..runtime.engine import Engine

    engine = Engine()  # coordinate/domain helpers only; nothing runs on it
    bound = Bindings(dict(bindings))
    domain = engine.domain_of(func, bound, initial)
    coords = engine._result_request(
        func, bound, domain, at, initial, reduce
    )
    call = memoised(func, bound)
    if reduce is None:
        return call(coords)
    pick = max if reduce == "max" else min
    return pick(call(tuple(point)) for point in domain.points())
