"""Cross-backend divergence oracle.

When the supervisor detects a suspect partition range (replay
verification disagreed, or a scan found poisoned cells), two causes
are possible: the simulated hardware corrupted the result
(transient — recover and move on), or the generated code is wrong
(deterministic — a compiler bug that no amount of retrying fixes).

The oracle separates them the only way that works: re-execute the
range *cleanly* (no injection) on the primary backend **and** on an
independent reference backend, from the same pre-epoch checkpoint.

* clean primary == reference  -> the earlier mismatch was injected
  corruption; the clean result is the recovery value;
* clean primary != reference  -> the divergence is deterministic:
  raise :class:`~repro.lang.errors.BackendDivergenceError`, which is
  a :class:`~repro.lang.errors.DslError` and therefore *never
  retried* by the serving layer.

Reference choice (:func:`repro.runtime.ladder.reference`): the
highest Python rung that is not the kernel's own. A vector-compiled
kernel is checked against the scalar Python backend (genuinely
different generated code); a native-compiled kernel against the
vector backend when eligible, else scalar (either way it is
independent code *and* an independent evaluator — machine code vs the
Python interpreter); a scalar kernel is checked against the vector
backend when the kernel is eligible, else against a fresh re-exec of
its own source (which still catches nondeterministic state
corruption, though not a deterministic scalar-codegen bug — noted in
the classification).

Agreement uses the shared cross-backend tolerance policy of
:mod:`repro.runtime.parity` (re-exported here as ``tables_agree``
for backwards compatibility).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ..lang.errors import BackendDivergenceError
from ..runtime import ladder
from ..runtime.parity import tables_agree

__all__ = ["DivergenceOracle", "tables_agree"]


class DivergenceOracle:
    """Re-executes suspect partition ranges on a reference backend."""

    def __init__(self) -> None:
        #: compiled-kernel id -> (compiled, (backend name, callable)).
        #: The compiled object itself is pinned in the cache: a bare
        #: id() key outlives its object, and CPython reuses freed
        #: addresses, so a long-lived oracle would otherwise hand a
        #: later kernel the reference runner compiled for an earlier
        #: one (found by the differential fuzzer as a KeyError on a
        #: bound parameter the stale runner expected).
        self._references: Dict[
            int, Tuple[object, Tuple[str, Optional[Callable]]]
        ] = {}
        #: Clean re-executions performed (accounting).
        self.runs = 0

    # -- reference selection -------------------------------------------------

    def reference_for(self, compiled) -> Tuple[str, Optional[Callable]]:
        """The independent runner for ``compiled`` (cached).

        Returns ``(backend_name, callable)``; the callable is ``None``
        when no truly independent backend exists for this kernel (the
        caller then falls back to clean primary re-execution only).
        """
        key = id(compiled)
        cached = self._references.get(key)
        if cached is not None and cached[0] is compiled:
            return cached[1]
        custom = getattr(compiled, "reference_run", None)
        if custom is not None:
            # Compiled-like wrappers (the lane-batched launch) supply
            # their own independent replay — scalar per member.
            reference: Tuple[str, Optional[Callable]] = (
                "scalar", custom
            )
        else:
            reference = ladder.reference(
                compiled.kernel, getattr(compiled, "backend", "scalar")
            )
        self._references[key] = (compiled, reference)
        return reference

    # -- classification ------------------------------------------------------

    def classify(
        self,
        compiled,
        ctx: dict,
        base: np.ndarray,
        partition_lo: int,
        partition_hi: int,
        suspect: Optional[np.ndarray] = None,
    ) -> Tuple[str, np.ndarray]:
        """Re-execute ``[partition_lo, partition_hi]`` cleanly.

        Returns ``(verdict, recovered)`` where ``verdict`` is
        ``"clean"`` (the suspect actually matches the clean primary),
        ``"corruption"`` (suspect wrong, backends agree) or
        ``"unverified"`` (no independent backend; primary is at least
        self-consistent). Raises
        :class:`~repro.lang.errors.BackendDivergenceError` when the
        backends deterministically disagree.
        """
        primary = base.copy()
        compiled.run(
            primary, ctx, part_lo=partition_lo, part_hi=partition_hi
        )
        self.runs += 1
        name, reference_run = self.reference_for(compiled)
        if reference_run is None:
            check = base.copy()
            compiled.run(
                check, ctx, part_lo=partition_lo, part_hi=partition_hi
            )
            self.runs += 1
            if primary.tobytes() != check.tobytes():
                raise BackendDivergenceError(
                    f"kernel {compiled.kernel.name!r}: two clean "
                    f"executions of partitions "
                    f"[{partition_lo}, {partition_hi}] disagree — "
                    f"the backend is nondeterministic"
                )
            verdict = "unverified"
        else:
            reference = base.copy()
            reference_run(
                reference, ctx,
                part_lo=partition_lo, part_hi=partition_hi,
            )
            self.runs += 1
            if not tables_agree(primary, reference):
                raise BackendDivergenceError(
                    f"kernel {compiled.kernel.name!r}: "
                    f"{compiled.backend} and {name} backends disagree "
                    f"on partitions [{partition_lo}, {partition_hi}] "
                    f"after clean re-execution — this is a compiler "
                    f"bug, not device corruption"
                )
            verdict = "corruption"
        if suspect is not None and suspect.tobytes() == primary.tobytes():
            verdict = "clean"
        return verdict, primary
