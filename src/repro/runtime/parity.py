"""The cross-backend numeric agreement policy, in one place.

Three executable backends produce the same tables from the same
kernels: the scalar Python generator, the NumPy vector generator and
the native C backend. Integer tables must match **bitwise** in every
pair — any difference is a codegen bug or device corruption. That
holds over all of int64, not just ``|v| <= 2**53``: the native
prelude's ``lmin``/``lmax`` keep an integer cell expression in
``long`` from its literals to its store (the ``double`` ``min``/
``max`` helpers it used before rounded operands above 2**53). The
two constructs that still pass through ``double`` on the native rung
— integer ``/`` (``trunc(a / b)``, as on the other rungs) and
reductions (``double`` accumulators) — are exact to 2**53.

Float tables are bitwise *almost* everywhere:

* **native vs scalar is bitwise.** The emitted C helpers use the
  exact formulas of the scalar prelude (``logaddexp(a, b) =
  hi + log(1.0 + exp(lo - hi))`` with the same -inf guards,
  ``safelog``, truncating integer division) and both sides evaluate
  them through the platform libm in double precision, one cell at a
  time, in the same order.
* **vector vs anything is ulp-close, not bitwise.** NumPy's
  ``np.logaddexp`` ufunc is a different implementation of the same
  function; on log-space reduction kernels the accumulated difference
  stays within a few ulps per cell. Hence the float tolerance below:
  tight enough that real divergence (a wrong guard, a transposed
  index, a NaN payload, an exponent bit-flip) lands far outside it,
  loose enough that ulp noise never trips the oracle.

A **result-only** native launch (no table; ``reduce=``/``at=`` taken
in C) returns what the same rung's table would have given: ``at=`` is
the cell itself, bit for bit; an integer ``max``/``min`` is exact
(``long`` comparisons, no ``double`` on the way); a float ``max``/
``min`` is ``ndarray.max()``/``min()`` *as a value* — a NaN cell
anywhere makes the result NaN, as NumPy propagates it, and the sign
of a zero extremum is no more defined than NumPy's own SIMD reduction
defines it (``0.0 == -0.0``; nothing downstream reads the sign). No
tolerance is involved: the fold compares cells, it does not
re-associate arithmetic.

Everything that compares tables across backends — the divergence
oracle, the parity test suites, the bench harnesses — imports the
policy from here so a tolerance change happens once.
"""

from __future__ import annotations

import numpy as np

#: Relative tolerance for float tables across backends. Covers the
#: ulp-level spread of ``np.logaddexp`` vs the shared scalar/native
#: formula on log-space reductions.
FLOAT_RTOL = 1e-9

#: Absolute floor for values near zero (log space rarely gets there,
#: direct-mode probabilities do).
FLOAT_ATOL = 1e-12


def tables_agree(a: np.ndarray, b: np.ndarray) -> bool:
    """Backend-grade agreement: exact for ints, tight for floats.

    Float kernels may differ in the last few ulps between backends
    (``np.logaddexp`` vs the scalar/native helper); corruption
    payloads (NaN, exponent bit-flips) are far outside this
    tolerance.
    """
    if a.shape != b.shape:
        return False
    if a.dtype.kind != "f" or b.dtype.kind != "f":
        return bool(np.array_equal(a, b))
    return bool(
        np.allclose(
            a, b, rtol=FLOAT_RTOL, atol=FLOAT_ATOL, equal_nan=True
        )
    )
