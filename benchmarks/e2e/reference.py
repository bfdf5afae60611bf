"""Independent reference implementations for the benchmark's checks.

NumPy and the standard library only: nothing here imports ``repro``, so
a bug in the compiler cannot certify its own output. Each function
implements the recurrence exactly as the DSL text in ``workloads.py``
states it (including its constants), not the textbook variant.

Models are plain data: ``{"states": [{"name", "kind", "emissions"}],
"transitions": [[source, target, prob]], "alphabet": "..."}``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np


def sw_table(
    q: Sequence[int], d: Sequence[int], scores: np.ndarray, gap: int
) -> np.ndarray:
    """Smith-Waterman table (linear gap), filled one anti-diagonal at
    a time. ``q``/``d`` are alphabet indices; ``scores[a, b]`` is the
    substitution score. Returns the ``(len(q)+1, len(d)+1)`` table."""
    n, m = len(q), len(d)
    sub = np.asarray(scores, dtype=np.int64)[np.ix_(q, d)]
    table = np.zeros((n + 1, m + 1), dtype=np.int64)
    for k in range(2, n + m + 1):
        i = np.arange(max(1, k - m), min(n, k - 1) + 1)
        j = k - i
        best = np.maximum(
            table[i - 1, j - 1] + sub[i - 1, j - 1],
            np.maximum(table[i - 1, j], table[i, j - 1]) - gap,
        )
        table[i, j] = np.maximum(best, 0)
    return table


def sw_max(q, d, scores, gap: int) -> int:
    """Best local alignment score: the maximum cell of the table."""
    return int(sw_table(q, d, scores, gap).max())


def sw_prefix_max(q, d, scores, gap: int) -> np.ndarray:
    """``out[a, b]`` is the local score of ``q[:a]`` against ``d[:b]``.

    A prefix pair's table is the top-left corner of the full table, so
    its maximum is a 2-D running maximum of the full table."""
    table = sw_table(q, d, scores, gap)
    return np.maximum.accumulate(np.maximum.accumulate(table, 0), 1)


def edit_distance(s: str, t: str, indel: int = 1, sub: int = 1) -> int:
    """Weighted edit distance: ``indel`` per insertion or deletion,
    ``sub`` per substitution.

    Row by row; the left-to-right dependency ``cur[j] = min(cand[j],
    cur[j-1] + indel)`` is a running minimum of ``cand[k] - indel*k``."""
    a = np.frombuffer(s.encode("ascii"), dtype=np.uint8)
    b = np.frombuffer(t.encode("ascii"), dtype=np.uint8)
    ramp = indel * np.arange(len(b) + 1, dtype=np.int64)
    prev = ramp.copy()
    for i in range(1, len(a) + 1):
        cand = np.empty_like(prev)
        cand[0] = indel * i
        cand[1:] = np.minimum(
            prev[1:] + indel,
            prev[:-1] + np.where(a[i - 1] == b, 0, sub),
        )
        prev = np.minimum.accumulate(cand - ramp) + ramp
    return int(prev[-1])


def _model_arrays(model: Dict[str, object]):
    """Dense log-space emission and transition matrices of a model."""
    states: List[dict] = model["states"]
    alphabet: str = model["alphabet"]
    n = len(states)
    emit = np.zeros((n, len(alphabet)))
    for row, state in enumerate(states):
        if state["kind"] == "end":
            emit[row, :] = 1.0  # the end state is silent: factor 1
        for char, prob in state.get("emissions", {}).items():
            emit[row, alphabet.index(char)] = prob
    trans = np.zeros((n, n))
    for source, target, prob in model["transitions"]:
        trans[source, target] += prob
    start = next(
        k for k, s in enumerate(states) if s["kind"] == "start"
    )
    end = next(k for k, s in enumerate(states) if s["kind"] == "end")
    with np.errstate(divide="ignore"):
        return np.log(emit), np.log(trans), start, end


def _hmm_log(
    model: Dict[str, object], x: Sequence[int], scale: float, reduce
) -> float:
    log_emit, log_trans, start, end = _model_arrays(model)
    column = np.full(log_trans.shape[0], -np.inf)
    column[start] = 0.0
    log_scale = math.log(scale)
    with np.errstate(invalid="ignore"):
        for symbol in x:
            inner = reduce(log_trans + column[:, None], axis=0)
            column = log_emit[:, symbol] + log_scale + inner
    return float(column[end])


def forward_log(model, x: Sequence[int], scale: float = 1.0) -> float:
    """Log of the forward value at (end state, len(x)); every step is
    multiplied by ``scale``, as the DSL text does."""
    return _hmm_log(model, x, scale, np.logaddexp.reduce)


def viterbi_log(model, x: Sequence[int], scale: float = 1.0) -> float:
    """Log of the best-path value at (end state, len(x))."""
    return _hmm_log(model, x, scale, np.max)


_PAIRS = {"au", "ua", "cg", "gc", "gu", "ug"}


def nussinov(x: str, min_span: int, bonus: int) -> int:
    """Nussinov base-pair maximisation over half-open intervals, with
    minimum span ``min_span`` and ``bonus`` per canonical/wobble pair."""
    n = len(x)
    table = np.zeros((n + 1, n + 1), dtype=np.int64)
    for span in range(min_span, n + 1):
        for i in range(0, n - span + 1):
            j = i + span
            pair = bonus if x[i] + x[j - 1] in _PAIRS else 0
            best = max(
                table[i + 1, j], table[i, j - 1],
                table[i + 1, j - 1] + pair,
            )
            if j - i > 1:
                split = table[i, i + 1:j] + table[i + 1:j, j]
                best = max(best, split.max())
            table[i, j] = best
    return int(table[0, n])
