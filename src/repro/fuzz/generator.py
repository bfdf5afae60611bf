"""Seeded, deterministic draws over the case-spec grammar.

The generator is biased toward the features that gate backend
eligibility and have historically hidden parity bugs, rather than
sampling the grammar uniformly:

* tiny domains (empty sequences, size-1 extents) below the vector
  crossover;
* user schedules including the ``S = i`` ring shape (a pure-space
  column: partitions are whole rows);
* range and CSR reductions (vector-ineligibility, empty-reduction
  semantics);
* log-space probability mode;
* ``map`` problem groups (the lane-batching rung).

Determinism contract: draws use only ``random.Random`` seeded with an
``int`` (string/tuple seeds are hash-randomised across processes) and
the module's own weighted-pick helper, which depends only on
``rng.random()`` — so one seed produces the same case stream on every
CPython the repo supports.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from .grammar import (
    CallTerm,
    FuzzCase,
    HmmSpec,
    IntDimSpec,
    Range1DSpec,
    Range2DSpec,
    Seq2DSpec,
    render,
)

__all__ = ["generate_case", "generate_spec"]

#: (shape, weight) — seq2d dominates because it covers the most
#: rungs (vector, native, blocked wavefront, map batching).
_SHAPE_WEIGHTS = (
    ("seq2d", 46),
    ("hmm", 20),
    ("range2d", 14),
    ("range1d", 10),
    ("intdim", 10),
)

_ALPHABETS = ("acgt", "ab", "abc", "acgu")

#: fixed palette keeps probabilities exactly representable and
#: readably rendered.
_PROBS = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.5, 0.6, 0.75, 0.9, 1.0)


def _pick(rng: random.Random, pairs):
    """Weighted choice using only ``rng.random()``."""
    total = sum(weight for _value, weight in pairs)
    roll = rng.random() * total
    for value, weight in pairs:
        roll -= weight
        if roll < 0:
            return value
    return pairs[-1][0]


def _text(rng: random.Random, alphabet: str, length: int) -> str:
    return "".join(
        alphabet[int(rng.random() * len(alphabet)) % len(alphabet)]
        for _ in range(length)
    )


def _length(rng: random.Random) -> int:
    """Domain extents biased toward the edges: empty, size 1, small,
    and the occasional run above the tiny sizes."""
    return _pick(
        rng,
        ((0, 8), (1, 12), (2, 10), (3, 12), (5, 18),
         (8, 18), (12, 14), (24, 8)),
    )


def _offsets2(rng: random.Random) -> Tuple[int, int]:
    di = _pick(rng, ((-2, 1), (-1, 4), (0, 3)))
    dj = _pick(rng, ((-2, 1), (-1, 4), (0, 3)))
    if di == 0 and dj == 0:
        dj = -1
    return (di, dj)


def _dedup_terms(terms: Sequence[CallTerm]) -> Tuple[CallTerm, ...]:
    seen = []
    for term in terms:
        if term not in seen:
            seen.append(term)
    return tuple(seen)


# ---------------------------------------------------------------------------
# per-shape draws


def _draw_seq2d(rng: random.Random) -> Seq2DSpec:
    ret = _pick(rng, (("int", 7), ("float", 3)))
    combiner = _pick(rng, (("min", 4), ("max", 4), ("add", 2)))
    terms: List[CallTerm] = []
    for _ in range(_pick(rng, ((1, 3), (2, 5), (3, 4)))):
        offsets = _offsets2(rng)
        addend = _pick(
            rng,
            (("none", 4), ("const", 3), ("matrix", 2), ("charcmp", 2)),
        )
        if addend == "matrix" and ret != "int":
            addend = "charcmp"  # matrix entries are ints
        weight = _pick(rng, ((1, 3), (2, 3), (-1, 2), (-2, 1), (3, 1)))
        terms.append(CallTerm(offsets, addend, weight))
    terms = _dedup_terms(terms)

    schedule: Optional[Tuple[int, int]] = None
    ring_ok = all(t.offsets[0] <= -1 for t in terms)
    choice = _pick(
        rng,
        (("auto", 6), ("diag", 2), ("skew", 1), ("ring", 2)),
    )
    if choice == "diag":
        schedule = (1, 1)
    elif choice == "skew":
        schedule = _pick(rng, (((2, 1), 1), ((1, 2), 1), ((2, 3), 1)))
    elif choice == "ring" and ring_ok:
        schedule = (1, 0)

    alphabet = _pick(rng, tuple((a, 1) for a in _ALPHABETS))
    map_texts: Tuple[str, ...] = ()
    if rng.random() < 0.2:
        map_texts = tuple(
            _text(rng, alphabet, _length(rng))
            for _ in range(2 + int(rng.random() * 3))
        )
        # Degenerate members ride along often: an empty sequence
        # (zero-extent domain) and a one-character member exercise
        # the batched native entry's ragged tails and per-member
        # bound columns, where padded-batch bugs live.
        if rng.random() < 0.5:
            map_texts += ("",)
        if rng.random() < 0.5:
            map_texts += (_text(rng, alphabet, 1),)
    reduce = _pick(rng, ((None, 7), ("max", 2), ("min", 1)))
    return Seq2DSpec(
        ret=ret,
        combiner=combiner,
        terms=terms,
        plus_one=rng.random() < 0.4,
        alphabet=alphabet,
        s_text=_text(rng, alphabet, _length(rng)),
        t_text=_text(rng, alphabet, _length(rng)),
        schedule=schedule,
        reduce=reduce,
        map_texts=map_texts,
    )


def _draw_range2d(rng: random.Random) -> Range2DSpec:
    pool = [(1, 0), (0, -1), (1, -1)]
    terms = tuple(
        CallTerm(offsets)
        for offsets in pool
        if rng.random() < 0.75
    ) or (CallTerm((1, -1)),)
    has_diag = any(t.offsets == (1, -1) for t in terms)
    alphabet = _pick(rng, (("acgu", 2), ("ab", 1)))
    return Range2DSpec(
        terms=terms,
        pair_bonus=has_diag and rng.random() < 0.7,
        range_op=_pick(rng, ((None, 3), ("max", 5), ("sum", 2))),
        alphabet=alphabet,
        x_text=_text(rng, alphabet, _length(rng)),
        user_schedule=rng.random() < 0.3,
    )


def _draw_range1d(rng: random.Random) -> Range1DSpec:
    alphabet = _pick(rng, (("ab", 2), ("abc", 1)))
    return Range1DSpec(
        op=_pick(rng, (("max", 4), ("min", 3), ("sum", 3))),
        use_char=rng.random() < 0.5,
        weight=_pick(rng, ((1, 3), (2, 2), (3, 1))),
        alphabet=alphabet,
        s_text=_text(rng, alphabet, _length(rng)),
    )


def _draw_hmm(rng: random.Random) -> HmmSpec:
    alphabet = _pick(rng, (("acgt", 3), ("ab", 2)))
    n_states = _pick(rng, ((1, 3), (2, 5), (3, 2)))
    states = tuple(f"s{k}" for k in range(n_states))
    emissions = []
    for _ in states:
        table = []
        for char in alphabet:
            # Sparse tables exercise the 0-emission path.
            if rng.random() < 0.8:
                table.append((char, _pick(
                    rng, tuple((p, 1) for p in _PROBS)
                )))
        emissions.append(tuple(table))
    transitions: List[Tuple[str, str, float]] = []

    def prob() -> float:
        return _pick(rng, tuple((p, 1) for p in _PROBS))

    # begin feeds a nonempty subset of the middle states; the
    # leftovers have no incoming transitions at all — the empty
    # CSR-reduction edge.
    fed = [name for name in states if rng.random() < 0.7]
    if not fed:
        fed = [states[0]]
    for name in fed:
        transitions.append(("begin", name, prob()))
    for source in states:
        for target in states:
            if rng.random() < 0.35:
                transitions.append((source, target, prob()))
    for source in states:
        if rng.random() < 0.5:
            transitions.append((source, "fin", prob()))
    return HmmSpec(
        op=_pick(rng, (("sum", 6), ("max", 4))),
        use_emission=rng.random() < 0.8,
        alphabet=alphabet,
        states=states,
        emissions=tuple(emissions),
        transitions=tuple(transitions),
        x_text=_text(rng, alphabet, _pick(
            rng, ((0, 8), (1, 12), (2, 10), (4, 16), (6, 14), (10, 10))
        )),
        prob_mode=_pick(rng, (("direct", 6), ("logspace", 4))),
    )


def _draw_intdim(rng: random.Random) -> IntDimSpec:
    terms: List[CallTerm] = []
    for _ in range(_pick(rng, ((1, 4), (2, 6)))):
        offsets = _offsets2(rng)
        addend = _pick(rng, (("none", 5), ("const", 5)))
        terms.append(CallTerm(
            offsets, addend,
            _pick(rng, ((1, 3), (2, 2), (-1, 2))),
        ))
    alphabet = "ab"
    return IntDimSpec(
        combiner=_pick(rng, (("min", 4), ("max", 4), ("add", 2))),
        terms=_dedup_terms(terms),
        alphabet=alphabet,
        s_text=_text(rng, alphabet, _pick(
            rng, ((0, 6), (1, 10), (3, 12), (6, 14), (10, 8))
        )),
        n0=_pick(rng, ((1, 3), (2, 4), (4, 5), (7, 3))),
    )


_DRAWS = {
    "seq2d": _draw_seq2d,
    "range2d": _draw_range2d,
    "range1d": _draw_range1d,
    "hmm": _draw_hmm,
    "intdim": _draw_intdim,
}


def generate_spec(rng: random.Random):
    """Draw one case spec from the grammar."""
    return _DRAWS[_pick(rng, _SHAPE_WEIGHTS)](rng)


def generate_case(rng_or_seed) -> FuzzCase:
    """Draw and render one case.

    Accepts a ``random.Random`` (campaign use: one stream, sequential
    draws) or a plain ``int`` seed for one-off reproduction.
    """
    rng = (
        rng_or_seed
        if isinstance(rng_or_seed, random.Random)
        else random.Random(int(rng_or_seed))
    )
    return render(generate_spec(rng))
