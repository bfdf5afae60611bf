"""Hidden Markov Models — the model extension (Section 5.2).

An HMM is a probabilistic finite automaton: states carry emission
distributions (start and end states are silent), transitions carry
probabilities. The extension contributes the ``hmm`` calling type, the
``state``/``transition`` recursive types, the field expressions
(``t.start``, ``s.isend``, ``s.emission[c]``, ``s.transitionsto`` ...)
and reductions over transition sets.

To act as recursion dimensions, states and transitions are given an
arbitrary total order onto ``0..n-1`` (Section 3.2/5.2 — arbitrary
because no recursion depends on the position of the states).

:class:`HmmArrays` is the device layout: dense emission tables and CSR
adjacency used by generated kernels and by the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence as Seq, Tuple

import numpy as np

from ..lang import ast
from ..lang.errors import RuntimeDslError
from ..runtime.values import Alphabet


@dataclass(frozen=True)
class State:
    """One HMM state. ``index`` is its position in the total order."""

    name: str
    index: int
    kind: str  # "start" | "end" | "emit"
    emissions: Tuple[Tuple[str, float], ...] = ()

    @property
    def is_start(self) -> bool:
        """Is this the start state?"""
        return self.kind == "start"

    @property
    def is_end(self) -> bool:
        """Is this the end state?"""
        return self.kind == "end"

    @property
    def is_silent(self) -> bool:
        """Start and end states emit nothing."""
        return self.kind in ("start", "end")

    def emission(self, char: str) -> float:
        """Emission probability of ``char`` (0 if unlisted)."""
        for symbol, prob in self.emissions:
            if symbol == char:
                return prob
        return 0.0


@dataclass(frozen=True)
class Transition:
    """A transition ``source -> target`` with probability ``prob``."""

    index: int
    source: int
    target: int
    prob: float


@dataclass
class Hmm:
    """A complete model over ``alphabet``."""

    name: str
    alphabet: Alphabet
    states: Tuple[State, ...]
    transitions: Tuple[Transition, ...]

    def __post_init__(self) -> None:
        starts = [s for s in self.states if s.is_start]
        ends = [s for s in self.states if s.is_end]
        if len(starts) != 1 or len(ends) != 1:
            raise RuntimeDslError(
                f"hmm {self.name!r} needs exactly one start and one end "
                f"state"
            )
        # Resolved here, not per access: a map asks for the end state
        # once per member.
        self._start, self._end = starts[0], ends[0]
        self._by_name = {s.name: s for s in self.states}

    # -- queries -------------------------------------------------------------

    @property
    def n_states(self) -> int:
        """Number of states."""
        return len(self.states)

    @property
    def n_transitions(self) -> int:
        """Number of transitions."""
        return len(self.transitions)

    @property
    def start_state(self) -> State:
        """The unique start state."""
        return self._start

    @property
    def end_state(self) -> State:
        """The unique end state."""
        return self._end

    def state(self, name: str) -> State:
        """Look a state up by name."""
        if name not in self._by_name:
            raise RuntimeDslError(
                f"hmm {self.name!r} has no state {name!r}"
            )
        return self._by_name[name]

    def transitions_to(self, state: State) -> Tuple[Transition, ...]:
        """Transitions entering ``state``."""
        return tuple(
            t for t in self.transitions if t.target == state.index
        )

    def transitions_from(self, state: State) -> Tuple[Transition, ...]:
        """Transitions leaving ``state``."""
        return tuple(
            t for t in self.transitions if t.source == state.index
        )

    def mean_in_degree(self) -> float:
        """Average incoming transitions per state (cost model)."""
        if not self.states:
            return 0.0
        return self.n_transitions / self.n_states

    # -- construction --------------------------------------------------------

    @staticmethod
    def from_decl(
        decl: ast.HmmDecl, alphabets: Mapping[str, Alphabet]
    ) -> "Hmm":
        """Materialise a parsed ``hmm`` declaration."""
        alphabet = alphabets[decl.alphabet]
        states = tuple(
            State(s.name, k, s.kind, tuple(s.emissions))
            for k, s in enumerate(decl.states)
        )
        by_name = {s.name: s for s in states}
        transitions = tuple(
            Transition(
                k, by_name[t.source].index, by_name[t.target].index, t.prob
            )
            for k, t in enumerate(decl.transitions)
        )
        return Hmm(decl.name, alphabet, states, transitions)

    def to_dsl(self) -> str:
        """Render back to DSL ``hmm`` declaration syntax."""
        lines = [f"hmm {self.name} [{self.alphabet.name}] {{"]
        for s in self.states:
            if s.is_start:
                lines.append(f"  state {s.name} : start")
            elif s.is_end:
                lines.append(f"  state {s.name} : end")
            else:
                emissions = ", ".join(
                    f"{c}: {p}" for c, p in s.emissions
                )
                lines.append(f"  state {s.name} emits {{ {emissions} }}")
        for t in self.transitions:
            lines.append(
                f"  trans {self.states[t.source].name} -> "
                f"{self.states[t.target].name} : {t.prob}"
            )
        lines.append("}")
        return "\n".join(lines)

    def arrays(self, logspace: bool = False) -> "HmmArrays":
        """The device layout of this model (see HmmArrays).

        Memoised per model: a lane-batched map group binds the same
        model for every member, and the layout (emission matrix,
        CSR-ish transition lists) is pure in the model, so the batch
        pays for one build instead of one per member.
        """
        cache = self.__dict__.setdefault("_arrays_cache", {})
        built = cache.get(logspace)
        if built is None:
            built = cache[logspace] = HmmArrays.build(
                self, logspace=logspace
            )
        return built


class HmmBuilder:
    """Fluent construction of HMMs from Python (used by the apps)."""

    def __init__(self, name: str, alphabet: Alphabet) -> None:
        self.name = name
        self.alphabet = alphabet
        self._states: List[State] = []
        self._transitions: List[Transition] = []
        self._index: Dict[str, int] = {}

    def add_state(
        self,
        name: str,
        emissions: Optional[Mapping[str, float]] = None,
        kind: str = "emit",
    ) -> "HmmBuilder":
        """Add a state with an emission distribution."""
        if name in self._index:
            raise RuntimeDslError(f"duplicate state {name!r}")
        index = len(self._states)
        self._index[name] = index
        pairs = tuple((emissions or {}).items())
        for char, _ in pairs:
            if char not in self.alphabet:
                raise RuntimeDslError(
                    f"state {name!r} emits {char!r}, not in alphabet "
                    f"{self.alphabet.name!r}"
                )
        self._states.append(State(name, index, kind, pairs))
        return self

    def start(self, name: str = "begin") -> "HmmBuilder":
        """Add the (silent) start state."""
        return self.add_state(name, kind="start")

    def end(self, name: str = "finish") -> "HmmBuilder":
        """Add the (silent) end state."""
        return self.add_state(name, kind="end")

    def uniform_state(self, name: str) -> "HmmBuilder":
        """Add a state emitting every character equally."""
        p = 1.0 / len(self.alphabet)
        return self.add_state(
            name, {c: p for c in self.alphabet.chars}
        )

    def transition(
        self, source: str, target: str, prob: float
    ) -> "HmmBuilder":
        """Add a transition ``source -> target``."""
        for endpoint in (source, target):
            if endpoint not in self._index:
                raise RuntimeDslError(f"unknown state {endpoint!r}")
        self._transitions.append(
            Transition(
                len(self._transitions),
                self._index[source],
                self._index[target],
                prob,
            )
        )
        return self

    def build(self) -> Hmm:
        """Finish and validate the model."""
        return Hmm(
            self.name,
            self.alphabet,
            tuple(self._states),
            tuple(self._transitions),
        )


@dataclass
class HmmArrays:
    """Device-friendly layout of one model.

    ``emissions`` is indexed ``[state, alphabet index]``; silent states
    carry all-zero rows. The CSR pairs (``in_offsets``/``in_ids`` and
    ``out_offsets``/``out_ids``) realise ``transitionsto`` and
    ``transitionsfrom``. In log space, probabilities are ``log(p)``
    with ``log(0) = -inf``.
    """

    hmm: Hmm
    logspace: bool
    is_start: np.ndarray
    is_end: np.ndarray
    emissions: np.ndarray
    sym_index: np.ndarray
    trans_prob: np.ndarray
    trans_source: np.ndarray
    trans_target: np.ndarray
    in_offsets: np.ndarray
    in_ids: np.ndarray
    out_offsets: np.ndarray
    out_ids: np.ndarray

    @staticmethod
    def build(hmm: Hmm, logspace: bool = False) -> "HmmArrays":
        """Compute the dense/CSR device layout of ``hmm``."""
        n, m = hmm.n_states, hmm.n_transitions
        size = len(hmm.alphabet)
        is_start = np.zeros(n, dtype=bool)
        is_end = np.zeros(n, dtype=bool)
        emissions = np.zeros((n, size), dtype=np.float64)
        for s in hmm.states:
            is_start[s.index] = s.is_start
            is_end[s.index] = s.is_end
            for char, prob in s.emissions:
                emissions[s.index, hmm.alphabet.index(char)] = prob
        trans_prob = np.array(
            [t.prob for t in hmm.transitions], dtype=np.float64
        )
        trans_source = np.array(
            [t.source for t in hmm.transitions], dtype=np.int64
        )
        trans_target = np.array(
            [t.target for t in hmm.transitions], dtype=np.int64
        )
        in_offsets, in_ids = _csr(
            n, [(t.target, t.index) for t in hmm.transitions]
        )
        out_offsets, out_ids = _csr(
            n, [(t.source, t.index) for t in hmm.transitions]
        )
        if logspace:
            with np.errstate(divide="ignore"):
                emissions = np.log(emissions)
                trans_prob = np.log(trans_prob)
        return HmmArrays(
            hmm,
            logspace,
            is_start,
            is_end,
            emissions,
            hmm.alphabet.index_table(),
            trans_prob,
            trans_source,
            trans_target,
            in_offsets,
            in_ids,
            out_offsets,
            out_ids,
        )


def _csr(
    n_states: int, pairs: Seq[Tuple[int, int]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Group transition ids by state into a CSR adjacency."""
    buckets: List[List[int]] = [[] for _ in range(n_states)]
    for state, trans_id in pairs:
        buckets[state].append(trans_id)
    offsets = np.zeros(n_states + 1, dtype=np.int64)
    ids: List[int] = []
    for state, bucket in enumerate(buckets):
        ids.extend(bucket)
        offsets[state + 1] = len(ids)
    return offsets, np.array(ids, dtype=np.int64)
