"""Runtime values for DSL programs.

The calling-type values a recursion closes over: alphabets, sequences
and (via :mod:`repro.extensions`) substitution matrices and HMMs. All
character data is encoded as raw byte codes (``ord``), with per-
alphabet index tables for the lookups that need dense indices
(matrices, emissions) — this keeps character equality meaningful
across alphabets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple

import numpy as np

from ..lang.errors import RuntimeDslError

#: Size of the raw character code space (ASCII).
CHAR_SPACE = 128


@dataclass(frozen=True)
class Alphabet:
    """A named, finite, ordered set of characters."""

    name: str
    chars: str

    def __post_init__(self) -> None:
        if len(set(self.chars)) != len(self.chars):
            raise RuntimeDslError(
                f"alphabet {self.name!r} has duplicate characters"
            )
        for ch in self.chars:
            if ord(ch) >= CHAR_SPACE:
                raise RuntimeDslError(
                    f"alphabet {self.name!r}: non-ASCII character {ch!r}"
                )

    def __len__(self) -> int:
        return len(self.chars)

    def __contains__(self, char: str) -> bool:
        return char in self.chars

    def __iter__(self) -> Iterator[str]:
        return iter(self.chars)

    def index(self, char: str) -> int:
        """Dense index of ``char`` within this alphabet."""
        position = self.chars.find(char)
        if position < 0:
            raise RuntimeDslError(
                f"character {char!r} is not in alphabet {self.name!r}"
            )
        return position

    def index_table(self) -> np.ndarray:
        """``CHAR_SPACE``-entry map: raw code -> dense index (-1 absent)."""
        table = np.full(CHAR_SPACE, -1, dtype=np.int64)
        for position, char in enumerate(self.chars):
            table[ord(char)] = position
        return table


#: Convenience alphabets used across examples and tests.
DNA = Alphabet("dna", "acgt")
PROTEIN = Alphabet("protein", "ARNDCQEGHILKMFPSTWYV")
ENGLISH = Alphabet("en", "abcdefghijklmnopqrstuvwxyz")


@dataclass(frozen=True)
class Sequence:
    """An immutable character sequence over an alphabet (Section 3.1).

    Queried by index only. ``codes`` caches the raw byte encoding used
    by compiled kernels.
    """

    text: str
    alphabet: Alphabet
    name: str = ""
    codes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not set(self.text).issubset(self.alphabet):
            ch = next(ch for ch in self.text if ch not in self.alphabet)
            raise RuntimeDslError(
                f"sequence character {ch!r} is not in alphabet "
                f"{self.alphabet.name!r}"
            )
        encoded = np.frombuffer(
            self.text.encode("ascii"), dtype=np.uint8
        ).astype(np.int64)
        object.__setattr__(self, "codes", encoded)

    def __len__(self) -> int:
        return len(self.text)

    def __getitem__(self, index: int) -> str:
        if not 0 <= index < len(self.text):
            raise RuntimeDslError(
                f"sequence index {index} out of range 0..{len(self.text) - 1}"
            )
        return self.text[index]


def make_sequences(
    texts, alphabet: Alphabet, prefix: str = "seq"
) -> Tuple[Sequence, ...]:
    """Wrap raw strings as :class:`Sequence` values."""
    return tuple(
        Sequence(text, alphabet, name=f"{prefix}{k}")
        for k, text in enumerate(texts)
    )


@dataclass
class Bindings:
    """Concrete values for the calling parameters of one run."""

    values: Dict[str, object]

    def __getitem__(self, name: str) -> object:
        if name not in self.values:
            raise RuntimeDslError(f"missing binding for parameter {name!r}")
        return self.values[name]

    def __contains__(self, name: str) -> bool:
        return name in self.values
