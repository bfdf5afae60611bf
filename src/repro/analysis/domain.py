"""The recursion domain: a finite integer box.

Every recursive type maps its values onto ``0..N-1`` (Section 3.2), so
the domain of a recursion over dims ``x1..xn`` is the box
``0 <= x_k < N_k``. Extents are only known at run time (sequence
lengths, initial integer values, state counts); the compile-time
analyses either receive a concrete :class:`Domain` or work
symbolically (Section 4.7).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Tuple


@dataclass(frozen=True)
class Domain:
    """A box domain ``0 <= dims[k] < extents[k]``."""

    dims: Tuple[str, ...]
    extents: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.dims) != len(self.extents):
            raise ValueError("dims and extents must have equal length")
        for dim, extent in zip(self.dims, self.extents):
            if extent < 1:
                raise ValueError(
                    f"dimension {dim!r} has empty extent {extent}"
                )

    @staticmethod
    def of(**extents: int) -> "Domain":
        """Build a domain from keyword extents (insertion ordered)."""
        return Domain(tuple(extents), tuple(extents.values()))

    @property
    def rank(self) -> int:
        """Number of dimensions."""
        return len(self.dims)

    @property
    def size(self) -> int:
        """Total number of cells in the box."""
        total = 1
        for extent in self.extents:
            total *= extent
        return total

    def extent_map(self) -> Dict[str, int]:
        """Dimension name -> extent, as a dict."""
        return dict(zip(self.dims, self.extents))

    def points(self) -> Iterator[Tuple[int, ...]]:
        """Enumerate all points, lexicographically. For small domains."""
        return itertools.product(*(range(e) for e in self.extents))

    def contains(self, point: Mapping[str, int]) -> bool:
        """Is the named point inside the box?"""
        for dim, extent in zip(self.dims, self.extents):
            value = point[dim]
            if not 0 <= value < extent:
                return False
        return True

    def contains_tuple(self, point: Tuple[int, ...]) -> bool:
        """Is the positional point inside the box?"""
        return all(
            0 <= value < extent
            for value, extent in zip(point, self.extents)
        )

    def __str__(self) -> str:
        parts = (
            f"0 <= {d} < {e}" for d, e in zip(self.dims, self.extents)
        )
        return "{ " + ", ".join(parts) + " }"
