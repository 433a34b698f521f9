"""Element sets as immutable bitmasks over element indices."""

from __future__ import annotations

from typing import Iterator


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def iter_bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ElementSet:
    """Immutable set of element indices of one group, backed by an int bitmask.

    Bit i is set iff element i belongs to the set; the universe size is the
    group order.
    """

    __slots__ = ("mask", "universe")

    def __init__(self, mask: int, universe: int):
        self.mask = mask
        self.universe = universe

    @classmethod
    def from_indices(cls, indices, universe: int) -> "ElementSet":
        return cls(mask_of(indices), universe)

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.universe and (self.mask >> i) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ElementSet)
            and self.mask == other.mask
            and self.universe == other.universe
        )

    def __hash__(self) -> int:
        return hash((self.mask, self.universe))

    def __and__(self, other: "ElementSet") -> "ElementSet":
        return ElementSet(self.mask & other.mask, self.universe)

    def __or__(self, other: "ElementSet") -> "ElementSet":
        return ElementSet(self.mask | other.mask, self.universe)

    def __sub__(self, other: "ElementSet") -> "ElementSet":
        return ElementSet(self.mask & ~other.mask, self.universe)

    def issubset(self, other: "ElementSet") -> bool:
        return self.mask & ~other.mask == 0

    def indices(self) -> list[int]:
        return list(iter_bits(self.mask))

    def __repr__(self) -> str:
        if self.cardinality > 12:
            return f"ElementSet(|S|={self.cardinality} of {self.universe})"
        return f"ElementSet({self.indices()} of {self.universe})"
