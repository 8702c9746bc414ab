"""Incremental GF(2) spans of bit masks, for the subspace oracle.

A vector is a Python integer used as a bit mask, so every row operation
is a single word-wide XOR regardless of width.  The package stores its
GF(2) maps as lists of such column masks; this module only spans them.
"""

from __future__ import annotations

from typing import Iterable


class BitSpan:
    """Incremental GF(2) span of integer bit masks.

    Keeps an echelon basis; ``add`` returns True when the vector was
    independent of the current span.
    """

    __slots__ = ("_basis",)

    def __init__(self, vectors: Iterable[int] = ()):
        self._basis: dict[int, int] = {}  # pivot bit position -> row
        for v in vectors:
            self.add(v)

    def reduce(self, v: int) -> int:
        basis = self._basis
        done = 0
        while v:
            pos = v.bit_length() - 1
            row = basis.get(pos)
            if row is not None:
                v ^= row
            else:
                bit = 1 << pos
                done |= bit
                v ^= bit
        return done

    def add(self, v: int) -> bool:
        v = self.reduce(v)
        if v == 0:
            return False
        self._basis[v.bit_length() - 1] = v
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def dim(self) -> int:
        return len(self._basis)

    def basis(self) -> list[int]:
        return [self._basis[p] for p in sorted(self._basis)]

    def copy(self) -> "BitSpan":
        out = BitSpan()
        out._basis = dict(self._basis)
        return out
