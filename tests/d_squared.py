"""The d^2 = 0 check by composition, the reference that
``filtered.verify_d_squared`` is compared against: it composes every
stored column with the slice above, where that check composes only the
reduced basis of each slice's image."""

from __future__ import annotations

from khss import tqft
from khss.filtered import FilteredComplex


def squares_to_zero(c: FilteredComplex) -> bool:
    """True iff the differential squares to zero: every column of the
    slice (h, q) has its rows inside the slice (h + 1, q), and the
    columns there at those rows sum to zero."""
    for (h, q), cols in c.slices.items():
        target = c.slices.get((h + 1, q), ())
        if max(map(int.bit_length, cols), default=0) > len(target):
            return False
        if any(tqft.compose_columns(cols, target)):
            return False
    return True
