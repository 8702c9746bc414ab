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
    for (h, q), s in c.slices.items():
        target = c.slices.get((h + 1, q))
        cols = target.cols if target is not None else []
        if max(map(int.bit_length, s.cols), default=0) > len(cols):
            return False
        if any(tqft.compose_columns(s.cols, cols)):
            return False
    return True
