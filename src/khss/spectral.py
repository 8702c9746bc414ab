"""Pages of the filtered complex, homology, and comparison verdicts.

Page indexing: page 1 carries the chain-group dimensions and page 2 the
homology with respect to the jump-1 differential alone; the page-r
differential raises the homological degree h by r.  Every differential
preserves the quantum degree q.

The complex ``filtered.build`` gives raises h by exactly 1, so in the
pairing of persistent homology (Edelsbrunner, Letscher and Zomorodian,
"Topological persistence and simplification", 2002; Zomorodian and
Carlsson, "Computing persistent homology", 2005) every pair has gap 1:
each page from 2 on is E_2, the homology of d, and the sequence
collapses at page 2: ``SpectralResult`` derives every page from E_2.
E_2 at (h, q) is the slice's size less the ranks of d out of it and
into it.  The rank out of a slice is the size of the basis of its image
that ``FilteredComplex.reduction`` reduces, with clearing, and checks
d^2 = 0 on: one walk per complex, whichever of ``compute`` and the
check reads it first.  ``khovanov_oracle`` ranks each slice by the same
``tqft.reduce_columns``, without clearing.  The general pairing, for a
differential that may raise h by more, and its pages are the reference
the tests check these against (``tests/block_view.py``).

Theorem: over GF(2) the paper's differential D, given by
I + D = (1 + d_{n-1}) ... (1 + d_0) with d_i the edge maps in direction
i, is filtered-conjugate to the Khovanov differential d = sum d_i: every
page r >= 2 equals E_2 = Kh(GF(2)), and the collapse page is 2.  Proof
sketch: each d_i squares to 0 and the cube commutes (exactly when
d^2 = 0).  Split C along the highest crossing: D is the cone of d_{n-1} P,
with P = 1 + D^0 a filtered chain automorphism of (C^0, D^0), and
conjugating by diag(P, 1) gives the cone of d_{n-1}, which commutes with
every d_j; induct on the crossings.  ``filtered.build`` stores d;
``tests/d_oracle.py`` checks an explicit conjugator, G d = D G.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tqft
from .filtered import FilteredComplex


@dataclass(frozen=True)
class PageTable:
    """Bigraded dimensions of one page."""

    r: int
    dims: dict[tuple[int, int], int]

    def total(self) -> int:
        return sum(self.dims.values())


@dataclass(frozen=True)
class SpectralResult:
    """E_2, the page count and the abutment: every page from 2 on is E_2."""

    e2: dict[tuple[int, int], int]
    page_count: int                 # the h-span of the complex, plus 1
    total_homology: dict[int, int]  # q -> dim H(C, d)
    collapse_page = 2               # a class attribute, not a field

    def page(self, r: int) -> PageTable:
        if r < 2:
            raise ValueError("stored pages start at 2")
        return PageTable(min(r, self.page_count + 1), self.e2)

    @property
    def pages(self) -> tuple[PageTable, ...]:
        return tuple(map(self.page, range(2, self.page_count + 2)))

    @property
    def infinity(self) -> PageTable:
        return self.page(self.page_count + 1)


def _dims(c: FilteredComplex,
          rank: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """The nonzero dimensions of the homology of d: at (h, q), the
    slice's size less the ranks of d out of it and into it."""
    dims = {}
    for (h, q), cols in c.slices.items():
        dim = len(cols) - rank[h, q] - rank.get((h - 1, q), 0)
        if dim:
            dims[h, q] = dim
    return dims


def khovanov_oracle(c: FilteredComplex) -> PageTable:
    """Page 2 computed directly as homology of d (the direct route for
    ``compute(c).page(2)``): each slice's columns are ranked by
    ``tqft.reduce_columns`` with no clearing."""
    return PageTable(2, _dims(c, {hq: len(tqft.reduce_columns(cols))
                                  for hq, cols in c.slices.items()}))


def compute(c: FilteredComplex) -> SpectralResult:
    """E_2, the page count and the abutment.  The differential must
    square to zero (``cli._pages`` checks it).  The ranks of d are
    ``c.reduction``'s, which the check reads too."""
    dims = _dims(c, c.reduction[1])
    total: dict[int, int] = {}
    for (_, q), dim in dims.items():
        total[q] = total.get(q, 0) + dim
    span = max(c.slices)[0] - min(c.slices)[0] if c.slices else 0
    return SpectralResult(dims, span + 1, total)


@dataclass(frozen=True)
class Verdict:
    equal: bool
    detail: str = ""


def compare_pages(a: SpectralResult, b: SpectralResult) -> Verdict:
    """Equality of every page's dimension table: of E_2, as every page
    from 2 on is E_2."""
    da, db = a.e2, b.e2
    if da == db:
        return Verdict(True)
    p, q = min(set(da) ^ set(db)
               | {k for k in set(da) & set(db) if da[k] != db[k]})
    return Verdict(False, f"first difference at page 2, (p={p}, q={q}): "
                          f"{da.get((p, q), 0)} vs {db.get((p, q), 0)}")
