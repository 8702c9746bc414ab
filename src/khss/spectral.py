"""Pages of the filtered complex, homology, and comparison verdicts.

Page indexing: page 1 carries the chain-group dimensions and page 2 the
homology with respect to the jump-1 differential alone; the page-r
differential raises the homological degree h by r.  Every differential
preserves the quantum degree q.

The complex ``filtered.build`` gives raises h by exactly 1, so in the
pairing of persistent homology (Edelsbrunner, Letscher and Zomorodian,
"Topological persistence and simplification", 2002; Zomorodian and
Carlsson, "Computing persistent homology", 2005) every pair has gap 1:
each page from 2 on is the homology of d, and the sequence collapses at
page 2.  Its dimension at (h, q) is the slice's size less the ranks of
d out of the slice and into it.  Each rank comes from one left-to-right
column reduction of the slice's own column list, whose rows are the
local indices of the slice (h + 1, q).  Each q's slices go by
increasing h, with clearing (Chen and Kerber, "Persistent homology
computation with a twist", 2011): as d^2 = 0, the column at the pivot
row of a reduced column of the slice (h - 1, q) is a sum of earlier
columns of the slice (h, q), so it is skipped.  Those pivot rows are
local indices of the slice (h, q), so they index its columns as they
stand.  The general pairing, for a differential that may raise h by
more, is the reference the tests check these pages against
(``tests/block_view.py``).

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

from collections.abc import Container, Sequence
from dataclasses import dataclass, field

from .filtered import FilteredComplex


@dataclass(frozen=True)
class PageTable:
    """Bigraded dimensions of one page, plus outgoing differential ranks."""

    r: int
    dims: dict[tuple[int, int], int]
    dr_ranks: dict[tuple[int, int], int] = field(default_factory=dict)

    def total(self) -> int:
        return sum(self.dims.values())


@dataclass(frozen=True)
class SpectralResult:
    """All pages from 2 to stabilization, plus the abutment data."""

    pages: tuple[PageTable, ...]   # r = 2, 3, ...
    collapse_page: int
    total_homology: dict[int, int]  # q -> dim H(C, d)

    def page(self, r: int) -> PageTable:
        if r < 2:
            raise ValueError("stored pages start at 2")
        idx = min(r - 2, len(self.pages) - 1)
        return self.pages[idx]

    @property
    def infinity(self) -> PageTable:
        return self.pages[-1]


def _reduce(cols: Sequence[int],
            clear: Container[int] = ()) -> dict[int, int]:
    """Reduce the columns left to right on their highest row: pivot row
    -> reduced column.  The columns indexed in ``clear`` are skipped:
    the caller knows they reduce to zero."""
    reduced: dict[int, int] = {}
    for i, col in enumerate(cols):
        if i in clear:
            continue
        while col:
            low = col.bit_length() - 1
            other = reduced.get(low)
            if other is None:
                reduced[low] = col
                break
            col ^= other
    return reduced


def khovanov_oracle(c: FilteredComplex) -> PageTable:
    """Page 2 computed directly as homology of d (the direct route for
    ``compute(c).page(2)``): each slice's columns are ranked by plain
    elimination on their highest row, with no clearing, and the
    dimension at (h, q) is the slice's size minus the ranks out of it
    and into it."""
    rank: dict[tuple[int, int], int] = {}
    for hq, s in c.slices.items():
        pivots: dict[int, int] = {}  # highest row -> reduced column
        for col in s.cols:
            while col:
                top = col.bit_length() - 1
                other = pivots.get(top)
                if other is None:
                    pivots[top] = col
                    break
                col ^= other
        rank[hq] = len(pivots)
    dims: dict[tuple[int, int], int] = {}
    for (h, q), s in c.slices.items():
        dim = len(s.cols) - rank[h, q] - rank.get((h - 1, q), 0)
        if dim:
            dims[h, q] = dim
    return PageTable(2, dims)


def _ranks(c: FilteredComplex) -> dict[tuple[int, int], int]:
    """(h, q) -> rank of d out of that slice.  Each q's slices go by
    increasing h; copies of a slice's columns are reduced (``s.cols``
    is left as it is), over the rows of its target slice, skipping the
    columns at the pivot rows of the slice below."""
    ranks: dict[tuple[int, int], int] = {}
    below = {}  # the pivot rows of the slice reduced last
    for h, q in sorted(c.slices, key=lambda hq: (hq[1], hq[0])):
        s, target = c.slices[h, q], c.slices.get((h + 1, q))
        width = len(target.cols) if target is not None else 0
        if max(map(int.bit_length, s.cols), default=0) > width:
            raise ValueError("differential does not raise h")
        below = _reduce(s.cols, below if (h - 1, q) in ranks else ())
        ranks[h, q] = len(below)
    return ranks


def compute(c: FilteredComplex) -> SpectralResult:
    """All pages from 2 to stabilization, collapse page, abutment.  The
    differential must square to zero (``cli._pages`` checks it)."""
    rank = _ranks(c)
    dims: dict[tuple[int, int], int] = {}
    total: dict[int, int] = {}
    for (h, q), s in c.slices.items():
        dim = len(s.cols) - rank[h, q] - rank.get((h - 1, q), 0)
        if dim:
            dims[h, q] = dim
            total[q] = total.get(q, 0) + dim
    heights = [h for h, _ in c.slices]
    length = max(heights) - min(heights) if heights else 0
    # d has jump 1 alone, so every page from 2 on is page 2
    pages = tuple(PageTable(r, dict(dims))
                  for r in range(2, max(2, length + 2) + 1))
    return SpectralResult(pages, 2, total)


@dataclass(frozen=True)
class Verdict:
    equal: bool
    detail: str = ""


def compare_pages(a: SpectralResult, b: SpectralResult) -> Verdict:
    """Equality of every page's dimension table (pages persist past
    their stabilization, so shorter lists are padded with the last)."""
    top = max(a.pages[-1].r, b.pages[-1].r)
    for r in range(2, top + 1):
        da, db = a.page(r).dims, b.page(r).dims
        if da != db:
            diff = sorted(set(da) ^ set(db)
                          | {k for k in set(da) & set(db) if da[k] != db[k]})
            p, q = diff[0]
            return Verdict(False,
                           f"first difference at page {r}, (p={p}, q={q}): "
                           f"{da.get((p, q), 0)} vs {db.get((p, q), 0)}")
    return Verdict(True)
