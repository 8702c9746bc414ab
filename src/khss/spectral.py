"""Pages of the filtered complex, homology, and comparison verdicts.

Page indexing: page 1 carries the chain-group dimensions and page 2 the
homology with respect to the jump-1 differential alone; the page-r
differential raises the homological degree h by r.  Every differential
preserves the quantum degree q, so each q-block is handled on its own.

All pages of a q-block come from one left-to-right column reduction of
its total differential, the pairing of persistent homology
(Edelsbrunner, Letscher and Zomorodian, "Topological persistence and
simplification", 2002; Zomorodian and Carlsson, "Computing persistent
homology", 2005).  With the generators ordered by h, highest first, the
pivot of a column is its lowest-h entry.  A reduced column of x (at
h = a) with pivot y (at h = a + g) pairs the two: both survive on pages
1..g, and d_g maps one onto the other, adding 1 to the d_g rank at
(a, q).  Unpaired generators survive to the abutment, so they count the
homology of the total differential, and the sequence collapses at page
max(2, largest gap + 1).  Every generator is the source of one pair,
the target of one, or unpaired, so the unpaired ones at h number the
generators at h less the pairs leaving and entering h.

The complex ``filtered.build`` gives raises h by exactly 1, so a column
at h only ever meets columns at h, and every pair has gap 1: the
reduction runs one (h, q) slice at a time, on the slice's own column
list, whose rows are the local indices of the slice (h + 1, q).  Each
q's slices go by increasing h, with clearing (Chen and Kerber,
"Persistent homology computation with a twist", 2011): as d^2 = 0, the
column at the pivot row of a reduced column of the slice (h - 1, q) is
a sum of earlier columns of the slice (h, q), so it is skipped.  Those
pivot rows are local indices of the slice (h, q), so they index its
columns as they stand.  A ``filtered.BlockComplex``, whose differential
may raise h by more, is reduced a block at a time.

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

from collections import Counter, defaultdict
from collections.abc import Container, Sequence
from dataclasses import dataclass, field

from .filtered import BlockComplex, FilteredComplex


@dataclass(frozen=True)
class PageTable:
    """Bigraded dimensions of one page, plus outgoing differential ranks."""

    r: int
    dims: dict[tuple[int, int], int]
    dr_ranks: dict[tuple[int, int], int] = field(default_factory=dict)

    def total(self) -> int:
        return sum(self.dims.values())

    def __eq__(self, other) -> bool:
        return (isinstance(other, PageTable) and self.r == other.r
                and self.dims == other.dims)


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


@dataclass(frozen=True)
class Barcode:
    """The persistence pairs and unpaired generators of one q-block."""

    pairs: Counter     # (h of the source, gap) -> count
    unpaired: Counter  # h -> count

    @property
    def heights(self) -> set[int]:
        """The h of every generator: each ends a pair or is unpaired."""
        return ({h for a, g in self.pairs for h in (a, a + g)}
                | set(self.unpaired))

    @property
    def max_gap(self) -> int:
        return max((g for _, g in self.pairs), default=0)

    def page(self, r: int) -> tuple[Counter, Counter]:
        """Page-r dimensions per h, and the d_r rank out of each h."""
        dims = Counter(self.unpaired)
        ranks = Counter()
        for (a, g), n in self.pairs.items():
            if g >= r:
                dims[a] += n
                dims[a + g] += n
                if g == r:
                    ranks[a] += n
        return dims, ranks


def barcode(h: Sequence[int], cols: Sequence[int]) -> Barcode:
    """Pair the generators of one q-block by column reduction.

    Generator i has homological degree ``h[i]`` and ``cols[i]`` is the
    bit mask of its differential (bit j for generator j).  The
    generators must be ordered by h, highest first, and the differential
    must raise h.
    """
    if list(h) != sorted(h, reverse=True):
        raise ValueError("generators must be ordered by h, highest first")
    # the highest row of a column is its lowest h
    if any(col and h[col.bit_length() - 1] <= h[i]
           for i, col in enumerate(cols)):
        raise ValueError("differential does not raise h")
    pairs = Counter((h[i], h[low] - h[i]) for low, i in _reduce(cols).items())
    return Barcode(pairs, _unpaired(Counter(h), pairs))


def _reduce(cols: Sequence[int],
            clear: Container[int] = ()) -> dict[int, int]:
    """Reduce the columns left to right on their highest row: pivot row
    -> index of the column reduced onto it.  The columns indexed in
    ``clear`` are skipped: the caller knows they reduce to zero."""
    reduced: dict[int, int] = {}  # pivot row -> reduced column
    owner: dict[int, int] = {}
    for i, col in enumerate(cols):
        if i in clear:
            continue
        while col:
            low = col.bit_length() - 1
            other = reduced.get(low)
            if other is None:
                reduced[low] = col
                owner[low] = i
                break
            col ^= other
    return owner


def _unpaired(sizes: Counter, pairs: Counter) -> Counter:
    """h -> generators left unpaired: every generator is the source of
    one pair, the target of one, or unpaired."""
    out = Counter(sizes)
    for (a, g), n in pairs.items():
        out[a] -= n
        out[a + g] -= n
    return +out


def khovanov_oracle(c: FilteredComplex) -> PageTable:
    """Page 2 computed directly as homology of d (the direct route for
    page(c, 2)): each slice's columns are ranked by plain elimination on
    their highest row, with no clearing, and the dimension at (h, q) is
    the slice's size minus the ranks out of it and into it."""
    rank: dict[tuple[int, int], int] = {}
    for s in c.slices:
        pivots: dict[int, int] = {}  # highest row -> reduced column
        for col in s.cols:
            while col:
                top = col.bit_length() - 1
                other = pivots.get(top)
                if other is None:
                    pivots[top] = col
                    break
                col ^= other
        rank[(s.h, s.q)] = len(pivots)
    dims: dict[tuple[int, int], int] = {}
    for s in c.slices:
        dim = s.size - rank[(s.h, s.q)] - rank.get((s.h - 1, s.q), 0)
        if dim:
            dims[(s.h, s.q)] = dim
    return PageTable(2, dims)


def _barcodes(c: FilteredComplex | BlockComplex) -> dict[int, Barcode]:
    """q -> barcode of the generators of that q.  A column of a slice
    only meets columns of the same slice, so each slice's column list is
    reduced in place, over the rows of its target slice, skipping the
    columns at the pivot rows of the slice below; each pivot is a pair
    of gap 1, and the unpaired generators are counted from the sizes."""
    if isinstance(c, BlockComplex):
        return {b.q: barcode(b.h, b.cols) for b in c.blocks}
    pairs: dict[int, Counter] = defaultdict(Counter)
    sizes: dict[int, Counter] = defaultdict(Counter)
    below, last = {}, None  # the last slice's pivot rows, and its (h, q)
    for s, target in reversed(list(c.with_targets())):
        width = target.size if target is not None else 0
        if max(map(int.bit_length, s.cols), default=0) > width:
            raise ValueError("differential does not raise h")
        below = _reduce(s.cols, below if last == (s.h - 1, s.q) else ())
        last = (s.h, s.q)
        if below:
            pairs[s.q][(s.h, 1)] += len(below)
        sizes[s.q][s.h] += s.size
    return {q: Barcode(pairs[q], _unpaired(sizes[q], pairs[q]))
            for q in sizes}


def _page(barcodes: dict[int, Barcode], r: int) -> PageTable:
    dims: dict[tuple[int, int], int] = {}
    ranks: dict[tuple[int, int], int] = {}
    for q, bars in barcodes.items():
        block_dims, block_ranks = bars.page(r)
        for p, dim in block_dims.items():
            dims[(p, q)] = dim
        for p, rk in block_ranks.items():
            ranks[(p, q)] = rk
    return PageTable(r, dims, ranks)


def _homology(barcodes: dict[int, Barcode]) -> dict[int, int]:
    return {q: dim for q, bars in barcodes.items()
            if (dim := sum(bars.unpaired.values()))}


def page(c: FilteredComplex | BlockComplex, r: int) -> PageTable:
    """One page of the spectral sequence (r >= 1)."""
    if r < 1:
        raise ValueError("page index starts at 1")
    return _page(_barcodes(c), r)


def total_homology(c: FilteredComplex | BlockComplex) -> dict[int, int]:
    """q -> dim of the homology of the full differential."""
    return _homology(_barcodes(c))


def compute(c: FilteredComplex | BlockComplex) -> SpectralResult:
    """All pages from 2 to stabilization, collapse page, abutment.  A
    ``FilteredComplex`` must have d^2 = 0 (``cli._build`` checks it)."""
    barcodes = _barcodes(c)
    heights = set().union(*(b.heights for b in barcodes.values()))
    length = max(heights) - min(heights) if heights else 0
    r_max = max(2, length + 2)  # no differential has jump > length
    pages = tuple(_page(barcodes, r) for r in range(2, r_max + 1))
    max_gap = max((b.max_gap for b in barcodes.values()), default=0)
    return SpectralResult(pages, max(2, max_gap + 1), _homology(barcodes))


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


def basepoint_sweep(d, build_fn=None) -> Verdict:
    """Reduced results for every basepoint arc on the marked component
    must agree pairwise.  ``build_fn`` builds the reduced complex of a
    diagram (``filtered.build`` by default)."""
    from . import filtered

    build_fn = build_fn or filtered.build
    comp = d.marked_component()
    if comp is None or len(comp) < 2:
        return Verdict(True, "single-arc marked component")
    results = []
    for arc in comp:
        results.append((arc, compute(build_fn(d.with_basepoint(arc)))))
    base_arc, base = results[0]
    for arc, res in results[1:]:
        v = compare_pages(base, res)
        if not v.equal:
            return Verdict(False,
                           f"basepoint {base_arc} vs {arc}: {v.detail}")
    return Verdict(True)
