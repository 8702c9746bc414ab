"""The q-blocks of a filtered complex, and their pages by the general
persistence pairing: the reference ``khss.spectral.compute`` is checked
against.

A general filtered complex, whose differential may raise h by any
amount, is a ``BlockComplex``: one ``QBlock`` per q, ordered by h,
highest first, with columns over the whole block.  The planted
complexes and the composite differential D are of this kind.
``filtered.build`` stores d as a map from (h, q) to its slice, each
column over its target slice.  Its block view sorts the slices by q,
then h highest first, stacks the slices of one q, and shifts every
column by the offset of its target slice in the block, so that a column
is a mask over the whole block.  A block column is as wide as its row
offset inside the block, so the blocks of d take memory quadratic in
their widths where the slices take it about linear in the nonzeros.

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
generators at h less the pairs leaving and entering h.  The reduction
here makes no clearing and shares no code with ``khss.spectral``.
``compute`` gives the pages as a ``PageSequence``: a ``PageTable`` per
page, with the d_r rank out of each (h, q), where ``khss.spectral``
holds E_2 alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from khss.filtered import FilteredComplex, KhGenerator


@dataclass(frozen=True)
class PageTable:
    """Bigraded dimensions of one page, plus outgoing differential ranks."""

    r: int
    dims: dict[tuple[int, int], int]
    dr_ranks: dict[tuple[int, int], int] = field(default_factory=dict)


@dataclass(frozen=True)
class PageSequence:
    """All pages from 2 to stabilization, plus the abutment data: the
    general form of ``khss.spectral.SpectralResult``, whose pages from 2
    on are all E_2."""

    pages: tuple[PageTable, ...]   # r = 2, 3, ...
    collapse_page: int
    total_homology: dict[int, int]  # q -> dim of the abutment

    def page(self, r: int) -> PageTable:
        if r < 2:
            raise ValueError("stored pages start at 2")
        return self.pages[min(r - 2, len(self.pages) - 1)]

    @property
    def infinity(self) -> PageTable:
        return self.pages[-1]


class QBlock(NamedTuple):
    """The generators of quantum degree q, ordered by h, highest first,
    and the differential as column masks over their local indices."""

    q: int
    generators: list[KhGenerator]
    cols: list[int]

    @property
    def h(self) -> list[int]:
        return [g.h for g in self.generators]


class BlockComplex(NamedTuple):
    """A general filtered complex: one block per quantum degree."""

    blocks: list[QBlock]


def block_view(c: FilteredComplex | BlockComplex) -> BlockComplex:
    """The q-blocks of ``c``: a ``BlockComplex`` as it is, the slices of
    a ``FilteredComplex`` stacked per q."""
    if isinstance(c, BlockComplex):
        return c
    gens = iter(c.generators)  # slice by slice, in the map's order
    own = {hq: [next(gens) for _ in cols] for hq, cols in c.slices.items()}
    order = sorted(c.slices, key=lambda hq: (hq[1], -hq[0]))
    blocks: dict[int, QBlock] = {}
    offset: dict[tuple[int, int], int] = {}
    for h, q in order:
        block = blocks.setdefault(q, QBlock(q, [], []))
        offset[h, q] = len(block.generators)
        block.generators.extend(own[h, q])
    for h, q in order:
        shift = offset.get((h + 1, q), 0)
        blocks[q].cols.extend(col << shift for col in c.slices[h, q])
    return BlockComplex(list(blocks.values()))


@dataclass(frozen=True)
class Barcode:
    """The persistence pairs and unpaired generators of one q-block."""

    pairs: Counter     # (h of the source, gap) -> count
    unpaired: Counter  # h -> count

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
    owner: dict[int, int] = {}    # pivot row -> index of its column
    reduced: dict[int, int] = {}  # pivot row -> reduced column
    for i, col in enumerate(cols):
        while col:
            low = col.bit_length() - 1
            if low not in reduced:
                reduced[low], owner[low] = col, i
                break
            col ^= reduced[low]
    pairs = Counter((h[i], h[low] - h[i]) for low, i in owner.items())
    unpaired = Counter(h)
    for (a, g), n in pairs.items():
        unpaired[a] -= n
        unpaired[a + g] -= n
    return Barcode(pairs, +unpaired)


def _page(barcodes: dict[int, Barcode], r: int) -> PageTable:
    dims: dict[tuple[int, int], int] = {}
    ranks: dict[tuple[int, int], int] = {}
    for q, bars in barcodes.items():
        block_dims, block_ranks = bars.page(r)
        dims.update(((p, q), dim) for p, dim in block_dims.items())
        ranks.update(((p, q), rk) for p, rk in block_ranks.items())
    return PageTable(r, dims, ranks)


def page(c: BlockComplex, r: int) -> PageTable:
    """One page of the spectral sequence (r >= 1)."""
    return _page({b.q: barcode(b.h, b.cols) for b in c.blocks}, r)


def compute(c: BlockComplex) -> PageSequence:
    """All pages from 2 to stabilization, collapse page, abutment."""
    barcodes = {b.q: barcode(b.h, b.cols) for b in c.blocks}
    heights = [h for b in c.blocks for h in b.h]
    length = max(heights) - min(heights) if heights else 0
    r_max = max(2, length + 2)  # no differential has jump > length
    pages = tuple(_page(barcodes, r) for r in range(2, r_max + 1))
    max_gap = max((b.max_gap for b in barcodes.values()), default=0)
    homology = {q: dim for q, bars in barcodes.items()
                if (dim := sum(bars.unpaired.values()))}
    return PageSequence(pages, max(2, max_gap + 1), homology)
