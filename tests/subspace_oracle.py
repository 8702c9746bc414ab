"""The pages of a filtered complex by the subspace formula: an oracle
for ``khss.spectral`` that shares none of its column reduction.

Per q-block, with F_p spanned by the generators of homological degree
>= p and Z^0_p = F_p,

    Z^r_p = {x in F_p : dx in F_{p+r}},
    E^r_p = Z^r_p / (d Z^{r-1}_{p-r+1} + Z^{r-1}_{p+1}).

The page-r differential is induced by d and raises p by r.  Every
subspace is rebuilt for each (r, p), so this is slow: 9_1 reduced takes
about 20 s.
"""

from __future__ import annotations

from block_view import PageSequence, PageTable, block_view
from gf2 import BitSpan


class SubspaceBlock:
    """One q-block: generator i has degree ``h[i]`` and differential
    ``cols[i]`` (a bit mask over the block), in any generator order."""

    def __init__(self, h, cols):
        self.p_of = list(h)
        self.cols = list(cols)
        self.n = len(self.cols)
        self.p_values = sorted(set(self.p_of))
        self._filter_masks: dict[int, int] = {}
        self._z_cache: dict[tuple[int, int], list[int]] = {}

    def filter_mask(self, p: int) -> int:
        """Coordinate mask of F_p (generators with degree >= p)."""
        m = self._filter_masks.get(p)
        if m is None:
            m = sum(1 << i for i, pi in enumerate(self.p_of) if pi >= p)
            self._filter_masks[p] = m
        return m

    def apply_d(self, v: int) -> int:
        acc = 0
        while v:
            low = v & -v
            acc ^= self.cols[low.bit_length() - 1]
            v ^= low
        return acc

    def cycles_z(self, r: int, p: int) -> list[int]:
        """Basis of Z^r_p = {x in F_p : dx in F_{p+r}} (r >= 0)."""
        key = (r, p)
        cached = self._z_cache.get(key)
        if cached is not None:
            return cached
        coords = [i for i in range(self.n) if self.p_of[i] >= p]
        if r == 0:
            basis = [1 << i for i in coords]
        else:
            forbidden = ~self.filter_mask(p + r)
            # kernel of x -> dx mod F_{p+r}, over the F_p coordinates
            basis = []
            pivots: dict[int, tuple[int, int]] = {}  # pivot -> (image, x)
            for i in coords:
                img = self.cols[i] & forbidden
                x = 1 << i
                done = 0
                while img:
                    pos = img.bit_length() - 1
                    entry = pivots.get(pos)
                    if entry is not None:
                        img ^= entry[0]
                        x ^= entry[1]
                    else:
                        bit = 1 << pos
                        done |= bit
                        img ^= bit
                if done == 0:
                    basis.append(x)
                else:
                    pivots[done.bit_length() - 1] = (done, x)
        self._z_cache[key] = basis
        return basis

    def boundary_span(self, r: int, p: int) -> BitSpan:
        """Span of d Z^{r-1}_{p-r+1} + Z^{r-1}_{p+1}."""
        span = BitSpan()
        for x in self.cycles_z(r - 1, p - r + 1):
            span.add(self.apply_d(x))
        for x in self.cycles_z(r - 1, p + 1):
            span.add(x)
        return span

    def page_dims(self, r: int) -> dict[int, int]:
        out = {}
        for p in self.p_values:
            z = self.cycles_z(r, p)
            span = self.boundary_span(r, p)
            dim = 0
            probe = span.copy()
            for x in z:
                if probe.add(x):
                    dim += 1
            if dim:
                out[p] = dim
        return out

    def dr_ranks(self, r: int) -> dict[int, int]:
        """Rank of the page-r differential out of each p."""
        out = {}
        for p in self.p_values:
            target = self.boundary_span(r, p + r)
            rank = 0
            for x in self.cycles_z(r, p):
                if target.add(self.apply_d(x)):
                    rank += 1
            if rank:
                out[p] = rank
        return out

    def homology_dim(self) -> int:
        """dim ker(d) - dim im(d) for the full differential."""
        image = BitSpan(self.cols)
        return (self.n - image.dim) - image.dim


def q_blocks(c) -> dict[int, SubspaceBlock]:
    """The q-blocks of a filtered complex."""
    return {b.q: SubspaceBlock(b.h, b.cols) for b in block_view(c).blocks}


def compute(c) -> PageSequence:
    """Pages 2..max(2, length + 2), the first page equal to the last as
    the collapse page, and the total homology per q."""
    blocks = q_blocks(c)
    p_values = [p for block in blocks.values() for p in block.p_of]
    length = (max(p_values) - min(p_values)) if p_values else 0
    pages = []
    for r in range(2, max(2, length + 2) + 1):
        dims, ranks = {}, {}
        for q, block in blocks.items():
            for p, dim in block.page_dims(r).items():
                dims[(p, q)] = dim
            for p, rk in block.dr_ranks(r).items():
                ranks[(p, q)] = rk
        pages.append(PageTable(r, dims, ranks))
    collapse = next(pt.r for pt in pages if pt.dims == pages[-1].dims)
    homology = {q: dim for q, block in blocks.items()
                if (dim := block.homology_dim())}
    return PageSequence(tuple(pages), collapse, homology)
