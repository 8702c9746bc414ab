"""Planted-barcode complexes: one q-block whose pages are known by
construction.

The block is a direct sum of pairs d x = y (x at h = a, y at h = a + g)
and generators with d = 0, conjugated by a random change of basis that
preserves the filtration.  A pair with gap g survives on pages 1..g and
adds 1 to the d_g rank at a; the other generators survive to the
abutment.  Gaps up to 4 make d_r nonzero for r >= 2.
"""

from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subspace_oracle
from block_view import (Barcode, BlockComplex, QBlock, barcode, compute,
                        page)
from khss.filtered import KhGenerator


@dataclass(frozen=True)
class Planted:
    h: list[int]                     # highest first
    arrows: list[tuple[int, int]]    # (x, y): d x = y in the planted basis
    basis: list[int]                 # column i: e_i plus lower indices

    @property
    def pairs(self) -> Counter:
        return Counter((self.h[x], self.h[y] - self.h[x])
                       for x, y in self.arrows)

    @property
    def unpaired(self) -> Counter:
        ends = {i for arrow in self.arrows for i in arrow}
        return Counter(hi for i, hi in enumerate(self.h) if i not in ends)

    def planted_columns(self) -> list[int]:
        cols = [0] * len(self.h)
        for x, y in self.arrows:
            cols[x] = 1 << y
        return cols


@st.composite
def planted_blocks(draw) -> Planted:
    degree = st.integers(-3, 3)
    pairs = [draw(st.tuples(degree, st.integers(2, 4)))]
    pairs += draw(st.lists(st.tuples(degree, st.integers(1, 4)), max_size=5))
    free = draw(st.lists(degree, max_size=4))
    # (h, partner): the source of a pair names its target
    gens = [(a + g, None) for a, g in pairs] + [(h, None) for h in free]
    gens += [(a, k) for k, (a, _) in enumerate(pairs)]
    order = sorted(range(len(gens)), key=lambda i: -gens[i][0])
    pos = {gi: i for i, gi in enumerate(order)}
    arrows = [(pos[gi], pos[gens[gi][1]]) for gi in order
              if gens[gi][1] is not None]
    basis = [(1 << i) | draw(st.integers(0, (1 << i) - 1))
             for i in range(len(gens))]
    return Planted([gens[gi][0] for gi in order], arrows, basis)


def apply(cols: list[int], v: int) -> int:
    acc = 0
    while v:
        low = v & -v
        acc ^= cols[low.bit_length() - 1]
        v ^= low
    return acc


def conjugate(cols: list[int], basis: list[int]) -> list[int]:
    """P D P^-1 for the unitriangular P with columns ``basis``."""
    inverse = []
    for i, col in enumerate(basis):
        # P e_i = e_i + sum of e_j, j < i, so P^-1 e_i = e_i + sum P^-1 e_j
        inverse.append((1 << i) ^ apply(inverse, col ^ (1 << i)))
    return [apply(basis, apply(cols, v)) for v in inverse]


def squares_to_zero(cols: list[int]) -> bool:
    return all(apply(cols, col) == 0 for col in cols)


def planted_complex(planted: list[Planted]) -> BlockComplex:
    """Planted q-blocks (q = 0, 2, 4, ...) as one complex."""
    blocks = []
    for n, block in enumerate(planted):
        gens = [KhGenerator(i, 0, h, 2 * n) for i, h in enumerate(block.h)]
        cols = conjugate(block.planted_columns(), block.basis)
        blocks.append(QBlock(2 * n, gens, cols))
    return BlockComplex(blocks)


def expected_page(block: Planted, r: int) -> tuple[Counter, Counter]:
    dims, ranks = Counter(block.unpaired), Counter()
    for (a, g), n in block.pairs.items():
        if g >= r:
            dims[a] += n
            dims[a + g] += n
        if g == r:
            ranks[a] += n
    return dims, ranks


@settings(max_examples=200, deadline=None)
@given(planted_blocks())
def test_planted_barcode_is_recovered(block):
    cols = conjugate(block.planted_columns(), block.basis)
    assert squares_to_zero(cols)
    bars = barcode(block.h, cols)
    assert bars == Barcode(block.pairs, block.unpaired)
    oracle = subspace_oracle.SubspaceBlock(block.h, cols)
    top = bars.max_gap + 1
    for r in range(1, top + 1):
        dims, ranks = bars.page(r)
        assert (dims, ranks) == expected_page(block, r)
        assert dims == oracle.page_dims(r)
        assert ranks == oracle.dr_ranks(r)
    assert max(2, top) == next(r for r in range(2, top + 2)
                               if oracle.page_dims(r) == block.unpaired)
    assert sum(block.unpaired.values()) == oracle.homology_dim()


@settings(max_examples=100, deadline=None)
@given(planted_blocks(), st.data())
def test_one_flipped_entry_is_caught(block, data):
    """Mutation control.  Deleting a planted arrow keeps d^2 = 0 but
    changes the pages; an arrow from a cycle into the source x of a pair
    gives d^2 = d x != 0.  Either way the checks above must fail."""
    planted = block.planted_columns()
    cycles = [i for i, col in enumerate(planted) if col == 0]
    flips = [(x, y) for x, y in block.arrows]
    flips += [(c, x) for x, _ in block.arrows for c in cycles
              if block.h[c] < block.h[x]]
    col, row = data.draw(st.sampled_from(flips))
    planted[col] ^= 1 << row
    cols = conjugate(planted, block.basis)
    bars = barcode(block.h, cols)
    pages_match = all(bars.page(r) == expected_page(block, r)
                      for r in range(1, 6))
    assert not squares_to_zero(cols) or not pages_match


@settings(max_examples=100, deadline=None)
@given(st.lists(planted_blocks(), min_size=2, max_size=4))
def test_planted_complex_through_compute(planted):
    """Several planted q-blocks (q = 0, 2, 4, ...) as one complex, through
    the reference ``compute`` and ``page`` of ``block_view``."""
    c = planted_complex(planted)
    res = compute(c)
    heights = [h for block in planted for h in block.h]
    assert [pt.r for pt in res.pages] == list(
        range(2, max(heights) - min(heights) + 3))
    for r in range(1, res.pages[-1].r + 1):
        dims, ranks = {}, {}
        for n, block in enumerate(planted):
            block_dims, block_ranks = expected_page(block, r)
            dims.update(((p, 2 * n), dim) for p, dim in block_dims.items())
            ranks.update(((p, 2 * n), rk) for p, rk in block_ranks.items())
        pt = page(c, r)
        assert (pt.dims, pt.dr_ranks) == (dims, ranks)
        if r >= 2:
            assert (res.page(r).dims, res.page(r).dr_ranks) == (dims, ranks)
    gaps = [g for block in planted for _, g in block.pairs]
    assert res.collapse_page == max(2, max(gaps) + 1)
    assert res.infinity.dims == {
        (p, 2 * n): dim for n, block in enumerate(planted)
        for p, dim in block.unpaired.items()}
    assert res.total_homology == {
        2 * n: total for n, block in enumerate(planted)
        if (total := sum(block.unpaired.values()))}


def test_barcode_rejects_bad_blocks():
    with pytest.raises(ValueError):
        barcode([0, 1], [0, 0])  # not ordered highest first
    with pytest.raises(ValueError):
        barcode([1, 1], [0, 1])  # d keeps h
