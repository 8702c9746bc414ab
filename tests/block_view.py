"""The q-blocks of a filtered complex, the layout the test oracles read.

``filtered.build`` stores d per (h, q) slice, each column over its
target slice.  Its block view stacks the slices of one q, h highest
first, and shifts every column by the offset of its target slice in the
block, so that a column is a mask over the whole block, as in a
``BlockComplex``: the form of the composite differential D and of the
planted complexes, whose jumps exceed 1.
"""

from __future__ import annotations

from khss.filtered import BlockComplex, FilteredComplex, QBlock


def block_view(c: FilteredComplex | BlockComplex) -> BlockComplex:
    """The q-blocks of ``c``: a ``BlockComplex`` as it is, the slices of
    a ``FilteredComplex`` stacked per q."""
    if isinstance(c, BlockComplex):
        return c
    gens = iter(c.generators)
    blocks: dict[int, QBlock] = {}
    offset: dict[tuple[int, int], int] = {}
    for s in c.slices:
        block = blocks.setdefault(s.q, QBlock(s.q, [], []))
        offset[(s.h, s.q)] = len(block.generators)
        block.generators.extend(next(gens) for _ in range(s.size))
    for s in c.slices:
        shift = offset.get((s.h + 1, s.q), 0)
        blocks[s.q].cols.extend(col << shift for col in s.cols)
    return BlockComplex(list(blocks.values()))
