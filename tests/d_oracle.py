"""The paper's composite differential D, and the conjugator that carries
the Khovanov differential d onto it: a reference for what
``filtered.build`` no longer computes.

With d_i the edge maps in direction i (crossing i flipped 0 -> 1), D
sums the composites along the lexicographic monotone path between every
pair of comparable vertices, which is the product

    I + D = (1 + d_{n-1}) ... (1 + d_0).

``build`` evaluates it column by column, directions highest first: the
column at each generator g gets the columns at the monomials of d_i g,
one XOR per edge-map entry.  It reads the edge maps itself and takes
only the generator layout from ``filtered.build``, in its block view;
like ``build``, it
builds the unreduced flavor as the reduced complex of the diagram that
``filtered.marked_diagram`` gives.

Over GF(2), when every square of the cube commutes,

    G = (1 + D_{<n-1} E_{n-1}) ... (1 + D_{<0} E_0),

with D_{<k} = (1 + d_{k-1}) ... (1 + d_0) - 1 and E_k the projection onto
the generators whose vertex has bit k = 0, satisfies G d = D G.  G is
the identity plus terms that raise h, so it is a filtered isomorphism
(C, d) -> (C, D) and both give the same spectral sequence.
"""

from __future__ import annotations

from khss import cube, tqft
from khss.filtered import build as build_d
from khss.filtered import marked_diagram

from block_view import BlockComplex, QBlock, block_view
from global_layout import bits


def build(d, reduced: bool = True) -> BlockComplex:
    """The blocks of ``filtered.build``, each column the column of D."""
    layout = block_view(build_d(d, reduced))
    d = marked_diagram(d, reduced)
    n = len(d.crossings)
    resolutions = [cube.resolve(d, u) for u in range(1 << n)]
    # col[u][m] is the column of I + D at monomial m of vertex u, over
    # the local indices of its block; it starts as that generator's bit
    col = [[0] * (1 << (res.circle_count - 1)) for res in resolutions]
    for b in layout.blocks:
        for j, g in enumerate(b.generators):
            col[g.vertex][g.monomial] = 1 << j

    # after direction i, col holds the columns of the factors i and above
    for i in reversed(range(n)):
        step = 1 << i
        for u in range(1 << n):
            if u & step:
                continue
            w = u | step
            e = cube.edge_between(d, resolutions[u], resolutions[w], i)
            src, dst = col[u], col[w]
            for t, mask in enumerate(tqft.edge_columns_reduced(e)):
                acc = src[t]
                for s in bits(mask):
                    acc ^= dst[s]
                src[t] = acc

    return BlockComplex([
        QBlock(b.q, b.generators,
               [col[g.vertex][g.monomial] ^ 1 << j
                for j, g in enumerate(b.generators)])
        for b in layout.blocks])


def compose(a: list[int], b: list[int]) -> list[int]:
    """Column masks of a after b."""
    out = []
    for v in b:
        acc = 0
        for s in bits(v):
            acc ^= a[s]
        out.append(acc)
    return out


def directions(block: QBlock, n: int) -> list[list[int]]:
    """d_0 .. d_{n-1} on one q-block of d: each entry of the columns goes
    to the crossing at which its two vertices differ."""
    gens = block.generators
    parts = [[0] * len(gens) for _ in range(n)]
    for j, col in enumerate(block.cols):
        for s in bits(col):
            i = (gens[s].vertex ^ gens[j].vertex).bit_length() - 1
            parts[i][j] |= 1 << s
    return parts


def conjugator(block: QBlock, n: int) -> list[int]:
    """G on one q-block of d, as column masks."""
    gens = block.generators
    one = [1 << j for j in range(len(gens))]
    below = one  # (1 + d_{k-1}) ... (1 + d_0)
    g = one
    for k, d_k in enumerate(directions(block, n)):
        # 1 + D_{<k} E_k: the columns at bit k = 0 gain D_{<k}
        factor = [col if not gens[j].vertex >> k & 1 else 1 << j
                  for j, col in enumerate(below)]
        g = compose(factor, g)
        below = compose([e ^ m for e, m in zip(one, d_k)], below)
    return g


def conjugates(d_block: QBlock, composite_block: QBlock,
               g: list[int]) -> bool:
    """G d = D G on one q-block."""
    return compose(g, d_block.cols) == compose(composite_block.cols, g)


def conjugate(c, composite: BlockComplex, n: int) -> bool:
    """True iff G d = D G on every q-block, with d the columns of c and D
    those of composite."""
    return all(conjugates(b, cb, conjugator(b, n))
               for b, cb in zip(block_view(c).blocks, composite.blocks))
