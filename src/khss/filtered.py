"""The (reduced or unreduced) filtered complex of a marked diagram.

Generators are graded by (homological degree h, quantum degree q).  The
differential sums, over every comparable vertex pair u < v, the
composite of the edge maps along the lexicographic monotone path from u
to v (composites are path independent, which the test suite checks
rather than assumes).  A pair that differs at k crossings gives the
jump-k component, which raises h by k.

Every composite preserves q, so the complex is stored as one ``QBlock``
per quantum degree, with block-local indices.  Inside a block the
generators are ordered by h, highest first, and ``cols[j]`` is the total
differential of local generator j: bit i is its coefficient on local
generator i of the same block.  The rows of the jump-k part of a column
at degree h are the contiguous local range at h + k, so the jump-k
component is the columns masked to those ranges (``QBlock.jump``).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cube, tqft
from .cube import Resolution
from .diagram import PlanarDiagram

DEFAULT_GENERATOR_CAP = 1 << 26


class SizeCapError(RuntimeError):
    """The diagram would produce more generators than the configured cap."""


class GradingError(RuntimeError):
    """Internal error: a composite does not preserve the quantum degree."""


@dataclass(frozen=True)
class KhGenerator:
    vertex: int     # cube vertex bit mask
    monomial: int   # letter bits over the vertex's canonical circles
    h: int
    q: int


@dataclass(frozen=True)
class QBlock:
    """The generators of quantum degree q, ordered by h, highest first,
    and the total differential as column masks over their local
    indices."""

    q: int
    generators: list[KhGenerator]
    cols: list[int]

    @property
    def h(self) -> list[int]:
        return [g.h for g in self.generators]

    def jump(self, k: int) -> list[int]:
        """Columns of the jump-k component: each column masked to the
        local rows at its own h plus k."""
        h = self.h
        rows: dict[int, int] = {}  # h -> mask of the local rows there
        for i, hi in enumerate(h):
            rows[hi] = rows.get(hi, 0) | 1 << i
        return [col & rows.get(hj + k, 0) for hj, col in zip(h, self.cols)]


@dataclass
class FilteredComplex:
    blocks: list[QBlock]  # one per quantum degree, by increasing q

    @property
    def generators(self) -> list[KhGenerator]:
        """Every generator, block by block."""
        return [g for b in self.blocks for g in b.generators]

    @property
    def n_generators(self) -> int:
        return sum(len(b.generators) for b in self.blocks)

    @property
    def components(self) -> dict[int, dict[tuple[int, int], int]]:
        """Jump k -> {(q, local column) -> local row mask}, derived from
        the blocks on every call (the pipeline reads the blocks; the
        benchmark's size counters read this view)."""
        out: dict[int, dict[tuple[int, int], int]] = {}
        for b in self.blocks:
            for k in range(1, b.generators[0].h - b.generators[-1].h + 1):
                for j, mask in enumerate(b.jump(k)):
                    if mask:
                        out.setdefault(k, {})[(b.q, j)] = mask
        return out


def generator_gradings(d: PlanarDiagram, res: Resolution,
                       monomial: int, reduced: bool) -> tuple[int, int]:
    """(h, q) of one basis monomial at one vertex."""
    h = res.weight - d.n_minus
    letters = res.circle_count - 1 if reduced else res.circle_count
    return h, letters - 2 * monomial.bit_count() + h + d.writhe


def build(d: PlanarDiagram, reduced: bool = True,
          max_generators: int = DEFAULT_GENERATOR_CAP) -> FilteredComplex:
    """Assemble the filtered complex of a diagram."""
    if reduced and d.basepoint is None and d.unknotted_extras == 0:
        raise ValueError("reduced complex needs a basepoint")
    n = len(d.crossings)
    resolutions = [cube.resolve(d, u) for u in range(1 << n)]
    dims = [1 << (res.circle_count - 1 if reduced else res.circle_count)
            for res in resolutions]
    if sum(dims) > max_generators:
        raise SizeCapError(
            f"complex needs more than {max_generators} generators")

    # vertices of larger weight first puts each block's h highest first
    by_q: dict[int, list[KhGenerator]] = {}
    for u in sorted(range(1 << n), key=lambda u: -u.bit_count()):
        for m in range(dims[u]):
            h, q = generator_gradings(d, resolutions[u], m, reduced)
            by_q.setdefault(q, []).append(KhGenerator(u, m, h, q))
    blocks = [QBlock(q, by_q[q], [0] * len(by_q[q])) for q in sorted(by_q)]
    # per vertex, monomial -> its q, its block's columns and its index
    # there, and the bit of that index
    q_of = [[0] * dim for dim in dims]
    cols_of: list[list[list[int]]] = [[[]] * dim for dim in dims]
    index_of = [[0] * dim for dim in dims]
    bit_of = [[0] * dim for dim in dims]
    for b in blocks:
        for j, g in enumerate(b.generators):
            q_of[g.vertex][g.monomial] = b.q
            cols_of[g.vertex][g.monomial] = b.cols
            index_of[g.vertex][g.monomial] = j
            bit_of[g.vertex][g.monomial] = 1 << j

    edge_fn = (tqft.edge_columns_reduced if reduced
               else tqft.edge_columns_unreduced)
    edge_cache: dict[tuple[int, int], list[int]] = {}

    def edge_cols(u: int, crossing: int) -> list[int]:
        key = (u, crossing)
        cached = edge_cache.get(key)
        if cached is None:
            e = cube.edge_between(d, resolutions[u],
                                  resolutions[u | (1 << crossing)], crossing)
            cached = edge_cache[key] = edge_fn(e)
        return cached

    for u in range(1 << n):
        src_q, src_cols, src_j = q_of[u], cols_of[u], index_of[u]
        # The composite to v extends the composite to v-minus-its-top-
        # changed-bit by one edge, so the memo makes each pair cost a
        # single composition.  A zero composite is stored as None; every
        # extension of a zero composite is zero, which prunes most of the
        # deep diagonals.
        memo: dict[int, list[int] | None] = {}
        for v in sorted(_vertices_above(u, n)):
            top = (u ^ v).bit_length() - 1
            prev = v & ~(1 << top)
            if prev == u:
                cols = edge_cols(u, top)
            elif memo[prev] is None:
                memo[v] = None
                continue
            else:
                cols = tqft.compose_columns(memo[prev], edge_cols(prev, top))
            if not any(cols):
                memo[v] = None
                continue
            memo[v] = cols
            # scatter each column to its block, checking q bit by bit
            qs, bit = q_of[v], bit_of[v]
            for m, mask in enumerate(cols):
                if mask:
                    q, local = src_q[m], 0
                    while mask:
                        i = mask.bit_length() - 1
                        if qs[i] != q:
                            raise GradingError(
                                f"composite from vertex {u} to {v} does "
                                f"not preserve q on monomial {m}")
                        local |= bit[i]
                        mask ^= 1 << i
                    src_cols[m][src_j[m]] ^= local
    return FilteredComplex(blocks)


def _vertices_above(u: int, n: int):
    """All v with u < v, by adding subsets of the zero bits of u."""
    zeros = [i for i in range(n) if not (u >> i) & 1]
    for sub in range(1, 1 << len(zeros)):
        v = u
        s = sub
        for i, z in enumerate(zeros):
            if (s >> i) & 1:
                v |= 1 << z
        yield v


def verify_d_squared(c: FilteredComplex) -> bool:
    """True iff the total differential squares to zero."""
    for b in c.blocks:
        cols = b.cols
        for mask in cols:
            acc = 0
            while mask:  # clearing the top bit shrinks the int each step
                top = mask.bit_length() - 1
                acc ^= cols[top]
                mask ^= 1 << top
            if acc:
                return False
    return True
