"""The (reduced or unreduced) filtered complex of a marked diagram.

Generators are graded by (homological degree h, quantum degree q).  The
differential d is the sum of the edge maps over every cube edge, and
raises h by 1.  The paper's differential D adds the composites along
monotone paths; it gives the same pages (see ``spectral``).

Every edge map preserves q, so the complex is stored as one ``QBlock``
per quantum degree, with block-local indices.  Inside a block the
generators are ordered by h, highest first, and ``cols[j]`` is the
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
    """Internal error: an edge map does not preserve the quantum degree."""


@dataclass(frozen=True)
class KhGenerator:
    vertex: int     # cube vertex bit mask
    monomial: int   # letter bits over the vertex's canonical circles
    h: int
    q: int


@dataclass(frozen=True)
class QBlock:
    """The generators of quantum degree q, ordered by h, highest first,
    and the differential as column masks over their local indices."""

    q: int
    generators: list[KhGenerator]
    cols: list[int]

    @property
    def h(self) -> list[int]:
        return [g.h for g in self.generators]

    def _rows(self) -> dict[int, int]:
        """h -> mask of the local rows at that h."""
        rows: dict[int, int] = {}
        for i, g in enumerate(self.generators):
            rows[g.h] = rows.get(g.h, 0) | 1 << i
        return rows

    def jump(self, k: int) -> list[int]:
        """Columns of the jump-k component: each column masked to the
        local rows at its own h plus k."""
        rows = self._rows()
        return [col & rows.get(g.h + k, 0)
                for g, col in zip(self.generators, self.cols)]


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
        benchmark's size counters read this view).  ``build`` gives
        jump 1 only."""
        out: dict[int, dict[tuple[int, int], int]] = {}
        for b in self.blocks:
            rows, gens = b._rows(), b.generators
            for j, col in enumerate(b.cols):
                while col:  # peel off the rows at the lowest h left
                    h = gens[col.bit_length() - 1].h
                    out.setdefault(h - gens[j].h, {})[(b.q, j)] = col & rows[h]
                    col &= ~rows[h]
        return out


def generator_gradings(d: PlanarDiagram, res: Resolution,
                       monomial: int, reduced: bool) -> tuple[int, int]:
    """(h, q) of one basis monomial at one vertex."""
    h = res.u.bit_count() - d.n_minus
    letters = res.circle_count - 1 if reduced else res.circle_count
    return h, letters - 2 * monomial.bit_count() + h + d.writhe


def build(d: PlanarDiagram, reduced: bool = True,
          max_generators: int = DEFAULT_GENERATOR_CAP) -> FilteredComplex:
    """Assemble the filtered complex of a diagram."""
    if reduced and d.basepoint is None and d.unknotted_extras == 0:
        raise ValueError("reduced complex needs a basepoint")
    n = len(d.crossings)
    drop = 1 if reduced else 0
    # every vertex has a generator, so the running count reaches a cap
    # below 2^n before the whole cube is resolved
    resolutions, dims, total = [], [], 0
    for u in range(1 << n):
        resolutions.append(cube.resolve(d, u))
        dims.append(1 << (resolutions[u].circle_count - drop))
        total += dims[u]
        if total > max_generators:
            raise SizeCapError(
                f"complex needs more than {max_generators} generators")

    # vertices of larger weight first puts each block's h highest first;
    # per vertex, the q of monomial 0 (each letter x lowers q by 2) and
    # q -> the mask of its monomials
    by_q: dict[int, list[KhGenerator]] = {}
    top_q = [0] * (1 << n)
    q_masks: list[dict[int, int]] = [{} for _ in dims]
    for u in sorted(range(1 << n), key=lambda u: -u.bit_count()):
        masks = q_masks[u]
        h, top_q[u] = generator_gradings(d, resolutions[u], 0, reduced)
        for m in range(dims[u]):
            q = top_q[u] - 2 * m.bit_count()
            by_q.setdefault(q, []).append(KhGenerator(u, m, h, q))
            masks[q] = masks.get(q, 0) | 1 << m
    blocks = [QBlock(q, by_q[q], [0] * len(by_q[q])) for q in sorted(by_q)]
    cols = {b.q: b.cols for b in blocks}
    index = [[0] * dim for dim in dims]  # local index of monomial m of u
    for b in blocks:
        for j, g in enumerate(b.generators):
            index[g.vertex][g.monomial] = j

    # d = sum of the edge maps: one OR per edge-map entry, since every
    # entry of d lies on exactly one edge; an edge map depends only on
    # the edge's shape, so each shape's columns are computed once
    edge_fn = (tqft.edge_columns_reduced if reduced
               else tqft.edge_columns_unreduced)
    shape_columns: dict[cube.EdgeCobordism, list[int]] = {}
    for i in range(n):
        step = 1 << i
        for u in range(1 << n):
            if u & step:
                continue
            w = u | step
            e = cube.edge_between(d, resolutions[u], resolutions[w], i)
            edge = shape_columns.get(e)
            if edge is None:
                edge = shape_columns[e] = edge_fn(e)
            src, dst, q0, dst_masks = index[u], index[w], top_q[u], q_masks[w]
            for t, mask in enumerate(edge):
                if not mask:
                    continue
                q = q0 - 2 * t.bit_count()
                if mask & ~dst_masks.get(q, 0):
                    raise GradingError(
                        f"edge from vertex {u} at crossing {i} does not "
                        f"preserve q on monomial {t}")
                acc = 0
                while mask:
                    s = mask.bit_length() - 1
                    acc |= 1 << dst[s]
                    mask ^= 1 << s
                cols[q][src[t]] |= acc
    return FilteredComplex(blocks)


def verify_d_squared(c: FilteredComplex) -> bool:
    """True iff the differential squares to zero."""
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
