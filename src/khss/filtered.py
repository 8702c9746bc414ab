"""The reduced filtered complex of a marked diagram, and the unreduced
one as a reduced complex.

The unreduced complex of L is the reduced complex of L with one more
crossingless component U, marked on U (Khovanov, "Patterns in knot
cohomology I", 2003; Shumakovitch, arXiv:math/0405474): no edge touches
U, so on the other circles the reduced edge rule is the unreduced one.
``build`` assembles both flavors on the one reduced path.

Generators are graded by (homological degree h, quantum degree q).  The
differential d is the sum of the edge maps over every cube edge, and
raises h by 1.  The paper's differential D adds the composites along
monotone paths; it gives the same pages (see ``spectral``).

Every edge map preserves q, so the complex is stored as one ``QBlock``
per quantum degree, with block-local indices.  Inside a block the
generators are ordered by h, highest first, and ``cols[j]`` is the
differential of local generator j: bit i is its coefficient on local
generator i of the same block.

A block lists its vertices by weight, highest first, and each vertex's
monomials in increasing order.  Monomial m of vertex u has the q of u's
monomial 0 minus 2|m|, |m| its count of letters x, so u's monomials in
one block are those with one count k: a contiguous run, increasing, and
m sits at the run's start plus its rank among the monomials with k
letters x.  An edge u -> w preserves q, so every target of a source
monomial t lies in the one run of w with |t| + (1 + L_w - L_u) / 2
letters x (L the letter count of a vertex).  In rank coordinates the
image of t depends only on the edge's shape, and writing it into the
block is one shift by the start of that run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

from . import cube, tqft
from .cube import Resolution
from .diagram import PlanarDiagram

DEFAULT_GENERATOR_CAP = 1 << 26


class SizeCapError(RuntimeError):
    """The diagram would produce more generators than the configured cap."""


class GradingError(RuntimeError):
    """Internal error: an edge map does not preserve the quantum degree."""


class KhGenerator(NamedTuple):
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
                       monomial: int) -> tuple[int, int]:
    """(h, q) of one basis monomial at one vertex of the reduced complex."""
    h = res.u.bit_count() - d.n_minus
    return h, res.circle_count - 1 - 2 * monomial.bit_count() + h + d.writhe


def marked_diagram(d: PlanarDiagram, reduced: bool) -> PlanarDiagram:
    """The diagram whose reduced complex is the complex of ``d`` in the
    given flavor: ``d`` itself, or ``d`` with one more crossingless
    component, marked.  Its circle 0 is that component, and the others
    follow by lowest arc.  ``render`` refuses it when ``d`` has
    crossings, so records and cache keys are made from ``d``."""
    if reduced:
        return d
    return replace(d, basepoint=None, unknotted_extras=d.unknotted_extras + 1)


def _letter_runs(letters: int) -> tuple[list[list[int]], list[int]]:
    """The monomials in ``letters`` letters grouped by how many are x,
    each group increasing, and the rank of every monomial in its group."""
    runs: list[list[int]] = [[] for _ in range(letters + 1)]
    rank = []
    for m in range(1 << letters):
        run = runs[m.bit_count()]
        rank.append(len(run))
        run.append(m)
    return runs, rank


def build(d: PlanarDiagram, reduced: bool = True,
          max_generators: int = DEFAULT_GENERATOR_CAP) -> FilteredComplex:
    """Assemble the filtered complex of a diagram: the reduced complex
    of ``marked_diagram(d, reduced)``."""
    d = marked_diagram(d, reduced)
    n = len(d.crossings)
    # every vertex has a generator, so the running count reaches a cap
    # below 2^n before the whole cube is resolved
    resolutions, total = [], 0
    for res in cube.walk(d):
        resolutions.append(res)
        total += 1 << (res.circle_count - 1)
        if total > max_generators:
            raise SizeCapError(
                f"complex needs more than {max_generators} generators")

    # vertices of larger weight first puts each block's h highest first;
    # base[u][k] is where the run of u's monomials with k letters x
    # starts in its block, run_cols[u][k] that block's columns
    by_letters: dict[int, tuple[list[list[int]], list[int]]] = {}
    by_q: dict[int, list[KhGenerator]] = {}
    top_q = [0] * (1 << n)
    base: list[list[int]] = [[] for _ in resolutions]
    for u in sorted(range(1 << n), key=lambda u: -u.bit_count()):
        res = resolutions[u]
        letters = res.circle_count - 1
        if letters not in by_letters:
            by_letters[letters] = _letter_runs(letters)
        h, top_q[u] = generator_gradings(d, res, 0)
        for k, run in enumerate(by_letters[letters][0]):
            q = top_q[u] - 2 * k
            gens = by_q.setdefault(q, [])
            base[u].append(len(gens))
            gens.extend(KhGenerator(u, m, h, q) for m in run)
    blocks = [QBlock(q, by_q[q], [0] * len(by_q[q])) for q in sorted(by_q)]
    cols = {b.q: b.cols for b in blocks}
    run_cols = [[cols[top_q[u] - 2 * k] for k in range(len(base[u]))]
                for u in range(1 << n)]

    def shape_terms(e: cube.EdgeCobordism, u: int, i: int):
        """(k, rank of t, k', target ranks as a mask) per source
        monomial t with k letters x.  q is preserved iff every target
        has k' = k + (1 + L_w - L_u) / 2 letters x, which depends on the
        shape alone, so checking it here checks every edge of it."""
        src_letters = e.circles - 1
        dst_letters = src_letters + (1 if e.kind == "split" else -1)
        shift = (1 + dst_letters - src_letters) // 2
        src_rank = by_letters[src_letters][1]
        dst_rank = by_letters[dst_letters][1]
        terms = []
        for t, mask in enumerate(tqft.edge_columns_reduced(e)):
            if not mask:
                continue
            k = t.bit_count()
            acc = 0
            while mask:
                s = mask.bit_length() - 1
                if s >> dst_letters or s.bit_count() != k + shift:
                    raise GradingError(
                        f"edge from vertex {u} at crossing {i} does not "
                        f"preserve q on monomial {t}")
                acc |= 1 << dst_rank[s]
                mask ^= 1 << s
            terms.append((k, src_rank[t], k + shift, acc))
        return terms

    # d = sum of the edge maps: one OR per source monomial of each edge,
    # since every entry of d lies on exactly one edge
    shapes: dict[cube.EdgeCobordism, list[tuple[int, int, int, int]]] = {}
    for i in range(n):
        step = 1 << i
        for u in range(1 << n):
            if u & step:
                continue
            w = u | step
            e = cube.edge_between(d, resolutions[u], resolutions[w], i)
            terms = shapes.get(e)
            if terms is None:
                terms = shapes[e] = shape_terms(e, u, i)
            src_cols, src_base, dst_base = run_cols[u], base[u], base[w]
            for k, r, k2, mask in terms:
                src_cols[k][src_base[k] + r] |= mask << dst_base[k2]
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
