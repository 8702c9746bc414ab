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

Every edge map preserves q, so d maps the generators at (h, q) into
those at (h + 1, q) alone, and ``build`` stores the complex as a
read-only map from (h, q) to a tuple of columns: column j is the
differential of local generator j, bit i its coefficient on local
generator i of the slice keyed (h + 1, q).  A column is then only as
wide as its target slice.  The map keeps no order, and refuses every
write.  ``FilteredComplex.reduction`` walks it once, reducing each
slice to a basis of its image and checking d^2 = 0 on it, and keeps the
verdict and the ranks that ``verify_d_squared`` and ``compute`` read.

A slice holds only its columns: its generators follow from the
letter count L_u of every vertex u and the diagram's n_minus and
writhe, which the complex keeps.  Vertex u has h = |u| - n_minus, and
its monomial m has q = L_u + h + writhe - 2|m|, |m| its count of
letters x, so the monomials of u at one q are exactly one run: those
with k = (L_u + h + writhe - q) / 2 letters x, in increasing order.
The slice (h, q) holds the runs of the vertices with |u| = h + n_minus,
by increasing vertex, and m sits at its run's start plus its rank among
the monomials with k letters x (``_letter_runs``); ``generators`` yields
them in that order, slice by slice in the map's order.  An edge
u -> w preserves q, so every target of a source monomial t lies in the
one run of w with |t| + (1 + L_w - L_u) / 2 letters x.  In rank
coordinates the image of t depends only on the edge's shape, and
writing it into the target slice is one shift by the start of that
run.  ``build`` keys an edge by what its shape is read from: four
circle labels, two letter counts.  Neither a key's shape nor a shape's
image depends on the diagram, so both tables last as long as the
process, one of each per edge rule: a shape is computed and q-checked
once, a key classified once, and every later ``build`` reads them from
there.  A key or shape that fails is never stored, so every build
meets it again.

The edge pass is vertex-major (u increasing, then every crossing where
u has a 0): all of u's out-edges OR into u's columns while they are in
cache, where crossing-major took 1.2-1.6x as long at 11-16 crossings
(CPython 3.11, x86-64), and a ``GradingError`` names the first bad edge
in (vertex, crossing) order.  Every in-edge of u starts lower, so
``build`` drops u's layout once u's out-edges are written.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from itertools import repeat
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, NamedTuple

from . import cube, tqft
from .cube import SizeCapError  # noqa: F401  (raised by the walk in build)
from .diagram import PlanarDiagram

DEFAULT_GENERATOR_CAP = 1 << 26


class GradingError(RuntimeError):
    """Internal error: an edge map does not preserve the quantum degree."""


class KhGenerator(NamedTuple):
    vertex: int     # cube vertex bit mask
    monomial: int   # letter bits over the vertex's canonical circles
    h: int
    q: int


@dataclass(frozen=True)
class FilteredComplex:
    """The complex ``build`` gives: a read-only map from (h, q) to the
    column tuple of its slice, in no set order, the letter count of every
    vertex's monomials, and the marked diagram's n_minus and writhe, which
    grade them.  Whatever it is given, it keeps tuples alone."""

    slices: Mapping[tuple[int, int], tuple[int, ...]]
    letters: tuple[int, ...]
    n_minus: int
    writhe: int

    def __post_init__(self):
        object.__setattr__(self, "slices", MappingProxyType(
            {hq: tuple(cols) for hq, cols in self.slices.items()}))
        object.__setattr__(self, "letters", tuple(self.letters))

    @functools.cached_property
    def reduction(self) -> tuple[bool, Mapping[tuple[int, int], int]]:
        """(d^2 = 0, {(h, q): rank of d out of the slice}) from one walk,
        each q's slices by increasing h; ``ValueError`` on every read if
        a column leaves its target (an exception is not cached).  Each
        slice is reduced to a basis of its image, skipping the columns at
        the pivot rows of (h - 1, q) (clearing: Chen and Kerber,
        "Persistent homology computation with a twist", 2011): a reduced
        column of (h - 1, q) with pivot j is d of something, so once d is
        checked zero on it, column j is a sum of earlier ones.  After a
        first nonzero composite the walk only reduces, so the ranks are
        always whole."""
        slices, rank, ok = self.slices, {}, True
        below: dict[int, int] = {}  # the pivots of the slice reduced last
        for h, q in sorted(slices, key=lambda hq: (hq[1], hq[0])):
            cols, target = slices[h, q], slices.get((h + 1, q), ())
            if max(map(int.bit_length, cols), default=0) > len(target):
                raise ValueError("differential does not raise h")
            below = tqft.reduce_columns(
                cols, below if (h - 1, q) in slices else ())
            ok = ok and not any(tqft.compose_columns(below.values(), target))
            rank[h, q] = len(below)
        return ok, MappingProxyType(rank)

    @property
    def generators(self) -> Iterator[KhGenerator]:
        """Yields every generator, slice by slice, derived afresh from
        the letters on every read (the pipeline reads the slices).
        Vertex u of slice (h, q) has a run iff 0 <= (L_u + top) / 2 <=
        L_u, top being h + writhe - q, that is iff L_u >= |top|: |u| + L_u
        has one parity over the cube (an edge adds 1 to |u| and 1 or -1
        to L_u), so the halving is exact."""
        letters = self.letters
        level: dict[int, list[int]] = {}
        for u in range(len(letters)):
            level.setdefault(u.bit_count() - self.n_minus, []).append(u)
        runs = [_letter_runs(k)[0]
                for k in range(max(letters, default=0) + 1)]
        for h, q in self.slices:
            top = h + self.writhe - q
            least, at_h, at_q = abs(top), repeat(h), repeat(q)
            for u in level[h]:
                k_max = letters[u]
                if k_max >= least:
                    run = runs[k_max][(k_max + top) >> 1]
                    yield from map(KhGenerator, repeat(u), run, at_h, at_q)

    @property
    def n_generators(self) -> int:
        return sum(map(len, self.slices.values()))

    @property
    def components(self) -> dict[int, dict[tuple[int, int, int], int]]:
        """Jump k -> {(h, q, local column) -> mask}: the stored nonzero
        columns, all at jump 1 (the benchmark's size counters read
        this view)."""
        return {1: {(h, q, j): col for (h, q), cols in self.slices.items()
                    for j, col in enumerate(cols) if col}}


def marked_diagram(d: PlanarDiagram, reduced: bool) -> PlanarDiagram:
    """The diagram whose reduced complex is the complex of ``d`` in the
    given flavor: ``d`` itself, or ``d`` with one more crossingless
    component, marked.  Its circle 0 is that component, and the others
    follow by lowest arc.  ``render`` refuses it when ``d`` has
    crossings, so records and cache keys are made from ``d``."""
    if reduced:
        return d
    return replace(d, basepoint=None, unknotted_extras=d.unknotted_extras + 1)


@functools.cache
def _letter_runs(letters: int) -> tuple[tuple[tuple[int, ...], ...],
                                        tuple[int, ...]]:
    """The monomials in ``letters`` letters grouped by how many are x,
    each group increasing, and the rank of every monomial in its group."""
    runs: list[list[int]] = [[] for _ in range(letters + 1)]
    rank = []
    for m in range(1 << letters):
        run = runs[m.bit_count()]
        rank.append(len(run))
        run.append(m)
    return tuple(map(tuple, runs)), tuple(rank)


_Term = tuple[int, int, int, int]

# one copy of every term: shapes share most of theirs (on six 11- and
# 12-crossing closures, 2,532 distinct terms among 10,461)
_INTERNED_TERMS: dict[_Term, _Term] = {}


@functools.cache
def _shape_terms(rule: Callable[[cube.EdgeCobordism], list[int]],
                 e: cube.EdgeCobordism) -> tuple[_Term, ...]:
    """The edge map of shape ``e`` under ``rule`` in rank coordinates:
    (k, rank of t, k', target ranks as a mask) per source monomial t
    with k letters x.  q is preserved iff every target has
    k' = k + (1 + L_w - L_u) / 2 letters x, which depends on the shape
    alone, so checking it here checks every edge of it.  The table
    lasts as long as the process; a rule that breaks q raises on every
    call, since an exception is not cached."""
    src_letters = e.circles - 1
    dst_letters = src_letters + (1 if e.kind == "split" else -1)
    shift = (1 + dst_letters - src_letters) // 2
    src_rank = _letter_runs(src_letters)[1]
    dst_rank = _letter_runs(dst_letters)[1]
    terms = []
    for t, mask in enumerate(rule(e)):
        if not mask:
            continue
        k = t.bit_count()
        acc = 0
        while mask:
            s = mask.bit_length() - 1
            if s >> dst_letters or s.bit_count() != k + shift:
                raise GradingError(f"does not preserve q on monomial {t}")
            acc |= 1 << dst_rank[s]
            mask ^= 1 << s
        term = (k, src_rank[t], k + shift, acc)
        terms.append(_INTERNED_TERMS.setdefault(term, term))
    return tuple(terms)


# rule -> {edge key: its shape's terms}, as long as the process: a key
# (four circle labels, two letter counts) names its shape without the
# diagram, and a key whose shape fails is never stored
_EDGE_TERMS: dict[Callable, dict[tuple[int, ...], tuple[_Term, ...]]] = {}


def build(d: PlanarDiagram, reduced: bool = True,
          max_generators: int = DEFAULT_GENERATOR_CAP) -> FilteredComplex:
    """Assemble the filtered complex of a diagram: the reduced complex
    of ``marked_diagram(d, reduced)``."""
    d = marked_diagram(d, reduced)
    labels, circles = cube.walk(d, max_generators)
    letters = [c - 1 for c in circles]

    # vertex u has h = |u| - n_minus, and its run of monomials with k
    # letters x sits at (h, L_u + h + writhe - 2k): a vertex class
    # (h, L_u) names the slices of its runs once, with a run of zeros to
    # extend each by, and its vertices share one list of those slices'
    # columns.  base[u][k] is where u's run with k letters x starts in
    # its slice.
    slices: dict[tuple[int, int], list[int]] = {}
    classes, base, run_cols = {}, [], []
    n_minus, writhe = d.n_minus, d.writhe
    for u, k_max in enumerate(letters):
        h = u.bit_count() - n_minus
        cls = classes.get((h, k_max))
        if cls is None:  # ((columns, zero run) per k, the columns)
            top_q = k_max + h + writhe
            spans = [(slices.setdefault((h, top_q - 2 * k), []),
                      [0] * len(run))
                     for k, run in enumerate(_letter_runs(k_max)[0])]
            cls = classes[h, k_max] = (spans, [cols for cols, _ in spans])
        starts = []
        for cols, zeros in cls[0]:
            starts.append(len(cols))
            cols += zeros
        base.append(starts)
        run_cols.append(cls[1])

    # d = sum of the edge maps: one OR per source monomial of each edge,
    # since every entry of d lies on exactly one edge; vertex by vertex,
    # so u's columns stay in cache and a GradingError names the first bad
    # edge in (vertex, crossing) order
    rule = tqft.edge_columns_reduced
    keyed = _EDGE_TERMS.setdefault(rule, {})
    steps = [(i, 1 << i, a, b, c)
             for i, (a, b, c, _) in enumerate(d.crossings)]
    for u, (src, src_letters, src_cols, src_base) in enumerate(
            zip(labels, letters, run_cols, base)):
        for i, step, a, b, c in steps:
            if u & step:
                continue
            w = u | step
            dst = labels[w]
            key = (src[a], src[c], dst[a], dst[b], src_letters, letters[w])
            terms = keyed.get(key)
            if terms is None:  # a new key: classify, then look up its shape
                e = cube.edge_shape(*key[:4], key[4] + 1, key[5] + 1)
                try:
                    terms = keyed[key] = _shape_terms(rule, e)
                except GradingError as exc:
                    raise GradingError(f"edge from vertex {u} at crossing "
                                       f"{i} {exc}") from None
            dst_base = base[w]
            for k, r, k2, mask in terms:
                src_cols[k][src_base[k] + r] |= mask << dst_base[k2]
        # every in-edge of u starts lower: u's layout is read no more
        base[u] = labels[u] = None
    # the map is the lists' last holder: each is freed as its tuple is
    # made, so the columns are never held twice
    del classes, run_cols, cls, spans, cols, src_cols
    for hq, cols in slices.items():
        slices[hq] = tuple(cols)
    return FilteredComplex(slices, letters, n_minus, writhe)


def verify_d_squared(c: FilteredComplex) -> bool:
    """True iff the differential squares to zero: ``c.reduction``'s
    verdict, and False where a column leaves its target slice."""
    try:
        return c.reduction[0]
    except ValueError:
        return False
