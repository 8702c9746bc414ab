"""The differential in the global layout, assembled vertex pair by vertex
pair from ``diagonal_map``: an oracle for the differential that
``filtered.build`` stores (its k = 1 entries), read through its block
view, and for the composite differential of ``d_oracle`` (every
entry).  The monotone paths that ``diagonal_map`` follows are listed
here too.

An entry is ``(k, (u, m), (v, n))``: the composite from vertex u to a
vertex v that differs from it at k crossings has coefficient 1 on
monomial n of v in the image of monomial m of u.  Read off the block
view of a complex, k is the h difference of the two generators instead,
so equal entry sets also check that each jump raises h by its crossing
count.
"""

from __future__ import annotations

from collections import Counter
from itertools import permutations
from math import comb

from block_view import block_view
from khss import cube, tqft
from khss.cube import Resolution
from khss.diagram import PlanarDiagram
from khss.filtered import FilteredComplex, marked_diagram

PATH_CAP = 6


def generator_gradings(d: PlanarDiagram, res: Resolution,
                       monomial: int) -> tuple[int, int]:
    """(h, q) of one basis monomial at one vertex of the reduced complex."""
    h = res.u.bit_count() - d.n_minus
    return h, res.circle_count - 1 - 2 * monomial.bit_count() + h + d.writhe


def monotone_path(u: int, v: int) -> list[int]:
    """The lexicographically smallest ordering of the crossings changed
    between u < v (indices in increasing order)."""
    if (u & v) != u:
        raise ValueError("not comparable")
    if u == v:
        return []
    diff = u ^ v
    out = []
    i = 0
    while diff:
        if diff & 1:
            out.append(i)
        diff >>= 1
        i += 1
    return out


def all_monotone_paths(u: int, v: int, cap: int = PATH_CAP) -> list[list[int]]:
    """All k! orderings of the changed crossings (k <= cap)."""
    base = monotone_path(u, v)
    if len(base) > cap:
        raise ValueError(f"path explosion: {len(base)} > cap {cap}")
    return [list(p) for p in permutations(base)]


def diagonal_map(d: PlanarDiagram, u: int, v: int, reduced: bool = True,
                 path: list[int] | None = None) -> list[int]:
    """Column masks of the composite map between the canonical bases of
    two comparable vertices, along a monotone path (lexicographic by
    default)."""
    if path is None:
        path = monotone_path(u, v)
    else:
        if sorted(path) != monotone_path(u, v):
            raise ValueError("path does not connect u to v")
    d = marked_diagram(d, reduced)
    cols = None
    w = u
    src = cube.resolve(d, u)
    for crossing in path:
        w |= 1 << crossing
        dst = cube.resolve(d, w)
        step = tqft.edge_columns_reduced(
            cube.edge_between(d, src, dst, crossing))
        cols = step if cols is None else tqft.compose_columns(cols, step)
        src = dst
    return cols


def bits(mask: int):
    while mask:
        top = mask.bit_length() - 1
        yield top
        mask ^= 1 << top


def diagonal_entries(d, reduced: bool) -> set:
    """Entries of every composite u -> v, u < v, one diagonal_map each."""
    n = len(d.crossings)
    out = set()
    for u in range(1 << n):
        for v in range(u + 1, 1 << n):
            if u & ~v:
                continue
            k = (u ^ v).bit_count()
            cols = diagonal_map(d, u, v, reduced)
            out.update((k, (u, m), (v, i))
                       for m, col in enumerate(cols) for i in bits(col))
    return out


def stored_entries(c) -> set:
    """Entries of the block view, with k the h difference."""
    out = set()
    for b in block_view(c).blocks:
        gens = b.generators
        for j, col in enumerate(b.cols):
            src = gens[j]
            for i in bits(col):
                dst = gens[i]
                out.add((dst.h - src.h, (src.vertex, src.monomial),
                         (dst.vertex, dst.monomial)))
    return out


def slice_faults(c: FilteredComplex) -> list[str]:
    """Where the slices of ``build`` break their layout: one column per
    monomial at (h, q) of the vertices (counted from their letters:
    C(L_u, k) at q = L_u + h + writhe - 2k), a slice at every (h, q) that
    has generators, and every column a mask over its target slice, keyed
    (h + 1, q)."""
    size: Counter = Counter()
    for u, letters in enumerate(c.letters):
        h = u.bit_count() - c.n_minus
        for k in range(letters + 1):
            size[h, letters + h + c.writhe - 2 * k] += comb(letters, k)
    faults = [f"(h, q) = {hq}: {n} generators and no slice"
              for hq, n in size.items() if hq not in c.slices]
    for (h, q), cols in c.slices.items():
        if size[h, q] != len(cols):
            faults.append(f"(h, q) = {h, q}: {size[h, q]} generators and "
                          f"{len(cols)} columns")
        rows = len(c.slices.get((h + 1, q), ()))
        if any(col >> rows for col in cols):
            faults.append(f"(h, q) = {h, q}: a column leaves its "
                          f"target slice")
    return faults


def layout_faults(d, reduced: bool, c) -> list[str]:
    """Where the block view breaks the layout: every monomial of every
    vertex appears once, in the block of its own q (gradings recomputed
    from the diagram), ordered by h, highest first; every column's
    support lies inside its own block at strictly higher h.  The slices
    of a ``FilteredComplex`` are checked by ``slice_faults`` too."""
    d = marked_diagram(d, reduced)
    resolutions = [cube.resolve(d, u) for u in range(1 << len(d.crossings))]
    faults = slice_faults(c) if isinstance(c, FilteredComplex) else []
    seen = set()
    count = 0
    for b in block_view(c).blocks:
        count += len(b.generators)
        h = b.h
        if any(x < y for x, y in zip(h, h[1:])):
            faults.append(f"q={b.q}: not ordered by h, highest first")
        for j, g in enumerate(b.generators):
            res = resolutions[g.vertex]
            if generator_gradings(d, res, g.monomial) != (g.h, b.q):
                faults.append(f"q={b.q}: {g} has other gradings")
            seen.add((g.vertex, g.monomial))
            col = b.cols[j]
            if col >> len(h):
                faults.append(f"q={b.q}: column {j} leaves its block")
            elif any(h[i] <= h[j] for i in bits(col)):
                faults.append(f"q={b.q}: column {j} does not raise h")
    expected = {(u, m) for u, res in enumerate(resolutions)
                for m in range(1 << (res.circle_count - 1))}
    if seen != expected or len(seen) != count:
        faults.append("generators are not the cube's monomials, once each")
    return faults
