"""The cube of resolutions of a marked diagram.

A vertex is a 0/1 assignment to the crossings (stored as a bit mask);
smoothing the crossings partitions the arcs into circles.  Each edge
flips one crossing 0 -> 1 and is a merge or a split of circles.

A resolution names its circles by index: ``labels[a]`` is the index of
the circle through arc ``a`` (crossingless extras are the arcs past
``arc_count``; ``labels[0]`` is -1, there is no arc 0).  The order is
canonical: the marked circle is 0, the rest follow by lowest arc.  A
circle the flipped crossing does not touch has the same arcs at both
ends of an edge, so those circles keep their relative order, and the
edge maps pair them up in increasing index order.

``walk`` resolves every vertex in one recursive depth-first search over
the crossings, crossing 0 deepest, so the vertices come in increasing
order.  Its union-find merges by size and never compresses paths, so a
crossing's unions are undone exactly once its subtree is done.
``resolve`` computes one vertex from scratch; both number the circles
with ``_resolution``.

An edge is therefore described by its shape alone: merge or split, the
source's circle count, and the indices of the circles the crossing
touches at either end.  Its edge map is a function of that shape, so
edges of the same shape share one map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .diagram import PlanarDiagram, StructureError


@dataclass(frozen=True)
class Resolution:
    """One cube vertex: smoothing choice and the circle of every arc."""

    u: int
    circle_count: int
    labels: tuple[int, ...]


class EdgeCobordism(NamedTuple):
    """The shape of a cube edge, all that its edge map depends on."""

    kind: str  # "merge" | "split"
    circles: int  # circle count of the source
    sources: tuple[int, ...]  # touched circle indices in the source
    targets: tuple[int, ...]  # touched circle indices in the target


def smoothing_pairings(crossing: tuple[int, int, int, int],
                       bit: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Arc identifications of one smoothed crossing.

    The 0-smoothing of X(a,b,c,d) joins (a,b) and (c,d); the
    1-smoothing joins (a,d) and (b,c).
    """
    a, b, c, d = crossing
    if bit == 0:
        return (a, b), (c, d)
    return (a, d), (b, c)


def _resolution(d: PlanarDiagram, u: int, roots: list[int]) -> Resolution:
    """Number the circles of vertex ``u`` from the union-find root of
    every arc: the marked circle is 0, the rest follow by lowest arc."""
    marked = d.basepoint if d.basepoint is not None else d.arc_count + 1
    if not 0 < marked < len(roots):
        raise StructureError("basepoint arc missing from every circle")
    number = {roots[marked]: 0}  # root -> circle index, new roots in arc order
    labels = [number.setdefault(r, len(number)) for r in roots[1:]]
    return Resolution(u, len(number), (-1, *labels))


def resolve(d: PlanarDiagram, u: int) -> Resolution:
    """Compute the circle labels of the smoothing ``u`` (bit mask)."""
    if u >> len(d.crossings):
        raise ValueError("smoothing has more bits than crossings")
    parent = list(range(d.arc_count + d.unknotted_extras + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ci, cr in enumerate(d.crossings):
        for x, y in smoothing_pairings(cr, (u >> ci) & 1):
            parent[find(x)] = find(y)
    return _resolution(d, u, [find(a) for a in range(len(parent))])


def walk(d: PlanarDiagram) -> Iterator[Resolution]:
    """The resolution of every vertex, in increasing order of ``u``."""
    parent = list(range(d.arc_count + d.unknotted_extras + 1))
    size = [1] * len(parent)
    arcs = range(len(parent))
    pairings = [(smoothing_pairings(cr, 0), smoothing_pairings(cr, 1))
                for cr in d.crossings]

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    def visit(i: int, u: int) -> Iterator[Resolution]:
        if i < 0:
            yield _resolution(d, u, [find(a) for a in arcs])
            return
        for bit in (0, 1):
            done = []
            for x, y in pairings[i][bit]:
                rx, ry = find(x), find(y)
                if rx != ry:
                    if size[rx] < size[ry]:
                        rx, ry = ry, rx
                    parent[ry] = rx
                    size[rx] += size[ry]
                    done.append((rx, ry))
            yield from visit(i - 1, u | bit << i)
            for rx, ry in reversed(done):
                parent[ry] = ry
                size[rx] -= size[ry]

    return visit(len(d.crossings) - 1, 0)


def classify_edge(d: PlanarDiagram, u: int, crossing: int) -> EdgeCobordism:
    """The shape of the edge flipping ``crossing`` at vertex ``u``."""
    if (u >> crossing) & 1:
        raise ValueError(f"crossing {crossing} already 1-smoothed")
    return edge_between(d, resolve(d, u), resolve(d, u | (1 << crossing)),
                        crossing)


def edge_between(d: PlanarDiagram, src: Resolution, dst: Resolution,
                 crossing: int) -> EdgeCobordism:
    """The shape of the edge from ``src`` to ``dst``, the resolutions on
    either side of ``crossing``, checked to be a local merge or split.

    For X(a,b,c,d) the 0-smoothing joins a~b and c~d, so the source
    circles touched are those of a and c; the 1-smoothing joins a~d and
    b~c, so the target circles touched are those of a and b."""
    a, b, c, _ = d.crossings[crossing]
    s, s2 = src.labels[a], src.labels[c]
    t, t2 = dst.labels[a], dst.labels[b]
    diff = dst.circle_count - src.circle_count
    if diff == -1 and s != s2 and t == t2:
        return EdgeCobordism("merge", src.circle_count,
                             (s, s2) if s < s2 else (s2, s), (t,))
    if diff == 1 and s == s2 and t != t2:
        return EdgeCobordism("split", src.circle_count, (s,),
                             (t, t2) if t < t2 else (t2, t))
    # count jumps of != 1, or +-1 produced away from the crossing, both
    # mean the PD text has no planar realization
    raise StructureError("cube edge is not a local merge or split")
