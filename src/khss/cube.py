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

``walk`` resolves every vertex in one depth-first loop over an explicit
stack of the crossings, crossing 0 deepest, into two flat lists by
increasing vertex: labels and circle counts.  A stack entry holds the
root of every arc as one character of an immutable string, the root of
a class being its lowest arc; smoothing a crossing replaces the higher
of two roots by the lower, so each child gets its own string, nothing
is undone, and equal arc partitions give equal strings.  A vertex
numbers its circles without a find, and only the first vertex of each
partition does: the later ones share its labels tuple.  It counts
generators at every vertex, so a size cap stops it at the vertex that
passes the cap.  ``resolve`` computes one vertex from scratch with a
union-find, as a ``Resolution``.

An edge is therefore described by its shape alone: merge or split, the
source's circle count, and the indices of the circles the crossing
touches at either end.  Its edge map is a function of that shape, so
edges of the same shape share one map.
"""

from __future__ import annotations

import sys
from operator import itemgetter
from typing import NamedTuple

from .diagram import PlanarDiagram, StructureError


class SizeCapError(RuntimeError):
    """The diagram would produce more generators than the configured cap."""


class Resolution(NamedTuple):
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


def _marked_arc(d: PlanarDiagram, arcs: int) -> int:
    """The arc of the marked circle, checked to be one of ``arcs``."""
    marked = d.basepoint if d.basepoint is not None else d.arc_count + 1
    if not 0 < marked < arcs:
        raise StructureError("basepoint arc missing from every circle")
    return marked


def resolve(d: PlanarDiagram, u: int) -> Resolution:
    """Compute the circle labels of the smoothing ``u`` (bit mask)."""
    if u >> len(d.crossings):
        raise ValueError("smoothing has more bits than crossings")
    parent = list(range(d.arc_count + d.unknotted_extras + 1))
    marked = _marked_arc(d, len(parent))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ci, cr in enumerate(d.crossings):
        for x, y in smoothing_pairings(cr, (u >> ci) & 1):
            parent[find(x)] = find(y)
    roots = [find(a) for a in range(len(parent))]
    # root -> circle index, the roots in order of first arc
    first = dict.fromkeys([roots[0], roots[marked], *roots])
    return Resolution(u, len(first) - 1, itemgetter(*roots)(
        dict(zip(first, range(-1, len(first))))))


def walk(d: PlanarDiagram, max_generators: float = float("inf")
         ) -> tuple[list[tuple[int, ...]], list[int]]:
    """The labels and the circle count of every vertex, by increasing
    ``u``; vertices with one arc partition share one labels tuple, as
    the circles are numbered once a partition.  Raises ``SizeCapError``
    before the walk if the cube has more generators than
    ``max_generators`` by a lower bound, else at the first vertex that
    takes the generators walked, 2^(circles - 1) a vertex, past it."""
    n = len(d.crossings)
    cap = min(max_generators, sys.maxsize)  # a list holds no more labels
    # every vertex has each extra as a circle, and one more through the
    # crossings if there are any
    if 1 << n + d.unknotted_extras - (n == 0) > cap:
        raise SizeCapError(
            f"complex needs more than {max_generators} generators")
    arcs = d.arc_count + d.unknotted_extras + 1
    marked = _marked_arc(d, arcs)
    pairings = [(smoothing_pairings(cr, 1), smoothing_pairings(cr, 0))
                for cr in d.crossings]
    labels, circles, total = [], [], 0  # total: generators walked
    # roots -> (labels, circle count, generators), one per partition
    numbered: dict[str, tuple[tuple[int, ...], int, int]] = {}
    # (next crossing, the root of every arc, one character each): the
    # 1-smoothing is pushed first, so u increases with crossing 0 deepest
    stack = [(n - 1, "".join(map(chr, range(arcs))))]
    while stack:
        i, roots = stack.pop()
        if i >= 0:
            for pairs in pairings[i]:
                joined = roots
                for x, y in pairs:
                    rx, ry = joined[x], joined[y]
                    if rx != ry:  # keep the lower root, the lowest arc
                        joined = (joined.replace(ry, rx) if rx < ry
                                  else joined.replace(rx, ry))
                stack.append((i - 1, joined))
            continue
        seen = numbered.get(roots)
        if seen is None:  # number the circles as ``resolve`` does
            first = dict.fromkeys([roots[0], roots[marked], *roots])
            seen = numbered[roots] = (
                itemgetter(*roots)(dict(zip(first, range(-1, len(first))))),
                len(first) - 1, 1 << (len(first) - 2))
        labels.append(seen[0])
        circles.append(seen[1])
        total += seen[2]
        if total > max_generators:
            raise SizeCapError(
                f"complex needs more than {max_generators} generators")
    return labels, circles


def classify_edge(d: PlanarDiagram, u: int, crossing: int) -> EdgeCobordism:
    """The shape of the edge flipping ``crossing`` at vertex ``u``."""
    if (u >> crossing) & 1:
        raise ValueError(f"crossing {crossing} already 1-smoothed")
    return edge_between(d, resolve(d, u), resolve(d, u | (1 << crossing)),
                        crossing)


def edge_between(d: PlanarDiagram, src: Resolution, dst: Resolution,
                 crossing: int) -> EdgeCobordism:
    """The shape of the edge from ``src`` to ``dst``, the resolutions on
    either side of ``crossing``."""
    a, b, c, _ = d.crossings[crossing]
    return edge_shape(src.labels[a], src.labels[c], dst.labels[a],
                      dst.labels[b], src.circle_count, dst.circle_count)


def edge_shape(s: int, s2: int, t: int, t2: int,
               circles: int, circles2: int) -> EdgeCobordism:
    """The shape of an edge at X(a,b,c,d) from the circles of a and c
    in the source, of a and b in the target, and the circle counts of
    both, checked to be a local merge or split.

    The 0-smoothing joins a~b and c~d, so the source circles touched
    are those of a and c; the 1-smoothing joins a~d and b~c, so the
    target circles touched are those of a and b."""
    diff = circles2 - circles
    if diff == -1 and s != s2 and t == t2:
        return EdgeCobordism("merge", circles,
                             (s, s2) if s < s2 else (s2, s), (t,))
    if diff == 1 and s == s2 and t != t2:
        return EdgeCobordism("split", circles, (s,),
                             (t, t2) if t < t2 else (t2, t))
    # count jumps of != 1, or +-1 produced away from the crossing, both
    # mean the PD text has no planar realization
    raise StructureError("cube edge is not a local merge or split")
