"""The cube of resolutions of a marked diagram.

A vertex is a 0/1 assignment to the crossings (stored as a bit mask);
smoothing the crossings partitions the arcs into circles.  Each edge
flips one crossing 0 -> 1 and is a merge or a split of circles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import PlanarDiagram, StructureError

Circle = frozenset  # of arc labels; crossingless extras get labels > arc_count


@dataclass(frozen=True)
class Resolution:
    """One cube vertex: smoothing choice plus its circle partition.

    Circles are canonically ordered: the marked circle first, remaining
    circles by minimal arc label.
    """

    u: int
    n_crossings: int
    circles: tuple[Circle, ...]
    marked_index: int

    @property
    def weight(self) -> int:
        return self.u.bit_count()

    @property
    def circle_count(self) -> int:
        return len(self.circles)


@dataclass(frozen=True)
class EdgeCobordism:
    """A cube edge: crossing flipped 0 -> 1, merge or split."""

    src: Resolution
    dst: Resolution
    crossing: int
    kind: str  # "merge" | "split"
    sources: tuple[int, ...]  # circle indices in src
    targets: tuple[int, ...]  # circle indices in dst


class _UnionFind:
    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[x] = p
        return p

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


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


def resolve(d: PlanarDiagram, u: int) -> Resolution:
    """Compute the circle partition of the smoothing ``u`` (bit mask)."""
    n = len(d.crossings)
    if u >> n:
        raise ValueError("smoothing has more bits than crossings")
    uf = _UnionFind()
    for arc in range(1, d.arc_count + 1):
        uf.find(arc)
    for ci, cr in enumerate(d.crossings):
        for x, y in smoothing_pairings(cr, (u >> ci) & 1):
            uf.union(x, y)
    groups: dict[int, set[int]] = {}
    for arc in range(1, d.arc_count + 1):
        groups.setdefault(uf.find(arc), set()).add(arc)
    circles = [Circle(g) for g in groups.values()]
    # crossingless unknot components are present in every resolution
    for i in range(d.unknotted_extras):
        circles.append(Circle({d.arc_count + 1 + i}))

    marked_arc = d.basepoint if d.basepoint is not None else d.arc_count + 1
    marked = [c for c in circles if marked_arc in c]
    if not marked:
        raise StructureError("basepoint arc missing from every circle")
    rest = sorted((c for c in circles if c is not marked[0]), key=min)
    ordered = (marked[0], *rest)
    return Resolution(u, n, ordered, 0)


def classify_edge(d: PlanarDiagram, u: int, crossing: int) -> EdgeCobordism:
    """Classify the edge flipping ``crossing`` at vertex ``u``."""
    if (u >> crossing) & 1:
        raise ValueError(f"crossing {crossing} already 1-smoothed")
    return edge_between(d, resolve(d, u), resolve(d, u | (1 << crossing)),
                        crossing)


def edge_between(d: PlanarDiagram, src: Resolution, dst: Resolution,
                 crossing: int) -> EdgeCobordism:
    """The edge from ``src`` to ``dst``, the resolutions on either side
    of ``crossing``, checked to be a local merge or split."""
    touched = set(d.crossings[crossing])
    sources = tuple(i for i, c in enumerate(src.circles) if c & touched)
    targets = tuple(i for i, c in enumerate(dst.circles) if c & touched)
    diff = dst.circle_count - src.circle_count
    if diff == -1 and len(sources) == 2 and len(targets) == 1:
        kind = "merge"
    elif diff == 1 and len(sources) == 1 and len(targets) == 2:
        kind = "split"
    else:
        # count jumps of != 1, or +-1 produced away from the crossing,
        # both mean the PD text has no planar realization
        raise StructureError("cube edge is not a local merge or split")
    return EdgeCobordism(src, dst, crossing, kind, sources, targets)

