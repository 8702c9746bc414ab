"""det(K) of an alternating knot diagram from its Tait graph.

The faces are traced from the PD slots alone: leave a crossing along
the arc in one slot, arrive at that arc's other slot j, and leave again
from slot j - 1 (mod 4).  Each step passes one corner, the corner of a
crossing between slots i and i + 1; a face is one orbit of corners, and
a connected diagram of n crossings has n + 2 faces.

Shade the faces whose corners sit at even slots.  The corners around a
crossing then alternate, and in an alternating diagram every face has
corners of one parity only.  The Tait graph has one vertex per shaded
face and one edge per crossing, between the faces of its corners 0 and
2.  For an alternating diagram its Laplacian is the Goeritz matrix, so
det(K) is its number of spanning trees: any cofactor of the Laplacian,
here by exact elimination over the rationals.

This shares no code with the pipeline; it reads only the crossing tuples.
"""

from fractions import Fraction


def faces(crossings) -> list[list[tuple[int, int]]]:
    """The faces of the diagram, each a list of corners (c, i): the
    corner of crossing c between slots i and i + 1 (mod 4)."""
    slots: dict[int, list[tuple[int, int]]] = {}
    for c, cr in enumerate(crossings):
        for i, arc in enumerate(cr):
            slots.setdefault(arc, []).append((c, i))
    other = {}
    for first, second in slots.values():
        other[first], other[second] = second, first
    unseen, found = {(c, i) for c in range(len(crossings))
                     for i in range(4)}, []
    while unseen:
        corner = min(unseen)
        face = []
        while corner in unseen:
            unseen.remove(corner)
            face.append(corner)
            c, j = other[corner]
            corner = (c, (j - 1) % 4)
        found.append(face)
    assert len(found) == len(crossings) + 2, "diagram is not planar"
    return found


def tait_graph(crossings) -> tuple[int, list[tuple[int, int]]]:
    """The shaded faces' count and one edge per crossing between them,
    the faces numbered from 0."""
    shaded = []
    for face in faces(crossings):
        parities = {i % 2 for _, i in face}
        assert len(parities) == 1, "diagram is not alternating"
        if parities == {0}:
            shaded.append(face)
    face_of = {corner: v for v, face in enumerate(shaded) for corner in face}
    return len(shaded), [(face_of[c, 0], face_of[c, 2])
                         for c in range(len(crossings))]


def spanning_trees(vertices: int, edges: list[tuple[int, int]]) -> int:
    """The number of spanning trees of a multigraph: the determinant of
    its Laplacian without the last row and column.  Loops count nothing."""
    m = vertices - 1
    lap = [[Fraction(0)] * m for _ in range(m)]
    for x, y in edges:
        if x == y:
            continue
        for a, b in ((x, y), (y, x)):
            if a < m:
                lap[a][a] += 1
                if b < m:
                    lap[a][b] -= 1
    det = Fraction(1)
    for k in range(m):
        pivot = next((r for r in range(k, m) if lap[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            lap[k], lap[pivot] = lap[pivot], lap[k]
            det = -det
        det *= lap[k][k]
        for r in range(k + 1, m):
            factor = lap[r][k] / lap[k][k]
            if factor:
                for col in range(k, m):
                    lap[r][col] -= factor * lap[k][col]
    return int(det)


def determinant(crossings) -> int:
    """det(K) of an alternating knot diagram, the number of spanning
    trees of its Tait graph."""
    return spanning_trees(*tait_graph(crossings))
