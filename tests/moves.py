"""Reidemeister moves and the mirror on PD diagrams, for the invariance
tests: each builds new crossing tuples and validates them with
``from_crossings``.  The pipeline and ``kh`` never call them.
"""

from __future__ import annotations

from khss.diagram import PlanarDiagram, StructureError, from_crossings


def mirror(d: PlanarDiagram) -> PlanarDiagram:
    """Swap over and under at every crossing.  The signs negate when every
    component of ``d`` passes over somewhere; the mirror of one that does
    not passes only over, and is oriented as the ``khss.diagram``
    docstring says."""
    new_crossings = []
    for ci, (a, b, c, dd) in enumerate(d.crossings):
        if (d.incoming[ci] >> 3) & 1:  # over strand enters at slot d
            new_crossings.append((dd, a, b, c))
        else:
            new_crossings.append((b, c, dd, a))
    return from_crossings(new_crossings, d.unknotted_extras, d.basepoint)


def _on_unknot(d: PlanarDiagram, tuples, move: str) -> PlanarDiagram:
    """Draw the first crossingless component as ``tuples`` (labels from
    1), its arcs numbered after ``d``'s; it keeps the mark if it had it."""
    if d.unknotted_extras == 0:
        raise StructureError(f"no crossingless component to {move}")
    base = d.arc_count
    crossings = d.crossings + tuple(tuple(a + base for a in cr)
                                    for cr in tuples)
    bp = base + 1 if d.basepoint is None else d.basepoint
    return from_crossings(crossings, d.unknotted_extras - 1, bp)


def reidemeister1(d: PlanarDiagram, arc: int | None,
                  kink_sign: int) -> PlanarDiagram:
    """Add a kink of the given sign on an arc (None = first crossingless
    component).  Adds one crossing; writhe changes by kink_sign."""
    if kink_sign not in (+1, -1):
        raise ValueError("kink_sign must be +1 or -1")
    if arc is None:
        return _on_unknot(d, [(1, 1, 2, 2)] if kink_sign > 0
                          else [(1, 2, 2, 1)], "kink")

    if not 1 <= arc <= d.arc_count:
        raise StructureError(f"arc {arc} is not a valid arc")
    t1 = arc
    loop = d.arc_count + 1
    t2 = d.arc_count + 2
    crossings = _split_arc_heads(d, [(arc, t2)])
    if kink_sign > 0:
        crossings.append((t1, t2, loop, loop))
    else:
        crossings.append((t1, loop, loop, t2))
    return from_crossings(crossings, d.unknotted_extras, d.basepoint)


def _split_arc_heads(d: PlanarDiagram, pairs) -> list[tuple]:
    """Relabel the head occurrence of each arc (its incoming slot at the
    crossing it runs into) to the paired new label.

    The caller inserts new crossings between the tail and head pieces.
    Orientation comes from ``d`` itself, so all relabelings must be done
    in one pass before the diagram is rebuilt.
    """
    heads = {cr[slot]: (ci, slot) for ci, cr in enumerate(d.crossings)
             for slot in range(4) if (d.incoming[ci] >> slot) & 1}
    out = [list(cr) for cr in d.crossings]
    for arc, new_label in pairs:
        ci, slot = heads[arc]
        out[ci][slot] = new_label
    return [tuple(cr) for cr in out]


def reidemeister2(d: PlanarDiagram, arc_a: int | None,
                  arc_b: int | None = None) -> PlanarDiagram:
    """Poke arc_a over arc_b; adds two crossings of opposite sign.

    ``arc_a is None`` pokes a crossingless unknot component over itself
    (both arguments None), producing the 2-crossing unknot diagram.
    """
    if arc_a is None or arc_b is None:
        if not (arc_a is None and arc_b is None):
            raise StructureError("both arcs or neither must be None")
        # arc 1 = shared under-tail/over-head, 2 = over middle,
        # 4 = under middle, 3 = shared over-tail/under-head
        return _on_unknot(d, [(3, 2, 4, 3), (4, 2, 1, 1)], "poke")

    if arc_a == arc_b:
        raise StructureError("poke arcs must be distinct")
    for arc in (arc_a, arc_b):
        if not 1 <= arc <= d.arc_count:
            raise StructureError(f"arc {arc} is not a valid arc")
    a1, b1 = arc_a, arc_b
    m_a, a2 = d.arc_count + 1, d.arc_count + 2
    m_b, b2 = d.arc_count + 3, d.arc_count + 4
    crossings = _split_arc_heads(d, [(arc_a, a2), (arc_b, b2)])
    crossings.append((m_b, m_a, b2, a1))   # positive: a passes over b
    crossings.append((b1, m_a, m_b, a2))   # negative: a returns over b
    return from_crossings(crossings, d.unknotted_extras, d.basepoint)
