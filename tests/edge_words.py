"""Cube edges as words in the unlink cobordism generators: the oracle
side of the edge-consistency checks.  A reduced edge map evaluated
through the stated generator matrices must equal
``tqft.edge_columns_reduced``.  Also the shape of an edge from the
circles of all four arcs of its crossing, the oracle of
``cube.edge_between``, and the unreduced edge map by the direct
merge/split rule, the oracle of ``tqft.edge_columns_unreduced``.
Last, the grading shift of a surface from its Euler characteristics,
the oracle of ``tqft.grading_shift_word``.
"""

from __future__ import annotations

from khss.cube import EdgeCobordism, Resolution, classify_edge, resolve
from khss.diagram import PlanarDiagram, StructureError
from khss.tqft import (Generator, GeneratorWord, GradingShift, evaluate_word,
                       letter_coproduct, letter_product)


def circle_arcs(res: Resolution) -> list[frozenset[int]]:
    """The arcs of each circle of a resolution, by circle index."""
    arcs: list[set[int]] = [set() for _ in range(res.circle_count)]
    for a, c in enumerate(res.labels[1:], start=1):
        arcs[c].add(a)
    return [frozenset(c) for c in arcs]


def edge_shape_by_sets(d: PlanarDiagram, src: Resolution, dst: Resolution,
                       crossing: int) -> EdgeCobordism:
    """The shape of the edge from ``src`` to ``dst``: the circles of the
    crossing's four arcs at either end, as sorted sets."""
    arcs = d.crossings[crossing]
    sources = tuple(sorted({src.labels[a] for a in arcs}))
    targets = tuple(sorted({dst.labels[a] for a in arcs}))
    diff = dst.circle_count - src.circle_count
    if diff == -1 and len(sources) == 2 and len(targets) == 1:
        kind = "merge"
    elif diff == 1 and len(sources) == 1 and len(targets) == 2:
        kind = "split"
    else:
        raise StructureError("cube edge is not a local merge or split")
    return EdgeCobordism(kind, src.circle_count, sources, targets)


def edge_as_generator_word(d: PlanarDiagram, u: int,
                           crossing: int) -> GeneratorWord:
    """Express the reduced cube edge flipping ``crossing`` at vertex
    ``u`` as swaps + one saddle generator + swaps, acting between the
    canonical circle orders.  Circles are tracked by their arc sets, not
    by the order rule of ``cube``."""
    e = classify_edge(d, u, crossing)
    n = e.circles
    src = circle_arcs(resolve(d, u))
    dst = circle_arcs(resolve(d, u | 1 << crossing))
    arrangement = list(src)
    word: list[Generator] = []

    def swap_to(key, slot):
        # bubble the circle with this identity to the given slot
        pos = arrangement.index(key)
        while pos > slot:
            word.append(Generator("X", len(arrangement), pos))
            # X_{i,n} swaps components i, i+1 = slots i-1, i; here i = pos
            arrangement[pos - 1], arrangement[pos] = (
                arrangement[pos], arrangement[pos - 1])
            pos -= 1
        while pos < slot:
            word.append(Generator("X", len(arrangement), pos + 1))
            arrangement[pos], arrangement[pos + 1] = (
                arrangement[pos + 1], arrangement[pos])
            pos += 1

    if e.kind == "merge":
        a, b = e.sources
        (t,) = e.targets
        if a == 0:  # merge involving the marked circle
            swap_to(src[b], 1)
            word.append(Generator("Lam", n))
            merged = [dst[t]]
            arrangement = merged + arrangement[2:]
        else:
            swap_to(src[a], 1)
            swap_to(src[b], 2)
            word.append(Generator("ILam", n))
            arrangement = [arrangement[0], dst[t]] + arrangement[3:]
    else:
        (s,) = e.sources
        t1, t2 = e.targets
        if s == 0:  # the marked circle splits
            word.append(Generator("V", n))
            new_unmarked = dst[t2 if t1 == 0 else t1]
            arrangement = [dst[0], new_unmarked] + arrangement[1:]
        else:
            swap_to(src[s], 1)
            word.append(Generator("IV", n))
            arrangement = [arrangement[0], dst[t1], dst[t2]] + arrangement[2:]

    # sort the arrangement into the target's canonical order
    for slot in range(1, len(dst)):
        swap_to(dst[slot], slot)
    return GeneratorWord(tuple(word))


def edge_word_columns(d: PlanarDiagram, u: int, crossing: int) -> list[int]:
    """Evaluate the generator word of an edge via the stated generator
    matrices (the oracle side of the edge-consistency check)."""
    return evaluate_word(edge_as_generator_word(d, u, crossing))


def unreduced_columns(e: EdgeCobordism) -> list[int]:
    """Column masks of the unreduced edge map on V^(tensor circles),
    every circle carrying a letter: the touched circles are merged or
    split by the Frobenius algebra, and the others keep their letters,
    paired in increasing index order (see ``cube``)."""
    merge = e.kind == "merge"
    s, t = e.sources, e.targets
    kept = list(zip(
        (i for i in range(e.circles) if i not in s),
        (j for j in range(e.circles + (-1 if merge else 1)) if j not in t)))
    cols = []
    for m in range(1 << e.circles):
        base = 0
        for i, j in kept:
            base |= ((m >> i) & 1) << j
        if merge:
            p = letter_product((m >> s[0]) & 1, (m >> s[1]) & 1)
            terms = () if p is None else (base | p << t[0],)
        else:
            terms = [base | a << t[0] | b << t[1]
                     for a, b in letter_coproduct((m >> s[0]) & 1)]
        acc = 0
        for x in terms:
            acc ^= 1 << x
        cols.append(acc)
    return cols


def grading_shift_surface(chi_f: int, chi_rplus: int,
                          chi_rminus: int) -> GradingShift:
    """Shift from Euler characteristics of the surface and its positive
    and negative decoration regions."""
    a2 = chi_rplus - chi_rminus
    m2 = chi_f + a2
    return GradingShift(a2, m2)
