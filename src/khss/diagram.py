"""Marked, oriented link diagrams in PD-code form.

A crossing ``X(a,b,c,d)`` lists the four arc labels counterclockwise
starting at the incoming under-strand ``a``; the under-strand runs
``a -> c``.  That fixes the direction of every component that passes
under somewhere.  A component with no under pass is oriented from slot
``b`` of its lowest-index crossing, so its over strand there runs
``b -> d``.  A crossing is positive when the over-strand crosses the
under-strand left to right as seen along the under-strand direction.

Crossingless unknot components cannot be encoded by X-tuples and are
written as standalone ``U`` tokens joined to the rest by ``+``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import cached_property


class ParseError(ValueError):
    """Malformed PD text; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        self.reason, self.position = message, position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class StructureError(ValueError):
    """Syntactically valid PD text describing an invalid diagram."""


@dataclass(frozen=True)
class PlanarDiagram:
    """An oriented marked link diagram.

    ``basepoint`` is an arc label, or None when the marked component is
    the first crossingless unknot component.  ``incoming`` records, per
    crossing, which slots hold the head of their arc (bit s set = slot s
    incoming), which fixes the direction of every strand.
    """

    crossings: tuple[tuple[int, int, int, int], ...]
    arc_count: int
    basepoint: int | None
    unknotted_extras: int
    signs: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]
    incoming: tuple[int, ...] = field(repr=False, default=())

    # cached: every ``filtered.build`` of the diagram reads n_minus and
    # writhe once, before its vertex loop
    @cached_property
    def n_plus(self) -> int:
        return sum(1 for s in self.signs if s > 0)

    @cached_property
    def n_minus(self) -> int:
        return sum(1 for s in self.signs if s < 0)

    @cached_property
    def writhe(self) -> int:
        return self.n_plus - self.n_minus

    def marked_component(self) -> tuple[int, ...] | None:
        """Arcs of the component carrying the basepoint (None for a
        crossingless marked component)."""
        if self.basepoint is None:
            return None
        for comp in self.components:
            if self.basepoint in comp:
                return comp
        raise StructureError("basepoint arc not on any component")

    def with_basepoint(self, basepoint: int | None) -> "PlanarDiagram":
        if basepoint is not None and not 1 <= basepoint <= self.arc_count:
            raise StructureError(f"basepoint {basepoint} is not a valid arc")
        if basepoint is None and self.unknotted_extras == 0:
            raise StructureError("no crossingless component to mark")
        return replace(self, basepoint=basepoint)


def from_crossings(crossings, extras: int = 0,
                   basepoint: int | None = None) -> PlanarDiagram:
    """Validate crossing tuples, trace components, and assign signs."""
    crossings = tuple(tuple(int(x) for x in c) for c in crossings)
    n = len(crossings)
    arc_count = 2 * n
    if n == 0 and extras == 0:
        raise StructureError("empty diagram")

    occurrences: dict[int, list[tuple[int, int]]] = {}
    for ci, cr in enumerate(crossings):
        if len(cr) != 4:
            raise StructureError(f"crossing {ci + 1} does not have 4 arcs")
        for slot, arc in enumerate(cr):
            if not 1 <= arc <= arc_count:
                raise StructureError(f"crossing {ci + 1}: arc {arc} out "
                                     f"of range 1..{arc_count}")
            occurrences.setdefault(arc, []).append((ci, slot))
    bad = sorted(a for a in range(1, arc_count + 1)
                 if len(occurrences.get(a, [])) != 2)
    if bad:
        counts = {a: len(occurrences.get(a, [])) for a in bad}
        raise StructureError(
            "arcs must appear exactly twice: " +
            ", ".join(f"arc {a} appears {c} time(s)"
                      for a, c in counts.items()))

    incoming, components = _walk_strands(crossings, occurrences)
    signs = tuple(_crossing_sign(mask) for mask in incoming)
    d = PlanarDiagram(crossings, arc_count, None, extras,
                      signs, components, incoming)
    return d.with_basepoint(1 if basepoint is None and n else basepoint)


def _walk_strands(crossings, occurrences):
    """Walk every strand once; return each crossing's incoming mask (bit
    s set = slot s incoming) and the components as arc cycles.

    A strand entering a crossing at slot s leaves at slot s ^ 2 and runs
    along that slot's arc into the arc's other occurrence.  Walks start
    at slot a of each crossing, then at slot b of each crossing whose
    over strand no walk has entered.  Each slot is entered from one slot
    only, so a walk closes at its start, and entering b or d opposite an
    entered slot needs the step before to have done so too: the one
    conflict is entering a slot c.
    """
    entered = [0] * len(crossings)
    succ: dict[int, int] = {}

    def walk(ci, slot):
        while not (entered[ci] >> slot) & 1:
            if slot == 2:
                raise StructureError(
                    f"unorientable diagram at crossing {ci + 1}")
            entered[ci] |= 1 << slot
            arc_in, arc = crossings[ci][slot], crossings[ci][slot ^ 2]
            succ[arc_in] = arc
            first, second = occurrences[arc]
            ci, slot = second if first == (ci, slot ^ 2) else first

    for ci in range(len(crossings)):
        walk(ci, 0)
    for ci in range(len(crossings)):
        if not entered[ci] & 0b1010:
            walk(ci, 1)

    seen: set[int] = set()
    components = []
    for start in sorted(succ):
        if start in seen:
            continue
        comp = []
        a = start
        while a not in seen:
            seen.add(a)
            comp.append(a)
            a = succ[a]
        components.append(tuple(comp))
    return tuple(entered), tuple(components)


def _crossing_sign(incoming_mask: int) -> int:
    # Over pair is slots 1 (east) and 3 (west); under points north.
    # West incoming means the over strand runs left to right: positive.
    return 1 if (incoming_mask >> 3) & 1 else -1


_X_RE = re.compile(r"X\((\d+),(\d+),(\d+),(\d+)\)")


def parse_pd(text: str) -> PlanarDiagram:
    """Parse PD text: ``PD[X(a,b,c,d),...]`` with optional ``+U`` unknot
    components and an optional ``@arc=<k>`` basepoint suffix.

    Whitespace is ignored; a ``ParseError`` position indexes ``text``.
    """
    # at[i]: the position in text of the i-th non-space character, and
    # at[-1] the end of the text
    at = [i for i, ch in enumerate(text) if not ch.isspace()]
    stripped = "".join(text[i] for i in at)
    at.append(len(text))
    if not stripped:
        raise ParseError("empty input", 0)

    basepoint = None
    body, sep, anno = stripped.partition("@")
    if sep:
        m = re.fullmatch(r"arc=(\d+)", anno)
        if not m:
            raise ParseError(f"bad basepoint annotation '@{anno}'",
                             at[len(body)])
        basepoint = int(m.group(1))
    if not body:
        raise ParseError("no diagram content", at[0])

    extras = 0
    pd_part = None
    start = 0
    for piece in body.split("+"):
        pos, start = start, start + len(piece) + 1
        if piece == "U":
            extras += 1
        elif piece.startswith("PD["):
            if pd_part is not None:
                raise ParseError("multiple PD[...] blocks", at[pos])
            pd_part, pd_pos = piece, pos
        elif piece == "":
            # the '+' after the empty component, or before it at the end
            raise ParseError("empty '+' component",
                             at[min(pos, len(body) - 1)])
        else:
            raise ParseError(f"unrecognized token '{piece[:20]}'", at[pos])

    crossings = []
    if pd_part is not None:
        end = pd_pos + len(pd_part) - 1  # the closing ']'
        if body[end] != "]":
            raise ParseError("expected PD[...]", at[end + 1])
        pos = pd_pos + 3
        while True:
            xm = _X_RE.match(body, pos, end)
            if not xm:
                raise ParseError("expected X(a,b,c,d)", at[pos])
            crossings.append(tuple(int(g) for g in xm.groups()))
            pos = xm.end()
            if pos == end:
                break
            if body[pos] != ",":
                raise ParseError("expected ','", at[pos])
            pos += 1
    if basepoint is not None and not 1 <= basepoint <= 2 * len(crossings):
        raise ParseError(f"basepoint {basepoint} is not a valid arc",
                         at[len(body)])
    return from_crossings(crossings, extras, basepoint)


def render(d: PlanarDiagram) -> str:
    """PD text that reparses to an identical diagram."""
    parts = []
    if d.crossings:
        parts.append("PD[" + ",".join(
            "X({},{},{},{})".format(*cr) for cr in d.crossings) + "]")
    parts.extend(["U"] * d.unknotted_extras)
    text = "+".join(parts)
    if d.basepoint is not None and d.basepoint != 1:
        text += f"@arc={d.basepoint}"
    elif d.basepoint is None and d.crossings:
        raise StructureError("cannot render crossingless basepoint "
                             "on a diagram with crossings")
    return text


def is_alternating(d: PlanarDiagram) -> bool:
    """True when every strand alternates over/under passes."""
    if not d.crossings:
        return True
    # under passes: slots 0/2; over passes: slots 1/3
    pass_kind: dict[int, bool] = {}  # arc -> True if its head pass is under
    for ci, cr in enumerate(d.crossings):
        mask = d.incoming[ci]
        for slot in range(4):
            if (mask >> slot) & 1:
                pass_kind[cr[slot]] = slot in (0, 2)
    for comp in d.components:
        kinds = [pass_kind[a] for a in comp]
        for i in range(len(kinds)):
            if kinds[i] == kinds[(i + 1) % len(kinds)]:
                return False
    return True


def load_corpus(path: str) -> list[tuple[str, PlanarDiagram]]:
    """Load a corpus CSV (``name,pdcode`` per line, ``#`` comments)."""
    entries: list[tuple[str, PlanarDiagram]] = []
    seen: dict[str, int] = {}
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            name, sep, pd_text = raw.partition(",")
            name = name.strip()
            if not sep or not name or not pd_text.strip():
                raise ParseError(f"line {lineno}: expected 'name,pdcode'")
            if name in seen:
                raise ParseError(
                    f"line {lineno}: duplicate name '{name}' "
                    f"(first defined on line {seen[name]})")
            seen[name] = lineno
            try:
                diagram = parse_pd(pd_text.rstrip())
            except StructureError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            except ParseError as exc:  # positions index the raw line
                raise ParseError(f"line {lineno}: {exc.reason}",
                                 exc.position + raw.index(",") + 1) from exc
            entries.append((name, diagram))
    return entries
