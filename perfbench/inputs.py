"""Seeded inputs of the benchmark workloads.

Braid inputs are random words of a fixed (crossings, strands) class,
closed with ``tools/gen_corpus.braid_closure_pd``.  A word is rejected
when a letter sits next to its inverse (cyclically, since the closure
joins the last letter to the first), when its closure has more than one
component, or when the reduced complex of the closure would not have the
class's generator count.  Fixing the generator count is what makes a run
on another seed do the same amount of work: at a fixed crossing number
the count still ranges over a factor of four, and build, d^2 and memory
scale with it.

The generator count is computed here from the PD crossings with a
union-find over the cube of resolutions, without any ``khss`` code, so
it doubles as an independent check of the cube layer.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass

from gen_corpus import ENTRIES, braid_closure_pd

# (crossings, strands, reduced generator count, how many diagrams)
BRAID_COMPLEX_MIX = [(11, 4, 23703, 2), (11, 4, 24279, 2), (12, 3, 25737, 2)]
PROBE_MIX = [(8, 3, 801, 10), (8, 3, 921, 10), (8, 3, 1029, 10)]
MAX_DRAWS = 50_000

_X_RE = re.compile(r"X\((\d+),(\d+),(\d+),(\d+)\)")


@dataclass(frozen=True)
class Case:
    """One (diagram, flavor) evaluation of a workload."""

    name: str
    pd: str
    reduced: bool
    word: tuple[int, ...] | None = None  # None for the bundled corpus
    strands: int = 0

    @property
    def flavor(self) -> str:
        return "reduced" if self.reduced else "unreduced"


def pd_crossings(pd: str) -> tuple[list[tuple[int, ...]], int]:
    """Crossing tuples and the number of crossingless unknot components."""
    crossings = [tuple(int(g) for g in m.groups())
                 for m in _X_RE.finditer("".join(pd.split()))]
    extras = len(re.findall(r"(?:^|\+)U(?=\+|$)", "".join(pd.split())))
    return crossings, extras


def generator_count(pd: str, reduced: bool) -> int:
    """Rank of the chain complex: the sum over cube vertices of
    2^(circles - 1) (reduced) or 2^circles (unreduced)."""
    crossings, extras = pd_crossings(pd)
    labels = sorted({a for c in crossings for a in c})
    index = {a: i for i, a in enumerate(labels)}
    parent = list(range(len(labels)))
    size = [1] * len(labels)
    smoothings = [(((index[a], index[b]), (index[c], index[d])),
                   ((index[a], index[d]), (index[b], index[c])))
                  for a, b, c, d in crossings]
    drop = 1 if reduced else 0
    total = 0

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    # depth-first over the cube, undoing each union on the way back
    # (union by size without path compression, so an undo is exact)
    def walk(k: int, circles: int) -> None:
        nonlocal total
        if k == len(smoothings):
            total += 1 << (circles - drop)
            return
        for pairs in smoothings[k]:
            done = []
            for x, y in pairs:
                rx, ry = find(x), find(y)
                if rx != ry:
                    if size[rx] < size[ry]:
                        rx, ry = ry, rx
                    parent[ry] = rx
                    size[rx] += size[ry]
                    done.append((rx, ry))
            walk(k + 1, circles - len(done))
            for rx, ry in reversed(done):
                parent[ry] = ry
                size[rx] -= size[ry]

    walk(0, len(labels) + extras)
    return total


def _closes_to_knot(word: list[int], strands: int) -> bool:
    perm = list(range(strands))
    for letter in word:
        i = abs(letter) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    x, length = perm[0], 1
    while x != 0:
        x, length = perm[x], length + 1
    return length == strands


def _draw_word(rng: random.Random, crossings: int, strands: int) -> list[int]:
    while True:
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(crossings)]
        if any(word[i] == -word[i - 1] for i in range(crossings)):
            continue
        if _closes_to_knot(word, strands):
            return word


def braid_cases(mix, seed: int, tag: str) -> list[Case]:
    """Draw the diagrams of a class mix from the seed."""
    rng = random.Random(f"{tag}:{seed}")
    cases: list[Case] = []
    seen: set[tuple[int, ...]] = set()
    for crossings, strands, target, count in mix:
        got = draws = 0
        while got < count:
            draws += 1
            if draws > MAX_DRAWS:
                raise RuntimeError(f"no {count} closures of class "
                                   f"({crossings}, {strands}, N={target})")
            word = tuple(_draw_word(rng, crossings, strands))
            if word in seen:
                continue
            pd = braid_closure_pd(list(word), strands)
            if generator_count(pd, True) != target:
                continue
            seen.add(word)
            cases.append(Case(f"b{len(cases):02d}", pd, True, word, strands))
            got += 1
    return cases


def corpus_cases(csv_path) -> list[Case]:
    """The bundled corpus: every knot reduced, and unreduced up to 8
    crossings (9_1 unreduced alone would take about 80 s)."""
    rows = []
    with open(csv_path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                name, _, pd = line.partition(",")
                rows.append((name, pd))
    cases = [Case(name, pd, True) for name, pd in rows]
    cases += [Case(name, pd, False) for name, pd in rows
              if len(pd_crossings(pd)[0]) <= 8]
    return cases


def reduced_totals() -> dict[str, int]:
    """Expected reduced homology totals of the corpus knots."""
    return {name: total for name, _word, _strands, total, _alt in ENTRIES}
