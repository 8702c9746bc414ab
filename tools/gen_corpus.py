"""Offline generator for the bundled knot corpus.

Builds PD codes as braid closures, sanity-checks each entry through the
library (single component, d^2 = 0 on its reduced complex, reduced
homology total dimension = determinant, alternating flag), and writes
src/khss/data/knots.csv.  Run from the repository root:

    PYTHONPATH=src python tools/gen_corpus.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from khss import (build, compute, is_alternating, parse_pd,  # noqa: E402
                  render, verify_d_squared)
from khss.diagram import from_crossings  # noqa: E402


def braid_closure_pd(word: list[int], strands: int) -> str:
    """PD text of the closure of a braid word (i = sigma_i, -i = inverse).

    Arc labels are assigned fresh at every crossing output and the
    closure identifies each final strand label with its initial one.
    """
    nxt = strands + 1
    start = list(range(1, strands + 1))
    cur = list(start)
    crossings = []
    for letter in word:
        i = abs(letter)
        if not 1 <= i < strands:
            raise ValueError(f"letter {letter} out of range for {strands} strands")
        x, y = cur[i - 1], cur[i]
        u, v = nxt, nxt + 1
        nxt += 2
        if letter > 0:
            crossings.append((x, u, v, y))
        else:
            crossings.append((y, x, u, v))
        cur[i - 1], cur[i] = u, v

    # closure: strand ends rejoin their starts
    parent = list(range(nxt))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in zip(cur, start):
        parent[find(a)] = find(b)

    relabel: dict[int, int] = {}
    out = []
    for t in crossings:
        canon = []
        for a in t:
            r = find(a)
            if r not in relabel:
                relabel[r] = len(relabel) + 1
            canon.append(relabel[r])
        out.append(tuple(canon))
    if len(relabel) != 2 * len(crossings):
        raise ValueError("closure left unused strands")
    return render(from_crossings(out))


def check(name: str, pd_text: str, reduced_dim: int, alternating: bool) -> None:
    d = parse_pd(pd_text)
    assert len(d.components) == 1, f"{name}: not a knot"
    c = build(d, reduced=True)
    assert verify_d_squared(c), f"{name}: d^2 != 0"
    total = sum(compute(c).total_homology.values())
    assert total == reduced_dim, f"{name}: homology dim {total} != {reduced_dim}"
    assert is_alternating(d) == alternating, f"{name}: alternating flag"


ENTRIES = [
    # name, braid word, strands, reduced F2 homology total dim
    # (= determinant for the alternating entries, 5 for the thick 8_19),
    # whether the diagram is alternating
    ("unknot", None, 0, 1, False),
    ("3_1", [1, 1, 1], 2, 3, True),
    ("4_1", [1, -2, 1, -2], 3, 5, True),
    ("5_1", [1] * 5, 2, 5, True),
    ("6_2", [1, 1, 1, -2, 1, -2], 3, 11, True),
    ("7_1", [1] * 7, 2, 7, True),
    ("8_18", [1, -2] * 4, 3, 45, True),
    ("8_19", [1, 2] * 4, 3, 5, False),
    ("9_1", [1] * 9, 2, 9, True),
]


def main() -> None:
    rows = []
    for name, word, strands, det, alt in ENTRIES:
        pd_text = "U" if word is None else braid_closure_pd(word, strands)
        if name != "unknot":
            check(name, pd_text, det, alt)
        rows.append((name, pd_text))
        print(f"{name}: ok ({pd_text[:60]}...)")
    out = Path(__file__).resolve().parents[1] / "src" / "khss" / "data" / "knots.csv"
    with out.open("w", encoding="utf-8") as fh:
        fh.write("# bundled knot corpus: braid closures, <= 9 crossings\n")
        fh.write("# name,pdcode\n")
        for name, pd_text in rows:
            fh.write(f"{name},{pd_text}\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
