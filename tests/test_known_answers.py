"""Pages at 12-14 crossings checked against answers that do not come
from this pipeline.

- Markov moves: the closure of a braid word w is isotopic to the
  closures of its cyclic rotations, of a conjugate g w g^-1, and of
  w sigma_n^(+-1) on n + 1 strands, so all give the same reduced pages.
  Each is a different diagram with a different cube.
- Thin knots: a non-split alternating knot is quasi-alternating, so its
  reduced Kh over GF(2) lies on one diagonal, q - 2h constant, and has
  total dimension det(K) (Manolescu and Ozsvath, arXiv:0708.3249).  A
  braid word whose sigma_i all have sign (-1)^(i+1) closes to an
  alternating diagram.  det(K) comes from the Fox colouring matrix in
  ``perfbench/checks.py``, which reads the PD text alone, and from the
  spanning trees of the Tait graph in ``tests/tait.py``, which reads the
  crossing tuples alone.
"""

import random
import sys

import pytest

import tait
from conftest import ROOT, changed_copy
from khss.diagram import parse_pd
from khss.filtered import build, verify_d_squared
from khss.spectral import compute


def outside_modules():
    """``braid_closure_pd`` from ``tools/`` and ``fox_determinant`` from
    ``perfbench/``, imported as ``conftest.probe_closures`` does."""
    sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "perfbench")]
    try:
        from checks import fox_determinant
        from gen_corpus import braid_closure_pd
    finally:
        del sys.path[:2]
    return braid_closure_pd, fox_determinant


def closes_to_knot(word: list[int], strands: int) -> bool:
    perm = list(range(strands))
    for letter in word:
        i = abs(letter) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    x, length = perm[0], 1
    while x != 0:
        x, length = perm[x], length + 1
    return length == strands


def page_two(c):
    """Page 2 of a complex whose d squares to zero, else None."""
    return compute(c).page(2).dims if verify_d_squared(c) else None


def flip_one_bit(c):
    """A changed copy of ``c`` with bit r of a column flipped, r a row
    whose own column in the target slice is nonzero, so that d^2 of that
    column is no longer zero."""
    hq, s, r = next(((h, q), s, r) for (h, q), s in sorted(c.slices.items())
                    if (h + 1, q) in c.slices
                    for r, col in enumerate(c.slices[h + 1, q]) if col)
    return changed_copy(c, {hq: (s[0] ^ 1 << r, *s[1:])})


def test_markov_moves_keep_the_pages():
    braid_closure_pd, _ = outside_modules()
    rng = random.Random("markov:2")
    while True:  # 12 letters on 3 strands, no inverse letters adjacent
        word = [rng.choice((1, -1)) * rng.randint(1, 2) for _ in range(12)]
        if (all(word[i] != -word[i - 1] for i in range(12))
                and closes_to_knot(word, 3)):
            break

    def complex_of(w, strands):
        return build(parse_pd(braid_closure_pd(w, strands)))

    c = complex_of(word, 3)
    want = page_two(c)
    assert want is not None and sum(want.values()) > 1
    moves = [(word[1:] + word[:1], 3), (word[5:] + word[:5], 3),
             ([-1] + word + [1], 3), (word + [3], 4), (word + [-3], 4)]
    for w, strands in moves:
        assert page_two(complex_of(w, strands)) == want, (w, strands)
    # mutation control: one flipped stored bit on one side is caught
    assert page_two(flip_one_bit(c)) != want


def alternating_closures(braid_closure_pd) -> list[str]:
    """Three seeded alternating 12-crossing knot closures, on 3, 3 and 5
    strands."""
    rng = random.Random("thin:1")
    cases = []
    for strands in (3, 3, 5):  # a 12-letter word closes to no 4-cycle
        while True:
            word = [(-1) ** (i + 1) * i
                    for i in (rng.randint(1, strands - 1) for _ in range(12))]
            if closes_to_knot(word, strands):
                break
        assert {abs(x) for x in word} == set(range(1, strands))
        cases.append(braid_closure_pd(word, strands))
    return cases


def test_thin_knots_have_their_determinant_on_one_diagonal():
    braid_closure_pd, fox_determinant = outside_modules()
    cases = alternating_closures(braid_closure_pd)
    torus = [braid_closure_pd([1] * n, 2) for n in range(3, 12, 2)]
    assert [fox_determinant(pd) for pd in torus] == list(range(3, 12, 2))
    for pd in cases + torus:
        dims = page_two(build(parse_pd(pd)))
        assert sum(dims.values()) == fox_determinant(pd), pd
        assert len({q - 2 * h for h, q in dims}) == 1, pd
    # mutation control: one flipped stored bit is caught
    assert page_two(flip_one_bit(build(parse_pd(cases[0])))) is None


def test_tait_graph_counts_the_fox_determinant():
    braid_closure_pd, fox_determinant = outside_modules()
    cases = alternating_closures(braid_closure_pd) + [
        braid_closure_pd([1] * n, 2) for n in range(3, 14, 2)]
    for pd in cases:
        crossings = parse_pd(pd).crossings
        assert tait.determinant(crossings) == fox_determinant(pd), pd
    # mutation control: dropping one Tait edge changes the count
    vertices, edges = tait.tait_graph(parse_pd(cases[0]).crossings)
    assert (tait.spanning_trees(vertices, edges[1:])
            != tait.spanning_trees(vertices, edges))
    # (s1 s2)^4 is a positive braid closure, not an alternating diagram
    with pytest.raises(AssertionError, match="not alternating"):
        tait.determinant(parse_pd(braid_closure_pd([1, 2] * 4, 3)).crossings)


def test_a_14_crossing_alternating_knot_is_thin():
    # the closure of (s1 s2^-1)^7 on 3 strands: 14 crossings, det 841
    braid_closure_pd, _ = outside_modules()
    d = parse_pd(braid_closure_pd([1, -2] * 7, 3))
    c = build(d)
    dims = page_two(c)
    assert sum(dims.values()) == tait.determinant(d.crossings) == 841
    assert len({q - 2 * h for h, q in dims}) == 1
    # mutation control: one flipped stored bit is caught
    assert page_two(flip_one_bit(c)) is None
