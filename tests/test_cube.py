import itertools

import pytest

from conftest import TREFOIL
from edge_words import circle_arcs
from global_layout import all_monotone_paths, monotone_path
from khss.cube import classify_edge, resolve, smoothing_pairings
from khss.diagram import parse_pd


def test_smoothing_pairings():
    assert smoothing_pairings((1, 4, 2, 5), 0) == ((1, 4), (2, 5))
    assert smoothing_pairings((1, 4, 2, 5), 1) == ((1, 5), (4, 2))


def test_trefoil_resolution_circle_counts():
    d = parse_pd(TREFOIL)
    counts = {u: resolve(d, u).circle_count for u in range(8)}
    assert counts[0b000] == 3
    assert counts[0b111] == 2
    for u in (1, 2, 4):
        assert counts[u] == 2
    for u in (3, 5, 6):
        assert counts[u] == 1


def test_trefoil_zero_resolution_circles():
    d = parse_pd(TREFOIL)
    circles = set(circle_arcs(resolve(d, 0)))
    assert circles == {frozenset({1, 4}), frozenset({2, 5}), frozenset({3, 6})}


def test_marked_circle_first():
    d = parse_pd(TREFOIL)
    for u in range(8):
        res = resolve(d, u)
        assert res.labels[d.basepoint] == 0
        assert d.basepoint in circle_arcs(res)[0]


def test_extras_become_circles():
    d = parse_pd("U + U")
    res = resolve(d, 0)
    assert res.circle_count == 2


def test_classify_edges_change_circles_by_one():
    d = parse_pd(TREFOIL)
    for u in range(8):
        for i in range(3):
            if (u >> i) & 1:
                continue
            e = classify_edge(d, u, i)
            assert e.circles == resolve(d, u).circle_count
            delta = resolve(d, u | 1 << i).circle_count - e.circles
            assert (e.kind, delta) in (("merge", -1), ("split", 1))
            if e.kind == "merge":
                assert len(e.sources) == 2 and len(e.targets) == 1
            else:
                assert len(e.sources) == 1 and len(e.targets) == 2


def test_classify_edge_rejects_set_bit():
    d = parse_pd(TREFOIL)
    with pytest.raises(ValueError):
        classify_edge(d, 0b001, 0)


def test_monotone_path_lex():
    assert monotone_path(0b000, 0b101) == [0, 2]
    assert monotone_path(0b010, 0b010) == []
    with pytest.raises(ValueError):
        monotone_path(0b100, 0b010)


def test_all_monotone_paths():
    paths = all_monotone_paths(0b000, 0b111)
    assert len(paths) == 6
    assert sorted(paths) == sorted(
        [list(p) for p in itertools.permutations([0, 1, 2])])
    with pytest.raises(ValueError):
        all_monotone_paths(0, (1 << 7) - 1)  # beyond the path cap


def test_two_k_minus_two_square_count():
    # between u and v with k flipped bits there are exactly 2^k - 2
    # intermediate vertices, the count behind the cancellation argument
    for k in (2, 3, 4):
        u, v = 0, (1 << k) - 1
        between = [w for w in range(v + 1)
                   if u < w < v and (w & ~v) == 0]
        assert len(between) == 2 ** k - 2


def test_corpus_edges_well_formed(store):
    for name in store.names(8):
        d = store.corpus[name]
        n = len(d.crossings)
        for u in range(1 << n):
            for i in range(n):
                if (u >> i) & 1:
                    continue
                e = classify_edge(d, u, i)
                dst = resolve(d, u | 1 << i)
                assert abs(dst.circle_count - e.circles) == 1


def test_untouched_circles_keep_their_order(store):
    # the pairing rule of the edge maps: circles away from the flipped
    # crossing are the same arcs, in the same relative order, at both ends
    for name in store.names(7):
        d = store.corpus[name]
        n = len(d.crossings)
        for u in range(1 << n):
            for i in range(n):
                if (u >> i) & 1:
                    continue
                e = classify_edge(d, u, i)
                touched = set(d.crossings[i])
                src = circle_arcs(resolve(d, u))
                dst = circle_arcs(resolve(d, u | 1 << i))
                assert [c for c in src if not c & touched] == [
                    c for c in dst if not c & touched]
                assert e.sources == tuple(
                    k for k, c in enumerate(src) if c & touched)
                assert e.targets == tuple(
                    k for k, c in enumerate(dst) if c & touched)
