import itertools

import pytest

from conftest import NOT_LOCAL, TREFOIL, braid_closure, probe_closures
from edge_words import circle_arcs, edge_shape_by_sets
from global_layout import all_monotone_paths, monotone_path
from khss.cube import (Resolution, classify_edge, edge_between, resolve,
                       smoothing_pairings, walk)
from khss.diagram import StructureError, parse_pd
from khss.filtered import build


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


def test_walk_matches_resolve(store):
    # the mark on a crossing arc, or on a crossingless component (the
    # arc past arc_count), with one or two crossingless components
    diagrams = [store.corpus[name] for name in store.names()]
    for name in store.names(5):
        d = store.corpus[name]
        diagrams += [d.with_basepoint(arc) for arc in range(1, d.arc_count + 1)]
    diagrams += [parse_pd(pd) for pd in probe_closures()]
    for text in (TREFOIL + "+U", TREFOIL + "+U+U"):
        d = parse_pd(text)
        diagrams += [d, d.with_basepoint(None)]
    for d in diagrams:
        res = [resolve(d, u) for u in range(1 << len(d.crossings))]
        assert walk(d) == ([r.labels for r in res],
                           [r.circle_count for r in res])


def test_walk_numbers_each_partition_once():
    # equal arc partitions share one labels tuple: the walk numbers the
    # circles once per partition, and still agrees with resolve
    for d in (parse_pd(probe_closures()[0]), braid_closure([1, 2] * 4, 3)):
        labels, circles = walk(d)
        res = [resolve(d, u) for u in range(1 << len(d.crossings))]
        assert labels == [r.labels for r in res]
        assert circles == [r.circle_count for r in res]
        tuples = len({id(t) for t in labels})
        assert tuples == len(set(labels)) < len(labels)


def test_edge_between_matches_the_arc_set_formula(store):
    for name in store.names(7):
        d = store.corpus[name]
        n = len(d.crossings)
        labels, circles = walk(d)
        res = [Resolution(u, circles[u], labels[u]) for u in range(1 << n)]
        for u in range(1 << n):
            for i in range(n):
                if not (u >> i) & 1:
                    src, dst = res[u], res[u | 1 << i]
                    assert (edge_between(d, src, dst, i)
                            == edge_shape_by_sets(d, src, dst, i))


def test_an_edge_that_is_not_a_local_merge_or_split_is_rejected():
    for text in NOT_LOCAL:
        d = parse_pd(text)
        for reduced in (True, False):
            with pytest.raises(StructureError, match="not a local merge"):
                build(d, reduced)


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


def test_resolve_rejects_a_bit_past_the_crossings():
    d = parse_pd(TREFOIL)
    with pytest.raises(ValueError, match="more bits than crossings"):
        resolve(d, 1 << len(d.crossings))


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
