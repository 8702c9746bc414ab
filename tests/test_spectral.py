import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import block_view
import naive
import subspace_oracle
from conftest import (FIGURE_EIGHT, HOPF, TREFOIL, changed_copy,
                      probe_closures)
from khss import tqft
from khss.diagram import parse_pd
from khss.filtered import build, verify_d_squared
from khss.spectral import compare_pages, compute, khovanov_oracle
from moves import reidemeister1, reidemeister2
from test_complex import (flip_a_cleared_column, widen_a_column,
                          with_column_flipped)
from test_planted import planted_blocks, planted_complex


def test_oracle_against_naive_prototype():
    for text, expected in (("U", 1), (TREFOIL, 3), (FIGURE_EIGHT, 5)):
        assert naive.reduced_total_dim(text) == expected
        c = build(parse_pd(text), reduced=True)
        assert khovanov_oracle(c).total() == expected


def test_page_one_is_chain_dimensions():
    c = build(parse_pd(TREFOIL), reduced=True)
    p1 = block_view.page(block_view.block_view(c), 1)
    expect = {}
    for g in c.generators:
        expect[(g.h, g.q)] = expect.get((g.h, g.q), 0) + 1
    assert p1.dims == expect


def test_page_two_equals_oracle():
    for text in (TREFOIL, FIGURE_EIGHT, HOPF):
        for reduced in (True, False):
            c = build(parse_pd(text), reduced=reduced)
            assert compute(c).page(2).dims == khovanov_oracle(c).dims


def dense_rank_dims(c):
    """(h, q) -> size less the ranks out and in, each rank by dense
    elimination of the slice's columns over its target slice."""
    rank = {}
    for (h, q), s in c.slices.items():
        m = len(c.slices.get((h + 1, q), ()))
        dense = np.array([[(col >> r) & 1 for col in s]
                          for r in range(m)], dtype=np.uint8)
        rank[h, q] = naive.rank_gf2(dense.reshape(m, len(s)))
    return {(h, q): dim for (h, q), s in c.slices.items()
            if (dim := len(s) - rank[h, q] - rank.get((h - 1, q), 0))}


def test_page_two_and_oracle_against_dense_rank(store):
    # page 2 and khovanov_oracle both eliminate on bit masks; numpy's
    # dense elimination by column pivots shares no code with either
    complexes = [store.complex(name, reduced) for name in store.names(8)
                 for reduced in (True, False)]
    complexes += [build(parse_pd(pd)) for pd in probe_closures()]
    for c in complexes:
        dims = dense_rank_dims(c)
        assert compute(c).page(2).dims == dims
        assert khovanov_oracle(c).dims == dims


def test_page_index_validation():
    res = compute(build(parse_pd("U"), reduced=True))
    with pytest.raises(ValueError):
        res.page(1)


def test_pages_descend():
    c = build(parse_pd(FIGURE_EIGHT), reduced=False)
    res = compute(c)
    prev = None
    for pt in res.pages:
        if prev is not None:
            for key, dim in pt.dims.items():
                assert dim <= prev.get(key, 0)
        prev = pt.dims


def test_euler_characteristic_per_q_constant_across_pages():
    c = build(parse_pd(TREFOIL), reduced=True)
    tables = [block_view.page(block_view.block_view(c), 1)]
    tables += [compute(c).page(r) for r in range(2, 5)]

    def euler(dims):
        out = {}
        for (p, q), dim in dims.items():
            out[q] = out.get(q, 0) + (-1) ** p * dim
        return {q: v for q, v in out.items() if v}

    base = euler(tables[0].dims)
    for pt in tables[1:]:
        assert euler(pt.dims) == base


def test_abutment():
    for text in (TREFOIL, FIGURE_EIGHT, HOPF):
        c = build(parse_pd(text), reduced=True)
        res = compute(c)
        by_q = {}
        for (p, q), dim in res.infinity.dims.items():
            by_q[q] = by_q.get(q, 0) + dim
        assert by_q == res.total_homology


@settings(max_examples=100, deadline=None)
@given(st.lists(planted_blocks(), min_size=1, max_size=3))
def test_dr_ranks_account_for_page_drop(planted):
    # each block has a pair of gap 2 to 4, so some d_r with r >= 2 is
    # nonzero: page r + 1 is page r less twice the rank of d_r
    c = planted_complex(planted)
    res = block_view.compute(c)
    pages = [block_view.page(c, 1), *res.pages]
    assert any(pt.dr_ranks for pt in pages[1:])
    for cur, nxt in zip(pages, pages[1:]):
        drop = sum(cur.dims.values()) - sum(nxt.dims.values())
        assert drop == 2 * sum(cur.dr_ranks.values())


def test_subspace_oracle_agrees_with_compute(store):
    # the subspace formula on the composite differential D against the
    # persistence pairing on d: one independent algorithm on one
    # independent complex, for every page
    for name in store.names(8):
        for reduced in (True, False):
            ref = subspace_oracle.compute(store.composite(name, reduced))
            assert full_result(store.result(name, reduced)) == collapsed(ref)


def full_result(res):
    """The (r, dims) of every page, the collapse page and the abutment."""
    return ([(pt.r, pt.dims) for pt in res.pages], res.collapse_page,
            res.total_homology)


def collapsed(ref):
    """``full_result`` of a reference's pages, which must have no
    nonzero d_r for r >= 2 and collapse at page 2."""
    assert all(pt.dr_ranks == {} for pt in ref.pages)
    assert ref.collapse_page == 2
    return full_result(ref)


def test_slices_give_the_pages_of_their_block_view(store):
    # one reduction per slice against the general pairing of each
    # q-block of the same d, which shares none of its code
    complexes = [store.complex(name, reduced) for name in store.names()
                 for reduced in (True, False)]
    complexes += [build(parse_pd(pd)) for pd in probe_closures()]
    for c in complexes:
        assert (full_result(compute(c)) == collapsed(
            block_view.compute(block_view.block_view(c))))


def plain_elimination(cols):
    """Eliminate the columns in order on their highest row: the pivot
    rows, and the indices of the columns that reduce to zero."""
    pivots, zero = {}, set()
    for j, col in enumerate(cols):
        while col and (other := pivots.get(col.bit_length() - 1)):
            col ^= other
        if col:
            pivots[col.bit_length() - 1] = col
        else:
            zero.add(j)
    return set(pivots), zero


def reduced_slices(c, monkeypatch):
    """The (cols, clear) of each ``tqft.reduce_columns`` call ``compute``
    makes on ``c``, and ``c``'s slice keys in the order it reduces them."""
    real, calls = tqft.reduce_columns, []

    def recorded(cols, clear=()):
        calls.append((cols, set(clear)))
        return real(cols, clear)

    monkeypatch.setattr(tqft, "reduce_columns", recorded)
    compute(c)
    monkeypatch.undo()
    return calls, sorted(c.slices, key=lambda hq: (hq[1], hq[0]))  # q, h up


def cleared_columns(c, monkeypatch):
    """Each slice key of ``c`` with the local indices of the columns
    that ``compute`` skips in it, in the order it reduces the slices."""
    calls, order = reduced_slices(c, monkeypatch)
    assert [cols for cols, _ in calls] == [c.slices[hq] for hq in order]
    return [(hq, skipped) for hq, (_, skipped) in zip(order, calls)]


def test_each_slice_is_reduced_in_its_stored_column_list(store, monkeypatch):
    # a fresh complex: compute reduces nothing on one verify_d_squared
    # has passed, as the store's may have been
    for reduced in (True, False):
        c = build(store.corpus["4_1"], reduced)
        calls, order = reduced_slices(c, monkeypatch)
        assert len(calls) == len(order)
        assert all(cols is c.slices[hq] for (cols, _), hq in zip(calls, order))
        assert verify_d_squared(c)
        assert reduced_slices(c, monkeypatch)[0] == []


def test_clearing_skips_only_columns_that_reduce_to_zero(store, monkeypatch):
    complexes = [build(d, reduced) for d in store.corpus.values()
                 for reduced in (True, False)]
    complexes += [build(parse_pd(pd)) for pd in probe_closures()]
    total = 0
    for c in complexes:
        pivots = {hq: plain_elimination(s) for hq, s in c.slices.items()}
        for (h, q), skipped in cleared_columns(c, monkeypatch):
            below, _ = pivots.get((h - 1, q), (set(), set()))
            assert len(skipped) == len(below)
            assert skipped <= pivots[h, q][1]
            total += len(skipped)
    assert total > 0


def test_a_cleared_column_past_its_target_slice_is_caught(monkeypatch):
    c = build(parse_pd(FIGURE_EIGHT), reduced=False)
    (h, q), skipped = next((hq, skipped) for hq, skipped
                           in cleared_columns(c, monkeypatch) if skipped)
    width = len(c.slices.get((h + 1, q), ()))
    c = with_column_flipped(c, (h, q), min(skipped), 1 << width)
    with pytest.raises(ValueError, match="differential does not raise h"):
        compute(c)


def stale_rank_inputs(store):
    """(diagram, flavor) of the corpus and the trefoil and figure-eight,
    as the cleared-column family of the d^2 tests in test_complex."""
    diagrams = [parse_pd(TREFOIL), parse_pd(FIGURE_EIGHT),
                *store.corpus.values()]
    return [(d, reduced) for d in diagrams for reduced in (True, False)]


def raise_a_rank(c):
    """A changed copy of ``c`` with e_r added to a column of some (h, q)
    that lies in the span of the columns before it and that the clearing
    keeps, with r a row of (h + 1, q) that is no pivot of the slice and
    with d e_r nonzero: e_r is outside the image, so the rank of d out of
    (h, q) rises by 1, with clearing or without, and d^2 stops being 0.
    None if no slice has both."""
    for h, q in sorted(c.slices):
        pivots, zero = plain_elimination(c.slices[h, q])
        kept = zero - plain_elimination(c.slices.get((h - 1, q), ()))[0]
        rows = [r for r, col in enumerate(c.slices.get((h + 1, q), ()))
                if col and r not in pivots]
        if kept and rows:
            return with_column_flipped(c, (h, q), min(kept), 1 << rows[0])
    return None


def test_a_bit_flipped_after_the_check_is_never_served_stale_ranks(
        store, monkeypatch):
    # a changed copy of a checked complex, checked or not, gives the
    # pages of the same change to a fresh twin that was never checked
    raised = 0
    for (d, reduced), flip in itertools.product(
            stale_rank_inputs(store),
            (raise_a_rank, flip_a_cleared_column)):
        c = build(d, reduced)
        assert verify_d_squared(c)
        before = full_result(compute(c))
        flipped = flip(c)
        if flipped is None:
            continue
        after = full_result(compute(flip(build(d, reduced))))
        assert full_result(compute(flipped)) == after
        if flip is raise_a_rank:  # the checked ranks would give before
            assert after != before
            raised += 1
        assert not verify_d_squared(flipped)
        # the failed check kept whole ranks: compute reduces nothing and
        # still gives the twin's pages; the original keeps its own
        assert reduced_slices(flipped, monkeypatch)[0] == []
        assert full_result(compute(flipped)) == after
        assert reduced_slices(c, monkeypatch)[0] == []
        assert full_result(compute(c)) == before
    assert raised


@pytest.mark.parametrize("check_first", [True, False])
@pytest.mark.parametrize("change", [None, raise_a_rank, flip_a_cleared_column])
def test_the_check_and_compute_reduce_each_slice_once(change, check_first,
                                                       monkeypatch):
    # verify_d_squared and compute, in either order, on a complex that
    # passes or on a changed copy that fails: each slice is reduced once
    # in all, and the verdict and pages are those of fresh twins
    def make():
        c = build(parse_pd(FIGURE_EIGHT), reduced=False)
        return c if change is None else change(c)

    c, real, calls = make(), tqft.reduce_columns, []

    def recorded(cols, clear=()):
        calls.append(cols)
        return real(cols, clear)

    monkeypatch.setattr(tqft, "reduce_columns", recorded)
    if check_first:
        ok = verify_d_squared(c)
        pages = full_result(compute(c))
    else:
        pages = full_result(compute(c))
        ok = verify_d_squared(c)
    monkeypatch.undo()
    assert sorted(map(id, calls)) == sorted(map(id, c.slices.values()))
    assert ok == verify_d_squared(make()) == (change is None)
    assert pages == full_result(compute(make()))


def test_a_column_past_its_target_fails_on_every_call():
    c = widen_a_column(build(parse_pd(FIGURE_EIGHT), reduced=False))
    for _ in range(2):  # an exception is not cached
        assert not verify_d_squared(c)
        with pytest.raises(ValueError, match="differential does not raise h"):
            compute(c)


def add_a_slice(c):
    """A changed copy of ``c`` with a slice of one generator and d = 0
    below the lowest of some q."""
    h, q = min(c.slices)
    return changed_copy(c, {(h - 1, q): (0,)})


def remove_a_slice(c):
    """A changed copy of ``c`` without the lowest slice of the first q
    (in (h, q) order) whose lowest slice has d nonzero, if any: the rank
    into the slice above drops."""
    hq = next(((h, q) for h, q in sorted(c.slices)
               if (h - 1, q) not in c.slices and any(c.slices[h, q])), None)
    return changed_copy(c, {} if hq is None else {hq: None})


@pytest.mark.parametrize("change", [add_a_slice, remove_a_slice])
def test_a_slice_added_or_removed_after_the_check_drops_its_ranks(change,
                                                                   store):
    changed = 0
    for d, reduced in stale_rank_inputs(store):
        c = build(d, reduced)
        assert verify_d_squared(c)
        before = full_result(compute(c))
        copy = change(c)
        after = full_result(compute(change(build(d, reduced))))
        assert full_result(compute(copy)) == after
        assert verify_d_squared(copy)  # the change keeps d^2 = 0
        assert full_result(compute(copy)) == after
        changed += after != before
    assert changed


def test_r1_invariance():
    d = parse_pd(TREFOIL)
    base = compute(build(d, reduced=True))
    for arc, sign in ((1, 1), (4, -1)):
        moved = reidemeister1(d, arc, sign)
        assert compare_pages(base, compute(build(moved, reduced=True))).equal


def test_r2_invariance():
    d = parse_pd(FIGURE_EIGHT)
    base = compute(build(d, reduced=True))
    moved = reidemeister2(d, 2, 6)
    assert compare_pages(base, compute(build(moved, reduced=True))).equal


def test_distinct_knots_compare_unequal():
    a = compute(build(parse_pd(TREFOIL), reduced=True))
    b = compute(build(parse_pd(FIGURE_EIGHT), reduced=True))
    verdict = compare_pages(a, b)
    assert not verdict.equal
    assert "page" in verdict.detail


def test_basepoint_sweep_trefoil_and_hopf():
    # the reduced pages marked at each arc of the marked component agree
    for pd in (TREFOIL, HOPF):
        d = parse_pd(pd)
        arcs = d.marked_component()
        assert len(arcs) > 1
        pages = [compute(build(d.with_basepoint(arc), reduced=True))
                 for arc in arcs]
        for arc, result in zip(arcs[1:], pages[1:]):
            assert compare_pages(pages[0], result).equal, (pd, arc)


def test_total_homology_unknot():
    c = build(parse_pd("U"), reduced=True)
    assert compute(c).total_homology == {0: 1}


def test_unreduced_unknot():
    c = build(parse_pd("U"), reduced=False)
    assert compute(c).total_homology == {-1: 1, 1: 1}
