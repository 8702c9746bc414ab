import contextlib
import dataclasses
import gc
import random
import tracemalloc
from collections import Counter

import pytest

import d_oracle
import global_layout
from conftest import (FIGURE_EIGHT, TREFOIL, bench_closures, braid_closure,
                      changed_copy, probe_closures)
from d_squared import squares_to_zero
from edge_words import edge_as_generator_word, edge_word_columns
from global_layout import all_monotone_paths, diagonal_map
from khss import cube, filtered, tqft
from khss.cube import classify_edge, resolve
from khss.diagram import from_crossings, parse_pd
from khss.filtered import (FilteredComplex, GradingError, SizeCapError,
                           build, marked_diagram, verify_d_squared)
from khss.spectral import compute
from moves import reidemeister2
from test_planted import apply


def dims_by_h(c):
    out = {}
    for g in c.generators:
        out[g.h] = out.get(g.h, 0) + 1
    return out


def test_trefoil_chain_dimensions():
    d = parse_pd(TREFOIL)
    red = build(d, reduced=True)
    assert red.n_generators == 15
    assert dims_by_h(red) == {-3: 4, -2: 6, -1: 3, 0: 2}
    unred = build(d, reduced=False)
    assert unred.n_generators == 30
    assert dims_by_h(unred) == {-3: 8, -2: 12, -1: 6, 0: 4}


def test_reduced_needs_basepoint():
    d = parse_pd(TREFOIL)
    # None marks a crossingless unknot component; the trefoil has none
    with pytest.raises(ValueError):
        d.with_basepoint(None)
    bare = dataclasses.replace(d, basepoint=None)
    with pytest.raises(ValueError):
        build(bare, reduced=True)


def test_d_squared_zero_small():
    for text in (TREFOIL, FIGURE_EIGHT, "U"):
        d = parse_pd(text)
        for reduced in (True, False):
            assert verify_d_squared(build(d, reduced=reduced))


def test_q_homogeneity_blockwise():
    # d has jump 1 only; the composite differential D has every jump
    d = parse_pd(FIGURE_EIGHT)
    for reduced in (True, False):
        c, composite = build(d, reduced=reduced), d_oracle.build(d, reduced)
        for x in (c, composite):
            assert global_layout.layout_faults(d, reduced, x) == []
        # k is the h difference of an entry's generators in the block view
        entries = global_layout.stored_entries(c)
        assert {k for k, _, _ in entries} == {1}
        assert ({k for k, _, _ in global_layout.stored_entries(composite)}
                == {1, 2, 3, 4})
        # the benchmark's components view is the stored columns, jump 1
        assert list(c.components) == [1]
        assert (sum(m.bit_count() for m in c.components[1].values())
                == len(entries))


def test_build_rejects_a_composite_that_changes_q(monkeypatch):
    # mutation control: toggling monomials 0 and 1 of one edge column
    # (their q differ) leaves a bit of the wrong q in that column; the
    # edge maps are per shape, so every edge shaped like the one at
    # vertex 0, crossing 0 gets the bad bit; the unreduced complex runs
    # the reduced rule at the shapes of the marked diagram
    real = tqft.edge_columns_reduced
    d = parse_pd(TREFOIL)
    shape = classify_edge(marked_diagram(d, False), 0, 0)

    def corrupted(e):
        cols = real(e)
        if e == shape:
            cols = [cols[0] ^ 0b11, *cols[1:]]
        return cols

    build(d, reduced=False)
    monkeypatch.setattr(tqft, "edge_columns_reduced", corrupted)
    with pytest.raises(GradingError):
        build(d, reduced=False)


@pytest.mark.parametrize("reduced", [True, False])
def test_build_evaluates_each_edge_shape_once(store, monkeypatch, reduced):
    d = store.corpus["9_1"]
    n = len(d.crossings)
    real, calls = tqft.edge_columns_reduced, []

    def counted(e):
        calls.append(e)
        return real(e)

    monkeypatch.setattr(tqft, "edge_columns_reduced", counted)
    build(d, reduced)
    d = marked_diagram(d, reduced)
    # an edge's shape: merge or split, source circle count, touched
    # circles at either end
    shapes = set()
    for u in range(1 << n):
        for i in range(n):
            if not (u >> i) & 1:
                e = classify_edge(d, u, i)
                shapes.add((e.kind, resolve(d, u).circle_count,
                            e.sources, e.targets))
    assert len(calls) == len(shapes)
    assert set(calls) == shapes


def test_a_second_build_reads_the_shapes_of_the_first(store, monkeypatch):
    # the shape and edge-key tables last as long as the process: a
    # second build of the same diagram under the same rule evaluates no
    # shape and classifies no edge key again
    d = store.corpus["9_1"]
    calls, classified = [], []

    def counted(real, seen):
        def wrapper(*args):
            seen.append(args)
            return real(*args)
        return wrapper

    monkeypatch.setattr(tqft, "edge_columns_reduced",
                        counted(tqft.edge_columns_reduced, calls))
    monkeypatch.setattr(cube, "edge_shape",
                        counted(cube.edge_shape, classified))
    first = build(d)
    assert calls and classified
    calls.clear()
    classified.clear()
    second = build(d)
    assert calls == [] and classified == []
    assert second.slices == first.slices


def test_a_bad_shape_fails_every_build(monkeypatch):
    # a failed shape is not kept, nor any edge key that names it: every
    # build under the same rule meets it again, and names the first edge
    # of that shape in (vertex, crossing) order; the trefoil's 2-circle
    # merge is first met at vertex 1, crossing 1, though crossing 0 has
    # it at vertex 2
    real = tqft.edge_columns_reduced
    d = parse_pd(TREFOIL)
    merge2 = cube.EdgeCobordism("merge", 2, (0, 1), (0,))
    for shape, first in [(classify_edge(d, 0, 0), "vertex 0 at crossing 0"),
                         (merge2, "vertex 1 at crossing 1")]:
        def corrupted(e, shape=shape):
            cols = real(e)
            return [cols[0] ^ 0b11, *cols[1:]] if e == shape else cols

        monkeypatch.setattr(tqft, "edge_columns_reduced", corrupted)
        for _ in range(2):
            with pytest.raises(GradingError,
                               match=f"edge from {first} does not preserve q"):
                build(d)


def assert_matches_global_layout(d, reduced):
    """build stores the k = 1 entries of the per-pair oracle, and the
    composite differential of d_oracle stores all of them."""
    c = build(d, reduced=reduced)
    want = global_layout.diagonal_entries(d, reduced)
    assert (global_layout.stored_entries(c)
            == {e for e in want if e[0] == 1})
    assert global_layout.stored_entries(d_oracle.build(d, reduced)) == want
    return c


def test_blocks_match_global_layout(store):
    cases = [(store.corpus[name], reduced) for name in store.names(6)
             for reduced in (True, False)]
    poked = reidemeister2(parse_pd("U"), None, None)
    # an 8-crossing closure: a vertex has up to 8 out-edges
    closure = parse_pd(probe_closures()[0])
    cases += [(d, reduced) for d in (poked, closure)
              for reduced in (True, False)]
    for d, reduced in cases:
        assert_matches_global_layout(d, reduced)


def test_blocks_match_global_layout_at_every_basepoint(store):
    # from every basepoint arc the marked circle takes part in merges and
    # splits; a crossingless extra can carry the mark or sit unmarked; the
    # 0-crossing unknot has a single vertex and no edges
    diagrams = [parse_pd("U")]
    for name in store.names(5):
        d = store.corpus[name]
        diagrams += [d.with_basepoint(arc) for arc in range(1, d.arc_count + 1)]
    with_extra = parse_pd(TREFOIL + "+U")
    diagrams += [with_extra, with_extra.with_basepoint(None)]
    for d in diagrams:
        for reduced in (True, False):
            c = assert_matches_global_layout(d, reduced)
            assert global_layout.layout_faults(d, reduced, c) == []


def test_diagonal_map_path_independence():
    for text in (TREFOIL, FIGURE_EIGHT):
        d = parse_pd(text)
        n = len(d.crossings)
        for u in range(1 << n):
            for v in range(1 << n):
                k = (u ^ v).bit_count()
                if not (u < v and (u & ~v) == 0 and 2 <= k <= 4):
                    continue
                paths = all_monotone_paths(u, v)
                base = diagonal_map(d, u, v, reduced=True, path=paths[0])
                for p in paths[1:]:
                    assert diagonal_map(d, u, v, reduced=True, path=p) == base


def test_diagonal_map_rejects_bad_path():
    d = parse_pd(TREFOIL)
    with pytest.raises(ValueError):
        diagonal_map(d, 0b000, 0b011, path=[2])


def test_edge_words_match_edge_maps(store):
    # 5_1 has edges with two circles away from the crossing, so a wrong
    # pairing of those circles shows
    for d in (parse_pd(TREFOIL), parse_pd(FIGURE_EIGHT), store.corpus["5_1"]):
        n = len(d.crossings)
        for u in range(1 << n):
            for i in range(n):
                if (u >> i) & 1:
                    continue
                word = edge_as_generator_word(d, u, i)
                assert word.source_size == resolve(d, u).circle_count
                assert word.target_size == resolve(d, u | 1 << i).circle_count
                assert (edge_word_columns(d, u, i)
                        == tqft.edge_columns_reduced(classify_edge(d, u, i)))


def with_column_flipped(c, hq, j, bits):
    """A changed copy of ``c``: column j of slice ``hq`` xor ``bits``."""
    cols = list(c.slices[hq])
    cols[j] ^= bits
    return changed_copy(c, {hq: cols})


def flip_a_live_row(c):
    """Flip, in column 0 of some slice (h, q), the bit at a row whose
    own column in (h + 1, q) is nonzero, so the square cannot stay 0."""
    hq, r = next(((h, q), r) for h, q in c.slices
                 if (h + 1, q) in c.slices
                 for r, col in enumerate(c.slices[h + 1, q]) if col)
    return with_column_flipped(c, hq, 0, 1 << r)


def widen_a_column(c):
    """Set, in column 0 of some slice, the row just past its target."""
    hq, rows = next(((h, q), len(c.slices[h + 1, q])) for h, q in c.slices
                    if (h + 1, q) in c.slices)
    return with_column_flipped(c, hq, 0, 1 << rows)


def flip_a_cleared_column(c):
    """Flip row 0 of the first column, in (q, h) order, that the clearing
    skips: a column of (h, q) at a pivot row of a reduced column of
    (h - 1, q), with a slice (h + 1, q) to map into.  None if there is
    no such column.  Only the d b = 0 check at (h - 1, q) can see it."""
    for h, q in sorted(c.slices, key=lambda hq: (hq[1], hq[0])):
        below, target = c.slices.get((h - 1, q)), c.slices.get((h + 1, q))
        if not below or not target:
            continue
        pivots = tqft.reduce_columns(below)
        if pivots:
            return with_column_flipped(c, (h, q), min(pivots), 1)
    return None


def build_with_a_bad_shape(d, reduced, monkeypatch):
    """``d`` built with the entry monomial 0 -> monomial 0 dropped from
    the edges shaped like the one at vertex 0, crossing 0: q is kept,
    the squares at those edges stop commuting."""
    real = tqft.edge_columns_reduced
    shape = classify_edge(marked_diagram(d, reduced), 0, 0)

    def corrupted(e):
        cols = real(e)
        return [cols[0] ^ 1, *cols[1:]] if e == shape else cols

    with monkeypatch.context() as m:
        m.setattr(tqft, "edge_columns_reduced", corrupted)
        return build(d, reduced)


def planted_complex(rng):
    """A complex with d^2 = 0 by construction, over q = 0, 2, 4 and h =
    0..4: in a planted basis each generator maps to at most one of the
    slice above, none is hit twice, and none is both hit and mapping;
    each slice's basis is then changed by a random unitriangular matrix
    P (column i: e_i plus lower indices), so d = P d0 P^-1."""
    slices = {}
    for q in (0, 2, 4):
        sizes = [rng.randint(0, 6) for _ in range(5)] + [0]
        bases = [[(1 << i) | rng.getrandbits(i) for i in range(n)]
                 for n in sizes]
        hit = set()
        for h, n in enumerate(sizes[:-1]):
            free = rng.sample(range(sizes[h + 1]), sizes[h + 1])
            planted = [1 << free.pop() if j not in hit and free
                       and rng.random() < 0.7 else 0 for j in range(n)]
            hit = {col.bit_length() - 1 for col in planted if col}
            inverse = []  # P^-1 e_i = e_i + P^-1 (P e_i - e_i)
            for i, col in enumerate(bases[h]):
                inverse.append((1 << i) ^ apply(inverse, col ^ (1 << i)))
            cols = [apply(bases[h + 1], apply(planted, v)) for v in inverse]
            slices[h, q] = cols
    return FilteredComplex(slices, [], 0, 0)


def d_squared_inputs(family, store, monkeypatch):
    """(complex, whether d^2 = 0, None if not known) for every complex
    of one family."""
    if family == "corpus":
        return [(store.complex(name, reduced), True)
                for name in store.names() for reduced in (True, False)]
    if family in ("probe", "braid-complex"):
        return [(build(parse_pd(pd)), True) for pd in bench_closures(family)]
    if family == "planted":
        rng, out = random.Random(1), []
        for k in range(60):
            c = planted_complex(rng)
            if k % 2:  # flip one entry: d^2 may or may not stay 0
                hq, s, t = rng.choice([
                    ((h, q), s, t) for (h, q), s in c.slices.items()
                    if s and (t := c.slices.get((h + 1, q)))])
                c = with_column_flipped(c, hq, rng.randrange(len(s)),
                                        1 << rng.randrange(len(t)))
            out.append((c, None if k % 2 else True))
        return out
    diagrams = [parse_pd(TREFOIL), parse_pd(FIGURE_EIGHT)]
    if family == "bad-shape":
        return [(build_with_a_bad_shape(d, reduced, monkeypatch), False)
                for d in diagrams for reduced in (True, False)]
    mutate = {"live-row": flip_a_live_row, "wide-column": widen_a_column,
              "cleared-column": flip_a_cleared_column}[family]
    if family == "cleared-column":
        diagrams += list(store.corpus.values())
    out = [mutate(build(d, reduced))
           for d in diagrams for reduced in (True, False)]
    return [(c, False) for c in out if c is not None]


@pytest.mark.parametrize("family", [
    "corpus", "probe", "braid-complex", "planted", "live-row",
    "wide-column", "bad-shape", "cleared-column"])
def test_d_squared_agrees_with_the_composite_reference(family, store,
                                                        monkeypatch):
    # the families after "planted" are mutation controls;
    # "cleared-column" corrupts only columns the clearing skips
    inputs = d_squared_inputs(family, store, monkeypatch)
    assert inputs
    for c, zero in inputs:
        assert squares_to_zero(c) == zero or zero is None
        assert verify_d_squared(c) == squares_to_zero(c)
    if family == "planted":
        assert {squares_to_zero(c) for c, _ in inputs} == {True, False}


def test_a_column_past_its_target_slice_is_caught():
    c = widen_a_column(build(parse_pd(TREFOIL), reduced=True))
    assert global_layout.slice_faults(c) != []


def test_a_slice_of_the_wrong_size_is_caught():
    c = build(parse_pd(FIGURE_EIGHT), reduced=False)
    hq, cols = next(iter(c.slices.items()))
    assert global_layout.slice_faults(changed_copy(c, {hq: cols + (0,)}))
    assert global_layout.slice_faults(changed_copy(c, {hq: cols})) == []
    assert global_layout.slice_faults(changed_copy(c, {hq: None}))


def test_a_built_complex_refuses_every_write():
    # the ranks a passed check leaves stay right because nothing can
    # change the columns they were taken from
    c = build(parse_pd(FIGURE_EIGHT), reduced=False)
    assert verify_d_squared(c)
    pages = compute(c)
    hq = next(iter(c.slices))

    def set_a_slice():
        c.slices[hq] = ()

    def set_a_column():
        c.slices[hq][0] = 1

    def set_the_slices():
        c.slices = {}

    def delete_a_slice():
        del c.slices[hq]

    for write in (set_a_slice, set_a_column, set_the_slices, delete_a_slice):
        with pytest.raises((TypeError, AttributeError)):
            write()
        assert compute(c) == pages
    assert compute(changed_copy(c, {})) == pages


def enumerated_generators(d, reduced, c) -> list:
    """The generators in the order the runs of each slice listed them:
    slices in ``c``'s map order; in a slice, by increasing vertex, then
    increasing monomial (gradings from ``cube.resolve``)."""
    d = marked_diagram(d, reduced)
    at: dict = {}
    for u in range(1 << len(d.crossings)):
        res = resolve(d, u)
        for m in range(1 << (res.circle_count - 1)):
            hq = global_layout.generator_gradings(d, res, m)
            at.setdefault(hq, []).append(filtered.KhGenerator(u, m, *hq))
    return [g for hq in c.slices for g in at.pop(hq, [])] + [
        g for rest in at.values() for g in rest]


def test_build_creates_no_generator_objects(monkeypatch):
    # the generators are derived from the letters on demand, in the
    # order the slices' runs gave them
    def refused(*args):
        raise AssertionError("build made a KhGenerator")

    for d in (parse_pd(FIGURE_EIGHT), parse_pd(probe_closures()[0])):
        for reduced in (True, False):
            monkeypatch.setattr(filtered, "KhGenerator", refused)
            c = build(d, reduced=reduced)
            monkeypatch.undo()
            want = enumerated_generators(d, reduced, c)
            assert list(c.generators) == want
            assert c.n_generators == len(want)


def test_every_read_of_generators_yields_them_all_again():
    c = build(parse_pd(probe_closures()[0]))
    first = c.generators
    assert not isinstance(first, list)
    assert list(first) == list(c.generators)
    assert list(first) == []  # an exhausted read, not the complex, is spent


def twelve_crossing_closures() -> list:
    """The 12-crossing closures of the benchmark's ``braid-complex``
    workload, seed 1."""
    return [d for d in map(parse_pd, bench_closures("braid-complex"))
            if len(d.crossings) == 12]


@contextlib.contextmanager
def tracing():
    """Trace allocations from here on, once the collector has run."""
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc is already tracing")
    gc.collect()
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def traced_build(d) -> tuple[int, int]:
    """``build``'s traced peak on ``d``, and the traced bytes that
    freeing the complex it returns gives back."""
    with tracing():
        c = build(d)
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del c
        gc.collect()
        return peak, held - tracemalloc.get_traced_memory()[0]


def test_counting_the_generators_holds_almost_nothing():
    # generators yields them slice by slice: counting (h, q) over all
    # 25,737 never holds them at once (the list took about 70% of the
    # complex)
    d = twelve_crossing_closures()[0]
    c = build(d)
    with tracing():
        chain = Counter((g.h, g.q) for g in c.generators)
        peak = tracemalloc.get_traced_memory()[1]
    assert sum(chain.values()) == c.n_generators == 25737
    assert peak < 0.10 * traced_build(d)[1]


def test_build_holds_little_beside_the_complex():
    # with the edge tables warm, build's peak is its columns plus the
    # walk and a vertex layout freed as the edge pass passes it (1.07-
    # 1.09x here; holding the layout to the end took 1.25-1.35x)
    for d in twelve_crossing_closures():
        build(d)  # the edge tables last as long as the process
        peak, size = traced_build(d)
        assert peak <= 1.15 * size


def mask_bytes_per_nonzero(c) -> float:
    """Bytes of the stored column masks per nonzero of d."""
    cols = [col for s in c.slices.values() for col in s]
    return (sum(col.bit_length() for col in cols) / 8
            / sum(col.bit_count() for col in cols))


@pytest.mark.parametrize("word, strands, bound", [
    ([1, 2] * 6, 3, 24),
    ([1] * 11, 2, 74),  # T(2,11)
    ([1, 2] * 7, 3, 104),
])
def test_mask_bytes_per_nonzero(word, strands, bound):
    # a column is as wide as its target slice; over the q-block it was
    # as wide as its row offset there: 47.6, 147 and 207 bytes per
    # nonzero on these three
    c = build(braid_closure(word, strands))
    assert global_layout.slice_faults(c) == []
    assert mask_bytes_per_nonzero(c) <= bound


def test_size_cap():
    with pytest.raises(SizeCapError):
        build(parse_pd(TREFOIL), reduced=False, max_generators=10)


def torus_pd(n: int) -> str:
    """PD of T(2, n), the closure of the 2-braid sigma_1^n."""
    def arc(i):
        return (i - 1) % (2 * n) + 1
    return "PD[" + ",".join(
        f"X({arc(2 * k + 1)},{arc(2 * k + 4)},{arc(2 * k + 2)},"
        f"{arc(2 * k + 5)})" for k in range(n)) + "]"


def vertices_walked(d, cap: float) -> int:
    """How many vertices ``cube.walk`` numbers before it raises
    ``SizeCapError`` on ``d`` under ``cap``: the length of its list of
    labels, one a vertex, in the frame that raised (none before the
    walk)."""
    with pytest.raises(SizeCapError) as raised:
        cube.walk(d, cap)
    tb = raised.tb
    while tb.tb_frame.f_code is not cube.walk.__code__:
        tb = tb.tb_next
    return len(tb.tb_frame.f_locals.get("labels", ()))


def test_size_cap_fires_before_resolving_the_cube():
    # every vertex has a generator, so a cap below the 2^22 vertices is
    # refused before the walk resolves any
    assert torus_pd(3) == TREFOIL
    assert vertices_walked(parse_pd(torus_pd(22)), 1000) == 0


def test_size_cap_fires_within_the_walk():
    # a cap of 2^16 lets the walk start on the 2^16 vertices of T(2,16),
    # and the generators pass it before the last vertex
    walked = vertices_walked(parse_pd(torus_pd(16)), 1 << 16)
    assert 0 < walked < 1 << 16


def test_size_cap_counts_the_crossingless_circles():
    # one vertex, but 2^(0x110000 - 1) generators: more than a list can
    # hold even with no cap, refused before the walk names its arcs
    d = from_crossings((), extras=0x110000)
    assert vertices_walked(d, float("inf")) == 0


def test_r2_square_diagonal_matches_path_composite():
    # across the full poke square the jump-2 component of D must agree
    # with the two-edge composite, d has no entry there, and both square
    # to 0
    poked = reidemeister2(parse_pd("U"), None, None)
    c = build(poked, reduced=False)
    composite = d_oracle.build(poked, reduced=False)
    assert verify_d_squared(c)
    assert all(d_oracle.compose(b.cols, b.cols) == [0] * len(b.cols)
               for b in composite.blocks)
    comp = diagonal_map(poked, 0b00, 0b11, reduced=False)
    want = {(2, (0b00, j), (0b11, i))
            for j, col in enumerate(comp)
            for i in global_layout.bits(col)}

    def square(c):
        return {e for e in global_layout.stored_entries(c)
                if e[1][0] == 0b00 and e[2][0] == 0b11}

    assert square(composite) == want
    assert square(c) == set()
    # this particular square composite is nonzero over GF(2)
    assert want
