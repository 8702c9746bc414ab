"""The Khovanov differential d and the composite differential D are
conjugate as filtered complexes: G d = D G for the conjugator of
``d_oracle``, so every page r >= 2 of the spectral sequence equals E_2.
"""

import d_oracle
from block_view import block_view
from conftest import TREFOIL, probe_closures
from khss import tqft
from khss.cube import classify_edge
from khss.diagram import parse_pd
from khss.filtered import build, marked_diagram, verify_d_squared


def identity_conjugates(c, composite) -> bool:
    return all(d_oracle.conjugates(b, cb, [1 << j for j in range(len(b.cols))])
               for b, cb in zip(block_view(c).blocks, composite.blocks))


def test_d_conjugates_to_D_on_the_corpus(store):
    for name in store.names():
        n = len(store.corpus[name].crossings)
        for reduced in (True, False):
            c = store.complex(name, reduced)
            composite = store.composite(name, reduced)
            assert d_oracle.conjugate(c, composite, n)
            # control: with crossings D has entries of jump >= 2, so the
            # identity does not conjugate d to D
            assert identity_conjugates(c, composite) == (n == 0)


def test_d_conjugates_to_D_at_every_basepoint(store):
    for name in store.names(5):
        d = store.corpus[name]
        for arc in range(1, d.arc_count + 1):
            moved = d.with_basepoint(arc)
            for reduced in (True, False):
                assert d_oracle.conjugate(build(moved, reduced),
                                          d_oracle.build(moved, reduced),
                                          len(d.crossings))


def test_d_conjugates_to_D_on_the_probe_closures():
    pds = probe_closures()
    assert len(pds) == 30
    for pd in pds:
        d = parse_pd(pd)
        assert d_oracle.conjugate(build(d), d_oracle.build(d),
                                  len(d.crossings))


def test_a_square_that_does_not_commute_is_caught(monkeypatch):
    # mutation control: drop the entry monomial 0 -> monomial 0 from the
    # edges shaped like the one at vertex 0, crossing 0 (q is kept), so
    # the squares at those edges stop commuting; d^2 = 0 and G d = D G
    # must both fail.  Both flavors run the reduced rule, the unreduced
    # one at the shapes of the marked diagram.
    d = parse_pd(TREFOIL)
    real = tqft.edge_columns_reduced
    for reduced in (True, False):
        shape = classify_edge(marked_diagram(d, reduced), 0, 0)

        def corrupted(e, shape=shape):
            cols = real(e)
            if e == shape:
                assert cols[0] & 1
                cols = [cols[0] ^ 1, *cols[1:]]
            return cols

        monkeypatch.setattr(tqft, "edge_columns_reduced", real)
        assert d_oracle.conjugate(build(d, reduced),
                                  d_oracle.build(d, reduced), 3)
        monkeypatch.setattr(tqft, "edge_columns_reduced", corrupted)
        c, composite = build(d, reduced), d_oracle.build(d, reduced)
        assert not verify_d_squared(c)
        assert not d_oracle.conjugate(c, composite, 3)
