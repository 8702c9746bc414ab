"""Over GF(2) the unreduced homology splits as two shifted copies of the
reduced one, for any marked component (Shumakovitch, "Torsion of the
Khovanov homology", Fund. Math. 225 (2014), arXiv:math/0405474):

    dim Kh^{h,q} = dim Khr^{h,q-1} + dim Khr^{h,q+1}.

The unreduced complex has twice the generators of the reduced one and
other block layouts, so the identity checks every page and the total
homology of each flavor against the other.  Since both flavors run the
one reduced edge rule, it is also the check that marking the extra
unknot gives the unreduced theory.
"""

from collections import Counter

from conftest import HOPF, braid_closure, probe_closures
from khss.diagram import parse_pd
from khss.filtered import build
from khss.spectral import compute
from moves import mirror


def split_faults(unreduced, reduced) -> list[str]:
    """Where the unreduced result is not the reduced one twice, shifted
    by q -/+ 1: on a page, or in the total homology."""
    faults = []
    top = max(unreduced.pages[-1].r, reduced.pages[-1].r)
    for r in range(2, top + 1):
        want = Counter()
        for (h, q), dim in reduced.page(r).dims.items():
            want[(h, q - 1)] += dim
            want[(h, q + 1)] += dim
        if unreduced.page(r).dims != want:
            faults.append(f"page {r}")
    want = Counter()
    for q, dim in reduced.total_homology.items():
        want[q - 1] += dim
        want[q + 1] += dim
    if unreduced.total_homology != want:
        faults.append("total homology")
    return faults


def faults_of(d) -> list[str]:
    return split_faults(compute(build(d, reduced=False)), compute(build(d)))


def test_splitting_on_the_corpus(store):
    for name in store.names():
        assert split_faults(store.result(name, False),
                            store.result(name, True)) == [], name


def test_splitting_at_every_basepoint(store):
    # the unreduced complex has no basepoint; the reduced one from every
    # arc must split it
    for name in store.names(5):
        d = store.corpus[name]
        unreduced = store.result(name, False)
        for arc in range(1, d.arc_count + 1):
            reduced = compute(build(d.with_basepoint(arc)))
            assert split_faults(unreduced, reduced) == [], (name, arc)


def test_splitting_on_the_probe_closures():
    for pd in probe_closures():
        assert faults_of(parse_pd(pd)) == [], pd


def test_splitting_on_a_14_crossing_closure():
    d = braid_closure([1, 2] * 7, 3)  # (s1 s2)^7 = T(3, 7)
    assert len(d.crossings) == 14
    assert faults_of(d) == []


def test_splitting_on_two_component_links():
    # the Hopf link, and T(2, 6) marked on either component
    t26 = braid_closure([1] * 6, 2)
    diagrams = [parse_pd(HOPF), t26]
    diagrams += [t26.with_basepoint(comp[0]) for comp in t26.components]
    for d in diagrams:
        assert len(d.components) == 2
        assert faults_of(d) == []


def test_splitting_fails_against_the_mirror(store):
    # mutation control: the mirror trefoil has the reduced table of 3_1
    # reflected in h and q, which does not split 3_1's unreduced one
    trefoil = store.corpus["3_1"]
    assert split_faults(store.result("3_1", False),
                        compute(build(mirror(trefoil)))) != []
