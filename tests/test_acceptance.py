"""Acceptance gate: twelve criteria, one printed pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the lines as
they pass; each criterion is exact (zero tolerance) unless noted.
"""

import random
from fractions import Fraction

import global_layout
import naive
from conftest import FIGURE_EIGHT, HOPF, TREFOIL, TREFOIL_RH, bench_closures
from edge_words import (edge_as_generator_word, edge_word_columns,
                        grading_shift_surface)
from global_layout import all_monotone_paths, diagonal_map
from khss.cli import random_word
from khss.cube import classify_edge
from khss.diagram import (
    StructureError,
    is_alternating,
    parse_pd,
)
from khss.filtered import build, verify_d_squared
from khss.spectral import compare_pages, compute, khovanov_oracle
from khss.tqft import (
    _SHIFT_TABLE,
    check_triangle,
    edge_columns_reduced,
    grading_shift_word,
    hfl_columns,
    reduced_columns,
)
from moves import reidemeister1, reidemeister2
from test_tqft import all_generators


def report(n: int, desc: str, ok: bool) -> None:
    print(f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'} — {desc}")
    assert ok, f"criterion {n} failed: {desc}"


def test_criterion_01_d_squared_zero(store):
    ok = all(verify_d_squared(store.complex(name, reduced))
             for name in store.names(9)
             for reduced in (True, False))
    report(1, "d squared = 0, all corpus diagrams, both flavors", ok)


def test_criterion_02_q_homogeneity(store):
    ok = True
    for name in store.names(9):
        for reduced in (True, False):
            c = store.complex(name, reduced)
            ok &= not global_layout.layout_faults(store.corpus[name], reduced,
                                                  c)
    # the benchmark's seed-1 closures, 8 to 12 crossings, reduced
    for pd in bench_closures("probe") + bench_closures("braid-complex"):
        d = parse_pd(pd)
        ok &= not global_layout.layout_faults(d, True, build(d))
    report(2, "every q-block holds one quantum degree, d raises h", ok)


def test_criterion_03_e2_oracle(store):
    ok = all(
        store.result(name, reduced).page(2).dims
        == khovanov_oracle(store.complex(name, reduced)).dims
        for name in store.names(9) for reduced in (True, False))
    report(3, "page 2 equals the direct homology oracle per (p, q)", ok)


def test_criterion_04_derived_values(store):
    expected = {"U": 1, TREFOIL: 3, FIGURE_EIGHT: 5}
    ok = True
    for text, dim in expected.items():
        ok &= naive.reduced_total_dim(text) == dim
        c = build(parse_pd(text), reduced=True)
        ok &= khovanov_oracle(c).total() == dim
    report(4, "reduced E2 totals 1/3/5 match the naive prototype", ok)


def test_criterion_05_tqft_equality():
    ok = all(hfl_columns(g) == reduced_columns(g)
             for g in all_generators())
    rng = random.Random(42)
    ok &= all(check_triangle(random_word(rng)).ok for _ in range(1000))
    report(5, "generator matrices equal and 1000 random words agree", ok)


def test_criterion_06_edge_word_consistency(store):
    ok = True
    for name in store.names(7):
        d = store.corpus[name]
        n = len(d.crossings)
        for u in range(1 << n):
            for i in range(n):
                if (u >> i) & 1:
                    continue
                edge_as_generator_word(d, u, i)  # must be expressible
                ok &= (edge_word_columns(d, u, i)
                       == edge_columns_reduced(classify_edge(d, u, i)))
    report(6, "generator words reproduce every edge map (<= 7 crossings)", ok)


def test_criterion_07_path_independence(store):
    ok = True
    for name in store.names(7):
        d = store.corpus[name]
        n = len(d.crossings)
        for u in range(1 << n):
            zeros = [i for i in range(n) if not (u >> i) & 1]
            for sub in range(1, 1 << len(zeros)):
                if not 2 <= sub.bit_count() <= 4:
                    continue
                v = u
                for j, z in enumerate(zeros):
                    if (sub >> j) & 1:
                        v |= 1 << z
                paths = all_monotone_paths(u, v)
                base = diagonal_map(d, u, v, reduced=True, path=paths[0])
                ok &= all(
                    diagonal_map(d, u, v, reduced=True, path=p) == base
                    for p in paths[1:])
    report(7, "diagonal maps are path independent (jumps 2..4)", ok)


def _cube_is_planar(d):
    # a poke between arcs that do not share a face has no planar
    # realization; every cube edge must then fail to classify
    try:
        for u in range(1 << len(d.crossings)):
            for i in range(len(d.crossings)):
                if not (u >> i) & 1:
                    classify_edge(d, u, i)
    except StructureError:
        return False
    return True


def _random_move_sequence(rng, d, max_crossings=8):
    for _ in range(rng.randint(1, 2)):
        arcs = sorted({a for t in d.crossings for a in t})
        can_r2 = len(d.crossings) + 2 <= max_crossings
        if not arcs:
            d = (reidemeister1(d, None, rng.choice((1, -1)))
                 if not can_r2 or rng.random() < 0.5
                 else reidemeister2(d, None, None))
        elif len(d.crossings) < max_crossings and (not can_r2
                                                   or rng.random() < 0.5):
            d = reidemeister1(d, rng.choice(arcs), rng.choice((1, -1)))
        elif can_r2:
            for _ in range(20):
                a, b = rng.sample(arcs, 2)
                cand = reidemeister2(d, a, b)
                if _cube_is_planar(cand):
                    d = cand
                    break
            else:
                d = reidemeister1(d, rng.choice(arcs), rng.choice((1, -1)))
    return d


def test_criterion_08_invariance(store):
    rng = random.Random(2024)
    bases = [parse_pd(t) for t in (TREFOIL, FIGURE_EIGHT, HOPF)]
    results = [compute(build(b, reduced=True)) for b in bases]
    ok = True
    for k in range(50):
        base = bases[k % 3]
        moved = _random_move_sequence(rng, base)
        verdict = compare_pages(results[k % 3],
                                compute(build(moved, reduced=True)))
        ok &= verdict.equal
    # fixture pairs: distinct published-style PD codes of the same knots
    for fixture, corpus_name in ((TREFOIL_RH, "3_1"), (FIGURE_EIGHT, "4_1")):
        verdict = compare_pages(
            compute(build(parse_pd(fixture), reduced=True)),
            store.result(corpus_name, True))
        ok &= verdict.equal
    report(8, "50 random R1/R2 sequences and fixture pairs compare equal", ok)


def test_criterion_09_basepoint_independence(store):
    ok = True
    for name in store.names(8):
        d = store.corpus[name]
        comp = d.marked_component()
        if comp is None or len(comp) < 2:
            continue
        base = store.result(name, True)
        for arc in comp:
            moved = compute(build(d.with_basepoint(arc), reduced=True))
            ok &= compare_pages(base, moved).equal
    report(9, "reduced pages independent of the basepoint arc", ok)


def test_criterion_10_thin_collapse(store):
    ok = True
    findings = []
    for name in store.names(9):
        d = store.corpus[name]
        for reduced in (True, False):
            cp = store.result(name, reduced).collapse_page
            if cp > 2:
                findings.append((name, reduced, cp))
            if is_alternating(d) and len(d.crossings) <= 8:
                ok &= cp == 2
    ok &= not findings  # conjecture probe: expected no flagged entries
    report(10, f"alternating knots collapse at page 2; flagged={findings}", ok)


def test_criterion_11_grading_calculus():
    table = {
        "pos-stab": (Fraction(1, 2), Fraction(1, 2)),
        "neg-stab": (Fraction(-1, 2), Fraction(-1, 2)),
        "pos-destab": (Fraction(1, 2), Fraction(1, 2)),
        "neg-destab": (Fraction(-1, 2), Fraction(-1, 2)),
        "birth": (Fraction(0), Fraction(1, 2)),
        "death": (Fraction(0), Fraction(1, 2)),
        "saddle": (Fraction(0), Fraction(-1, 2)),
        "isotopy": (Fraction(0), Fraction(0)),
    }
    ok = all((grading_shift_word([k]).alexander,
              grading_shift_word([k]).maslov) == v
             for k, v in table.items())
    kinds = list(_SHIFT_TABLE)
    surface_data = {"saddle": (-1, 0), "birth": (1, 0), "death": (1, 0),
                    "pos-stab": (0, 1), "neg-stab": (0, -1),
                    "pos-destab": (0, 1), "neg-destab": (0, -1),
                    "isotopy": (0, 0)}
    rng = random.Random(7)
    for _ in range(1000):
        left = [rng.choice(kinds) for _ in range(rng.randint(0, 6))]
        right = [rng.choice(kinds) for _ in range(rng.randint(0, 6))]
        ok &= (grading_shift_word(left + right)
               == grading_shift_word(left) + grading_shift_word(right))
        chi = sum(surface_data[k][0] for k in left)
        imb = sum(surface_data[k][1] for k in left)
        ok &= grading_shift_surface(chi, imb, 0) == grading_shift_word(left)
    report(11, "shift table, additivity, and surface formula agree", ok)


def test_criterion_12_abutment(store):
    ok = True
    for name in store.names(9):
        for reduced in (True, False):
            res = store.result(name, reduced)
            by_q = {}
            for (p, q), dim in res.infinity.dims.items():
                by_q[q] = by_q.get(q, 0) + dim
            ok &= by_q == res.total_homology
    report(12, "infinity page totals equal the homology of the complex", ok)
