import itertools
import random
from fractions import Fraction

import pytest

from edge_words import unreduced_columns
from khss import tqft
from khss.cli import random_word
from khss.cube import EdgeCobordism
from khss.tqft import (
    V_MINUS,
    V_PLUS,
    Generator,
    GeneratorWord,
    check_triangle,
    compose_columns,
    evaluate_word,
    grading_shift_surface,
    grading_shift_word,
    hfl_columns,
    letter_coproduct,
    letter_product,
    reduced_columns,
)

T, B = V_PLUS, V_MINUS


# ----------------------------------------------------------- Frobenius axioms

def test_letter_product_table():
    assert letter_product(T, T) == T
    assert letter_product(T, B) == B
    assert letter_product(B, T) == B
    assert letter_product(B, B) is None  # the square of the dot is zero


def test_letter_coproduct_table():
    assert letter_coproduct(T) == [(T, B), (B, T)]
    assert letter_coproduct(B) == [(B, B)]


def test_multiply_commutative_associative():
    for x, y in itertools.product((T, B), repeat=2):
        assert letter_product(x, y) == letter_product(y, x)
    # associativity on letters, tracking the zero
    def prod3(x, y, z):
        p = letter_product(x, y)
        return None if p is None else letter_product(p, z)
    def prod3r(x, y, z):
        p = letter_product(y, z)
        return None if p is None else letter_product(x, p)
    for x, y, z in itertools.product((T, B), repeat=3):
        assert prod3(x, y, z) == prod3r(x, y, z)


def test_frobenius_compatibility():
    # Delta(m(x,y)) = (m tensor 1)(1 tensor Delta)(x tensor y), on letters
    for x, y in itertools.product((T, B), repeat=2):
        p = letter_product(x, y)
        lhs = set() if p is None else {a | (b << 1)
                                       for a, b in letter_coproduct(p)}
        rhs = set()
        for a, b in letter_coproduct(y):
            q = letter_product(x, a)
            if q is not None:
                rhs ^= {q | (b << 1)}
        assert lhs == rhs


def test_counit_in_death():
    # eps(v-) = 1, eps(v+) = 0, visible through the Death columns
    cols = hfl_columns(Generator("Death", 2))
    assert cols == [0, 1]


# ----------------------------------------------------- stated generator maps

def test_generator_matrix_values():
    assert hfl_columns(Generator("V", 1)) == [0b10]       # x -> B x
    assert hfl_columns(Generator("Lam", 2)) == [1, 0]     # Tx -> x, Bx -> 0
    assert hfl_columns(Generator("IV", 2)) == [
        (1 << 0b01) | (1 << 0b10),                         # T -> TB + BT
        1 << 0b11,                                         # B -> BB
    ]
    assert hfl_columns(Generator("ILam", 3)) == [
        1 << 0, 1 << 1, 1 << 1, 0]                         # TT,BT,TB,BB
    assert hfl_columns(Generator("Birth", 1)) == [1]      # x -> x T
    x = Generator("X", 4, 2)
    assert hfl_columns(x) == [1 << 0, 1 << 2, 1 << 1, 1 << 3,
                               1 << 4, 1 << 6, 1 << 5, 1 << 7]


def test_generator_validation():
    with pytest.raises(ValueError):
        Generator("X", 3, 1)     # marked component cannot be swapped
    with pytest.raises(ValueError):
        Generator("ILam", 2)
    with pytest.raises(ValueError):
        Generator("Nope", 2)
    with pytest.raises(ValueError):
        Generator("V", 2, 1)     # position only for X


def all_generators(max_n=6):
    """Every generator of at most ``max_n`` components, from each kind's
    fewest components in ``tqft.GENERATOR_ARITY``."""
    for kind, (least, _) in tqft.GENERATOR_ARITY.items():
        for n in range(least, max_n + 1):
            if kind == "X":
                yield from (Generator("X", n, i) for i in range(2, n))
            else:
                yield Generator(kind, n)


def test_hfl_equals_reduced_for_every_generator():
    for g in all_generators():
        assert hfl_columns(g) == reduced_columns(g), g


def all_edge_shapes(max_circles):
    """Every merge and split shape with at most ``max_circles`` source
    circles."""
    for c in range(1, max_circles + 1):
        for s in range(c):
            for t in itertools.combinations(range(c + 1), 2):
                yield EdgeCobordism("split", c, (s,), t)
        for s in itertools.combinations(range(c), 2):
            for t in range(c - 1):
                yield EdgeCobordism("merge", c, s, (t,))


def test_unreduced_edge_map_is_the_reduced_one_beside_a_marked_circle():
    shapes = list(all_edge_shapes(7))
    assert len(shapes) == 728
    for e in shapes:
        assert tqft.edge_columns_unreduced(e) == unreduced_columns(e), e


def test_swap_invariance():
    # the doubling map is symmetric in its two new factors
    for n in range(2, 6):
        iv = hfl_columns(Generator("IV", n))
        swap = hfl_columns(Generator("X", n + 1, 2))
        assert compose_columns(iv, swap) == iv
    # and the merge map in its two merged factors
    for n in range(3, 6):
        ilam = hfl_columns(Generator("ILam", n))
        swap = hfl_columns(Generator("X", n, 2))
        assert compose_columns(swap, ilam) == ilam


def test_death_after_birth_is_zero():
    for n in range(1, 5):
        comp = compose_columns(hfl_columns(Generator("Birth", n)),
                               hfl_columns(Generator("Death", n + 1)))
        assert all(c == 0 for c in comp)


def test_generator_degree_homogeneity():
    # popcount change of the image monomials is constant per generator
    expected = {"V": 1, "IV": 1, "Lam": 0, "ILam": 0, "X": 0,
                "Birth": 0, "Death": -1}
    for g in all_generators():
        deltas = set()
        for m, col in enumerate(hfl_columns(g)):
            mask = col
            while mask:
                low = mask & -mask
                idx = low.bit_length() - 1
                deltas.add(idx.bit_count() - m.bit_count())
                mask ^= low
        assert deltas <= {expected[g.kind]}, g


# -------------------------------------------------------------------- words

def test_empty_word_is_identity():
    w = GeneratorWord(())
    assert evaluate_word(w) == [1]


def test_word_composability_enforced():
    with pytest.raises(ValueError):
        GeneratorWord((Generator("V", 2), Generator("Lam", 2)))


def test_check_triangle_random_words():
    rng = random.Random(42)
    for _ in range(300):
        assert check_triangle(random_word(rng)).ok


def test_check_triangle_corrupt_mode_fails(monkeypatch):
    # mutation control: one flipped entry in the stated matrix
    real = tqft.hfl_columns
    monkeypatch.setattr(tqft, "hfl_columns",
                        lambda g: [real(g)[0] ^ 1, *real(g)[1:]])
    report = check_triangle(GeneratorWord((Generator("V", 1),)))
    assert not report.ok
    assert report.detail


# ------------------------------------------------------------------ gradings

def test_shift_table_values():
    cases = {
        "pos-stab": (Fraction(1, 2), Fraction(1, 2)),
        "neg-stab": (Fraction(-1, 2), Fraction(-1, 2)),
        "pos-destab": (Fraction(1, 2), Fraction(1, 2)),
        "neg-destab": (Fraction(-1, 2), Fraction(-1, 2)),
        "birth": (Fraction(0), Fraction(1, 2)),
        "death": (Fraction(0), Fraction(1, 2)),
        "saddle": (Fraction(0), Fraction(-1, 2)),
        "isotopy": (Fraction(0), Fraction(0)),
    }
    for kind, (a, m) in cases.items():
        shift = grading_shift_word([kind])
        assert (shift.alexander, shift.maslov) == (a, m), kind
        assert shift.delta == a - m


def test_shift_word_rejects_unknown_kind():
    with pytest.raises(ValueError):
        grading_shift_word(["cartwheel"])


def test_shift_word_additive():
    from khss.tqft import _SHIFT_TABLE
    kinds = list(_SHIFT_TABLE)
    rng = random.Random(5)
    for _ in range(1000):
        left = [rng.choice(kinds) for _ in range(rng.randint(0, 5))]
        right = [rng.choice(kinds) for _ in range(rng.randint(0, 5))]
        assert (grading_shift_word(left + right)
                == grading_shift_word(left) + grading_shift_word(right))


def test_surface_shift_pair_of_pants():
    shift = grading_shift_surface(-1, 3, 3)
    assert shift == grading_shift_word(["saddle"])
    assert shift.delta == Fraction(1, 2)


def test_surface_shift_matches_word_sum():
    # per-kind surface data: (chi of the piece, chi(R+) - chi(R-))
    surface_data = {
        "saddle": (-1, 0),
        "birth": (1, 0),
        "death": (1, 0),
        "pos-stab": (0, 1),
        "neg-stab": (0, -1),
        "pos-destab": (0, 1),
        "neg-destab": (0, -1),
        "isotopy": (0, 0),
    }
    for kind, (chi, imbalance) in surface_data.items():
        assert grading_shift_surface(chi, imbalance, 0) \
            == grading_shift_word([kind]), kind
    rng = random.Random(9)
    kinds = list(surface_data)
    for _ in range(200):
        word = [rng.choice(kinds) for _ in range(rng.randint(1, 8))]
        chi = sum(surface_data[k][0] for k in word)
        imbalance = sum(surface_data[k][1] for k in word)
        assert grading_shift_surface(chi, imbalance, 0) \
            == grading_shift_word(word)
