"""The two TQFTs on marked unlinks and the grading-shift calculus.

The Frobenius algebra is F2[X]/(X^2) with v+ = 1 and v- = X, counit
eps(v-) = 1, eps(v+) = 0.  Reduced state spaces use the letters T = v+
and B = v- on the unmarked circles only; the marked circle carries no
letter.  Generator matrices act on the first one or two unmarked tensor
factors; arbitrary positions are reached by conjugating with swaps.

The cube has one edge rule, ``edge_columns_reduced``; both flavors of
``filtered.build`` run it.  ``edge_columns_unreduced`` is that rule
beside an untouched marked circle.

Monomial encoding: basis monomials of V^(tensor m) are integers whose
bit j records the letter on circle j (0 = v+/T, 1 = v-/B).  A linear
map is a list of column masks: entry b is the XOR-set of target basis
indices hit by source basis monomial b; ``compose_columns`` and
``reduce_columns`` are the package's GF(2) operations on such lists.
"""

from __future__ import annotations

from collections.abc import Container, Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .cube import EdgeCobordism

V_PLUS = 0   # the unit, also the letter T
V_MINUS = 1  # the degree-dropping letter, also B


def letter_product(x: int, y: int) -> int | None:
    """Multiply two letters; None encodes zero (v- v- = 0)."""
    if x == V_MINUS and y == V_MINUS:
        return None
    return x | y


def letter_coproduct(x: int) -> list[tuple[int, int]]:
    """Comultiply a letter into pairs: Delta(v+) = v+v- + v-v+,
    Delta(v-) = v-v-."""
    if x == V_MINUS:
        return [(V_MINUS, V_MINUS)]
    return [(V_PLUS, V_MINUS), (V_MINUS, V_PLUS)]


# ---------------------------------------------------------------------------
# Edge maps of the cube (the marked-circle quotient)

def edge_columns_reduced(e: EdgeCobordism) -> list[int]:
    """Column masks of the reduced edge map, by the quotient: put v+ on
    the marked circle (bit 0), apply the merge/split rule, delete every
    term carrying v- there and shift the marked bit off.  Circles the
    edge does not touch keep their letters; they pair up in increasing
    index order (see ``cube``).  No image monomial repeats, so a
    column's XOR of its terms is their union."""
    merge = e.kind == "merge"
    s, t = e.sources, e.targets
    kept = list(zip(
        (i for i in range(e.circles) if i not in s),
        (j for j in range(e.circles + (-1 if merge else 1)) if j not in t)))
    cols = []
    for m in range(0, 1 << e.circles, 2):
        base = 0
        for i, j in kept:
            base |= ((m >> i) & 1) << j
        if merge:
            p = letter_product((m >> s[0]) & 1, (m >> s[1]) & 1)
            terms = () if p is None else (base | p << t[0],)
        else:
            terms = [base | a << t[0] | b << t[1]
                     for a, b in letter_coproduct((m >> s[0]) & 1)]
        acc = 0
        for x in terms:
            if not x & 1:
                acc ^= 1 << (x >> 1)
        cols.append(acc)
    return cols


def edge_columns_unreduced(e: EdgeCobordism) -> list[int]:
    """Column masks of the edge map on V^(tensor circles): the reduced
    map of the same shape beside one more circle, the marked one, which
    the edge does not touch (see ``filtered``)."""
    return edge_columns_reduced(EdgeCobordism(
        e.kind, e.circles + 1, tuple(i + 1 for i in e.sources),
        tuple(j + 1 for j in e.targets)))


def compose_columns(first: Iterable[int], second: Sequence[int]) -> list[int]:
    """Columns of (second after first)."""
    out = []
    for mask in first:
        acc = 0
        while mask:  # clearing the top bit shrinks the int each step
            top = mask.bit_length() - 1
            acc ^= second[top]
            mask ^= 1 << top
        out.append(acc)
    return out


def reduce_columns(cols: Sequence[int],
                   clear: Container[int] = ()) -> dict[int, int]:
    """Reduce the columns left to right on their highest row: pivot row
    -> reduced column.  The columns indexed in ``clear`` are skipped:
    the caller knows they reduce to zero."""
    reduced: dict[int, int] = {}
    for i, col in enumerate(cols):
        if i in clear:
            continue
        while col:
            low = col.bit_length() - 1
            other = reduced.get(low)
            if other is None:
                reduced[low] = col
                break
            col ^= other
    return reduced


# ---------------------------------------------------------------------------
# Generators of the cobordism category on marked unlinks

# kind -> (fewest source components, change in the component count)
GENERATOR_ARITY = {"V": (1, 1), "Lam": (2, -1), "X": (3, 0), "IV": (2, 1),
                   "ILam": (3, -1), "Birth": (1, 1), "Death": (2, -1)}


@dataclass(frozen=True)
class Generator:
    """An elementary cobordism between marked unlinks.

    ``n`` is the number of source components (marked one included);
    ``i`` is the swapped position for kind "X" (components i, i+1,
    with 2 <= i <= n-1: the marked component cannot be swapped).
    """

    kind: str
    n: int
    i: int | None = None

    def __post_init__(self):
        if self.kind not in GENERATOR_ARITY:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        k, n = self.kind, self.n
        least = GENERATOR_ARITY[k][0]
        if n < least:
            raise ValueError(f"{k} needs n >= {least}")
        if k == "X":
            if self.i is None or not 2 <= self.i <= n - 1:
                raise ValueError(
                    "X swaps components i, i+1 with 2 <= i <= n-1; "
                    "the marked component cannot be swapped")
        elif self.i is not None:
            raise ValueError(f"{k} takes no position index")

    @property
    def source_size(self) -> int:
        return self.n

    @property
    def target_size(self) -> int:
        return self.n + GENERATOR_ARITY[self.kind][1]


def hfl_columns(g: Generator) -> list[int]:
    """The stated generator matrix on the canonical T/B bases, as
    column masks."""
    n_src = 1 << (g.source_size - 1)
    cols = []
    for m in range(n_src):
        cols.append(_hfl_one(g, m))
    return cols


def _hfl_one(g: Generator, m: int) -> int:
    k = g.kind
    if k == "V":                       # x -> B (x) on a new first factor
        return 1 << ((m << 1) | 1)
    if k == "Lam":                     # T x -> x ; B x -> 0
        return 0 if m & 1 else 1 << (m >> 1)
    if k == "X":                       # swap factors i-1, i (bits i-2, i-1)
        lo, hi = g.i - 2, g.i - 1
        a, b = (m >> lo) & 1, (m >> hi) & 1
        sw = m & ~((1 << lo) | (1 << hi)) | (b << lo) | (a << hi)
        return 1 << sw
    if k == "IV":                      # T * -> (T B + B T) * ; B * -> B B *
        rest = (m >> 1) << 2
        if m & 1:
            return 1 << (rest | 0b11)
        return (1 << (rest | 0b01)) ^ (1 << (rest | 0b10))
    if k == "ILam":                    # TT->T, TB->B, BT->B, BB->0
        low, rest = m & 0b11, (m >> 2) << 1
        if low == 0b11:
            return 0
        return 1 << (rest | (1 if low else 0))
    if k == "Birth":                   # x -> x (x) T appended last
        return 1 << m
    # Death: last factor T -> 0, B -> 1
    bit = 1 << (g.source_size - 2)
    return 1 << (m & ~bit) if m & bit else 0


# the saddle generators as cube edge shapes: (kind, sources, targets)
_SADDLES = {
    "V": ("split", (0,), (0, 1)),
    "Lam": ("merge", (0, 1), (0,)),
    "IV": ("split", (1,), (1, 2)),
    "ILam": ("merge", (1, 2), (1,)),
}


def reduced_columns(g: Generator) -> list[int]:
    """The same generator through the marked-circle quotient, as column
    masks.  A saddle is the reduced cube edge map of its shape, the one
    merge/split rule of the pipeline; a swap, cup or cap involves no
    saddle and is its stated matrix."""
    if g.kind not in _SADDLES:
        return hfl_columns(g)
    kind, sources, targets = _SADDLES[g.kind]
    return edge_columns_reduced(EdgeCobordism(kind, g.n, sources, targets))


@dataclass(frozen=True)
class GeneratorWord:
    """A composable sequence of generators, applied left to right."""

    generators: tuple[Generator, ...]

    def __post_init__(self):
        for a, b in zip(self.generators, self.generators[1:]):
            if a.target_size != b.source_size:
                raise ValueError(
                    f"non-composable word: {a.kind} targets {a.target_size} "
                    f"components but {b.kind} expects {b.source_size}")

    @property
    def source_size(self) -> int:
        return self.generators[0].source_size if self.generators else 1

    @property
    def target_size(self) -> int:
        return self.generators[-1].target_size if self.generators else 1


def evaluate_word(word: GeneratorWord, matrix_fn=hfl_columns) -> list[int]:
    """Column masks of the composite of a word, identity when empty."""
    cols = [1 << m for m in range(1 << (word.source_size - 1))]
    for g in word.generators:
        cols = compose_columns(cols, matrix_fn(g))
    return cols


@dataclass(frozen=True)
class TriangleReport:
    ok: bool
    detail: str = ""


def check_triangle(word: GeneratorWord) -> TriangleReport:
    """Compare the composites of the stated generator matrices and the
    quotient-construction matrices along a word."""
    lhs = evaluate_word(word, hfl_columns)
    rhs = evaluate_word(word, reduced_columns)
    if lhs == rhs:
        return TriangleReport(True)
    col = next(i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
    return TriangleReport(
        False, f"composites differ at source basis monomial {col}")


# ---------------------------------------------------------------------------
# Grading-shift calculus (half-integers stored doubled)

@dataclass(frozen=True)
class GradingShift:
    """Alexander/Maslov shift of a cobordism map, doubled to stay integral."""

    alexander2: int
    maslov2: int

    @property
    def alexander(self) -> Fraction:
        return Fraction(self.alexander2, 2)

    @property
    def maslov(self) -> Fraction:
        return Fraction(self.maslov2, 2)

    @property
    def delta(self) -> Fraction:
        return self.alexander - self.maslov

    def __add__(self, other: "GradingShift") -> "GradingShift":
        return GradingShift(self.alexander2 + other.alexander2,
                            self.maslov2 + other.maslov2)


_SHIFT_TABLE = {
    "pos-stab": (1, 1),
    "neg-stab": (-1, -1),
    "pos-destab": (1, 1),
    "neg-destab": (-1, -1),
    "birth": (0, 1),
    "death": (0, 1),
    "saddle": (0, -1),
    "isotopy": (0, 0),
}


def grading_shift_word(kinds: list[str]) -> GradingShift:
    """Sum of the per-kind (Alexander, Maslov) shifts."""
    total = GradingShift(0, 0)
    for kind in kinds:
        if kind not in _SHIFT_TABLE:
            raise ValueError(f"unknown elementary cobordism kind {kind!r}")
        total = total + GradingShift(*_SHIFT_TABLE[kind])
    return total
