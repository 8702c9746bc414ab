"""Output checks of the benchmark.

Each evaluated (diagram, flavor) becomes an ``Outcome``; ``failures``
lists the checks it fails, and a case with any failure counts once in
the run's ``failed``.  The knot determinant is computed here from the
PD text alone (a Fox-coloring minor by exact elimination) so that the
Euler-characteristic and rank checks do not rest on ``khss`` code.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from fractions import Fraction

from inputs import pd_crossings


@dataclass
class Outcome:
    """What one evaluation produced, plus the reference values it is
    checked against.  A field left as None is not checked."""

    name: str
    reduced: bool
    det: int
    generators: int | None = None           # from khss
    expected_generators: int | None = None  # independent cube count
    chain: dict | None = None               # (h, q) -> dim C^{h,q}
    d_squared: bool | None = None
    page2: dict | None = None               # (h, q) -> dim E_2
    oracle: dict | None = None              # khovanov_oracle dims
    einf_total: int | None = None
    homology_total: int | None = None
    expected_total: int | None = None       # corpus reference
    flags: dict = field(default_factory=dict)  # extra named verdicts


def fox_determinant(pd: str) -> int:
    """|det| of the knot: any (n-1)-minor of the Fox coloring matrix.

    At ``X(a,b,c,d)`` the under-strand runs a -> c and b, d lie on one
    over-arc; the crossing's row is 2*over - a - c.
    """
    crossings, _extras = pd_crossings(pd)
    if not crossings:
        return 1
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _a, b, _c, d in crossings:
        parent[find(b)] = find(d)
    arcs = sorted({find(x) for cr in crossings for x in cr})
    if len(arcs) != len(crossings):
        raise ValueError("PD text is not a knot diagram with n arcs")
    col = {arc: i for i, arc in enumerate(arcs)}
    rows = []
    for a, b, c, _d in crossings[:-1]:
        row = [Fraction(0)] * len(arcs)
        row[col[find(b)]] += 2
        row[col[find(a)]] -= 1
        row[col[find(c)]] -= 1
        rows.append(row[:-1])
    det = Fraction(1)
    n = len(rows)
    for i in range(n):
        pivot = next((r for r in range(i, n) if rows[r][i] != 0), None)
        if pivot is None:
            return 0
        if pivot != i:
            rows[i], rows[pivot] = rows[pivot], rows[i]
            det = -det
        det *= rows[i][i]
        for r in range(i + 1, n):
            f = rows[r][i] / rows[i][i]
            if f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[i])]
    return abs(int(det))


def euler_at_i(chain: dict) -> complex:
    """sum over (h, q) of (-1)^h i^q dim C^{h,q}."""
    powers = (1, 1j, -1, -1j)
    return sum((-1) ** (h % 2) * powers[q % 4] * dim
               for (h, q), dim in chain.items())


def failures(o: Outcome) -> list[str]:
    """Names of the checks the outcome fails."""
    bad = []
    if o.d_squared is False:
        bad.append("d_squared")
    if o.generators is not None and o.generators != o.expected_generators:
        bad.append("generators")
    if o.chain is not None:
        chi = euler_at_i(o.chain)
        # reduced: |Jones(-1)| = det; unreduced carries a factor q + 1/q
        want = o.det if o.reduced else 0
        if abs(abs(chi) - want) > 1e-9:
            bad.append("euler")
    if o.oracle is not None and o.page2 != o.oracle:
        bad.append("page2_oracle")
    if o.reduced and o.page2 is not None:
        total = sum(o.page2.values())
        if total < o.det or (total - o.det) % 2:
            bad.append("page2_det")
    if o.einf_total is not None and o.einf_total != o.homology_total:
        bad.append("e_infinity")
    if o.expected_total is not None and o.homology_total != o.expected_total:
        bad.append("corpus_total")
    bad.extend(name for name, ok in o.flags.items() if not ok)
    return bad


def fail_frac(outcomes: list[Outcome]) -> float:
    return sum(1 for o in outcomes if failures(o)) / len(outcomes)


def self_test(outcomes: list[Outcome]) -> dict[str, float]:
    """fail_frac after corrupting one outcome, per kind of corruption;
    every value must be above zero for the checks to be trusted."""
    with_page = next((i for i, o in enumerate(outcomes) if o.page2), None)
    if with_page is None:
        return {"nothing_to_corrupt": 0.0}
    out = {}
    bumped = copy.deepcopy(outcomes)
    key = next(iter(bumped[with_page].page2))
    bumped[with_page].page2[key] += 1
    out["page_dim_plus_one"] = fail_frac(bumped)
    wrong = copy.deepcopy(outcomes)
    wrong[with_page].det += 2
    out["determinant_plus_two"] = fail_frac(wrong)
    return out
