import sys
from importlib import resources
from pathlib import Path

import pytest

import d_oracle
from khss import build, compute, load_corpus, parse_pd
from khss.filtered import FilteredComplex

TREFOIL = "PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]"
TREFOIL_RH = "PD[X(4,2,5,1),X(6,4,1,3),X(2,6,3,5)]"
FIGURE_EIGHT = "PD[X(4,2,5,1),X(8,6,1,5),X(6,3,7,4),X(2,7,3,8)]"
HOPF = "PD[X(1,3,2,4),X(3,1,4,2)]"
# these parse, but a cube edge of each is not a local merge or split
NOT_LOCAL = ["PD[X(2,1,1,4),X(3,2,3,4)]", "PD[X(3,1,3,4),X(4,1,2,2)]",
             "PD[X(3,2,2,1),X(4,3,4,1)]"]

ROOT = Path(__file__).resolve().parents[1]


def corpus_path() -> str:
    return str(resources.files("khss") / "data" / "knots.csv")


def braid_closure(word: list[int], strands: int):
    """The diagram of the closure of a braid word (i = sigma_i, -i its
    inverse) on ``strands`` strands."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        from gen_corpus import braid_closure_pd
    finally:
        del sys.path[0]
    return parse_pd(braid_closure_pd(word, strands))


def bench_closures(workload: str) -> list[str]:
    """PD texts of the closures of the benchmark's ``probe`` or
    ``braid-complex`` workload, seed 1."""
    sys.path[:0] = [str(ROOT / "tools"), str(ROOT / "perfbench")]
    try:
        import inputs
    finally:
        del sys.path[:2]
    mix = {"probe": inputs.PROBE_MIX,
           "braid-complex": inputs.BRAID_COMPLEX_MIX}[workload]
    return [case.pd for case in inputs.braid_cases(mix, 1, workload)]


def probe_closures() -> list[str]:
    return bench_closures("probe")


def changed_copy(c: FilteredComplex, slices: dict) -> FilteredComplex:
    """A new complex: ``c`` with the slice at each key of ``slices``
    replaced by the columns given there, added if ``c`` has none, or
    removed where they are None.  A complex does not change, so this is
    how a test plants a fault in one; the copy has checked nothing."""
    merged = {**c.slices, **slices}
    return FilteredComplex({hq: cols for hq, cols in merged.items()
                            if cols is not None},
                           c.letters, c.n_minus, c.writhe)


class Store:
    """Session-wide cache of built complexes and spectral results."""

    def __init__(self):
        self.corpus = dict(load_corpus(corpus_path()))
        self._complexes = {}
        self._composites = {}
        self._results = {}

    def complex(self, name: str, reduced: bool = True):
        key = (name, reduced)
        if key not in self._complexes:
            self._complexes[key] = build(self.corpus[name], reduced=reduced)
        return self._complexes[key]

    def composite(self, name: str, reduced: bool = True):
        """The complex with the composite differential D of d_oracle."""
        key = (name, reduced)
        if key not in self._composites:
            self._composites[key] = d_oracle.build(self.corpus[name], reduced)
        return self._composites[key]

    def result(self, name: str, reduced: bool = True):
        key = (name, reduced)
        if key not in self._results:
            self._results[key] = compute(self.complex(name, reduced))
        return self._results[key]

    def names(self, max_crossings: int = 99) -> list[str]:
        return [n for n, d in self.corpus.items()
                if len(d.crossings) <= max_crossings]


@pytest.fixture(scope="session")
def store() -> Store:
    return Store()
