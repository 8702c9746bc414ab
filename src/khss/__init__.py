"""Khovanov-type spectral sequences for knot diagrams over GF(2).

The package builds the cube of resolutions of a planar diagram, assembles
the Khovanov complex (reduced or unreduced flavor) filtered by
homological degree, and computes page 2 of the induced spectral
sequence, Khovanov homology, which every later page equals (see
``khss.spectral``), together with invariance diagnostics.
"""

from .diagram import (
    ParseError,
    PlanarDiagram,
    StructureError,
    is_alternating,
    load_corpus,
    parse_pd,
    render,
)
from .filtered import FilteredComplex, SizeCapError, build, verify_d_squared
from .spectral import (
    PageTable,
    SpectralResult,
    Verdict,
    compare_pages,
    compute,
    khovanov_oracle,
)
from .tqft import (
    Generator,
    GeneratorWord,
    GradingShift,
    check_triangle,
    evaluate_word,
    grading_shift_word,
)

__version__ = "0.1.0"

__all__ = [
    "ParseError",
    "PlanarDiagram",
    "StructureError",
    "is_alternating",
    "load_corpus",
    "parse_pd",
    "render",
    "FilteredComplex",
    "SizeCapError",
    "build",
    "verify_d_squared",
    "PageTable",
    "SpectralResult",
    "Verdict",
    "compare_pages",
    "compute",
    "khovanov_oracle",
    "Generator",
    "GeneratorWord",
    "GradingShift",
    "check_triangle",
    "evaluate_word",
    "grading_shift_word",
    "__version__",
]
