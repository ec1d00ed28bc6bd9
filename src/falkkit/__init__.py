"""Exact Falk invariant (phi_3) computations for rational gain graphs.

The invariant is computed two ways, a subgraph census with a closed
formula and an exact-rank evaluation on the degree-2/3 slices of the
Orlik-Solomon ideal of the associated hyperplane arrangement, and the two
routes are cross-validated against each other.  They are not yet
independent: both start from the one walk for the rank-2 flats
(:mod:`falkkit.falk` says more).
"""

from .arrangement import Hyperplane
from .falk import (
    FalkReport,
    phi3_combinatorial,
    phi3_rank,
    verify,
)
from .graphs import (
    Edge,
    GainGraph,
    GraphFormatError,
    GraphTooLargeError,
    HYPOTHESES,
    HYPOTHESIS_LABELS,
    HypothesisError,
    ValidationReport,
    Verdict,
    as_gain,
    parse,
    serialize,
    validate,
)
from .patterns import (
    COUNT_FIELDS,
    Pattern,
    PatternCounts,
    Triangle,
    TriangleKind,
    atlas,
    count_patterns,
    triangles,
)

__version__ = "0.1.0"

__all__ = [
    "COUNT_FIELDS",
    "Edge",
    "FalkReport",
    "GainGraph",
    "GraphFormatError",
    "GraphTooLargeError",
    "HYPOTHESES",
    "HYPOTHESIS_LABELS",
    "Hyperplane",
    "HypothesisError",
    "Pattern",
    "PatternCounts",
    "Triangle",
    "TriangleKind",
    "ValidationReport",
    "Verdict",
    "as_gain",
    "atlas",
    "count_patterns",
    "parse",
    "phi3_combinatorial",
    "phi3_rank",
    "serialize",
    "triangles",
    "validate",
    "verify",
]
