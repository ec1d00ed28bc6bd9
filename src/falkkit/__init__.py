"""Exact Falk invariant (phi_3) computations for rational gain graphs.

The invariant is computed two independent ways, a subgraph census with a
closed formula and an exact-rank evaluation on the degree-2/3 slices of the
Orlik-Solomon ideal of the associated hyperplane arrangement, and the two
routes are cross-validated against each other.
"""

from .arrangement import ArrangementError, Hyperplane, arrangement
from .falk import (
    FalkReport,
    dim_I3_2_closed_form,
    phi3_combinatorial,
    phi3_rank,
    verify,
)
from .graphs import (
    Circle,
    CircleError,
    Edge,
    GainGraph,
    GraphFormatError,
    GraphTooLargeError,
    HYPOTHESES,
    HYPOTHESIS_LABELS,
    RANDOM_GAINS,
    ValidationReport,
    Verdict,
    all_circles_small,
    as_gain,
    circle_gain,
    is_balanced,
    parse,
    random_gain_graph,
    serialize,
    switch,
    validate,
)
from .patterns import (
    COUNT_FIELDS,
    HypothesisError,
    Pattern,
    PatternCounts,
    Triangle,
    TriangleKind,
    atlas,
    count_patterns,
    find_occurrences,
    triangles,
)

__version__ = "0.1.0"

__all__ = [
    "ArrangementError",
    "Circle",
    "CircleError",
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
    "RANDOM_GAINS",
    "Triangle",
    "TriangleKind",
    "ValidationReport",
    "Verdict",
    "all_circles_small",
    "arrangement",
    "as_gain",
    "atlas",
    "circle_gain",
    "count_patterns",
    "dim_I3_2_closed_form",
    "find_occurrences",
    "is_balanced",
    "parse",
    "phi3_combinatorial",
    "phi3_rank",
    "random_gain_graph",
    "serialize",
    "switch",
    "triangles",
    "validate",
    "verify",
]
