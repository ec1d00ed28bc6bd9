"""Two independent routes to the degree-3 lower-central-series rank (phi_3).

:func:`phi3_rank` evaluates the exact linear-algebra formula

    phi3 = 2*C(n+1,3) - n*dim(A^2) + C(n,3) - dim(I^3_2)

from exact ranks of explicit integer matrices; it is valid for any gain graph
whose hyperplanes are pairwise distinct (H4 and H5).

:func:`phi3_combinatorial` evaluates the census form, a local part plus a
global excess,

    phi3 = 2*(k3 + d21 + k22 + theta)
           + 2*(k4 + d3 + k33 + gcirc + g2) + 5*d31 + g1

from subgraph occurrence counts; it is only claimed under H1-H5, so
:func:`verify` withholds it (rather than guessing) when hypotheses fail.
The local part counts two per rank-2 flat of size three: under H1-H5 the
four local counts sum to the number of triangles |T|, and phi3 depends only
on the flats of rank at most 2 (Falk 1988).  The excess comes from the
larger patterns.  Since dim(A^2) = C(n,2) - |T| under H1-H5, the rank
formula reads phi3 = n*|T| - dim(I^3_2), so the same two numbers give the
companion :func:`dim_I3_2_closed_form` = (n-2)*local - excess.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Mapping, Sequence

from . import exterior
from .graphs import GainGraph, ValidationReport, validate
from .patterns import _KIND_FIELD, PatternCounts, Triangle, _census, require_hypotheses, triangles

_RANK_FIELDS = (
    "num_triangles",
    "triangle_list",
    "dim_A2",
    "dim_I3_2",
    "span_F3_size",
    "span_F3_rank",
    "phi3_rank",
)


def _rank_route(n: int, tris: Sequence[Triangle]) -> tuple[int, int, int]:
    """dim(A^2), dim(I^3_2) and phi3 from them, for a caller that has checked
    H4 and H5 and holds ``triangles(g)``."""
    dim_a2 = exterior.dim_A2(n, tris)
    dim_i32 = exterior.dim_I3_2(n, tris)
    return dim_a2, dim_i32, 2 * comb(n + 1, 3) - n * dim_a2 + comb(n, 3) - dim_i32


def phi3_rank(g: GainGraph) -> int:
    """Falk invariant via exact ranks of the degree-2/3 ideal slices.

    Refuses (raises :class:`HypothesisError`) when H4 or H5 fails, since the
    hyperplanes are then not pairwise distinct.
    """
    require_hypotheses(g, ("H4", "H5"))
    return _rank_route(g.n, triangles(g))[2]


# coefficient of each larger pattern in phi3's global excess
_EXCESS = {"k4": 2, "d3": 2, "k33": 2, "gcirc": 2, "g2": 2, "d31": 5, "g1": 1}


def _local_and_excess(counts: PatternCounts) -> tuple[int, int]:
    values = counts.as_dict()
    return (
        # the triangles by kind, under H1-H5 the rank-2 flats of size three
        sum(values[name] for name in _KIND_FIELD.values()),
        sum(c * values[name] for name, c in _EXCESS.items()),
    )


def phi3_combinatorial(counts: PatternCounts) -> int:
    """Falk invariant as a linear form in the occurrence counts: 2*local + excess."""
    local, excess = _local_and_excess(counts)
    return 2 * local + excess


def dim_I3_2_closed_form(n: int, counts: PatternCounts) -> int:
    """Census prediction for dim(I^3_2), valid under H1-H5: (n-2)*local - excess.

    The test suite checks this against the direct elimination on every
    valid graph it touches.
    """
    local, excess = _local_and_excess(counts)
    return (n - 2) * local - excess


@dataclass(frozen=True)
class FalkReport:
    """Everything both pipelines produced, plus what was withheld and why.

    Fields that could not be computed are None and appear in ``withheld``
    mapped to the hypotheses that failed.
    """

    n: int
    num_vertices: int
    hypotheses: ValidationReport
    num_triangles: int | None = None
    triangle_list: tuple[Triangle, ...] | None = None
    dim_A2: int | None = None
    dim_I3_2: int | None = None
    span_F3_size: int | None = None
    span_F3_rank: int | None = None
    counts: PatternCounts | None = None
    phi3_combinatorial: int | None = None
    phi3_rank: int | None = None
    agree: bool | None = None
    withheld: Mapping[str, tuple[str, ...]] = field(default_factory=dict)


def verify(g: GainGraph) -> FalkReport:
    """Run both pipelines with hypothesis gating and report agreement.

    The rank route needs only H4 and H5 (distinct hyperplanes); the census
    route needs H1..H5.  No field is silently skipped: anything not computed
    is listed in ``withheld`` with the failing hypotheses.
    """
    report = validate(g)
    failing = report.failing()
    withheld: dict[str, tuple[str, ...]] = {}
    values: dict = {}

    standing = tuple(h for h in ("H4", "H5") if h in failing)
    if standing:
        for name in _RANK_FIELDS:
            withheld[name] = standing
    else:
        n = g.n
        tris = tuple(triangles(g))
        a2, i32, phi3 = _rank_route(n, tris)
        size, rank_f3 = exterior.span_F3(n, tris)
        values.update(
            num_triangles=len(tris),
            triangle_list=tris,
            dim_A2=a2,
            dim_I3_2=i32,
            span_F3_size=size,
            span_F3_rank=rank_f3,
            phi3_rank=phi3,
        )

    if failing:
        for name in ("counts", "phi3_combinatorial", "agree"):
            withheld[name] = failing
    else:
        counts = _census(g, tris)  # H1..H5 hold, so the rank route built tris
        values["counts"] = counts
        values["phi3_combinatorial"] = phi3_combinatorial(counts)
        values["agree"] = values["phi3_combinatorial"] == values["phi3_rank"]

    return FalkReport(
        n=g.n,
        num_vertices=g.num_vertices,
        hypotheses=report,
        withheld=withheld,
        **values,
    )
