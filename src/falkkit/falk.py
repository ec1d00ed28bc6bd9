"""Two routes to the degree-3 lower-central-series rank (phi_3).

The routes are not yet independent: both start from the one walk for the
rank-2 flats (:func:`falkkit.patterns.flats`), so a fault there reaches
both numbers alike, until the rank route takes its flats from the
hyperplanes (ROADMAP item 4).  :class:`Run` orders the stages and holds
the gate for every entry point: :func:`verify`, :func:`phi3_rank` and each
command line view read one run's stages instead of calling the stage
functions.

:func:`phi3_rank` evaluates the exact linear-algebra formula

    phi3 = 2*C(n+1,3) - n*dim(A^2) + C(n,3) - dim(I^3_2)

and is valid for any gain graph whose hyperplanes are pairwise distinct
(H4 and H5).  Both dimensions are read off the rank-2 flats of size >= 3
(Falk 1988: phi3 depends only on them), which one walk over the graph
finds, and one call turns into every rank field
(:func:`falkkit.exterior.rank_fields`): dim(A^2) and the local part
of dim(I^3_2) in closed form, and the global part as the exact rank of
an integer matrix G.  So phi3 = 2|T| + nullity(G), the two per triangle of
the Papadima-Suciu lower bound plus the global excess that G's kernel
carries.  G's kernel lives in the blocks it keeps, which split into groups
by the 3 or 4 vertices they touch, read off the walk's index of the flats
by vertex set; each distinct group is eliminated once.  The size and rank
of F3 follow from the same numbers with no further elimination.

:func:`phi3_combinatorial` evaluates the census form, a local part plus a
global excess,

    phi3 = 2*(k3 + d21 + k22 + theta)
           + 2*(k4 + d3 + k33 + gcirc + g2) + 5*d31 + g1

from subgraph occurrence counts; it is only claimed under H1-H5, so
:func:`verify` withholds it (rather than guessing) when hypotheses fail.
The local part counts two per rank-2 flat of size three: under H1-H5 each
flat is one triangle, so the census reads the rank route's index of the
flats by vertex set, and nothing else, and the four local counts sum to
the number of triangles |T|.  The excess comes from the larger patterns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from . import exterior
from .graphs import FlatIndex, GainGraph, HypothesisError, ValidationReport, validate
from .patterns import _EXCESS, _KIND_FIELD, PatternCounts, Triangle, _census, _triangles, flats


#: the report fields the rank route fills, withheld together when its flats are refused
_RANK_FIELDS = ("num_triangles", "triangle_list", *exterior.RankFields._fields)


class _stage:
    """A :class:`Run` stage: its method runs on the stage's first read, and
    its value is stored as a plain attribute of the run, which every later
    read finds first.  A stage that raises stores nothing, so a refused
    stage raises again.  ``functools.cached_property`` does the same but,
    before CPython 3.12, takes a lock on each first read."""

    def __init__(self, method):
        self.method = method
        self.name = method.__name__
        self.__doc__ = method.__doc__

    def __get__(self, run, owner=None):
        if run is None:
            return self
        value = run.__dict__[self.name] = self.method(run)
        return value


class Run:
    """The stages of one computation on ``g``, in the order they need each other.

    ``hypotheses`` is the validation report.  ``flats`` (the rank-2 flats'
    :class:`~falkkit.graphs.FlatIndex`) and ``counts`` (the census) refuse
    through :meth:`~falkkit.graphs.ValidationReport.require` on
    ``hypotheses``, raising :class:`~falkkit.graphs.HypothesisError`, unless
    what their stage needs (:data:`~falkkit.graphs.NEEDS`) holds.  ``rank``
    (:class:`~falkkit.exterior.RankFields`) and ``counts`` read the index and
    look up no edge; ``triangles`` splits its flats, an output view.  Each
    stage runs on first read and at most once; a refused one raises again.
    """

    def __init__(self, g: GainGraph):
        self.g = g

    @_stage
    def hypotheses(self) -> ValidationReport:
        return validate(self.g)

    @_stage
    def flats(self) -> FlatIndex:
        self.hypotheses.require("flats")
        return flats(self.g)

    @_stage
    def triangles(self) -> tuple[Triangle, ...]:
        return tuple(_triangles(self.flats))

    @_stage
    def rank(self) -> exterior.RankFields:
        return exterior.rank_fields(self.g.n, self.flats)

    @_stage
    def counts(self) -> PatternCounts:
        self.hypotheses.require("census")
        return _census(self.flats)


def phi3_rank(g: GainGraph) -> int:
    """Falk invariant via exact ranks of the degree-2/3 ideal slices.

    Refuses (raises :class:`HypothesisError`) when H4 or H5 fails, since the
    hyperplanes are then not pairwise distinct.
    """
    return Run(g).rank.phi3_rank


def _local_and_excess(counts: PatternCounts) -> tuple[int, int]:
    values = counts.as_dict()
    return (
        # the triangles by kind, under H1-H5 the rank-2 flats of size three
        sum(values[name] for name in _KIND_FIELD.values()),
        sum(c * values[field] for field, (_, c) in _EXCESS.items()),
    )


def phi3_combinatorial(counts: PatternCounts) -> int:
    """Falk invariant as a linear form in the occurrence counts: 2*local + excess."""
    local, excess = _local_and_excess(counts)
    return 2 * local + excess


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


def verify(g: GainGraph | Run) -> FalkReport:
    """Run both pipelines with hypothesis gating and report agreement.

    Each route runs when the hypotheses its stages need hold
    (:data:`~falkkit.graphs.NEEDS`).  No field is silently skipped: the
    fields of a refused stage are listed in ``withheld`` with the failing
    hypotheses that stage needs, as its refusal names them.  Given a
    :class:`Run` of the graph in place of the graph, it reads that run's
    stages, so nothing already computed runs again.
    """
    run = g if isinstance(g, Run) else Run(g)
    withheld: dict[str, tuple[str, ...]] = {}
    values: dict = {}
    try:
        # the rank first: its row bound refuses before the flats are split
        rank = run.rank
        tris = run.triangles
        values.update(num_triangles=len(tris), triangle_list=tris, **rank._asdict())
    except HypothesisError as exc:
        withheld.update(dict.fromkeys(_RANK_FIELDS, exc.unmet))
    try:
        values.update(counts=run.counts, phi3_combinatorial=phi3_combinatorial(run.counts))
        values["agree"] = values["phi3_combinatorial"] == values["phi3_rank"]
    except HypothesisError as exc:
        withheld.update(dict.fromkeys(("counts", "phi3_combinatorial", "agree"), exc.unmet))

    return FalkReport(
        n=run.g.n,
        num_vertices=run.g.num_vertices,
        hypotheses=run.hypotheses,
        withheld=withheld,
        **values,
    )
