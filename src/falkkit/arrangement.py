"""Canonical hyperplane realization of a gain graph.

A link (tail u, head v, gain g) realizes the hyperplane x_u = g*x_v, stored
as the normal vector with +1 at u and -g at v; an unbalanced loop at u
realizes x_u = 0.  Reorienting an edge or switching the graph only rescales
normals, so everything downstream compares ranks, never raw coefficients.

The library finds the rank-2 flats, and so the dependent triples, only
combinatorially (:func:`falkkit.patterns.flats`).  The tests rank the
normals of every edge triple with their own rational eliminator and check
that the dependent triples make up exactly those flats.

Like every gated entry point, :func:`arrangement` refuses a graph through
:meth:`falkkit.graphs.ValidationReport.require`, and this module reads
nothing of the library but :mod:`falkkit.graphs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import GainGraph, GraphTooLargeError, validate

#: most normal coefficients, V per edge, that a realization writes out
MAX_NORMAL_ENTRIES = 10**6


@dataclass(frozen=True)
class Hyperplane:
    edge_id: int
    normal: tuple[Fraction, ...]


def arrangement(g: GainGraph) -> list[Hyperplane]:
    """One hyperplane per edge, pairwise distinct.

    The normals are pairwise non-proportional exactly when H4 and H5 hold,
    so the realization refuses (raises
    :class:`~falkkit.graphs.HypothesisError`) through the same gate as the
    rank route, :meth:`~falkkit.graphs.ValidationReport.require`, when
    either fails.  The normals are dense, so it also refuses
    (raises :class:`~falkkit.graphs.GraphTooLargeError`) a graph whose V*n
    coefficients exceed :data:`MAX_NORMAL_ENTRIES`.
    """
    validate(g).require("flats")
    if g.num_vertices * g.n > MAX_NORMAL_ENTRIES:
        raise GraphTooLargeError(
            f"realization has {g.num_vertices} * {g.n} normal coefficients, "
            f"more than {MAX_NORMAL_ENTRIES}"
        )
    planes = []
    for e in g.edges:
        normal = [Fraction(0)] * g.num_vertices
        normal[e.tail - 1] = Fraction(1)
        if not e.is_loop:
            normal[e.head - 1] = -e.gain
        planes.append(Hyperplane(e.id, tuple(normal)))
    return planes
