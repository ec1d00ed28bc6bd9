"""Canonical hyperplane realization of a gain graph.

A link (tail u, head v, gain g) realizes the hyperplane x_u = g*x_v, stored
as the normal vector with +1 at u and -g at v; an unbalanced loop at u
realizes x_u = 0.  Reorienting an edge or switching the graph only rescales
normals, so everything downstream compares ranks, never raw coefficients.

The library finds dependent triples only combinatorially
(:func:`falkkit.patterns.triangles`).  The tests rank the normals of every
edge triple with their own rational eliminator and check that the dependent
triples are exactly the triangles.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import GainGraph


class ArrangementError(ValueError):
    """Raised when two edges would realize the same hyperplane."""


@dataclass(frozen=True)
class Hyperplane:
    edge_id: int
    normal: tuple[Fraction, ...]


def arrangement(g: GainGraph) -> list[Hyperplane]:
    """One hyperplane per edge, pairwise non-proportional.

    Proportional normals mean a balanced loop/2-circle or a repeated loop
    slipped through (an H4/H5 violation), and are reported as an error.
    """
    planes = []
    for e in g.edges:
        normal = [Fraction(0)] * g.num_vertices
        normal[e.tail - 1] = Fraction(1)
        if not e.is_loop:
            normal[e.head - 1] = -e.gain
        planes.append(Hyperplane(e.id, tuple(normal)))
    seen: dict[tuple[Fraction, ...], int] = {}
    for h in planes:
        key = _projective_key(h.normal)
        if key in seen:
            raise ArrangementError(
                f"edges {seen[key]} and {h.edge_id} realize the same hyperplane"
            )
        seen[key] = h.edge_id
    return planes


def _projective_key(normal: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    lead = next(c for c in normal if c)
    return tuple(c / lead for c in normal)
