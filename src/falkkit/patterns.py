"""Dependent 3-sets, the distinguished subgraph atlas, and occurrence counts.

Under H4 and H5 the hyperplanes of a gain graph are pairwise distinct, and
its dependent edge triples ("triangles") are the 3-subsets of the rank-2
flats of the arrangement.  A rank-2 flat with at least three elements is
one of:

* a two-vertex flat: a link bundle (u, v) together with the loops at u
  and v.  Every 3-subset of it is dependent, and the loops the triple takes
  give its kind: none, a contrabalanced theta; one, a tight handcuff; two,
  a loose handcuff;
* a three-vertex flat: a balanced 3-circle (three links on three vertices,
  circle gain 1), which has exactly three elements.

H1-H3 say that no two-vertex flat has more than three elements, so under
H1-H5 the triangles are exactly the rank-2 flats of size three.  These
triangles drive both computation routes of the invariant.  The atlas below
fixes one rational-gain realization per distinguished biased graph; every
realization is self-tested on first access, its triangle census must
reproduce the expected distinguished 3-edge circle class.

Occurrences are concrete edge subsets, not isomorphism classes, and
containment exclusions follow the count definitions: a D3 or Gcirc
occurrence inside a D31 occurrence is not counted, and a G1 occurrence
inside a G2 occurrence is not counted.

The four local counts are the triangles by kind: under H4 and H5 the
occurrences of K3, D21, K22 and Theta3 are exactly the balanced 3-circles,
tight handcuffs, loose handcuffs and thetas.  The seven larger patterns
are found by one walk over unions of triangles (:func:`_occurrences`),
the library's only biased-isomorphism decision; the exhaustive decider
the tests check it against lives with the other oracles in the test
helpers.  :attr:`Pattern.profile` (every circle of a reference, with its
balance) is kept for those oracles and for the benchmark harness.

:func:`require_hypotheses` is the one hypothesis gate: the census, the
rank route, the hyperplane realization and the command line refuse
through it.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass, fields
from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

from .graphs import (
    HYPOTHESES,
    GainGraph,
    ValidationReport,
    all_circles_small,
    is_balanced,
    validate,
)


class TriangleKind(str, Enum):
    BALANCED_CIRCLE = "balanced_3_circle"
    THETA = "contrabalanced_theta"
    TIGHT_HANDCUFF = "tight_handcuff"
    LOOSE_HANDCUFF = "loose_handcuff"


@dataclass(frozen=True)
class Triangle:
    """A dependent 3-set of edges together with its circuit kind."""

    edge_ids: tuple[int, int, int]
    kind: TriangleKind


# kind of a triple from a two-vertex flat, by the number of loops it takes
_FLAT_KIND = (TriangleKind.THETA, TriangleKind.TIGHT_HANDCUFF, TriangleKind.LOOSE_HANDCUFF)


class HypothesisError(ValueError):
    """A computation was refused because formula hypotheses fail."""

    def __init__(self, report: ValidationReport):
        self.report = report
        self.failing = report.failing()
        super().__init__("hypotheses violated: " + ", ".join(self.failing))


def require_hypotheses(g: GainGraph, names: Sequence[str]) -> None:
    """Raise :class:`HypothesisError` when any of ``names`` fails for ``g``.

    The error names every failing hypothesis, not only those in ``names``.
    """
    report = validate(g)
    if not report.passes(*names):
        raise HypothesisError(report)


def triangles(g: GainGraph) -> list[Triangle]:
    """All dependent 3-sets, sorted by edge ids: the 3-subsets of the rank-2 flats.

    Requires H4 and H5, so that the hyperplanes are pairwise distinct; it
    does not check them, and its output on a graph where either fails is
    unspecified (the command line refuses such a graph).  H1-H3 may fail.
    Each bundle (u, v) gives its two-vertex flat, the bundle with the loops
    at u and v.  A balanced 3-circle u < v < w is closed from the bundle
    (u, v) through each common neighbour w > v.
    """
    found: list[Triangle] = []
    # each link's gain read from its smaller end
    gain = {e.id: e.gain_from(u) for (u, _), bundle in g.link_map.items() for e in bundle}
    above: dict[int, set[int]] = defaultdict(set)
    for u, v in g.link_map:
        above[u].add(v)
    for (u, v), bundle in g.link_map.items():
        flat = bundle + g.loops_at(u) + g.loops_at(v)
        for triple in itertools.combinations(flat, 3):
            ids = tuple(sorted(e.id for e in triple))
            found.append(Triangle(ids, _FLAT_KIND[sum(e.is_loop for e in triple)]))
        for w in above[u] & above[v]:
            for e in bundle:
                for f in g.links_between(v, w):
                    for h in g.links_between(u, w):
                        # balanced: the circle gain g_e * g_f / g_h is 1
                        if gain[e.id] * gain[f.id] == gain[h.id]:
                            ids = tuple(sorted((e.id, f.id, h.id)))
                            found.append(Triangle(ids, TriangleKind.BALANCED_CIRCLE))
    return sorted(found, key=lambda t: t.edge_ids)


# ---------------------------------------------------------------------------
# bias profiles: every circle of a small graph, with its balance


@dataclass(frozen=True)
class _BiasProfile:
    graph: GainGraph
    verts: tuple[int, ...]
    pair_mult: Mapping[tuple[int, int], int]
    loop_count: Mapping[int, int]
    circles: tuple[tuple[frozenset[int], bool], ...]
    balance_of: Mapping[frozenset[int], bool]
    vertex_sig: Mapping[int, tuple]
    summary: tuple


def _bias_profile(g: GainGraph) -> _BiasProfile:
    pair_mult = {pair: len(es) for pair, es in g.link_map.items()}
    loop_count = {v: len(es) for v, es in g.loop_map.items()}
    circles = tuple((c.edge_ids, is_balanced(g, c)) for c in all_circles_small(g))
    balance_of = {ids: flag for ids, flag in circles}
    vertex_sig = {}
    for v in g.incident_vertices:
        mults = sorted(m for pair, m in pair_mult.items() if v in pair)
        degree = sum(mults) + 2 * loop_count.get(v, 0)
        vertex_sig[v] = (degree, loop_count.get(v, 0), tuple(mults))
    balanced_by_len = Counter(len(ids) for ids, flag in circles if flag)
    circles_by_len = Counter(len(ids) for ids, _ in circles)
    summary = (
        len(g.incident_vertices),
        g.n,
        tuple(sorted(vertex_sig.values())),
        tuple(sorted(pair_mult.values())),
        tuple(sorted(loop_count.values())),
        tuple(sorted(balanced_by_len.items())),
        tuple(sorted(circles_by_len.items())),
    )
    return _BiasProfile(
        g, g.incident_vertices, pair_mult, loop_count, circles, balance_of,
        vertex_sig, summary,
    )


# ---------------------------------------------------------------------------
# the pattern atlas


@dataclass(frozen=True)
class Pattern:
    """Named distinguished biased graph with a fixed rational realization."""

    name: str
    reference: GainGraph
    distinguished: frozenset[frozenset[int]]

    @cached_property
    def profile(self) -> _BiasProfile:
        return _bias_profile(self.reference)


# Each entry: name, vertex count, (tail, head, gain) per edge id 1.., and the
# expected distinguished 3-edge circle class under this labeling (digit
# strings: "126" means edges {1,2,6}).  Realizations were chosen so the
# census reproduces the class exactly; atlas() re-derives and checks this.
_ATLAS_SPEC = (
    ("K3", 3, ((1, 2, 1), (2, 3, 1), (1, 3, 1)), ("123",)),
    ("D21", 2, ((1, 2, 1), (1, 2, 2), (1, 1, 2)), ("123",)),
    ("K22", 2, ((1, 1, 2), (1, 2, 1), (2, 2, 2)), ("123",)),
    ("B2", 2, ((1, 1, 2), (1, 2, 1), (1, 2, 2), (2, 2, 2)),
     ("123", "234", "124", "134")),
    ("K4", 4, ((1, 2, 1), (1, 4, 1), (2, 4, 1), (2, 3, 1), (1, 3, 1), (3, 4, 1)),
     ("123", "145", "256", "346")),
    ("D3", 3, ((1, 2, 1), (1, 2, -1), (1, 3, -1), (1, 3, 1), (2, 3, 1), (2, 3, -1)),
     ("235", "145", "136", "246")),
    ("K33", 3, ((1, 2, 1), (1, 3, 1), (2, 3, 1), (1, 1, 2), (3, 3, 2), (2, 2, 2)),
     ("123", "146", "245", "365")),
    ("Gcirc", 3, ((1, 2, 1), (1, 2, 2), (1, 3, 2), (1, 3, 1), (2, 3, 1), (1, 1, 2)),
     ("126", "145", "235", "346")),
    ("D31", 3,
     ((1, 2, 1), (1, 2, -1), (1, 3, -1), (1, 3, 1), (2, 3, 1), (2, 3, -1), (1, 1, 2)),
     ("127", "145", "235", "347", "136", "246")),
    ("G1", 3,
     ((1, 2, 1), (1, 2, 2), (1, 2, 4), (1, 3, 1), (1, 3, 2), (1, 3, 4),
      (2, 3, 1), (2, 3, 2)),
     ("123", "456", "257", "147", "158", "268", "367")),
    ("G2", 3,
     ((1, 2, 1), (1, 2, 2), (1, 2, 4), (1, 3, 4), (1, 3, 2), (1, 3, 1),
      (2, 3, 2), (2, 3, 1), (2, 3, 4)),
     ("123", "456", "789", "258", "168", "157", "247", "348", "149")),
    ("Theta3", 2, ((1, 2, 1), (1, 2, 2), (1, 2, 3)), ("123",)),
)

_atlas_cache: Mapping[str, Pattern] | None = None


def atlas() -> Mapping[str, Pattern]:
    """The pattern atlas; every realization is census-checked on first access."""
    global _atlas_cache
    if _atlas_cache is None:
        patterns = {}
        for name, num_vertices, edge_spec, classes in _ATLAS_SPEC:
            reference = GainGraph.from_edge_list(num_vertices, edge_spec)
            expected = frozenset(
                frozenset(int(ch) for ch in word) for word in classes
            )
            census = frozenset(frozenset(t.edge_ids) for t in triangles(reference))
            if census != expected:
                raise RuntimeError(
                    f"atlas self-test failed for {name}: "
                    f"census {sorted(sorted(s) for s in census)} != "
                    f"expected {sorted(sorted(s) for s in expected)}"
                )
            patterns[name] = Pattern(name, reference, expected)
        _atlas_cache = MappingProxyType(patterns)
    return _atlas_cache


def find_occurrences(
    g: GainGraph, pattern: Pattern, tris: Sequence[Triangle] | None = None
) -> set[frozenset[int]]:
    """Edge sets of ``g`` inducing a subgraph biased-isomorphic to the pattern.

    Assumes H4 and H5, as :func:`triangles` does; ``tris`` is
    ``triangles(g)`` when the caller already has it.  This is the walk of
    :func:`_occurrences` given one pattern, so it prunes with that
    pattern's own edge, vertex and triangle counts.
    """
    if tris is None:
        tris = triangles(g)
    return _occurrences(g, tris, (pattern,))[pattern.name]


def _occurrences(
    g: GainGraph, tris: Sequence[Triangle], patterns: Sequence[Pattern]
) -> dict[str, set[frozenset[int]]]:
    """Occurrences of every given pattern, from one walk over unions of triangles.

    An occurrence is the union of its k distinguished triples, which are
    host triangles linked by shared edges.  A union of m edges with exactly
    k host triangles inside is accepted when some incidence-preserving
    bijection onto the pattern carries those triangles onto the
    distinguished triples (:func:`_carries_triangles`).

    This is exact under H4 because a biased graph is fixed by its
    multigraph and its balanced circles.  Every atlas pattern except K4 has
    at most three vertices, where the only circles that can be balanced are
    3-circles, and a 3-circle is balanced exactly when it is a triangle.
    K4's four balanced triangles force its 4-circles to be balanced.  Every
    union explored has at most four vertices, so the work is O(|T|) times
    the number of local unions around a triangle, with no V^k term.

    Starting from each host triangle, the walk adds one triangle at a time
    that shares an edge with the union, and visits each union once.  It
    prunes a union with more vertices than any pattern, or with more edges
    or more host triangles inside it than any pattern on at least as many
    vertices; edges, vertices and inside triangles only grow with the
    union, so the pruning loses no occurrence.  Each union is tested against the patterns
    with its numbers of edges, inside triangles and vertices.

    Below the vertex cap a union grows by the triangles on its edges.  At
    the cap it can only grow by triangles on its own vertices, so those come
    from an index keyed by vertex set.
    """
    shapes: dict[tuple[int, int, int], list[Pattern]] = defaultdict(list)
    for p in patterns:
        ref = p.reference
        shapes[ref.n, len(p.distinguished), len(ref.incident_vertices)].append(p)
    vertex_cap = max(v for _, _, v in shapes)
    # (edge cap, triangle cap) of a union on v vertices
    caps = {
        v: (
            max(m for m, _, pv in shapes if pv >= v),
            max(k for _, k, pv in shapes if pv >= v),
        )
        for v in range(1, vertex_cap + 1)
    }

    edge_sets = [frozenset(t.edge_ids) for t in tris]
    vertex_sets = [
        frozenset(v for i in t.edge_ids for v in g.edge(i).ends()) for t in tris
    ]
    by_edge: dict[int, list[int]] = defaultdict(list)
    by_verts: dict[frozenset[int], list[int]] = defaultdict(list)
    for index, (edges, verts) in enumerate(zip(edge_sets, vertex_sets)):
        for e in edges:
            by_edge[e].append(index)
        by_verts[verts].append(index)

    found: dict[str, set[frozenset[int]]] = {p.name: set() for p in patterns}
    seen: set[frozenset[int]] = set()
    stack = [
        (edges, verts)
        for edges, verts in zip(edge_sets, vertex_sets)
        if len(verts) <= vertex_cap
    ]
    while stack:
        union, verts = stack.pop()
        if union in seen:
            continue
        seen.add(union)
        if len(verts) == vertex_cap:
            # a triangle spans two or three vertices
            touching = {
                j
                for size in (2, 3)
                for key in itertools.combinations(verts, size)
                for j in by_verts.get(frozenset(key), ())
                if not edge_sets[j].isdisjoint(union)
            }
        else:
            touching = {j for e in union for j in by_edge[e]}
        inside = [j for j in touching if edge_sets[j] <= union]
        edge_cap, triangle_cap = caps[len(verts)]
        if len(inside) > triangle_cap:
            continue
        shape = (len(union), len(inside), len(verts))
        if shape in shapes:
            inside_sets = [edge_sets[j] for j in inside]
            for p in shapes[shape]:
                if _carries_triangles(g, union, inside_sets, p):
                    found[p.name].add(union)
        if len(union) == edge_cap:
            continue
        for j in touching.difference(inside):
            grown_verts = verts | vertex_sets[j]
            if len(grown_verts) > vertex_cap:
                continue
            grown = union | edge_sets[j]
            if len(grown) <= caps[len(grown_verts)][0] and grown not in seen:
                stack.append((grown, grown_verts))
    return found


def _carries_triangles(
    g: GainGraph, edge_ids: frozenset[int], inside: list[frozenset[int]], pattern: Pattern
) -> bool:
    """True when a vertex bijection onto the pattern, with edge bijections
    between matching parallel classes and loop sets, maps ``inside`` into
    the pattern's distinguished triples.  The union spans as many vertices
    as the pattern, since the walk only tries patterns of its shape."""
    ref = pattern.reference
    classes: dict[tuple[int, int], list[int]] = defaultdict(list)
    for i in sorted(edge_ids):
        classes[g.edge(i).ends()].append(i)  # a loop's ends are (v, v)
    verts = sorted({v for pair in classes for v in pair})
    for image in itertools.permutations(ref.incident_vertices):
        vmap = dict(zip(verts, image))
        targets = []
        for u, w in classes:
            a, b = vmap[u], vmap[w]
            targets.append(ref.loops_at(a) if a == b else ref.links_between(a, b))
        if any(len(t) != len(ids) for t, ids in zip(targets, classes.values())):
            continue
        for pick in itertools.product(*(itertools.permutations(t) for t in targets)):
            sigma = {
                i: e.id for ids, images in zip(classes.values(), pick)
                for i, e in zip(ids, images)
            }
            if all(frozenset(sigma[i] for i in t) in pattern.distinguished for t in inside):
                return True
    return False


# ---------------------------------------------------------------------------
# occurrence counts


# count field of the one-triangle pattern whose occurrences are the
# triangles of each kind: K3, D21, K22 and Theta3
_KIND_FIELD = {
    TriangleKind.BALANCED_CIRCLE: "k3",
    TriangleKind.TIGHT_HANDCUFF: "d21",
    TriangleKind.LOOSE_HANDCUFF: "k22",
    TriangleKind.THETA: "theta",
}

# count field of each larger pattern, found by the census walk
_EXCESS_PATTERN = {
    "k4": "K4",
    "d3": "D3",
    "k33": "K33",
    "gcirc": "Gcirc",
    "d31": "D31",
    "g1": "G1",
    "g2": "G2",
}

# an occurrence counted in the key field is not counted when it lies inside
# an occurrence counted in the value field
_EXCLUDED_INSIDE = {"d3": "d31", "gcirc": "d31", "g1": "g2"}


@dataclass(frozen=True)
class PatternCounts:
    k3: int = 0
    k4: int = 0
    d3: int = 0
    d21: int = 0
    k22: int = 0
    k33: int = 0
    gcirc: int = 0
    d31: int = 0
    g1: int = 0
    g2: int = 0
    theta: int = 0

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in COUNT_FIELDS}

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(getattr(self, name) for name in COUNT_FIELDS)


COUNT_FIELDS = tuple(f.name for f in fields(PatternCounts))


def count_patterns(g: GainGraph) -> PatternCounts:
    """Occurrence counts with containment exclusions applied.

    Refuses (raises :class:`HypothesisError`) unless H1..H5 all pass; the
    combinatorial invariant formula is only claimed in that regime.  The
    four local counts are the triangles by kind; the seven larger patterns
    come from one census walk (:func:`_occurrences`).
    """
    require_hypotheses(g, HYPOTHESES)
    return _census(g, triangles(g))


def _census(g: GainGraph, tris: Sequence[Triangle]) -> PatternCounts:
    """:func:`count_patterns` for a caller that has checked H1..H5 and holds
    ``triangles(g)``."""
    patterns = atlas()
    occ = _occurrences(g, tris, [patterns[name] for name in _EXCESS_PATTERN.values()])
    occ = {field: occ[name] for field, name in _EXCESS_PATTERN.items()}
    counts = Counter(_KIND_FIELD[t.kind] for t in tris)
    for field, found in occ.items():
        hosts = occ[_EXCLUDED_INSIDE[field]] if field in _EXCLUDED_INSIDE else ()
        counts[field] = sum(1 for o in found if not any(o <= host for host in hosts))
    return PatternCounts(**counts)
