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
H1-H5 the triangles are exactly the rank-2 flats of size three.
:func:`flats` is the library's one walk over the graph for them, and the
rank route and the census read its index, the flats grouped by the
vertex set they cover, their edges' ends and the places of each bundle's
links in the order of their gains (:attr:`~falkkit.graphs.FlatIndex.slot`,
which orders the census's local types and labels the rank route's keys);
:func:`triangles` splits the flats into their 3-subsets, an output view.
The atlas below fixes one rational-gain realization per distinguished
biased graph together with its distinguished 3-edge circle class; the
tests check that the triangle census of every realization reproduces its
class.

Occurrences are concrete edge subsets, not isomorphism classes, and
containment exclusions follow the count definitions: a D3 or Gcirc
occurrence inside a D31 occurrence is not counted, and a G1 occurrence
inside a G2 occurrence is not counted.

The four local counts are the triangles by kind: under H4 and H5 the
occurrences of K3, D21, K22 and Theta3 are exactly the balanced 3-circles,
tight handcuffs, loose handcuffs and thetas.  The seven larger patterns
each hold a balanced 3-circle.  K4 spans four vertices and is counted by a
join over the balanced 3-circles (:func:`_k4_count`): each occurrence once,
from its smallest edge.  The other six span three vertices, and each
exclusion pairs two of them, so the census (:func:`_census`) counts them per
triple of a balanced 3-circle.  A triple with fewer triangles (on two or
three of its vertices) than the fewest distinguished triples of such a
pattern is skipped, counted before any of its edge sets is built: an
occurrence's inside triangles are exactly its |D| distinguished ones.  Any
other triple is read once into its local type (:func:`_local_type`): the
edges of its triangles, the only edges an occurrence on it can hold,
classed into its three bundles and three loop sets by their ends in the
index and ordered in each by their slots in the index, and its triangles
as sets of their places in that order, which under H4 fix its local
biased graph on those edges.  Its counts
come from the sub-multigraphs of the local type shaped like each pattern
whose triangles are the distinguished triples
(:func:`_triple_occurrences`), the library's only biased-isomorphism
decision: the triples are tallied by local type, the search's only input,
and each distinct type is searched once, so neither the graph nor a gain is
read past :func:`flats`.
The work is the join's, at most one local type per balanced 3-circle and
one search per distinct type: K_m makes none and D_m one.  The tests check
the per-triple search, the join and the census against an exhaustive
decider that lives with the other oracles in the test helpers.
:attr:`Pattern.profile` lists every circle of a reference with its
balance; no computation here reads it.

:func:`triangles` and :func:`count_patterns` refuse a graph through the
one hypothesis gate, :meth:`falkkit.graphs.ValidationReport.require`, on
the graph's own validation report.  This module reads nothing of the
library but :mod:`falkkit.graphs`.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass, fields
from enum import Enum
from functools import cache, cached_property
from math import comb, gcd, lcm
from types import MappingProxyType
from typing import Mapping, Sequence

from .graphs import Flat, FlatIndex, GainGraph, GraphTooLargeError, all_circles_small, validate


class TriangleKind(str, Enum):
    BALANCED_CIRCLE = "balanced_3_circle"
    THETA = "contrabalanced_theta"
    TIGHT_HANDCUFF = "tight_handcuff"
    LOOSE_HANDCUFF = "loose_handcuff"


@dataclass(frozen=True, init=False)
class Triangle:
    """A dependent 3-set of edges together with its circuit kind.

    Built through its slots, since a report builds one per dependent 3-set
    of its graph (629 on a seed-1 ``dense_dk`` benchmark pass): the frozen
    dataclass's own ``__init__`` calls ``object.__setattr__`` once per
    field, 0.47 us a triangle against 0.29 us (CPython 3.11.7).
    ``__reduce__`` rebuilds a triangle through ``__init__`` for pickle and
    ``copy``.
    """

    __slots__ = ("edge_ids", "kind", "__weakref__")

    edge_ids: tuple[int, int, int]
    kind: TriangleKind

    def __init__(self, edge_ids: tuple[int, int, int], kind: TriangleKind):
        _set_edge_ids(self, edge_ids)
        _set_kind(self, kind)

    def __reduce__(self):
        return (Triangle, (self.edge_ids, self.kind))


_set_edge_ids, _set_kind = (vars(Triangle)[name].__set__ for name in ("edge_ids", "kind"))


#: most triangles :func:`triangles` lists: the 200x200 triangulated grid has 79 202
MAX_TRIANGLES = 200_000

# kind of a triple from a two-vertex flat, by the number of loops it takes
_FLAT_KIND = (TriangleKind.THETA, TriangleKind.TIGHT_HANDCUFF, TriangleKind.LOOSE_HANDCUFF)


def flats(g: GainGraph) -> FlatIndex:
    """The rank-2 flats of size >= 3 by vertex set, their edges' ends, and
    the slot of each link of a bundle of two or more: its place in the
    order of the bundle's gains read from its lower end.

    Requires H4 and H5, so that the hyperplanes are pairwise distinct; it
    does not check them, and its output on a graph where either fails is
    unspecified (every gated entry point refuses such a graph).  H1-H3 may fail.
    This is the library's one walk over the link map, and the one place
    the flats are grouped by the vertices they cover.  Each bundle (u, v)
    gives its two-vertex flat, the bundle with the loops at u and v, when
    that has three edges or more.  A balanced 3-circle u < v < w is closed
    from the bundle (u, v) through each common neighbour w > v: each pair
    of links on (u, v) and (v, w) fixes the gain of the closing link on
    (u, w), one lookup in the bundle's gain groups.  So the work is the sum
    of b_uv * b_vw over the triples u < v < w, for b the bundle sizes.  The
    bundles, loops, gain groups and edge ends are the graph's edge ids,
    from its one pass over its rows, and the slots come from the gain
    groups' reduced integer keys, with no ``Edge`` or ``Fraction`` built.
    """
    by_verts: dict[tuple[int, ...], tuple[Flat, ...]] = {}
    slot: dict[int, int] = {}
    links, loops, groups = g.link_map, g.loop_map, g.gain_groups
    # above[u]: the neighbours of u larger than u
    above: dict[int, set[int]] = {}
    for u, v in links:
        if u in above:
            above[u].add(v)
        else:
            above[u] = {v}
    for (u, v), bundle in links.items():
        by_gain = groups[u, v]
        if len(bundle) > 1:
            # p/q < r/s exactly when p*(d/q) < r*(d/s), for d a common
            # multiple of the positive denominators
            d = lcm(*[q for _, q in by_gain])
            ordered = sorted(by_gain, key=lambda pq: pq[0] * (d // pq[1]))
            slot.update(zip([i for pq in ordered for i in by_gain[pq]], range(len(bundle))))
        flat = bundle
        if u in loops:
            flat += loops[u]
        if v in loops:
            flat += loops[v]
        if len(flat) >= 3:
            by_verts[u, v] = (tuple(sorted(flat)),)
        if v not in above:
            continue
        for w in above[u] & above[v]:
            closing = groups[u, w]
            circles: list[Flat] = []
            for (p, q), es in by_gain.items():
                for (r, s), fs in groups[v, w].items():
                    # balanced: the circle gain g_e * g_f / g_h is 1
                    d = gcd(p * r, q * s)
                    hs = closing.get((p * r // d, q * s // d))
                    if hs:
                        circles.extend(
                            tuple(sorted((e, f, h))) for e in es for f in fs for h in hs
                        )
            if circles:
                by_verts[u, v, w] = tuple(sorted(circles))
    return FlatIndex(by_verts, g.edge_ends, slot)


def triangles(g: GainGraph) -> list[Triangle]:
    """All dependent 3-sets, sorted by edge ids: the 3-subsets of :func:`flats`.

    Refuses (raises :class:`~falkkit.graphs.HypothesisError`) unless H4
    and H5 hold, as the flats need, and (raises
    :class:`~falkkit.graphs.GraphTooLargeError`) above :data:`MAX_TRIANGLES`
    triangles.
    """
    validate(g).require("flats")
    return _triangles(flats(g))


def _kind(index: FlatIndex, verts: tuple[int, ...], triple: Sequence[int]) -> TriangleKind:
    """The kind of the dependent triple ``triple`` of a flat on ``verts``: a
    balanced 3-circle on three vertices, else given by the loops it takes."""
    if len(verts) == 3:
        return TriangleKind.BALANCED_CIRCLE
    return _FLAT_KIND[sum(index.ends[a][0] == index.ends[a][1] for a in triple)]


def _triangles(index: FlatIndex) -> list[Triangle]:
    """:func:`triangles` for a caller that holds ``flats(g)``.

    The flats have sum_X C(|X|, 3) triples, cubic in the bundle size when
    H3 fails, so that count is taken from the flat sizes first, and the
    split is refused (raises :class:`~falkkit.graphs.GraphTooLargeError`)
    above :data:`MAX_TRIANGLES`.
    """
    total = sum(comb(len(flat), 3) for xs in index.by_verts.values() for flat in xs)
    if total > MAX_TRIANGLES:
        raise GraphTooLargeError(
            f"triangle list has {total} triangles, more than {MAX_TRIANGLES}"
        )
    found = [
        Triangle(triple, _kind(index, verts, triple))
        for verts, xs in index.by_verts.items()
        for flat in xs
        for triple in itertools.combinations(flat, 3)
    ]
    return sorted(found, key=lambda t: t.edge_ids)


# ---------------------------------------------------------------------------
# the pattern atlas


@dataclass(frozen=True)
class Pattern:
    """Named distinguished biased graph with a fixed rational realization,
    and its edge ids grouped by their ends (a loop's are (v, v))."""

    name: str
    reference: GainGraph
    distinguished: frozenset[frozenset[int]]
    by_ends: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]

    @cached_property
    def profile(self) -> tuple[tuple[frozenset[int], bool], ...]:
        """Every circle of the reference with its balance (:func:`all_circles_small`)."""
        return tuple(all_circles_small(self.reference))


# Each entry: name, vertex count, (tail, head, gain) per edge id 1.., and the
# distinguished 3-edge circle class under this labeling (digit strings:
# "126" means edges {1,2,6}).  Realizations were chosen so the census
# reproduces the class exactly; the tests check this.
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


@cache
def atlas() -> Mapping[str, Pattern]:
    """The pattern atlas, built on first access.  Its classes define the
    patterns; the tests check that each reference's triangles are them."""
    patterns = {}
    for name, num_vertices, edge_spec, classes in _ATLAS_SPEC:
        reference = GainGraph.from_edge_list(num_vertices, edge_spec)
        by_ends: dict[tuple[int, int], list[int]] = defaultdict(list)
        for i, ends in reference.edge_ends.items():
            by_ends[ends].append(i)
        patterns[name] = Pattern(
            name,
            reference,
            frozenset(frozenset(int(ch) for ch in word) for word in classes),
            tuple((ends, tuple(ids)) for ends, ids in by_ends.items()),
        )
    return MappingProxyType(patterns)


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

# count field of each larger pattern, counted by the census: the pattern,
# and the field's coefficient in phi3's global excess
_EXCESS = {
    "k4": ("K4", 2),
    "d3": ("D3", 2),
    "k33": ("K33", 2),
    "gcirc": ("Gcirc", 2),
    "d31": ("D31", 5),
    "g1": ("G1", 1),
    "g2": ("G2", 2),
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

    Refuses (raises :class:`~falkkit.graphs.HypothesisError`) unless H1..H5
    all pass; the combinatorial invariant formula is only claimed in that
    regime.  The
    four local counts are the triangles by kind; the seven larger patterns
    are counted per vertex set (:func:`_census`).
    """
    validate(g).require("census")
    return _census(flats(g))


@cache
def _searched() -> tuple[tuple[Pattern, ...], int]:
    """The excess patterns the census searches per triple, all but K4, and
    the fewest distinguished triples any of them has."""
    searched = tuple(atlas()[name] for field, (name, _) in _EXCESS.items() if field != "k4")
    return searched, min(len(p.distinguished) for p in searched)


def _census(index: FlatIndex) -> PatternCounts:
    """:func:`count_patterns` for a caller that has checked H1..H5, so that
    each flat is one triangle, and holds ``flats(g)``, which is all it reads.

    Each two-vertex set holds one flat, a triangle of the kind its loops
    give, and each three-vertex set as many balanced 3-circles as it has
    flats.  K4 is counted by a join over the balanced 3-circles
    (:func:`_k4_count`).  The six other excess patterns span three vertices
    and hold a balanced 3-circle, and each exclusion pairs two of them, so
    they are counted per triple of a balanced 3-circle on the triple's
    local graph, with the exclusions applied inside it.  A triple's flats,
    its own and its three pairs', are counted first, and a triple with
    fewer than every such pattern has distinguished triples is skipped
    before any of its edge sets is built.  The other triples are tallied by
    local type (:func:`_local_type`), and each distinct type is searched
    once, its counts added times its tally.

    The work is the join's, at most the sum over edges e of C(c_e, 2) for
    c_e balanced 3-circles through e, plus one local type per balanced
    3-circle triple with enough triangles and one search per distinct type:
    K_m makes none and D_m one.
    """
    searched, fewest = _searched()
    by_verts = index.by_verts
    counts: Counter[str] = Counter()
    circles: list[Flat] = []
    types: Counter[LocalType] = Counter()
    for verts, xs in by_verts.items():
        if len(verts) == 2:
            (flat,) = xs
            counts[_KIND_FIELD[_kind(index, verts, flat)]] += 1
            continue
        circles += xs
        u, v, w = verts
        uv, uw, vw = by_verts.get((u, v), ()), by_verts.get((u, w), ()), by_verts.get((v, w), ())
        if len(uv) + len(uw) + len(vw) + len(xs) < fewest:
            continue
        # the flats, each one triangle, on two or three of verts
        inside = [frozenset(flat) for ys in (uv, uw, vw, xs) for flat in ys]
        types[_local_type(index, verts, inside)[0]] += 1
    counts["k3"] = len(circles)
    counts["k4"] = _k4_count(index.ends, circles)
    for local, times in types.items():
        for field, count in _local_counts(local, searched).items():
            counts[field] += count * times
    return PatternCounts(**counts)


def _k4_count(ends: Mapping[int, tuple[int, int]], circles: Sequence[Flat]) -> int:
    """The number of K4 occurrences, from the balanced 3-circles ``circles``.

    Under H4 a K4 occurrence is six links, one on each pair of four
    vertices, whose four 3-circles are balanced: a biased graph is fixed by
    its multigraph and its balanced circles, and the four balanced
    3-circles force the 4-circles to be balanced.  K4 has no exclusion
    partner, and one link per pair leaves no triple of a two-vertex flat
    inside, so each such six-link set is one occurrence.  Each is counted
    once, from its smallest edge e = uv: two balanced 3-circles through e
    whose other edges are larger than e, with links a and a' at u to apexes
    w and x, close to a K4 when a, a' and a link f on wx larger than e form
    a balanced 3-circle.  The fourth 3-circle, on v, w, x, is then balanced
    too: its gain is the product of the other three's.  Two links in one
    balanced 3-circle fix its third, since its gain is then fixed and
    parallel links differ in gain (H4), so f is a lookup; parallel a and a'
    (w = x) lie in no balanced 3-circle.  The work is at most the sum over
    edges e of C(c_e, 2) for c_e balanced 3-circles through e.
    """
    # third[a, b]: the third edge of the balanced 3-circle through a < b
    third: dict[tuple[int, int], int] = {}
    # fans[e]: the link at e's smaller end of each balanced 3-circle whose
    # smallest edge is e
    fans: dict[int, list[int]] = defaultdict(list)
    for i, j, k in circles:  # increasing
        third[i, j] = k
        third[i, k] = j
        third[j, k] = i
        fans[i].append(j if ends[i][0] in ends[j] else k)
    return sum(
        third.get(pair, 0) > e
        for e, fan in fans.items()
        for pair in itertools.combinations(sorted(fan), 2)
    )


# the six classes of a triple's local graph, as pairs of positions in its
# sorted vertices: the three bundles, then the loops at each vertex
_CLASSES = ((0, 1), (0, 2), (1, 2), (0, 0), (1, 1), (2, 2))

# a triple's local type: the size of each class, and its triangles as slot sets
LocalType = tuple[tuple[int, ...], frozenset[frozenset[int]]]


def _local_type(
    index: FlatIndex, verts: Sequence[int], inside: Sequence[frozenset[int]]
) -> tuple[LocalType, list[int]]:
    """The local type of the triple ``verts`` (sorted), given ``inside``, the
    edge sets of its triangles on two or three of ``verts``, and the
    ``index`` they come from; and its edge ids in slot order.

    Its edges are those of its triangles: every searched pattern's
    distinguished triples cover its edges, so an edge in no triangle of the
    triple lies in no occurrence on it.  They are classed by their ends in
    the index, and the edges of each class of :data:`_CLASSES` take
    consecutive slots, the classes in that order, and within a class in
    the order of :attr:`~falkkit.graphs.FlatIndex.slot`: under H4 the links
    of a bundle have distinct slots, and under H5 a loop class holds one
    edge.  So the type depends on the gains read from each bundle's lower
    end and not on the edge ids or the way the edges are stored, and every
    triple of D_m has one type.  Under H4 a biased graph on three vertices
    is fixed by its multigraph and its balanced circles, which are the
    3-circles among its triangles, so equal local types mean identical
    biased graphs on the edges of the triangles.
    """
    class_of = {(verts[x], verts[y]): c for c, (x, y) in enumerate(_CLASSES)}
    classes: list[list[int]] = [[] for _ in _CLASSES]
    for i in set().union(*inside):
        classes[class_of[index.ends[i]]].append(i)
    order = [i for c in classes for i in sorted(c, key=lambda i: index.slot.get(i, 0))]
    slot = {i: k for k, i in enumerate(order)}
    sizes = tuple(map(len, classes))
    return (sizes, frozenset([frozenset([slot[i] for i in t]) for t in inside])), order


def _local_counts(local: LocalType, searched: Sequence[Pattern]) -> dict[str, int]:
    """Occurrence counts of the ``searched`` patterns in the local type
    ``local`` of a triple, with the exclusions applied inside it."""
    found = {p.name: _triple_occurrences(local, p) for p in searched}
    occ = {field: found[name] for field, (name, _) in _EXCESS.items() if name in found}
    counts = {}
    for field, sets in occ.items():
        hosts = occ.get(_EXCLUDED_INSIDE.get(field), ())
        counts[field] = sum(1 for o in sets if not any(o <= host for host in hosts))
    return counts


def _triple_occurrences(local: LocalType, pattern: Pattern) -> set[frozenset[int]]:
    """Occurrences of ``pattern``, which spans three vertices, in the local
    type ``local`` of a triple (:func:`_local_type`), as slot sets.

    An occurrence is an edge set of the pattern's multigraph whose inside
    triangles are exactly the images of the distinguished triples D.  So
    each map of the reference's vertices onto the triple's positions gives
    candidates: every choice of as many slots in each class as the
    reference has edges on its preimage.  A candidate is kept when exactly
    |D| of the local triangles lie in it and some bijection within its
    classes carries them onto D.  This is exact under H4: the local type
    holds the triple's multigraph and its balanced circles.
    """
    sizes, inside = local
    need = len(pattern.distinguished)
    if len(inside) < need:
        return set()
    starts = [0, *itertools.accumulate(sizes)]
    found: set[frozenset[int]] = set()
    for image in itertools.permutations(range(3)):
        vmap = dict(zip(pattern.reference.incident_vertices, image))
        pools = []
        for (a, b), ids in pattern.by_ends:
            c = _CLASSES.index(tuple(sorted((vmap[a], vmap[b]))))
            # a host class smaller than the reference's gives no choice
            pools.append(itertools.combinations(range(starts[c], starts[c + 1]), len(ids)))
        for pick in itertools.product(*pools):
            chosen = list(itertools.chain.from_iterable(pick))
            slots = frozenset(chosen)
            if slots in found:
                continue
            held = [t for t in inside if t <= slots]
            if len(held) != need:
                continue
            perms = (itertools.permutations(ids) for _, ids in pattern.by_ends)
            for images in itertools.product(*perms):
                sigma = dict(zip(chosen, itertools.chain.from_iterable(images)))
                if all(frozenset(sigma[i] for i in t) in pattern.distinguished for t in held):
                    found.add(slots)
                    break
    return found
