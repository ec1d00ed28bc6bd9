"""Shared test utilities, test data, and the oracles the library is checked against.

The library computes each quantity once.  The second computations it is
checked against live here.

* File format: :data:`INTEGER` is the integer grammar of graph files as a
  regular expression, the oracle for the token checks of
  :func:`falkkit.graphs.parse`.  :func:`reorder_edge_lines` rewrites a
  graph file with its edge lines in another order.
* Graph maps: :func:`three_pass_maps` builds ``link_map``, ``loop_map``
  and ``gain_groups`` one pass each, by their definitions, the oracle for
  the library's one builder.
* Test data: :func:`random_gain_graph` samples H1-H5 graphs from
  :data:`RANDOM_GAINS`; :func:`switch` regauges the gains by a vertex
  function and :func:`with_reversed_edge` stores one edge the other way
  round, the two moves every invariant must survive; :func:`scrambled`
  makes both at random and shuffles the edge ids too.
  :func:`triangulated_grid` is a graphic arrangement with many triangles
  and no larger pattern, and :func:`doubling_triangle` three bundles
  whose flats hold a number of triangles cubic in their size.
  :func:`pattern_rich_hosts` embeds switched copies of every excess
  pattern into random H1-H5 hosts.
* Circles: :func:`brute_circle_sets` enumerates circles by depth-first
  closed walks over vertex-simple paths, a different characterization from
  the library's degree-2 subset scan, so the two can check each other.
  :func:`circle_balance` walks one edge set and multiplies its gains, the
  check on the balance flags of :func:`falkkit.graphs.all_circles_small`.
* Rank: :func:`fraction_rank` eliminates over ``fractions.Fraction`` and
  shares no code with the library's fraction-free
  :func:`falkkit.exterior.rank`.
* Exterior algebra: :func:`boundary3`, :func:`boundary2`, :func:`wedge1`
  and :func:`pair_vector` act on vectors keyed by increasing index tuples.
  They are the generic form of the rows the library writes out directly
  with integer-coded columns, and the row-builder tests decode against them.
* Full eliminations: :func:`dim_I2`, :func:`span_F3` and
  :func:`full_dim_I3_2` rank every row of I^2, F3 and I^3_2 (|T|,
  (n-3)*|T| and n*|T| rows), with no decomposition over the rank-2 flats;
  :func:`full_rank_fields` gathers them into the rank fields of a report.
  They are the oracle for the library's closed forms and its eliminations
  of the global rows, which :func:`falkkit.exterior.rank_fields` reads off
  the rank-2 flats in one call.  :func:`global_rows` writes
  every row of G, the global rows, and :func:`kept_global_rows` keeps those
  of the blocks the library eliminates; :func:`kept_rows_by_vertex_set`
  groups them by the vertices their blocks touch, as the library ranks
  them.  :func:`kept_group_classes` finds the candidate vertex sets of
  those groups and their classes of equal key by their definitions, the
  oracle for the library's candidates and keys, and
  :func:`recorded_rows` records the rows the library hands to
  :func:`falkkit.exterior.rank`.  :func:`one_vertex_set` indexes flats
  that come from no graph for :func:`falkkit.exterior.rank_fields`, and
  :func:`flat_list` lists an index's flats in lexicographic order.
  :func:`dim_I3_2_closed_form` predicts
  dim(I^3_2) from the census counts under H1-H5.
* Matroid: :func:`dependent_3sets` ranks the hyperplane normals of every
  edge triple with :func:`fraction_rank`, the linear-algebra side of
  "dependent 3-sets == triangle census".  :func:`flats` regroups dependent
  triples into the rank-2 flats they make up, with its own checks that
  they are the dependent triples of some arrangement; on
  :func:`dependent_3sets` it is the oracle for
  :func:`falkkit.patterns.flats`.  :func:`fraction_phi3` rebuilds
  the rank formula for phi_3 from those triples, again with
  :func:`fraction_rank` only.  :func:`_shape_kind` names a dependent
  triple's kind from its shape alone (loops taken, vertices spanned).
* Holonomy Lie algebra: :func:`holonomy_phi3` reads phi_3 off the degree-3
  part of the holonomy Lie algebra, with no exterior algebra and no Falk
  formula, from the same flats and :func:`fraction_rank`, and
  :func:`holonomy_dim2` reads phi_2 = C(n, 2) - dim A^2 off its degree-2
  part.
* Isomorphism: :func:`biased_isomorphic` decides biased-graph isomorphism
  exhaustively, from every circle and its balance and the multiplicities,
  vertex signatures and summary of :func:`_bias_profile`.
* Occurrences: :func:`find_occurrences` is the vertex-tuple search: it
  compares every edge choice with the pattern's multiplicities, on every
  ordered tuple of host vertices, with the pattern by that decider, as an
  :func:`induced_subgraph`.  It is the oracle for the census's per-triple
  search (:func:`falkkit.patterns._triple_occurrences`), its K4 join and
  its counts, H1-H3 failures included.
"""

from __future__ import annotations

import functools
import itertools
import random
import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from falkkit import exterior
from falkkit.arrangement import arrangement
from falkkit.falk import _local_and_excess
from falkkit.graphs import Edge, Flat, FlatIndex, GainGraph, all_circles_small, parse, validate
from falkkit.patterns import (
    _EXCESS,
    Pattern,
    PatternCounts,
    TriangleKind,
    atlas,
    triangles,
)

DATA = Path(__file__).parent / "data"

#: every integer token of a graph file: one optional sign, then ASCII digits
INTEGER = re.compile(r"[+-]?[0-9]+")


def load_graph(name: str) -> GainGraph:
    return parse((DATA / name).read_text())


def reorder_edge_lines(text: str, order) -> str:
    """``text`` with its ``edge`` lines put in the order ``order`` returns
    for their list, after every other line."""
    lines = text.splitlines()
    edge_lines = [line for line in lines if line.split()[:1] == ["edge"]]
    rest = [line for line in lines if line.split()[:1] != ["edge"]]
    return "\n".join(rest + list(order(edge_lines))) + "\n"


def three_pass_maps(g: GainGraph) -> tuple[dict, dict, dict]:
    """``g.link_map``, ``g.loop_map`` and ``g.gain_groups`` by their
    definitions, one pass each over ``g.edges``: links grouped by
    :meth:`~falkkit.graphs.Edge.ends`, loops by vertex, and each bundle's
    links by their gain read from its lower end as a reduced
    (numerator, denominator) pair, found with ``Fraction`` arithmetic."""
    links: dict[tuple[int, int], list[Edge]] = {}
    for e in g.edges:
        if not e.is_loop:
            links.setdefault(e.ends(), []).append(e)
    loops: dict[int, list[Edge]] = {}
    for e in g.edges:
        if e.is_loop:
            loops.setdefault(e.tail, []).append(e)
    groups: dict[tuple[int, int], dict[tuple[int, int], list[Edge]]] = {}
    for (u, v), bundle in links.items():
        groups[u, v] = {}
        for e in bundle:
            gain = e.gain if e.tail == u else 1 / e.gain
            groups[u, v].setdefault((gain.numerator, gain.denominator), []).append(e)
    return (
        {pair: tuple(es) for pair, es in links.items()},
        {v: tuple(es) for v, es in loops.items()},
        groups,
    )


def braid(m: int) -> GainGraph:
    """K_m with every gain 1: the braid arrangement."""
    return GainGraph.from_edge_list(m, [(u, v, 1) for u, v in itertools.combinations(range(1, m + 1), 2)])


def _signed_pairs(m: int) -> list[tuple[int, int, int]]:
    return [(u, v, s) for u, v in itertools.combinations(range(1, m + 1), 2) for s in (1, -1)]


def type_d(m: int) -> GainGraph:
    """K_m with a +1 and a -1 link on every pair: the type D_m arrangement."""
    return GainGraph.from_edge_list(m, _signed_pairs(m))


def type_b(m: int) -> GainGraph:
    """type_d(m) plus an unbalanced loop at every vertex: the type B_m arrangement."""
    return GainGraph.from_edge_list(m, _signed_pairs(m) + [(v, v, 2) for v in range(1, m + 1)])


def looped_hub(m: int) -> GainGraph:
    """Vertex 1 with a loop of gain 2 and m spokes, each three links of gains
    1, 2 and 3 to a vertex of its own.  H2 fails and H4 and H5 hold; every
    spoke's flat holds the loop, so the loop's neighbourhood is the graph."""
    spokes = [(1, s, x) for s in range(2, m + 2) for x in (1, 2, 3)]
    return GainGraph.from_edge_list(m + 1, [(1, 1, 2), *spokes])


def doubling_triangle(m: int, loop: int | None = None) -> GainGraph:
    """Three bundles of m links on one triangle, with gains 2^0 .. 2^(m-1),
    and a loop of gain ``loop`` at every vertex when one is given: H3 fails
    (with the loops, H1 and H2 too) and H4 and H5 hold.  The links 2^a on (1, 2) and 2^b on (2, 3) close a
    balanced 3-circle with 2^(a+b) on (1, 3) when a + b < m; with the loops,
    each bundle and the loops at its ends make one flat of m + 2 edges."""
    bundles = ((1, 2), (2, 3), (1, 3))
    links = [(u, v, 2**k) for u, v in bundles for k in range(m)]
    loops = [] if loop is None else [(v, v, loop) for v in (1, 2, 3)]
    return GainGraph.from_edge_list(3, links + loops)


def triangulated_grid(side: int) -> GainGraph:
    """The side x side grid with the diagonal (r, c)-(r+1, c+1) in every
    square and every gain 1: a graphic arrangement."""

    def vertex(r, c):
        return r * side + c + 1

    edges = []
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                edges.append((vertex(r, c), vertex(r, c + 1), 1))
            if r + 1 < side:
                edges.append((vertex(r, c), vertex(r + 1, c), 1))
            if r + 1 < side and c + 1 < side:
                edges.append((vertex(r, c), vertex(r + 1, c + 1), 1))
    return GainGraph.from_edge_list(side * side, edges)


# ---------------------------------------------------------------------------
# reproducible random instances, switching and reorientation


#: gain pool of the random-graph generator and of random switchings
RANDOM_GAINS = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(3),
    Fraction(-3),
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2, 3),
)


def random_gain_graph(
    rng: random.Random,
    *,
    min_vertices: int = 3,
    max_vertices: int = 6,
    min_edges: int = 6,
    max_edges: int = 14,
    max_tries: int = 100_000,
) -> GainGraph:
    """Sample a gain graph satisfying H1..H5 by rejection.

    Endpoints are uniform, gains are drawn from :data:`RANDOM_GAINS`, and the
    whole candidate is resampled until every hypothesis passes, so results
    are reproducible for a fixed ``rng`` seed.
    """
    for _ in range(max_tries):
        ell = rng.randrange(min_vertices, max_vertices + 1)
        m = rng.randrange(min_edges, max_edges + 1)
        triples = [
            (rng.randrange(1, ell + 1), rng.randrange(1, ell + 1), rng.choice(RANDOM_GAINS))
            for _ in range(m)
        ]
        g = GainGraph.from_edge_list(ell, triples)
        if validate(g).all_pass:
            return g
    raise RuntimeError("random graph rejection sampling did not converge")


def seeded_graphs(count: int, seed: int, **kwargs) -> list[GainGraph]:
    rng = random.Random(seed)
    return [random_gain_graph(rng, **kwargs) for _ in range(count)]


def switch(g: GainGraph, lam: Mapping[int, object]) -> GainGraph:
    """Regauge gains by a vertex function: gain -> lam(tail)^-1 * gain * lam(head).

    The underlying graph and the set of balanced circles are unchanged.
    """
    table: dict[int, Fraction] = {}
    for v in g.vertices:
        if v not in lam:
            raise ValueError(f"switching function misses vertex {v}")
        value = Fraction(lam[v])
        if value == 0:
            raise ValueError(f"switching value at vertex {v} must be nonzero")
        table[v] = value
    edges = tuple(
        Edge(e.id, e.tail, e.head, e.gain * table[e.head] / table[e.tail]) for e in g.edges
    )
    return GainGraph(g.num_vertices, edges)


def random_switching(
    g: GainGraph, rng: random.Random, values: Sequence = RANDOM_GAINS
) -> dict[int, object]:
    """A reproducible switching function with values from ``values``, by
    default the generator pool."""
    return {v: rng.choice(values) for v in g.vertices}


def with_reversed_edge(g: GainGraph, edge_id: int) -> GainGraph:
    """The same graph with one edge stored the other way round, gain inverted."""
    return GainGraph(
        g.num_vertices,
        tuple(
            Edge(e.id, e.head, e.tail, 1 / e.gain) if e.id == edge_id else e
            for e in g.edges
        ),
    )


def enriched_pattern_host(rng: random.Random, reference: GainGraph, max_tries: int = 200):
    """Random H1-H5 host containing a switched copy of a reference pattern.

    Returns None when rejection sampling fails (some patterns tolerate few
    additions before a hypothesis breaks).
    """
    for _ in range(max_tries):
        base = switch(reference, random_switching(reference, rng))
        ell = reference.num_vertices + rng.randrange(0, 3)
        triples = [(e.tail, e.head, e.gain) for e in base.edges]
        for _ in range(rng.randrange(0, 5)):
            triples.append(
                (rng.randrange(1, ell + 1), rng.randrange(1, ell + 1), rng.choice(RANDOM_GAINS))
            )
        g = GainGraph.from_edge_list(ell, triples)
        if validate(g).all_pass:
            return g
    return None


def pattern_rich_hosts() -> list[tuple[str, GainGraph]]:
    """Random H1-H5 hosts around a switched copy of each excess pattern,
    each with the pattern's name; uniform random graphs rarely hold them."""
    rng = random.Random(424243)
    hosts = []
    for name, _ in _EXCESS.values():
        for _ in range(15):
            g = enriched_pattern_host(rng, atlas()[name].reference)
            if g is not None:
                hosts.append((name, g))
    return hosts


# Three full bundles on three vertices, six balanced 3-circles, each link in
# two of them: the nine flats of size 3 form the Pappus configuration.  Both
# graphs pass H1-H5.  The census counts only the six balanced 3-circles and
# the three thetas, so it gives 18 (k3 = 6, theta = 3) against the rank
# route's 20 (ROADMAP item 1).  They are kept out of tests/data, where the
# golden file would pin the wrong `agree: false`.
PAPPUS_GRAPHS = {
    "with -1": (
        (1, 2, 1), (1, 2, -1), (1, 2, 2),
        (1, 3, 1), (1, 3, 2), (1, 3, -2),
        (2, 3, 1), (2, 3, -1), (2, 3, -2),
    ),
    "powers of 2": (
        (1, 2, 1), (1, 2, 2), (1, 2, Fraction(1, 4)),
        (1, 3, 1), (1, 3, 2), (1, 3, 8),
        (2, 3, 1), (2, 3, 4), (2, 3, 8),
    ),
}


def scrambled(g: GainGraph, rng: random.Random, values: Sequence = RANDOM_GAINS) -> GainGraph:
    """``g`` under a random switching with values from ``values`` (by
    default the pool), with each edge stored the other way round at random
    and the edge ids shuffled."""
    h = switch(g, random_switching(g, rng, values))
    triples = [
        (e.head, e.tail, 1 / e.gain) if rng.random() < 0.5 else (e.tail, e.head, e.gain)
        for e in h.edges
    ]
    rng.shuffle(triples)
    return GainGraph.from_edge_list(g.num_vertices, triples)


# ---------------------------------------------------------------------------
# circles


def brute_circle_sets(g: GainGraph) -> set[frozenset[int]]:
    """Every circle's edge set, via closed vertex-simple walks."""
    circles: set[frozenset[int]] = set()
    for e in g.edges:
        if e.is_loop:
            circles.add(frozenset({e.id}))

    def walk(start: int, current: int, used: frozenset[int], visited: frozenset[int]):
        for e in g.edges:
            if e.is_loop or e.id in used or current not in (e.tail, e.head):
                continue
            nxt = e.head if current == e.tail else e.tail
            if nxt == start and used:
                circles.add(used | {e.id})
            elif nxt not in visited:
                walk(start, nxt, used | {e.id}, visited | {nxt})

    for start in g.incident_vertices:
        walk(start, start, frozenset(), frozenset({start}))
    return circles


def circle_balance(g: GainGraph, edge_ids: Iterable[int]) -> bool:
    """Whether the circle on an edge set is balanced (its gain is 1).

    Walks from the first edge's tail to its head, then each time along the
    one unused edge at the current vertex, multiplying the gains (inverted
    against the stored orientation).  Raises ``ValueError`` when the edges
    form no circle: the walk is stuck, has a choice of edges, or closes
    before every edge is used.
    """
    ids = sorted(set(edge_ids))
    if not ids:
        raise ValueError("no edges")
    first, *rest = (g.edge(i) for i in ids)
    start, current, gain = first.tail, first.head, first.gain
    while current != start:
        step = [e for e in rest if current in (e.tail, e.head)]
        if len(step) != 1:
            raise ValueError(f"edges {ids} do not form a circle")
        e = step[0]
        rest.remove(e)
        if e.tail == current:
            gain, current = gain * e.gain, e.head
        else:
            gain, current = gain / e.gain, e.tail
    if rest:
        raise ValueError(f"edges {ids} do not form a circle")
    return gain == 1


# ---------------------------------------------------------------------------
# rank and matroid


def proportional(a, b) -> bool:
    """Exact projective equality of two coefficient vectors."""
    if len(a) != len(b):
        return False
    if all(x == 0 for x in a) or all(y == 0 for y in b):
        return False
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            if a[i] * b[j] != a[j] * b[i]:
                return False
    return all((x == 0) == (y == 0) for x, y in zip(a, b))


def fraction_rank(rows: Iterable[Mapping]) -> int:
    """Exact rank of sparse rational rows keyed by comparable column labels."""
    pivots: dict = {}
    found = 0
    for row in rows:
        work = {k: Fraction(v) for k, v in row.items() if v}
        while work:
            lead = min(work)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = 1 / work[lead]
                pivots[lead] = {k: v * inv for k, v in work.items()}
                found += 1
                break
            coeff = work[lead]
            for k, v in pivot.items():
                value = work.get(k, 0) - coeff * v
                if value:
                    work[k] = value
                else:
                    work.pop(k, None)
    return found


def dependent_3sets(g: GainGraph) -> set[tuple[int, int, int]]:
    """All edge triples whose normal vectors have rank below 3."""
    rows = {
        h.edge_id: {coord: c for coord, c in enumerate(h.normal, start=1) if c}
        for h in arrangement(g)
    }
    return {
        triple
        for triple in itertools.combinations(sorted(rows), 3)
        if fraction_rank(rows[i] for i in triple) < 3
    }


def _triples(triangles: Iterable, n: int) -> list[Triple]:
    """The edge triples, each checked to be 1 <= i < j < k <= n.

    The column codes are only injective and ordered on such triples.
    """
    out = []
    for t in triangles:
        ids = tuple(getattr(t, "edge_ids", t))
        if len(ids) != 3:
            raise ValueError(f"expected an edge triple, got {ids}")
        i, j, k = ids
        if not 1 <= i < j < k <= n:
            raise ValueError(f"expected edge ids 1 <= i < j < k <= {n}, got {ids}")
        out.append(ids)
    return out


def flats(n: int, triangles: Iterable) -> list[Flat]:
    """The rank-2 flats of size >= 3 that the dependent triples make up.

    Each flat is a sorted tuple of edge ids; the flats come in the order of
    their smallest triple.  One pass over the triples in lexicographic
    order suffices.  Let x < y < z be the three smallest edges of X; every
    triple (a, b, c) of X after (x, y, z) shares a pair with an earlier
    one: (x, a, b) when a > x, (x, y, b) when a = x < y < b, and (x, y, z)
    when (a, b) = (x, y).

    Raises ``ValueError`` for a triple outside 1 <= i < j < k <= n, and
    for triples that are not the dependent triples of any arrangement: a
    triple that meets two flats in a pair each, or a flat that misses some
    of its 3-subsets.
    """
    m = n + 1
    owner: dict[int, int] = {}  # pair code a*m + b -> index of its flat
    members: list[set[int]] = []
    sizes: list[int] = []
    for ijk in sorted(set(_triples(triangles, n))):
        i, j, k = ijk
        pairs = (i * m + j, i * m + k, j * m + k)
        found = {owner[p] for p in pairs if p in owner}
        if len(found) > 1:
            raise ValueError(f"edge triple {ijk} meets two rank-2 flats")
        if found:
            index = found.pop()
            members[index].update(ijk)
            sizes[index] += 1
        else:
            index = len(members)
            members.append(set(ijk))
            sizes.append(1)
        for p in pairs:
            owner[p] = index
    out = []
    for flat, size in zip(members, sizes):
        if size != comb(len(flat), 3):
            raise ValueError(
                f"edges {sorted(flat)} form a rank-2 flat but only {size} of its "
                f"{comb(len(flat), 3)} triples are dependent"
            )
        out.append(tuple(sorted(flat)))
    return out


def _shape_kind(g: GainGraph, edge_ids) -> TriangleKind:
    """The kind of a dependent triple, read from its loops and vertices only."""
    edges = [g.edge(i) for i in edge_ids]
    loops = sum(e.is_loop for e in edges)
    if loops:
        return (TriangleKind.TIGHT_HANDCUFF, TriangleKind.LOOSE_HANDCUFF)[loops - 1]
    vertices = {v for e in edges for v in e.ends()}
    return TriangleKind.BALANCED_CIRCLE if len(vertices) == 3 else TriangleKind.THETA


def fraction_phi3(g: GainGraph) -> int:
    """phi_3 = 2*C(n+1,3) - n*dim(A^2) + C(n,3) - dim(I^3_2), from the normals up.

    The dependent triples come from :func:`dependent_3sets`, the rows of
    I^2 and I^3_2 are written out here, and every rank is
    :func:`fraction_rank`.
    """
    n = g.n
    # boundary of e_ijk: e_jk - e_ik + e_ij
    boundaries = [{(j, k): 1, (i, k): -1, (i, j): 1} for i, j, k in dependent_3sets(g)]
    dim_a2 = comb(n, 2) - fraction_rank(boundaries)
    rows = []
    for b in boundaries:
        for t in range(1, n + 1):
            # e_t * e_xy = (-1)^#{x, y below t} e_sorted(t, x, y)
            rows.append({
                tuple(sorted((t, x, y))): c * (-1) ** ((x < t) + (y < t))
                for (x, y), c in b.items()
                if t not in (x, y)
            })
    return 2 * comb(n + 1, 3) - n * dim_a2 + comb(n, 3) - fraction_rank(rows)


def _holonomy_relations(g: GainGraph) -> list[dict[tuple[int, int], int]]:
    """[x_i, sum_{j in X} x_j] for every rank-2 flat X and every i in X, the
    defining relations of the holonomy Lie algebra h, as words of length 2:
    the free Lie algebra embeds in the tensor algebra, [a, b] = ab - ba.  The
    flats of size >= 3 are :func:`flats` of :func:`dependent_3sets`, and
    every pair of edges in none of them is a flat of size 2."""
    n = g.n
    big = flats(n, dependent_3sets(g))
    covered = {pair for x in big for pair in itertools.combinations(x, 2)}
    rank2 = big + [p for p in itertools.combinations(range(1, n + 1), 2) if p not in covered]
    relations = []
    for x in rank2:
        for i in x:
            r = {}
            for j in x:
                if j != i:
                    r[i, j], r[j, i] = 1, -1
            relations.append(r)
    return relations


def holonomy_dim2(g: GainGraph) -> int:
    """dim h_2, the degree-2 part of the holonomy Lie algebra: the C(n, 2)
    brackets [x_a, x_b] modulo the relations of :func:`_holonomy_relations`,
    ranked with :func:`fraction_rank`.  For an arrangement it is phi_2,
    which is C(n, 2) - dim A^2."""
    return comb(g.n, 2) - fraction_rank(_holonomy_relations(g))


def holonomy_phi3(g: GainGraph) -> int:
    """phi_3 as dim h_3, the degree-3 part of the holonomy Lie algebra h
    (Kohno 1983; Papadima-Suciu 2006: phi_k = dim h_k for k <= 3).

    h is the free Lie algebra on x_1..x_n modulo the relations of
    :func:`_holonomy_relations`.  Each [x_k, r] is written as words of
    length 3, and dim h_3 = (n^3 - n)/3 minus their :func:`fraction_rank`.
    """
    n = g.n
    relations = _holonomy_relations(g)
    rows = []
    for k in range(1, n + 1):
        for r in relations:
            row = Counter()
            for (a, b), c in r.items():
                row[k, a, b] += c
                row[a, b, k] -= c
            rows.append(row)
    return (n**3 - n) // 3 - fraction_rank(rows)


def regime_graphs(rng: random.Random, count: int) -> list[GainGraph]:
    """Graphs on 2-4 vertices and at most 12 edges, with 0-4 links on each
    vertex pair and at most one loop per vertex.  Parallel links have
    distinct gains and loops have gain other than 1, so H4 and H5 hold;
    bundles of 2-4 links next to loops make H1, H2 and H3 fail often."""
    group = (1, -1, 2, -2, Fraction(1, 2), Fraction(-1, 2))
    out = []
    while len(out) < count:
        ell = rng.choice((2, 3, 3, 4))
        triples = []
        for u in range(1, ell + 1):
            for v in range(u + 1, ell + 1):
                for x in rng.sample(group, rng.choice((0, 1, 2, 3, 4))):
                    triples.append((u, v, x) if rng.random() < 0.5 else (v, u, 1 / Fraction(x)))
            if rng.random() < 0.5:
                triples.append((u, u, rng.choice(group[1:])))
        if 0 < len(triples) <= 12:
            rng.shuffle(triples)
            out.append(GainGraph.from_edge_list(ell, triples))
    return out


# ---------------------------------------------------------------------------
# exterior algebra on index tuples


Pair = tuple[int, int]
Triple = tuple[int, int, int]
Vec2 = dict[Pair, int]
Vec3 = dict[Triple, int]

_ONE = 1


def _check_increasing(indices: Sequence[int]) -> None:
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise ValueError(f"index tuple must be strictly increasing, got {tuple(indices)}")


def boundary3(triple: Sequence[int]) -> Vec2:
    """Boundary of a degree-3 monomial: e_ijk -> e_jk - e_ik + e_ij."""
    i, j, k = triple
    _check_increasing((i, j, k))
    return {(j, k): _ONE, (i, k): -_ONE, (i, j): _ONE}


def boundary2(vec: Vec2) -> dict[int, int]:
    """Linear extension of e_ij -> e_j - e_i.  Composed with boundary3 it is 0."""
    out: dict[int, int] = {}
    for (i, j), c in vec.items():
        for idx, term in ((j, c), (i, -c)):
            value = out.get(idx, 0) + term
            if value:
                out[idx] = value
            else:
                out.pop(idx, None)
    return out


def pair_vector(a: int, b: int) -> Vec2:
    """e_a wedge e_b as a signed degree-2 basis vector (empty when a == b)."""
    if a == b:
        return {}
    return {(a, b): _ONE} if a < b else {(b, a): -_ONE}


def wedge1(t: int, vec: Vec2) -> Vec3:
    """Left-multiply a degree-2 vector by e_t; terms containing t vanish."""
    out: Vec3 = {}
    for (a, b), c in vec.items():
        if t == a or t == b:
            continue
        if t < a:
            key, coeff = (t, a, b), c
        elif t < b:
            key, coeff = (a, t, b), -c
        else:
            key, coeff = (a, b, t), c
        value = out.get(key, 0) + coeff
        if value:
            out[key] = value
        else:
            out.pop(key, None)
    return out


# ---------------------------------------------------------------------------
# the full eliminations: the rank route before its closed forms


def _boundary_rows(triples: list[Triple], m: int) -> list[dict[int, int]]:
    """The rows e_jk - e_ik + e_ij, with e_ab coded a*m + b (m > every id)."""
    return [{j * m + k: 1, i * m + k: -1, i * m + j: 1} for i, j, k in triples]


def _wedge_rows(triples: list[Triple], n: int, inside: bool) -> list[dict[int, int]]:
    """The rows e_t * (e_jk - e_ik + e_ij) for t = 1..n, triple by triple.

    e_abc is coded (a*m + b)*m + c with m = n + 1.  A t in {i, j, k} gives
    the row e_ijk when ``inside`` is set and no row otherwise.
    """
    m = n + 1
    mm = m * m
    rows: list[dict[int, int]] = []
    for i, j, k in triples:
        ij, ik, jk = i * m + j, i * m + k, j * m + k
        imj, imk, jmk = i * mm + j, i * mm + k, j * mm + k
        ijm, ikm, jkm = ij * m, ik * m, jk * m
        monomial = [{ijm + k: 1}] if inside else []
        # t < i: e_tjk - e_tik + e_tij
        rows.extend([{tmm + jk: 1, tmm + ik: -1, tmm + ij: 1} for tmm in range(mm, i * mm, mm)])
        rows.extend(monomial)
        # i < t < j: e_tjk + e_itk - e_itj
        rows.extend([{t * mm + jk: 1, imk + t * m: 1, imj + t * m: -1} for t in range(i + 1, j)])
        rows.extend(monomial)
        # j < t < k: -e_jtk + e_itk + e_ijt
        rows.extend([{jmk + t * m: -1, imk + t * m: 1, ijm + t: 1} for t in range(j + 1, k)])
        rows.extend(monomial)
        # k < t: e_jkt - e_ikt + e_ijt
        rows.extend([{jkm + t: 1, ikm + t: -1, ijm + t: 1} for t in range(k + 1, m)])
    return rows


def global_rows(n: int, flats: Iterable[Flat]) -> list[dict[int, int]]:
    """Every row e_t * (e_jk - e_ik + e_ij) of G, flat by flat.

    For each flat X with x = min X, each basis triple (i, j, k) = (x, b, c)
    with b < c in X, and each t = 1..n outside X in increasing order:
    sum_X C(|X|-1, 2)*(n - |X|) rows.  e_abc is coded (a*m + b)*m + c with
    m = n + 1.  The library writes only the kept blocks of G
    (:func:`kept_global_rows`).  This is the independent writer, four cases
    on where t falls relative to i < j < k, that ``check_library_rows``
    compares the library's one-sign-rule rows with, row by row.
    """
    m = n + 1
    mm = m * m
    rows: list[dict[int, int]] = []
    for flat in flats:
        inside = set(flat)
        outside = [t for t in range(1, m) if t not in inside]
        i = flat[0]
        below = i - 1  # i = min X, so outside[:below] is 1..i-1
        tmm_below = range(mm, i * mm, mm)
        for j, k in itertools.combinations(flat[1:], 2):
            ij, ik, jk = i * m + j, i * m + k, j * m + k
            imj, imk, jmk = i * mm + j, i * mm + k, j * mm + k
            ijm, ikm, jkm = ij * m, ik * m, jk * m
            a = bisect_left(outside, j, below)
            b = bisect_left(outside, k, a)
            # t < i: e_tjk - e_tik + e_tij
            rows.extend([{tmm + jk: 1, tmm + ik: -1, tmm + ij: 1} for tmm in tmm_below])
            # i < t < j: e_tjk + e_itk - e_itj
            rows.extend(
                [{t * mm + jk: 1, imk + t * m: 1, imj + t * m: -1} for t in outside[below:a]]
            )
            # j < t < k: -e_jtk + e_itk + e_ijt
            rows.extend([{jmk + t * m: -1, imk + t * m: 1, ijm + t: 1} for t in outside[a:b]])
            # k < t: e_jkt - e_ikt + e_ijt
            rows.extend([{jkm + t: 1, ikm + t: -1, ijm + t: 1} for t in outside[b:]])
    return rows


def _kept_global_blocks(n: int, flats: Sequence[Flat]) -> Iterable[tuple[Flat, int, dict]]:
    """(X, t, row) for each row of :func:`global_rows` whose block (X, t) is
    kept: t shares a flat with two or more edges of X, decided pair by pair
    from the flats."""
    m = n + 1
    in_flat = {pair for flat in flats for pair in itertools.combinations(flat, 2)}
    for flat in flats:
        for row in global_rows(n, [flat]):
            code = next(iter(row))
            (t,) = {code // (m * m), code // m % m, code % m} - set(flat)
            if sum((min(a, t), max(a, t)) in in_flat for a in flat) >= 2:
                yield flat, t, row


def kept_global_rows(n: int, flats: Sequence[Flat]) -> list[dict[int, int]]:
    """The rows of :func:`global_rows` whose block (X, t) is kept: t shares a
    flat with two or more edges of X, decided pair by pair from the flats."""
    return [row for _, _, row in _kept_global_blocks(n, flats)]


def kept_rows_by_vertex_set(
    n: int, ends: Mapping[int, tuple[int, ...]], flats: Sequence[Flat]
) -> dict[frozenset, list[dict]]:
    """The rows of :func:`kept_global_rows` grouped by the vertex set W of
    their block (X, t), the ends (``ends``) of every edge of X and of t,
    each group's rows in the order of :func:`kept_global_rows`.  The
    library ranks G_kept group by group; here W is read off every edge,
    with no lemma about which edges cover a flat."""
    groups: dict[frozenset, list[dict]] = {}
    for flat, t, row in _kept_global_blocks(n, flats):
        w = frozenset(v for a in (*flat, t) for v in ends[a])
        groups.setdefault(w, []).append(row)
    return groups


def kept_group_classes(index: FlatIndex) -> list[list[tuple[int, ...]]]:
    """The candidate vertex sets W of the rank route's groups, in classes of
    equal key, each class a sorted list of sorted tuples, by their
    definitions.  Every union of two distinct vertex sets through one edge is
    counted, sorted; W is a candidate when it is made twice, or when it is a
    vertex set that holds three flats or more.  The key of W is its size and,
    for each subset of 2 or 3 of its sorted vertices that holds flats, the
    subset's positions in W and the sorted shapes of its flats: each flat the
    sorted labels (slot, positions of the ends in the subset) of its edges.
    No edge is assumed to lie on a vertex set in any one way."""
    by_verts, ends, slot = index
    through: dict[int, list[tuple[int, ...]]] = {}
    for vs, xs in by_verts.items():
        for flat in xs:
            for a in flat:
                sets = through.setdefault(a, [])
                if vs not in sets:
                    sets.append(vs)
    made = Counter(
        tuple(sorted({*p, *q}))
        for sets in through.values()
        for p, q in itertools.combinations(sets, 2)
    )
    candidates = {w for w, count in made.items() if count > 1}
    candidates.update(vs for vs, xs in by_verts.items() if len(xs) > 2)

    def shape(vs: tuple[int, ...]) -> tuple:
        return tuple(sorted(
            tuple(sorted((slot.get(a, 0), tuple(sorted({vs.index(v) for v in ends[a]}))) for a in flat))
            for flat in by_verts[vs]
        ))

    classes: dict[tuple, list[tuple[int, ...]]] = {}
    for w in candidates:
        key = (len(w), *(
            (pos, shape(vs))
            for size in (2, 3)
            for pos, vs in zip(
                itertools.combinations(range(len(w)), size), itertools.combinations(w, size)
            )
            if vs in by_verts
        ))
        classes.setdefault(key, []).append(w)
    return sorted(sorted(ws) for ws in classes.values())


def one_vertex_set(flats: Iterable[Flat]) -> FlatIndex:
    """The index :func:`falkkit.exterior.rank_fields` takes, for flats that
    come from no graph: every flat on the vertices (1, 2) and every edge with
    those ends, so that all of G_kept is one group, and each edge's slot its
    place in id order."""
    flats = sorted(flats)
    by_verts = {(1, 2): tuple(flats)} if flats else {}
    edges = sorted({a for flat in flats for a in flat})
    return FlatIndex(by_verts, dict.fromkeys(edges, (1, 2)), {a: i for i, a in enumerate(edges)})


def flat_list(index: FlatIndex) -> list[Flat]:
    """The flats of an index, in lexicographic order."""
    return sorted(flat for xs in index.by_verts.values() for flat in xs)


def recorded_rows(monkeypatch, compute) -> tuple[list[list[dict]], object]:
    """The row lists ``compute()`` hands to :func:`falkkit.exterior.rank`,
    one per call, and what ``compute()`` returns."""
    calls = []
    real_rank = exterior.rank

    def recording(rows):
        rows = list(rows)
        calls.append(rows)
        return real_rank(rows)

    with monkeypatch.context() as patch:
        patch.setattr(exterior, "rank", recording)
        result = compute()
    return calls, result


def dim_I2(n: int, triangles: Iterable) -> int:
    """Rank of the boundaries of every dependent triple (degree-2 ideal slice)."""
    return exterior.rank(_boundary_rows(_triples(triangles, n), n + 1))


def span_F3(n: int, triangles: Iterable) -> tuple[int, int]:
    """Size and exact rank of {e_t * boundary(e_S)} over t outside S, all (n-3)*|T| rows."""
    rows = _wedge_rows(_triples(triangles, n), n, inside=False)
    return len(rows), exterior.rank(rows)


def full_dim_I3_2(n: int, triangles: Iterable) -> int:
    """Rank of the full degree-3 slice of the 2-adic ideal: e_t * boundary(e_S)
    for every dependent triple S and every t in 1..n, n*|T| rows, with no
    decomposition over the flats assumed."""
    return exterior.rank(_wedge_rows(_triples(triangles, n), n, inside=True))


def full_rank_fields(g: GainGraph) -> dict[str, int]:
    """The rank fields of :func:`falkkit.falk.verify`, each by a full elimination."""
    n = g.n
    tris = triangles(g)
    dim_a2 = comb(n, 2) - dim_I2(n, tris)
    dim_i32 = full_dim_I3_2(n, tris)
    size, rank_f3 = span_F3(n, tris)
    return {
        "dim_A2": dim_a2,
        "dim_I3_2": dim_i32,
        "span_F3_size": size,
        "span_F3_rank": rank_f3,
        "phi3_rank": 2 * comb(n + 1, 3) - n * dim_a2 + comb(n, 3) - dim_i32,
    }


def dim_I3_2_closed_form(n: int, counts: PatternCounts) -> int:
    """Census prediction for dim(I^3_2), valid under H1-H5: (n-2)*local - excess.

    Under H1-H5, dim(A^2) = C(n,2) - |T| and the rank formula reads
    phi3 = n*|T| - dim(I^3_2); with phi3 = 2*local + excess and
    |T| = local this gives the prediction.
    """
    local, excess = _local_and_excess(counts)
    return (n - 2) * local - excess


# ---------------------------------------------------------------------------
# exhaustive biased-graph isomorphism


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
    """Every circle of ``g`` with its balance, and the invariants the
    isomorphism search prunes with: multiplicities, vertex signatures and a
    summary of the whole graph."""
    pair_mult = {pair: len(es) for pair, es in g.link_map.items()}
    loop_count = {v: len(es) for v, es in g.loop_map.items()}
    circles = tuple(all_circles_small(g))
    balance_of = dict(circles)
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


def _pair(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


def _edge_bijection_matches(pa: _BiasProfile, pb: _BiasProfile, vmap: dict) -> bool:
    groups = []
    for pair, edges in sorted(pa.graph.link_map.items()):
        u, w = pair
        targets = pb.graph.links_between(vmap[u], vmap[w])
        groups.append((tuple(e.id for e in edges), tuple(e.id for e in targets)))
    for v, loops in sorted(pa.graph.loop_map.items()):
        targets = pb.graph.loops_at(vmap[v])
        groups.append((tuple(e.id for e in loops), tuple(e.id for e in targets)))
    sources = [src for src, _ in groups]
    pools = [itertools.permutations(tgt) for _, tgt in groups]
    for assignment in itertools.product(*pools):
        sigma: dict[int, int] = {}
        for src, tgt in zip(sources, assignment):
            sigma.update(zip(src, tgt))
        if all(
            pb.balance_of[frozenset(sigma[i] for i in ids)] == flag
            for ids, flag in pa.circles
        ):
            return True
    return False


def _isomorphic_profiles(pa: _BiasProfile, pb: _BiasProfile) -> bool:
    if pa.summary != pb.summary:
        return False
    for image in itertools.permutations(pb.verts):
        vmap = dict(zip(pa.verts, image))
        if any(pa.vertex_sig[v] != pb.vertex_sig[vmap[v]] for v in pa.verts):
            continue
        if any(
            pa.loop_count.get(v, 0) != pb.loop_count.get(vmap[v], 0) for v in pa.verts
        ):
            continue
        if any(
            pa.pair_mult.get(_pair(u, w), 0)
            != pb.pair_mult.get(_pair(vmap[u], vmap[w]), 0)
            for u, w in itertools.combinations(pa.verts, 2)
        ):
            continue
        if _edge_bijection_matches(pa, pb, vmap):
            return True
    return False


def biased_isomorphic(a: GainGraph, b: GainGraph) -> bool:
    """True when some incidence-preserving bijection matches balanced circles.

    Compares the full circle classes of both graphs, so it decides the
    biased-graph (equivalently, switching-class) isomorphism.  Isolated
    vertices are ignored.  Both graphs must stay within the exhaustive
    circle-enumeration bound.
    """
    return _isomorphic_profiles(_bias_profile(a), _bias_profile(b))


def induced_subgraph(g: GainGraph, edge_ids: Iterable[int]) -> GainGraph:
    """Sub-gain-graph on an edge subset, vertices and edge ids relabeled densely."""
    chosen = sorted((g.edge(i) for i in set(edge_ids)), key=lambda e: e.id)
    verts = sorted({v for e in chosen for v in (e.tail, e.head)})
    vmap = {v: i for i, v in enumerate(verts, start=1)}
    return GainGraph.from_edge_list(
        max(len(verts), 1), [(vmap[e.tail], vmap[e.head], e.gain) for e in chosen]
    )


@functools.cache
def _reference_profile(pattern: Pattern) -> _BiasProfile:
    """The profile of an atlas reference, built once per pattern."""
    return _bias_profile(pattern.reference)


def find_occurrences(g: GainGraph, pattern: Pattern) -> set[frozenset[int]]:
    """Edge sets of ``g`` inducing a subgraph biased-isomorphic to ``pattern``.

    An exhaustive search: it maps the pattern's vertices to every ordered
    tuple of host vertices, takes every edge choice with the pattern's
    multiplicities, and accepts a candidate whose full circle class is
    biased-isomorphic to the pattern's (:func:`biased_isomorphic`).  It
    reads no triangle and shares no search logic with the census.
    """
    ref_profile = _reference_profile(pattern)
    ref_pairs = sorted(pattern.reference.link_map.items())
    ref_loops = sorted(pattern.reference.loop_map.items())
    results: set[frozenset[int]] = set()
    tested: dict[frozenset[int], bool] = {}
    for image in itertools.permutations(g.incident_vertices, len(ref_profile.verts)):
        vmap = dict(zip(ref_profile.verts, image))
        slots = []
        for (u, w), edges in ref_pairs:
            slots.append((len(edges), [e.id for e in g.links_between(vmap[u], vmap[w])]))
        for v, loops in ref_loops:
            slots.append((len(loops), [e.id for e in g.loops_at(vmap[v])]))
        if any(len(ids) < need for need, ids in slots):
            continue
        pools = [itertools.combinations(ids, need) for need, ids in slots]
        for pick in itertools.product(*pools):
            candidate = frozenset(itertools.chain.from_iterable(pick))
            if candidate not in tested:
                tested[candidate] = _isomorphic_profiles(
                    _bias_profile(induced_subgraph(g, candidate)), ref_profile
                )
            if tested[candidate]:
                results.add(candidate)
    return results
