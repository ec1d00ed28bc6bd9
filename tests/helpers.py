"""Shared test utilities and the oracles the library is checked against.

The library computes each quantity once.  The second computations it is
checked against live here, except the vertex-tuple occurrence search,
which stays in ``test_census_oracle.py``, its only user.

* Circles: :func:`brute_circle_sets` enumerates circles by depth-first
  closed walks over vertex-simple paths, a different characterization from
  the library's degree-2 subset scan, so the two can check each other.
  :func:`circle_from_edges` builds one circle for the balance tests.
* Rank: :func:`fraction_rank` eliminates over ``fractions.Fraction`` and
  shares no code with the library's fraction-free
  :func:`falkkit.exterior.rank`.
* Matroid: :func:`dependent_3sets` ranks the hyperplane normals of every
  edge triple with :func:`fraction_rank`, the linear-algebra side of
  "dependent 3-sets == triangle census".  :func:`fraction_phi3` rebuilds
  the rank formula for phi_3 from those triples, again with
  :func:`fraction_rank` only.
* Isomorphism: :func:`biased_isomorphic` decides biased-graph isomorphism
  exhaustively, from every circle and its balance
  (:attr:`falkkit.patterns.Pattern.profile`); the census oracle compares
  :func:`induced_subgraph` candidates with it.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Iterable, Mapping

from falkkit.arrangement import arrangement
from falkkit.graphs import (
    RANDOM_GAINS,
    Circle,
    CircleError,
    GainGraph,
    _trace_circle,
    parse,
    random_gain_graph,
)
from falkkit.patterns import _bias_profile, _BiasProfile

DATA = Path(__file__).parent / "data"


def load_graph(name: str) -> GainGraph:
    return parse((DATA / name).read_text())


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


def seeded_graphs(count: int, seed: int, **kwargs) -> list[GainGraph]:
    rng = random.Random(seed)
    return [random_gain_graph(rng, **kwargs) for _ in range(count)]


def enriched_pattern_host(rng: random.Random, reference: GainGraph, max_tries: int = 200):
    """Random H1-H5 host containing a switched copy of a reference pattern.

    Returns None when rejection sampling fails (some patterns tolerate few
    additions before a hypothesis breaks).
    """
    from falkkit.graphs import switch, validate

    for _ in range(max_tries):
        lam = {v: rng.choice(RANDOM_GAINS) for v in reference.vertices}
        base = switch(reference, lam)
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
            nxt = e.other_end(current)
            if nxt == start and used:
                circles.add(used | {e.id})
            elif nxt not in visited:
                walk(start, nxt, used | {e.id}, visited | {nxt})

    for start in g.incident_vertices:
        walk(start, start, frozenset(), frozenset({start}))
    return circles


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


def random_switching(g: GainGraph, rng: random.Random) -> dict[int, object]:
    """A reproducible switching function with values from the generator pool."""
    return {v: rng.choice(RANDOM_GAINS) for v in g.vertices}


def circle_from_edges(g: GainGraph, edge_ids: Iterable[int]) -> Circle:
    """Build the circle on an edge set, or raise :class:`CircleError`."""
    ids = sorted(set(edge_ids))
    if not ids:
        raise CircleError("empty circle")
    try:
        chosen = [g.edge(i) for i in ids]
    except KeyError as exc:
        raise CircleError(str(exc)) from None
    circle = _trace_circle(chosen)
    if circle is None:
        raise CircleError(f"edges {ids} do not form a circle")
    return circle


# ---------------------------------------------------------------------------
# exhaustive biased-graph isomorphism


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
