import itertools
import random

import pytest

from falkkit.graphs import (
    GainGraph,
    RANDOM_GAINS,
    all_circles_small,
    is_balanced,
    switch,
    validate,
)
from falkkit.patterns import (
    HypothesisError,
    PatternCounts,
    TriangleKind,
    atlas,
    count_patterns,
    find_occurrences,
    triangles,
)
from helpers import (
    biased_isomorphic,
    circle_from_edges,
    dependent_3sets,
    induced_subgraph,
    load_graph,
    seeded_graphs,
)

FINAL_TRIANGLES = {
    (1, 2, 3): TriangleKind.THETA,
    (4, 5, 6): TriangleKind.THETA,
    (2, 5, 9): TriangleKind.BALANCED_CIRCLE,
    (2, 8, 13): TriangleKind.BALANCED_CIRCLE,
    (5, 8, 11): TriangleKind.BALANCED_CIRCLE,
    (9, 11, 13): TriangleKind.BALANCED_CIRCLE,
    (1, 6, 9): TriangleKind.BALANCED_CIRCLE,
    (1, 5, 10): TriangleKind.BALANCED_CIRCLE,
    (2, 4, 10): TriangleKind.BALANCED_CIRCLE,
    (3, 4, 9): TriangleKind.BALANCED_CIRCLE,
    (5, 7, 12): TriangleKind.BALANCED_CIRCLE,
    (7, 8, 14): TriangleKind.TIGHT_HANDCUFF,
    (11, 12, 14): TriangleKind.TIGHT_HANDCUFF,
}

FINAL_COUNTS = PatternCounts(
    k3=9, k4=1, d3=0, d21=2, k22=0, k33=0, gcirc=1, d31=0, g1=1, g2=0, theta=2
)


# ---------------------------------------------------------------------------
# triangle census


def test_triangles_final_example(final_example):
    got = {t.edge_ids: t.kind for t in triangles(final_example)}
    assert got == FINAL_TRIANGLES


def test_triangles_k22_reference(pattern_atlas):
    tris = triangles(pattern_atlas["K22"].reference)
    assert len(tris) == 1
    assert tris[0].edge_ids == (1, 2, 3)
    assert tris[0].kind is TriangleKind.LOOSE_HANDCUFF


def test_triangles_empty_when_nothing_dependent():
    g = GainGraph.from_edge_list(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 4, 2)])
    assert triangles(g) == []


def test_triangles_invariant_under_switching(final_example):
    rng = random.Random(4242)
    lam = {v: rng.choice(RANDOM_GAINS) for v in final_example.vertices}
    switched = switch(final_example, lam)
    assert [(t.edge_ids, t.kind) for t in triangles(switched)] == [
        (t.edge_ids, t.kind) for t in triangles(final_example)
    ]


def test_triangles_invariant_under_reorientation(final_example):
    for eid in (3, 7, 14):
        h = final_example.with_reversed_edge(eid)
        assert {t.edge_ids: t.kind for t in triangles(h)} == FINAL_TRIANGLES


def _sparse_mixed_gain_graph(rng: random.Random, num_vertices: int) -> GainGraph:
    """Switched H4/H5 graph with about 2V links, some loops and mixed 3-circles.

    Planted triangles and random links start balanced: the k-th link on a
    pair has gain k, so 3-circles through first links have gain 1.  About a
    fifth of the links are then regauged, which unbalances some 3-circles,
    and one loop goes on a quarter of the vertices.  A draw that breaks H4 is
    redrawn.
    """
    verts = range(1, num_vertices + 1)
    while True:
        pairs = []
        for _ in range(num_vertices // 3):
            a, b, c = rng.sample(verts, 3)
            pairs += [(a, b), (b, c), (a, c)]
        while len(pairs) < 2 * num_vertices:
            pairs.append(tuple(rng.sample(verts, 2)))
        seen: dict[frozenset[int], int] = {}
        triples = []
        for u, v in pairs:
            k = seen[frozenset((u, v))] = seen.get(frozenset((u, v)), 0) + 1
            if k <= 3:
                triples.append((u, v, k * rng.choice((2, -1, 3)) if rng.random() < 0.2 else k))
        triples += [(v, v, rng.choice((2, -1))) for v in rng.sample(verts, num_vertices // 4)]
        g = GainGraph.from_edge_list(num_vertices, triples)
        if validate(g).passes("H4", "H5"):
            return switch(g, {v: rng.choice(RANDOM_GAINS) for v in verts})


def _shape_kind(g: GainGraph, edge_ids) -> TriangleKind:
    edges = [g.edge(i) for i in edge_ids]
    loops = sum(e.is_loop for e in edges)
    if loops:
        return (TriangleKind.TIGHT_HANDCUFF, TriangleKind.LOOSE_HANDCUFF)[loops - 1]
    vertices = {v for e in edges for v in e.ends()}
    return TriangleKind.BALANCED_CIRCLE if len(vertices) == 3 else TriangleKind.THETA


def test_triangles_on_sparse_many_vertex_mixed_gain_graphs():
    rng = random.Random(20202)
    balance_seen, kinds_seen = set(), set()
    for num_vertices in range(12, 21):
        g = _sparse_mixed_gain_graph(rng, num_vertices)
        tris = triangles(g)
        assert [t.edge_ids for t in tris] == sorted(t.edge_ids for t in tris)
        assert {t.edge_ids for t in tris} == dependent_3sets(g)
        for t in tris:
            assert t.kind is _shape_kind(g, t.edge_ids), t
            kinds_seen.add(t.kind)
        found = {t.edge_ids for t in tris}
        for a, b, c in itertools.combinations(g.incident_vertices, 3):
            for links in itertools.product(
                g.links_between(a, b), g.links_between(b, c), g.links_between(a, c)
            ):
                ids = tuple(sorted(e.id for e in links))
                balanced = is_balanced(g, circle_from_edges(g, ids))
                assert (ids in found) == balanced, ids
                balance_seen.add(balanced)
    assert balance_seen == {True, False}
    assert kinds_seen == set(TriangleKind)


# ---------------------------------------------------------------------------
# atlas self-tests


def test_atlas_census_matches_distinguished_classes(pattern_atlas):
    for name, pattern in pattern_atlas.items():
        census = {frozenset(t.edge_ids) for t in triangles(pattern.reference)}
        assert census == set(pattern.distinguished), name


def test_atlas_references_pass_standing_hypotheses(pattern_atlas):
    from falkkit.graphs import validate

    for name, pattern in pattern_atlas.items():
        report = validate(pattern.reference)
        assert report.passes("H4", "H5"), name
        if name != "B2":
            assert report.all_pass, name


def test_g1_g2_contain_no_d3(pattern_atlas):
    d3 = pattern_atlas["D3"]
    assert find_occurrences(pattern_atlas["G1"].reference, d3) == set()
    assert find_occurrences(pattern_atlas["G2"].reference, d3) == set()


def test_g1_twin_is_not_g1(pattern_atlas):
    # G1's multigraph with five balanced 3-circles and two thetas, like G1,
    # but its balanced circles sit differently: not biased-isomorphic to G1
    twin = GainGraph.from_edge_list(
        3,
        [(1, 2, 1), (1, 3, -1), (1, 2, -1), (2, 3, 2), (1, 3, -2), (1, 3, 2),
         (2, 3, -1), (2, 3, -2)],
    )
    assert not biased_isomorphic(twin, pattern_atlas["G1"].reference)
    assert find_occurrences(twin, pattern_atlas["G1"]) == set()
    assert count_patterns(twin) == PatternCounts(k3=5, d3=1, theta=2)


def test_every_pattern_self_occurs(pattern_atlas):
    for name, pattern in pattern_atlas.items():
        full = frozenset(e.id for e in pattern.reference.edges)
        assert full in find_occurrences(pattern.reference, pattern), name


# ---------------------------------------------------------------------------
# biased isomorphism


def test_switching_equivalent_graphs_are_isomorphic(pattern_atlas):
    rng = random.Random(10)
    g = pattern_atlas["G2"].reference
    lam = {v: rng.choice(RANDOM_GAINS) for v in g.vertices}
    assert biased_isomorphic(g, switch(g, lam))


def test_balanced_vs_unbalanced_triangle_not_isomorphic():
    balanced = GainGraph.from_edge_list(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
    unbalanced = GainGraph.from_edge_list(3, [(1, 2, 1), (2, 3, 1), (1, 3, 2)])
    assert not biased_isomorphic(balanced, unbalanced)


def test_d3_vs_three_balanced_triangle_double():
    # doubled triangle with gains (1,2) per side has 3 balanced 3-circles,
    # one fewer than D3's 4
    other = GainGraph.from_edge_list(
        3, [(1, 2, 1), (1, 2, 2), (2, 3, 1), (2, 3, 2), (1, 3, 1), (1, 3, 2)]
    )
    balanced = [
        c for c in all_circles_small(other) if len(c) == 3 and is_balanced(other, c)
    ]
    assert len(balanced) == 3
    d3 = atlas()["D3"].reference
    assert not biased_isomorphic(d3, other)
    assert biased_isomorphic(other, other)


def test_k4_balanced_triangles_force_balanced_squares(pattern_atlas):
    rng = random.Random(99)
    k4 = pattern_atlas["K4"].reference
    for _ in range(10):
        lam = {v: rng.choice(RANDOM_GAINS) for v in k4.vertices}
        h = switch(k4, lam)
        for c in all_circles_small(h):
            assert is_balanced(h, c)
        assert biased_isomorphic(h, k4)


# ---------------------------------------------------------------------------
# occurrence search and counts


def test_find_occurrences_final_example(final_example, pattern_atlas):
    assert find_occurrences(final_example, pattern_atlas["K4"]) == {
        frozenset({2, 5, 8, 9, 11, 13})
    }
    assert find_occurrences(final_example, pattern_atlas["Gcirc"]) == {
        frozenset({5, 7, 8, 11, 12, 14})
    }
    assert find_occurrences(final_example, pattern_atlas["G1"]) == {
        frozenset({1, 2, 3, 4, 5, 6, 9, 10})
    }
    assert find_occurrences(final_example, pattern_atlas["D21"]) == {
        frozenset({7, 8, 14}),
        frozenset({11, 12, 14}),
    }


def test_find_occurrences_b2_needs_loops(pattern_atlas):
    simple = GainGraph.from_edge_list(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 4, 1)])
    assert find_occurrences(simple, pattern_atlas["B2"]) == set()


def test_count_patterns_final_example(final_example):
    assert count_patterns(final_example) == FINAL_COUNTS


def test_count_patterns_d31_reference(pattern_atlas):
    counts = count_patterns(pattern_atlas["D31"].reference)
    assert counts == PatternCounts(k3=4, d21=2, d31=1)
    # raw occurrences exist but sit inside the D31, hence the exclusions
    ref = pattern_atlas["D31"].reference
    assert len(find_occurrences(ref, pattern_atlas["D3"])) == 1
    assert len(find_occurrences(ref, pattern_atlas["Gcirc"])) == 2


def test_count_patterns_g2_reference_excludes_g1(pattern_atlas):
    ref = pattern_atlas["G2"].reference
    raw_g1 = find_occurrences(ref, pattern_atlas["G1"])
    assert len(raw_g1) == 3
    counts = count_patterns(ref)
    assert counts == PatternCounts(k3=6, g2=1, theta=3)


def test_count_patterns_balanced_k4(pattern_atlas):
    counts = count_patterns(pattern_atlas["K4"].reference)
    assert counts == PatternCounts(k3=4, k4=1)


def test_count_patterns_refuses_on_hypothesis_failure():
    with pytest.raises(HypothesisError, match="H1"):
        count_patterns(load_graph("b2.gg"))


def test_triangle_cardinality_identity(final_example):
    graphs = [final_example] + seeded_graphs(10, seed=313370)
    for g in graphs:
        counts = count_patterns(g)
        assert len(triangles(g)) == counts.k3 + counts.d21 + counts.k22 + counts.theta


def test_counts_stable_under_switching():
    rng = random.Random(500)
    for g in seeded_graphs(5, seed=171717):
        lam = {v: rng.choice(RANDOM_GAINS) for v in g.vertices}
        assert count_patterns(switch(g, lam)) == count_patterns(g)


def test_census_matches_rank_oracle_on_small_sample(final_example):
    for g in [final_example] + seeded_graphs(10, seed=808080):
        assert dependent_3sets(g) == {t.edge_ids for t in triangles(g)}


def test_induced_subgraph_relabels_densely(final_example):
    sub = induced_subgraph(final_example, {5, 7, 8, 11, 12, 14})
    assert sub.num_vertices == 3
    assert sub.n == 6
    assert sorted(e.id for e in sub.edges) == [1, 2, 3, 4, 5, 6]
