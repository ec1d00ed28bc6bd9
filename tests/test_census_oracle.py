"""The triangle-seeded occurrence search against the vertex-tuple search.

:func:`vertex_tuple_occurrences` is an exhaustive search: it maps the
pattern's vertices to every ordered tuple of host vertices, takes every edge
choice with the pattern's multiplicities, and accepts a candidate whose full
circle class is biased-isomorphic to the pattern's.  It shares no search
logic with :func:`find_occurrences` or the census walk behind it.
"""

import itertools
import random
from fractions import Fraction

import pytest

from falkkit import falk, patterns
from falkkit.graphs import GainGraph, random_gain_graph, validate
from falkkit.patterns import (
    _EXCESS_PATTERN,
    _KIND_FIELD,
    COUNT_FIELDS,
    TriangleKind,
    _bias_profile,
    _occurrences,
    atlas,
    count_patterns,
    find_occurrences,
    triangles,
)
from helpers import (
    _isomorphic_profiles,
    braid,
    enriched_pattern_host,
    induced_subgraph,
    type_d,
)

SEED_MAIN = 20260802
SEED_HOSTS = 5150
SEED_BUNDLED = 5


def vertex_tuple_occurrences(g: GainGraph, pattern) -> set[frozenset[int]]:
    ref_profile = pattern.profile
    ref_pairs = sorted(pattern.reference.link_map.items())
    ref_loops = sorted(pattern.reference.loop_map.items())
    k = len(ref_profile.verts)
    results: set[frozenset[int]] = set()
    tested: dict[frozenset[int], bool] = {}
    for image in itertools.permutations(g.incident_vertices, k):
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


def oracle_hosts() -> list[GainGraph]:
    rng = random.Random(SEED_MAIN)
    hosts = [random_gain_graph(rng) for _ in range(300)]
    host_rng = random.Random(SEED_HOSTS)
    # B2 breaks H1 and gets no host here; bundled_graphs covers it
    for _, pattern in sorted(atlas().items()):
        for _ in range(3):
            host = enriched_pattern_host(host_rng, pattern.reference)
            if host is not None:
                hosts.append(host)
    hosts += [braid(m) for m in (4, 5, 6)] + [type_d(m) for m in (3, 4, 5)]
    return hosts


def with_oracle(graphs: list[GainGraph]) -> list[tuple[GainGraph, dict]]:
    """Each graph with the vertex-tuple occurrences of every atlas pattern."""
    return [
        (g, {name: vertex_tuple_occurrences(g, p) for name, p in atlas().items()})
        for g in graphs
    ]


@pytest.fixture(scope="module")
def hosts():
    return oracle_hosts()


@pytest.fixture(scope="module")
def host_cases(hosts):
    return with_oracle(hosts)


@pytest.fixture(scope="module")
def bundled_cases():
    return with_oracle(bundled_graphs(random.Random(SEED_BUNDLED), 120))


def test_search_matches_vertex_tuple_oracle(host_cases):
    for index, (g, expected) in enumerate(host_cases):
        for name, pattern in atlas().items():
            assert find_occurrences(g, pattern) == expected[name], (index, name)


def bundled_graphs(rng: random.Random, count: int) -> list[GainGraph]:
    """Graphs on 3-4 vertices with bundles of 1-3 links and gains from a small
    group, so balanced 3-circles are common.  H4 and H5 hold; H1-H3 may fail."""
    out = []
    while len(out) < count:
        group = rng.choice(((1, 2, 4, "1/2", "1/4"), (1, -1, 2, -2), (1, -1, 2, -2, "1/2", "-1/2")))
        ell = rng.choice((3, 3, 3, 4))
        triples = []
        for u in range(1, ell + 1):
            for v in range(u + 1, ell + 1):
                for x in rng.sample(group, rng.choice((1, 2, 2, 3, 3))):
                    triples.append((u, v, x) if rng.random() < 0.5 else (v, u, 1 / Fraction(x)))
            if rng.random() < 0.25:
                triples.append((u, u, rng.choice(group[1:])))
        rng.shuffle(triples)
        g = GainGraph.from_edge_list(ell, triples)
        if len(triples) <= 12 and validate(g).passes("H4", "H5"):
            out.append(g)
    return out


def test_search_matches_oracle_on_bundled_graphs(bundled_cases):
    for index, (g, expected) in enumerate(bundled_cases):
        for name, pattern in atlas().items():
            assert find_occurrences(g, pattern) == expected[name], (index, name)


# the eleven counted patterns, and the seven the census walk is given
COUNTED = ("K3", "K4", "D3", "D21", "K22", "K33", "Gcirc", "D31", "G1", "G2", "Theta3")
EXCESS = ("K4", "D3", "K33", "Gcirc", "D31", "G1", "G2")
# the one-triangle pattern whose occurrences are the triangles of each kind
KIND_PATTERN = {
    TriangleKind.BALANCED_CIRCLE: "K3",
    TriangleKind.TIGHT_HANDCUFF: "D21",
    TriangleKind.LOOSE_HANDCUFF: "K22",
    TriangleKind.THETA: "Theta3",
}


@pytest.mark.parametrize("cases", ["host_cases", "bundled_cases"])
def test_one_walk_for_all_counted_patterns_matches_oracle(cases, request):
    # the caps of several patterns together are looser than any one's: all
    # eleven counted patterns, and the seven the census walks; the bundled
    # graphs include hosts where H1-H3 fail
    for names in (COUNTED, EXCESS):
        given = [atlas()[name] for name in names]
        for index, (g, expected) in enumerate(request.getfixturevalue(cases)):
            found = _occurrences(g, triangles(g), given)
            assert found == {name: expected[name] for name in names}, (index, names)


@pytest.mark.parametrize("cases", ["host_cases", "bundled_cases"])
def test_one_triangle_patterns_are_the_triangles_by_kind(cases, request):
    # H4 and H5 hold on every case; the bundled graphs include hosts where
    # H1-H3 fail
    for index, (g, expected) in enumerate(request.getfixturevalue(cases)):
        tris = triangles(g)
        for kind, name in KIND_PATTERN.items():
            by_kind = {frozenset(t.edge_ids) for t in tris if t.kind is kind}
            assert find_occurrences(g, atlas()[name], tris) == by_kind, (index, name)
            assert by_kind == expected[name], (index, name)


def test_census_tables_split_the_count_fields():
    local = set(_KIND_FIELD.values())
    assert set(KIND_PATTERN) == set(_KIND_FIELD) == set(TriangleKind)
    assert local.isdisjoint(_EXCESS_PATTERN)
    assert sorted(local | set(_EXCESS_PATTERN)) == sorted(COUNT_FIELDS)
    assert set(_EXCESS_PATTERN) == set(falk._EXCESS)


def test_census_walks_only_the_excess_patterns(hosts, monkeypatch):
    given = []

    def recording(g, tris, walked):
        given.append(tuple(p.name for p in walked))
        return _occurrences(g, tris, walked)

    monkeypatch.setattr(patterns, "_occurrences", recording)
    for g in hosts:
        count_patterns(g)
    assert given and all(sorted(names) == sorted(EXCESS) for names in given), set(given)


def test_count_patterns_makes_one_walk(hosts, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("count_patterns searched pattern by pattern")

    monkeypatch.setattr(patterns, "find_occurrences", forbidden)
    for g in hosts:
        count_patterns(g)


def test_census_never_runs_biased_isomorphism(hosts, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("biased isomorphism reached from count_patterns")

    monkeypatch.setattr(patterns, "all_circles_small", forbidden)
    for g in hosts:
        count_patterns(g)
