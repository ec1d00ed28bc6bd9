"""The per-triple occurrence search and the census against the
vertex-tuple search.

:func:`helpers.find_occurrences` is an exhaustive search: it maps the
pattern's vertices to every ordered tuple of host vertices, takes every edge
choice with the pattern's multiplicities, and accepts a candidate whose full
circle class is biased-isomorphic to the pattern's.  It shares no search
logic with the library's per-triple search, which the census runs on the
local type of one balanced 3-circle's triple at a time.
"""

import itertools
import random
from collections import Counter, defaultdict
from fractions import Fraction
from math import comb

import pytest

from falkkit import patterns
from falkkit.graphs import GainGraph, validate
from falkkit.patterns import (
    _EXCESS,
    _EXCLUDED_INSIDE,
    _KIND_FIELD,
    COUNT_FIELDS,
    TriangleKind,
    _local_counts,
    _local_type,
    _triple_occurrences,
    atlas,
    count_patterns,
    flats,
    triangles,
)
from helpers import (
    PAPPUS_GRAPHS,
    RANDOM_GAINS,
    braid,
    enriched_pattern_host,
    find_occurrences,
    pattern_rich_hosts,
    random_gain_graph,
    scrambled,
    triangulated_grid,
    type_d,
)

SEED_MAIN = 20260802
SEED_HOSTS = 5150
SEED_BUNDLED = 5
SEED_SCRAMBLE = 77


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
        (g, {name: find_occurrences(g, p) for name, p in atlas().items()})
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


# the seven excess patterns, and the six the census searches per triple
EXCESS = ("K4", "D3", "K33", "Gcirc", "D31", "G1", "G2")
PER_TRIPLE = tuple(name for name in EXCESS if name != "K4")
# the one-triangle pattern whose occurrences are the triangles of each kind
KIND_PATTERN = {
    TriangleKind.BALANCED_CIRCLE: "K3",
    TriangleKind.TIGHT_HANDCUFF: "D21",
    TriangleKind.LOOSE_HANDCUFF: "K22",
    TriangleKind.THETA: "Theta3",
}


def spanned(g: GainGraph, edge_ids) -> frozenset[int]:
    """The vertices the edges ``edge_ids`` of ``g`` touch."""
    return frozenset(v for i in edge_ids for v in g.edge(i).ends())


@pytest.mark.parametrize(
    "cases, nonzero", [("host_cases", PER_TRIPLE), ("bundled_cases", ("D3", "D31", "G1"))]
)
def test_triple_search_matches_vertex_tuple_oracle(cases, nonzero, request):
    # on the local type of each balanced 3-circle's triple, read with the
    # triangles on two or three of its vertices, the search finds exactly
    # the oracle's occurrences on that triple once its slots are mapped back
    # to edge ids, and the triples together hold all of them; the bundled
    # graphs include hosts where H1-H3 fail
    seen = Counter()
    for index, (g, expected) in enumerate(request.getfixturevalue(cases)):
        inside = defaultdict(list)
        for t in triangles(g):
            inside[spanned(g, t.edge_ids)].append(frozenset(t.edge_ids))
        triples = balanced_circle_triples(g)
        flat_index = flats(g)
        for name in PER_TRIPLE:
            pattern = atlas()[name]
            found = set()
            for verts in triples:
                given = [t for span, ts in inside.items() if span <= verts for t in ts]
                local, order = _local_type(flat_index, sorted(verts), given)
                occ = {frozenset(order[k] for k in o) for o in _triple_occurrences(local, pattern)}
                assert occ == {o for o in expected[name] if spanned(g, o) == verts}, (index, name)
                found |= occ
            assert found == expected[name], (index, name)
            seen[name] += len(found)
    assert all(seen[name] > 0 for name in nonzero), dict(seen)


def test_per_triple_patterns_are_unions_of_linked_distinguished_triples():
    # the premise of the per-triple search: each pattern it is given spans
    # three vertices, and its distinguished triples cover its edges and are
    # linked by shared edges, so an occurrence is the union of the images of
    # its distinguished triples, which lie on one triple of vertices
    for name in PER_TRIPLE:
        pattern = atlas()[name]
        ref = pattern.reference
        assert len(ref.incident_vertices) == 3, name
        assert frozenset().union(*pattern.distinguished) == {e.id for e in ref.edges}, name
        reached = {min(pattern.distinguished, key=sorted)}
        while True:
            grown = {t for t in pattern.distinguished if any(t & r for r in reached)}
            if grown == reached:
                break
            reached = grown
        assert reached == pattern.distinguished, name


def test_a_link_in_no_triangle_leaves_the_local_type():
    # an edge in no triangle of a triple lies in no occurrence on it, so
    # the local type leaves it out: adding such a link to a reference keeps
    # the triple's local type, its slot order and its counts
    added = 0
    for name in ("K3", *PER_TRIPLE):
        ref = atlas()[name].reference
        spec = [(e.tail, e.head, e.gain) for e in ref.edges]
        inside = [frozenset(t.edge_ids) for t in triangles(ref)]
        before = _local_type(flats(ref), (1, 2, 3), inside)
        for u, v in itertools.combinations((1, 2, 3), 2):
            # no balanced 3-circle closes through a gain of 7 here
            g = GainGraph.from_edge_list(3, [*spec, (u, v, 7)])
            if [frozenset(t.edge_ids) for t in triangles(g)] != inside:
                continue  # the link made a two-vertex flat of three
            added += 1
            assert _local_type(flats(g), (1, 2, 3), inside) == before, (name, u, v)
            assert count_patterns(g) == count_patterns(ref), (name, u, v)
    assert added >= 4


@pytest.mark.parametrize("cases", ["host_cases", "bundled_cases"])
def test_one_triangle_patterns_are_the_triangles_by_kind(cases, request):
    # H4 and H5 hold on every case; the bundled graphs include hosts where
    # H1-H3 fail
    for index, (g, expected) in enumerate(request.getfixturevalue(cases)):
        tris = triangles(g)
        for kind, name in KIND_PATTERN.items():
            by_kind = {frozenset(t.edge_ids) for t in tris if t.kind is kind}
            assert by_kind == expected[name], (index, name)


def test_census_tables_split_the_count_fields():
    local = set(_KIND_FIELD.values())
    assert set(KIND_PATTERN) == set(_KIND_FIELD) == set(TriangleKind)
    assert local.isdisjoint(_EXCESS)
    assert sorted(local | set(_EXCESS)) == sorted(COUNT_FIELDS)


def test_search_reads_only_the_local_type():
    # a D3 written by hand: three bundles of two slots (0-1, 2-3 and 4-5),
    # no loops, and the four slot triples of even parity as its balanced
    # 3-circles; the search sees nothing else, and finds one D3 on all six
    # slots and no other pattern
    inside = frozenset(
        frozenset((i, 2 + j, 4 + k))
        for i, j, k in itertools.product((0, 1), repeat=3)
        if (i + j + k) % 2 == 0
    )
    local = ((2, 2, 2, 0, 0, 0), inside)
    searched = [atlas()[name] for name in PER_TRIPLE]
    assert _triple_occurrences(local, atlas()["D3"]) == {frozenset(range(6))}
    assert _local_counts(local, searched) == {
        field: int(field == "d3") for field, (name, _) in _EXCESS.items() if name in PER_TRIPLE
    }


def test_census_walks_only_the_excess_patterns(hosts, monkeypatch):
    # each triple the census searches is searched for the six 3-vertex
    # excess patterns, once each: never K4, which the join over balanced
    # 3-circles counts, and never a one-triangle pattern
    given = []

    def recording(local, pattern):
        given[-1][local].append(pattern.name)
        return _triple_occurrences(local, pattern)

    monkeypatch.setattr(patterns, "_triple_occurrences", recording)
    for g in hosts:
        given.append(defaultdict(list))
        count_patterns(g)
    assert any(given)
    for per_host in given:
        for names in per_host.values():
            assert sorted(names) == sorted(PER_TRIPLE), names


def balanced_circle_triples(g: GainGraph) -> set[frozenset[int]]:
    """The vertex set of each balanced 3-circle of ``g``."""
    return {
        spanned(g, t.edge_ids) for t in triangles(g) if t.kind is TriangleKind.BALANCED_CIRCLE
    }


def test_census_walks_stay_local_and_the_memo_hits(hosts, monkeypatch):
    # every local type is read from the host graph's own flat index, on the
    # triple of one balanced 3-circle, given only the triangles inside that
    # triple; the search reads the local type alone
    read = []
    handed = []

    def reading(index, verts, inside):
        read.append((index, verts, inside))
        return _local_type(index, verts, inside)

    def recording(local, pattern):
        handed.append(local)
        return _triple_occurrences(local, pattern)

    monkeypatch.setattr(patterns, "_local_type", reading)
    monkeypatch.setattr(patterns, "_triple_occurrences", recording)
    for host in hosts:
        read.clear()
        count_patterns(host)
        triples = balanced_circle_triples(host)
        index = flats(host)
        for given, verts, inside in read:
            assert given == index
            assert frozenset(verts) in triples
            assert all(spanned(host, t) <= frozenset(verts) for t in inside)
    assert handed
    # K_m has no triple with enough edges for a 3-vertex excess pattern, and
    # every triple of D_m has one local type, whatever the switching,
    # reversals and edge ids, so scrambled copies hit as well
    rng = random.Random(SEED_SCRAMBLE)
    for g, expected in ((braid(11), 0), (type_d(7), 1)):
        for h in (g, scrambled(g, rng), scrambled(g, rng)):
            handed.clear()
            count_patterns(h)
            assert len(set(handed)) == expected
            assert len(handed) == expected * len(PER_TRIPLE)
    handed.clear()
    for _, g in pattern_rich_hosts():
        count_patterns(g)
    assert len(handed) <= 91 * len(PER_TRIPLE)


#: positive switching values: they keep the order of every bundle's gains
POSITIVE_GAINS = tuple(x for x in RANDOM_GAINS if x > 0)


def test_local_types_do_not_depend_on_edge_ids(monkeypatch):
    # the census keys each triple by slots in gain order, so renumbering the
    # edges, storing them the other way round and switching by positive
    # values keep every triple's local type; a negative value may reverse a
    # bundle's order, which keeps the counts but not the type
    typed = []

    def recording(index, verts, inside):
        result = _local_type(index, verts, inside)
        typed.append(result[0])
        return result

    def local_types(g):
        typed.clear()
        count_patterns(g)
        return Counter(typed)

    monkeypatch.setattr(patterns, "_local_type", recording)
    graphs = [g for _, g in pattern_rich_hosts() if validate(g).all_pass] + [type_d(6)]
    rng = random.Random(SEED_SCRAMBLE)
    changed = typed_copies = 0
    for g in graphs:
        types = local_types(g)
        for _ in range(2):
            changed += local_types(scrambled(g, rng, POSITIVE_GAINS)) != types
            typed_copies += bool(types)
    assert typed_copies > 100
    assert changed == 0, f"{changed} of {typed_copies} copies change their local types"


@pytest.mark.parametrize(
    "g, k3, k4",
    [
        pytest.param(braid(11), comb(11, 3), comb(11, 4), id="K11"),
        pytest.param(triangulated_grid(30), 2 * 29 * 29, 0, id="grid30"),
    ],
)
def test_census_skips_thin_sets_before_keying_them(monkeypatch, pattern_atlas, g, k3, k4):
    # every triple of K_m and of the grid holds one triangle, fewer than the
    # four or more distinguished triples of any 3-vertex excess pattern, so
    # the census counts each triple's flats and skips it before it builds an
    # edge set, a local type or a search; only the join counts K_m's K4s
    typed = []

    def counted(*args):
        typed.append(args)
        return _local_type(*args)

    def forbidden(*args, **kwargs):
        raise AssertionError("the census built a set for a triple it can skip")

    patterns._searched()  # the atlas-derived constants, built once
    monkeypatch.setattr(patterns, "_local_type", counted)
    monkeypatch.setattr(patterns, "_triple_occurrences", forbidden)
    monkeypatch.setattr(patterns, "frozenset", forbidden, raising=False)
    counts = count_patterns(g)
    assert typed == []
    assert counts.as_dict() == {**dict.fromkeys(COUNT_FIELDS, 0), "k3": k3, "k4": k4}


def test_census_tells_sets_of_one_shape_apart():
    # sets of vertices with the same multiplicities and loops but other
    # balanced circles: a D3 and a 2-2-2 triple with one balanced 3-circle;
    # a K4 and a 4-set of links with two; and the G2 reference and the two
    # Pappus graphs, each with 3-3-3 bundles and six balanced 3-circles.  A
    # memo key or a K4 join that forgot the balanced circles would count
    # the sets of a group alike
    d3 = [(1, 2, 1), (1, 2, -1), (2, 3, 1), (2, 3, -1), (1, 3, 1), (1, 3, -1)]
    near_d3 = [(4, 5, 1), (4, 5, 2), (5, 6, 1), (5, 6, 3), (4, 6, 1), (4, 6, 5)]
    k4 = [(u, v, 1) for u, v in itertools.combinations((7, 8, 9, 10), 2)]
    near_k4 = [
        (u, v, 2 if (u, v) == (13, 14) else 1)
        for u, v in itertools.combinations((11, 12, 13, 14), 2)
    ]
    nine = [[(e.tail, e.head, e.gain) for e in atlas()["G2"].reference.edges]]
    nine += [list(edges) for edges in PAPPUS_GRAPHS.values()]
    nine_types = []
    for group in nine:
        g = GainGraph.from_edge_list(3, group)
        inside = [frozenset(t.edge_ids) for t in triangles(g)]
        assert sum(len(spanned(g, t)) == 3 for t in inside) == 6
        local, _ = _local_type(flats(g), (1, 2, 3), inside)
        assert local[0] == (3, 3, 3, 0, 0, 0)
        nine_types.append(local)
    assert nine_types[0] not in nine_types[1:]
    shifted = [
        (u + shift, v + shift, x)
        for shift, group in zip((14, 17, 20), nine)
        for u, v, x in group
    ]
    g = GainGraph.from_edge_list(23, d3 + near_d3 + k4 + near_k4 + shifted)
    assert validate(g).all_pass
    counts = count_patterns(g)
    assert (counts.d3, counts.k4, counts.g2) == (1, 1, 1)
    for name, expected in (("D3", 1), ("K4", 1), ("G2", 1)):
        assert len(find_occurrences(g, atlas()[name])) == expected


def test_excess_patterns_sit_on_a_balanced_circle_within_one_vertex_set():
    # the premise of the census: every excess occurrence holds a balanced
    # 3-circle; K4 alone spans four vertices and has no exclusion partner,
    # so the join over balanced 3-circles counts it, and every other one,
    # with every occurrence that excludes it, spans the triple of one
    spans = {}
    for field, (name, _) in _EXCESS.items():
        ref = atlas()[name].reference
        assert any(t.kind is TriangleKind.BALANCED_CIRCLE for t in triangles(ref)), name
        spans[field] = len(ref.incident_vertices)
    assert {field for field, size in spans.items() if size == 4} == {"k4"}
    assert {size for field, size in spans.items() if field != "k4"} == {3}
    for inner, outer in _EXCLUDED_INSIDE.items():
        assert spans[inner] == spans[outer] == 3, (inner, outer)


def k4_sharing_hosts() -> list[GainGraph]:
    """K_4 with a triple bundle on every pair, gains 1, 2, 1/2 or 1, -1, 2:
    H1-H5 hold, and several K4s share the one 4-set."""
    return [
        GainGraph.from_edge_list(
            4, [(u, v, Fraction(x)) for u, v in itertools.combinations(range(1, 5), 2) for x in gains]
        )
        for gains in ((1, 2, "1/2"), (1, -1, 2))
    ]


def test_k4_join_matches_the_vertex_tuple_oracle():
    # the census counts K4 by a join over balanced 3-circles, not by a
    # search; it must find each occurrence the exhaustive search finds, once
    rng = random.Random(SEED_SCRAMBLE)
    base = [braid(m) for m in range(4, 10)] + [type_d(m) for m in (4, 5, 6)]
    graphs = [scrambled(g, rng) for g in base + k4_sharing_hosts()]
    graphs += k4_sharing_hosts() + [g for _, g in pattern_rich_hosts()]
    k4 = atlas()["K4"]
    shared = 0
    for index, g in enumerate(graphs):
        assert validate(g).all_pass, index
        found = count_patterns(g).k4
        assert found == len(find_occurrences(g, k4)), index
        shared += found > 1 and g.num_vertices == 4
    assert shared >= 4


@pytest.mark.parametrize(
    "g, k4",
    [(braid(m), comb(m, 4)) for m in range(4, 12)]
    + [(type_d(m), 8 * comb(m, 4)) for m in range(4, 8)],
    ids=[f"K{m}" for m in range(4, 12)] + [f"D{m}" for m in range(4, 8)],
)
def test_k4_join_closed_forms(g, k4):
    # K_m holds C(m, 4) K4s, one per 4-set; D_m holds 8 per 4-set, the sign
    # choices s(u)s(v) for a switching s of the four vertices by signs, up
    # to a global sign; a join that counted each K4 from more than one of
    # its edges would read more
    rng = random.Random(SEED_SCRAMBLE)
    for h in (g, scrambled(g, rng)):
        assert count_patterns(h).k4 == k4


# the atlas pattern behind each count field
FIELD_PATTERN = {
    **{field: name for field, (name, _) in _EXCESS.items()},
    **{_KIND_FIELD[kind]: name for kind, name in KIND_PATTERN.items()},
}


@pytest.mark.parametrize(
    "cases, nonzero", [("host_cases", COUNT_FIELDS), ("bundled_cases", ("k3", "d3"))]
)
def test_census_counts_match_vertex_tuple_oracle(cases, nonzero, request):
    # the census counts per vertex set; its counts must be the oracle's
    # occurrence sets with the exclusions applied, on every H1-H5 case
    seen = Counter()
    for index, (g, expected) in enumerate(request.getfixturevalue(cases)):
        if not validate(g).all_pass:
            continue
        occ = {field: expected[name] for field, name in FIELD_PATTERN.items()}
        want = {}
        for field, found in occ.items():
            hosts = occ.get(_EXCLUDED_INSIDE.get(field), ())
            want[field] = sum(1 for o in found if not any(o <= host for host in hosts))
        assert count_patterns(g).as_dict() == want, index
        seen.update(want)
    assert all(seen[field] > 0 for field in nonzero), dict(seen)


def test_census_never_runs_biased_isomorphism(hosts, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("biased isomorphism reached from count_patterns")

    monkeypatch.setattr(patterns, "all_circles_small", forbidden)
    for g in hosts:
        count_patterns(g)
