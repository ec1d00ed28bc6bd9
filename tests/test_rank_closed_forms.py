"""The rank route's closed forms and its eliminations, across the H4/H5 regime.

The library reads dim A^2, |F3| and rank F3 off the rank-2 flats and ranks
only the kept blocks of the global rows G, one group of blocks per
distinct key (:func:`falkkit.exterior.rank_fields`).  Here
every rank field of :func:`falkkit.falk.verify` is checked against the full
eliminations of the test oracle (:func:`helpers.full_rank_fields`: |T|,
(n-3)*|T| and n*|T| rows, no decomposition assumed) on the reflection
families, doubling triangles with flats of up to 8 edges, the test data
and a seeded regime corpus in which H1, H2 and H3 each fail, and the kept
rows are checked to have the nullity of all of G
(:func:`helpers.global_rows`).  The lemma the groups rest on is checked on
the oracle's kept rows: grouped by the vertices of their blocks
(:func:`helpers.kept_rows_by_vertex_set`), two groups share no column and
their nullities sum to that of all kept rows.  On the same graphs the
flats of :func:`falkkit.patterns.flats`, the rank route's input, are
checked against the oracle regroup of the dependent triples that
:func:`helpers.dependent_3sets` finds by ranking the hyperplane normals,
and each flat's vertex tuple and its edges' ends in the walk's index
against :meth:`falkkit.graphs.Edge.ends`, and each link's slot against
the gain order of its bundle.  The library's candidate vertex sets and
keys put every W in its class of :func:`helpers.kept_group_classes`, the
grouping by its definitions, and each class with kept rows is ranked once,
with its size and one W's kept rows, on those graphs, scrambled K_m, D_m
and B_m and the pattern-rich hosts.  Reversing the slots within every
bundle changes no rank field, and switched, reversed and renumbered reflection
families make as many eliminations as the plain ones.  The row bound
counts the rows written, one group per distinct key, so every graph
answered under a bound on all of G_kept's rows is answered alike.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb
from operator import lt

import pytest

from falkkit import exterior
from falkkit.cli import main
from falkkit.falk import Run, phi3_rank, verify
from falkkit.graphs import Edge, FlatIndex, GainGraph, GraphFormatError, GraphTooLargeError, validate
from falkkit.patterns import flats, triangles
import helpers
from helpers import (
    DATA,
    braid,
    doubling_triangle,
    full_rank_fields,
    load_graph,
    one_vertex_set,
    pattern_rich_hosts,
    regime_graphs,
    scrambled,
    triangulated_grid,
    type_b,
    type_d,
)

SEED_REGIME = 99
SEEDS_KEPT = (4545, 99)
RANK_FIELDS = ("dim_A2", "dim_I3_2", "span_F3_size", "span_F3_rank", "phi3_rank")


def data_graphs():
    out = []
    for path in sorted(DATA.glob("*.gg")):
        try:
            g = load_graph(path.name)
        except GraphFormatError:
            continue
        out.append(pytest.param(g, id=path.stem))
    return out


FAMILIES = (
    [pytest.param(type_b(m), id=f"B{m}") for m in range(2, 7)]
    + [pytest.param(type_d(m), id=f"D{m}") for m in range(3, 8)]
    + [pytest.param(braid(m), id=f"K{m}") for m in range(4, 12)]
    # one group each, with flats of up to 8 edges
    + [
        pytest.param(doubling_triangle(m, loop), id=f"doubling{m}" + ("-looped" if loop else ""))
        for m in (4, 5, 6) for loop in (None, 3)
    ]
)
# switched, reversed and renumbered: the slots of a bundle's links, their
# places by gain, are kept or all flipped, so D_m and B_m keep their two keys
SCRAMBLED = [
    pytest.param(scrambled(family(m), random.Random(m)), id=f"{name}{m}-scrambled")
    for name, family, m in (("B", type_b, 4), ("D", type_d, 5), ("K", braid, 6))
]
# groups that only a finer part of the library's grouping finds or tells apart
KEY_CASES = [
    # three triangles on one vertex set, each two sharing a link: their
    # group is made by no two vertex sets (phi_3 = 6, nullity 0)
    pytest.param(
        GainGraph.from_edge_list(
            3, [(1, 2, 1), (1, 2, 2), (2, 3, 1), (2, 3, 2), (1, 3, 1), (1, 3, 2)]
        ),
        id="three-flats-on-one-set",
    ),
    # groups whose flats have one shape by the positions of their edges'
    # ends alone; the gain order within a bundle, the links' slots, tells
    # them apart (phi_3 = 34, and 32 if they were taken as one key)
    pytest.param(
        GainGraph.from_edge_list(4, [
            (1, 4, 1), (4, 4, 2), (2, 4, 2), (3, 4, Fraction(3, 2)), (4, 1, Fraction(1, 6)),
            (2, 3, -1), (3, 4, Fraction(1, 2)), (1, 4, Fraction(4, 3)), (3, 2, Fraction(1, 4)),
            (4, 2, -2), (3, 4, 2), (4, 2, Fraction(-3, 2)), (1, 2, -2),
        ]),
        id="bundle-ranks",
    ),
    # K_5 with a second balanced 3-circle on (2, 3, 4), through links of
    # gain 2 that close no other circle: the vertex sets {1, 2, 3, 4} and
    # {1, 2, 3, 5} differ only by the flats on their last three vertices
    pytest.param(
        GainGraph.from_edge_list(
            5, [(u, v, 1) for u, v in itertools.combinations(range(1, 6), 2)]
            + [(2, 3, 2), (2, 4, 2)]
        ),
        id="last-triple",
    ),
]


def reversed_slots(index: FlatIndex) -> FlatIndex:
    """``index`` with the slots of every bundle's links in reverse order."""
    sizes = Counter(index.ends[a] for a in index.slot)
    slot = {a: sizes[index.ends[a]] - 1 - s for a, s in index.slot.items()}
    return index._replace(slot=slot)


def check_rank_fields(g) -> None:
    report = verify(g)
    full = full_rank_fields(g)
    assert {name: getattr(report, name) for name in RANK_FIELDS} == full
    # the order of the slots within a bundle decides no value
    assert exterior.rank_fields(g.n, reversed_slots(flats(g)))._asdict() == full
    rows = helpers.global_rows(g.n, helpers.flat_list(flats(g)))
    excess = len(rows) - exterior.rank(rows)
    assert report.phi3_rank == 2 * report.num_triangles + excess
    assert excess >= 0


@pytest.mark.parametrize("g", FAMILIES + SCRAMBLED + KEY_CASES + data_graphs())
def test_rank_fields_match_full_elimination_on_families_and_data(g):
    if not validate(g).passes("H4", "H5"):
        assert verify(g).phi3_rank is None
        return
    check_rank_fields(g)


def test_rank_fields_match_full_elimination_on_regime_corpus():
    failing = set()
    for g in regime_graphs(random.Random(SEED_REGIME), 400):
        failing.update(validate(g).failing())
        check_rank_fields(g)
    assert failing == {"H1", "H2", "H3"}


def check_kept_nullity(monkeypatch, g) -> tuple[int, int]:
    """nullity(kept rows) == nullity(G), and the library ranks the oracle's
    groups of kept rows; returns the numbers of kept and of all rows."""
    index = flats(g)
    xs = helpers.flat_list(index)
    calls, fields = helpers.recorded_rows(monkeypatch, lambda: exterior.rank_fields(g.n, index))
    groups = [rows[::-1] for rows in helpers.kept_rows_by_vertex_set(g.n, g.edge_ends, xs).values()]
    # each elimination is one group's rows, last row first, and none is empty
    assert all(rows and rows in groups for rows in calls)
    assert bool(calls) == bool(groups)
    kept = helpers.kept_global_rows(g.n, xs)
    full = helpers.global_rows(g.n, xs)
    rank_full = exterior.rank(full)
    assert len(kept) - exterior.rank(kept) == len(full) - rank_full
    assert fields.dim_I3_2 == sum(comb(len(x), 3) for x in xs) + rank_full
    return len(kept), len(full)


@pytest.mark.parametrize("g", FAMILIES + SCRAMBLED + KEY_CASES + data_graphs())
def test_kept_rows_have_the_nullity_of_all_global_rows_on_families_and_data(monkeypatch, g):
    if validate(g).passes("H4", "H5"):
        check_kept_nullity(monkeypatch, g)


@pytest.mark.parametrize("seed", SEEDS_KEPT)
def test_kept_rows_have_the_nullity_of_all_global_rows_on_regime_corpus(monkeypatch, seed):
    sizes = [check_kept_nullity(monkeypatch, g) for g in regime_graphs(random.Random(seed), 400)]
    # the corpus has graphs where some blocks are dropped and some kept
    assert any(0 < kept < full for kept, full in sizes)


def check_groups(g) -> int:
    """The oracle's kept rows, grouped by the vertex set W of their blocks:
    groups share no column, |W| is 3 or 4, and the groups' nullities sum to
    the nullity of all kept rows.  Returns the number of groups."""
    xs = helpers.flat_list(flats(g))
    groups = helpers.kept_rows_by_vertex_set(g.n, g.edge_ends, xs)
    owner = {}
    for w, rows in groups.items():
        assert len(w) in (3, 4)
        for row in rows:
            for code in row:
                assert owner.setdefault(code, w) == w
    kept = helpers.kept_global_rows(g.n, xs)
    nullities = sum(len(rows) - exterior.rank(rows) for rows in groups.values())
    assert nullities == len(kept) - exterior.rank(kept)
    return len(groups)


@pytest.mark.parametrize("g", FAMILIES + SCRAMBLED + KEY_CASES + data_graphs())
def test_kept_groups_share_no_column_on_families_and_data(g):
    if validate(g).passes("H4", "H5"):
        check_groups(g)


def test_kept_groups_share_no_column_on_regime_corpus():
    counts = [check_groups(g) for g in regime_graphs(random.Random(SEED_REGIME), 400)]
    # the corpus has graphs with kept rows and graphs without
    assert min(counts) == 0 < max(counts)


def check_grouping(n: int, index: FlatIndex) -> list[int]:
    """The library's candidates are the oracle's, its key puts each of them
    in the oracle's class (:func:`helpers.kept_group_classes`), neither
    splitting a class nor merging two, ``_keyed`` gives each class once with
    its size, and ``_kept_groups`` yields once each class whose vertex sets
    hold kept rows, with its size and one W's kept rows, last written first.
    Returns the sizes of the classes."""
    classes = helpers.kept_group_classes(index)
    candidates = exterior._candidates(index)
    assert sorted(candidates) == sorted(w for ws in classes for w in ws)
    codes = exterior._shape_codes(index)
    by_key: dict[tuple, list] = {}
    for w in candidates:
        (key,) = exterior._keyed([w], codes)
        by_key.setdefault(key, []).append(w)
    assert sorted(map(sorted, by_key.values())) == classes
    class_of = {w: ws for ws in classes for w in ws}
    keyed = exterior._keyed(candidates, codes).values()
    assert sorted(class_of[w] for _, w in keyed) == classes
    assert all(multiplicity == len(class_of[w]) for multiplicity, w in keyed)
    # the oracle's kept rows by the vertex set W of their blocks: every such
    # W is a candidate, and a class's vertex sets all hold kept rows or none
    by_w = helpers.kept_rows_by_vertex_set(n, index.ends, helpers.flat_list(index))
    kept = {tuple(sorted(w)): rows for w, rows in by_w.items()}
    assert set(kept) <= set(class_of)
    assert all((w in kept) == (ws[0] in kept) for ws in classes for w in ws)
    groups = list(exterior._kept_groups(n, index))
    assert sorted(class_of[w] for _, w, _ in groups) == [ws for ws in classes if ws[0] in kept]
    for multiplicity, w, rows in groups:
        assert multiplicity == len(class_of[w])
        assert rows == kept[w][::-1]
    return sorted(map(len, classes))


@pytest.mark.parametrize("g", FAMILIES + SCRAMBLED + KEY_CASES + data_graphs())
def test_grouping_matches_the_oracle_on_families_and_data(g):
    if validate(g).passes("H4", "H5"):
        check_grouping(g.n, flats(g))


def test_grouping_matches_the_oracle_on_regime_corpus():
    sizes = [check_grouping(g.n, flats(g)) for g in regime_graphs(random.Random(SEED_REGIME), 400)]
    # the corpus has graphs with no candidate and graphs with several classes
    assert min(map(len, sizes)) == 0 and max(map(len, sizes)) > 1


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("m", [4, 5, 6, 7])
@pytest.mark.parametrize("family", [braid, type_d, type_b])
def test_grouping_matches_the_oracle_on_scrambled_reflection_families(family, m, seed):
    g = scrambled(family(m), random.Random(seed))
    sizes = check_grouping(g.n, flats(g))
    # the C(m, 4) vertex sets of four form one class, however numbered
    assert comb(m, 4) in sizes


def test_grouping_matches_the_oracle_on_pattern_rich_hosts():
    for _, g in pattern_rich_hosts():
        check_grouping(g.n, flats(g))


def test_grouping_matches_the_oracle_on_one_vertex_pair():
    # flats from no graph, all on the vertices (1, 2): one class of one W
    g = load_graph("final_example.gg")
    assert check_grouping(g.n, one_vertex_set(helpers.flat_list(flats(g)))) == [1]
    assert check_grouping(6, one_vertex_set([(1, 2, 3), (4, 5, 6)])) == []


@pytest.mark.parametrize("m", [4, 5, 6, 7])
@pytest.mark.parametrize("family, keys", [(braid, 1), (type_d, 2), (type_b, 2)])
def test_reflection_families_rank_one_group_per_distinct_key(monkeypatch, family, keys, m):
    # K_m has one group shape, on four vertices; D_m and B_m add one on three
    g = family(m)
    calls, _ = helpers.recorded_rows(monkeypatch, lambda: exterior.rank_fields(g.n, flats(g)))
    assert len(calls) == keys
    groups = helpers.kept_rows_by_vertex_set(g.n, g.edge_ends, helpers.flat_list(flats(g)))
    assert len([w for w in groups if len(w) == 4]) == comb(m, 4)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("m", [4, 5, 6, 7])
@pytest.mark.parametrize("family, keys", [(braid, 1), (type_d, 2), (type_b, 2)])
def test_scrambled_reflection_families_rank_as_many_groups(monkeypatch, family, keys, m, seed):
    # reversing and renumbering keep every slot, and a switching keeps or
    # flips the slots of each +1, -1 pair
    g = scrambled(family(m), random.Random(seed))
    calls, _ = helpers.recorded_rows(monkeypatch, lambda: exterior.rank_fields(g.n, flats(g)))
    assert len(calls) == keys


@pytest.mark.parametrize(
    "g, groups",
    [(type_b(5), 2), (type_d(6), 2), (braid(9), 1)],
    ids=["B5", "D6", "K9"],
)
def test_each_distinct_group_is_walked_once(monkeypatch, g, groups):
    # one walk of a group counts and writes its blocks: each block (X, t) is
    # written once, and the rows written are the rows ranked
    walked, blocks = [], []
    real_kept_groups, real_kept_rows = exterior._kept_groups, exterior._kept_rows

    def walking(*args):
        for group in real_kept_groups(*args):
            walked.append(group[1])
            yield group

    def writing(n, flat, outside):
        blocks.extend((flat, t) for t in outside)
        return real_kept_rows(n, flat, outside)

    monkeypatch.setattr(exterior, "_kept_groups", walking)
    monkeypatch.setattr(exterior, "_kept_rows", writing)
    calls, _ = helpers.recorded_rows(monkeypatch, lambda: exterior.rank_fields(g.n, flats(g)))
    assert len(walked) == len(set(walked)) == len(calls) == groups
    assert len(blocks) == len(set(blocks))
    assert sum(comb(len(flat) - 1, 2) for flat, _ in blocks) == sum(map(len, calls))


BOUND_CASES = [
    pytest.param(g, id=name) for name, g in (
        ("K4", braid(4)), ("K6", braid(6)), ("K9", braid(9)), ("D4", type_d(4)),
        ("D6", type_d(6)), ("B3", type_b(3)), ("B5", type_b(5)),
        ("final", load_graph("final_example.gg")),
    )
] + [pytest.param(g, id=f"regime{i}") for i, g in enumerate(regime_graphs(random.Random(7), 40))]


@pytest.mark.parametrize("g", BOUND_CASES)
def test_the_row_bound_answers_every_graph_the_kept_row_bound_answered(monkeypatch, g):
    # the bound counts the rows written, one group per distinct key; those
    # are at most all of G_kept's rows, which the bound once counted, so a
    # graph answered under that count is answered, and with the same fields
    index = flats(g)
    calls, fields = helpers.recorded_rows(monkeypatch, lambda: exterior.rank_fields(g.n, index))
    written = sum(map(len, calls))
    kept = len(helpers.kept_global_rows(g.n, helpers.flat_list(index)))
    assert written <= kept
    for bound in (kept, written):
        monkeypatch.setattr(exterior, "MAX_KEPT_ROWS", bound)
        assert exterior.rank_fields(g.n, index) == fields
    if written:
        monkeypatch.setattr(exterior, "MAX_KEPT_ROWS", written - 1)
        with pytest.raises(GraphTooLargeError) as info:
            exterior.rank_fields(g.n, index)
        assert str(info.value) == f"rank route has more than {written - 1} rows to eliminate"


@pytest.mark.parametrize(
    "g", FAMILIES[::3] + [pytest.param(load_graph("final_example.gg"), id="final")]
)
def test_one_constant_support_ranks_all_kept_rows_at_once(monkeypatch, g):
    index = flats(g)
    xs = helpers.flat_list(index)
    calls, fields = helpers.recorded_rows(
        monkeypatch, lambda: exterior.rank_fields(g.n, one_vertex_set(xs))
    )
    kept = helpers.kept_global_rows(g.n, xs)
    assert calls == ([kept[::-1]] if kept else [])
    assert fields == exterior.rank_fields(g.n, index)


def test_the_slots_tell_the_bundle_ranks_groups_apart():
    (g,) = [case.values[0] for case in KEY_CASES if case.id == "bundle-ranks"]
    index = flats(g)
    assert exterior.rank_fields(g.n, reversed_slots(index)).phi3_rank == 34
    # every link read as slot 0: two groups of unequal nullity share a key
    assert exterior.rank_fields(g.n, index._replace(slot={})).phi3_rank == 32


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("g", FAMILIES[::2] + KEY_CASES + [
    pytest.param(g, id=f"regime{i}") for i, g in enumerate(regime_graphs(random.Random(7), 20))
])
def test_slots_survive_reversal_and_renumbering(g, seed):
    rng = random.Random(seed)
    new_id = dict(zip(range(1, g.n + 1), rng.sample(range(1, g.n + 1), g.n)))
    edges = [
        Edge(new_id[e.id], e.head, e.tail, 1 / e.gain) if rng.random() < 0.5
        else Edge(new_id[e.id], e.tail, e.head, e.gain)
        for e in g.edges
    ]
    h = GainGraph(g.num_vertices, tuple(sorted(edges, key=lambda e: e.id)))
    slot = flats(g).slot
    assert flats(h).slot == {new_id[a]: s for a, s in slot.items()}


def cliques(g: GainGraph) -> tuple[int, int]:
    """kappa_3 and kappa_4, the 3- and 4-cliques of g's underlying simple graph."""
    adjacent = {v: set() for v in range(1, g.num_vertices + 1)}
    for e in g.edges:
        if e.tail != e.head:
            adjacent[e.tail].add(e.head)
            adjacent[e.head].add(e.tail)
    k3 = k4 = 0
    for u in adjacent:
        for v in adjacent[u]:
            if v > u:
                common = {w for w in adjacent[u] & adjacent[v] if w > v}
                k3 += len(common)
                k4 += sum(1 for w in common for x in common & adjacent[w] if x > w)
    return k3, k4


def test_triangulated_grid_keeps_no_rows_and_meets_the_graphic_formula(monkeypatch):
    def forbidden(*args):
        raise AssertionError("the grid walked a group")

    g = triangulated_grid(12)
    # every flat is a triangle of the grid, and no outside edge meets two of
    # its edges: each W of two triangles is made by one shared edge only, so
    # no W is keyed, no row is written and nothing is ranked
    monkeypatch.setattr(exterior, "_keyed", forbidden)
    monkeypatch.setattr(exterior, "_kept_rows", forbidden)
    calls, phi3 = helpers.recorded_rows(monkeypatch, lambda: phi3_rank(g))
    assert calls == []
    k3, k4 = cliques(g)
    assert (k3, k4) == (2 * 11 * 11, 0)
    # Schenck-Suciu: phi_3 = 2(kappa_3 + kappa_4) for a graphic arrangement
    assert phi3 == 2 * (k3 + k4)
    assert cliques(braid(6)) == (comb(6, 3), comb(6, 4))


def check_flats(g) -> None:
    index = flats(g)
    # each key is the sorted vertex set of its flats, by the edges' own
    # ends, and each value is sorted and nonempty
    found = []
    for verts, xs in index.by_verts.items():
        assert xs and list(xs) == sorted(xs)
        for flat in xs:
            assert verts == tuple(sorted({v for a in flat for v in g.edge(a).ends()}))
            assert all(a in index.ends for a in flat)
        found.extend(xs)
    # no flat appears twice, and together they are the oracle's flats
    assert len(set(found)) == len(found)
    assert set(found) == set(helpers.flats(g.n, helpers.dependent_3sets(g)))
    assert all(ends == g.edge(a).ends() for a, ends in index.ends.items())
    # each bundle of two or more links has slots 0..b-1 in the order of its
    # gains read from its lower end; no other edge has a slot
    bundles = [bundle for bundle in g.link_map.values() if len(bundle) > 1]
    assert sorted(index.slot) == sorted(e.id for bundle in bundles for e in bundle)
    for bundle in bundles:
        ordered = sorted(bundle, key=lambda e: index.slot[e.id])
        assert [index.slot[e.id] for e in ordered] == list(range(len(bundle)))
        gains = [e.gain if e.tail < e.head else 1 / e.gain for e in ordered]
        assert all(map(lt, gains, gains[1:]))


@pytest.mark.parametrize("g", FAMILIES + SCRAMBLED + KEY_CASES + data_graphs())
def test_flats_match_dependent_3sets_on_families_and_data(g):
    if validate(g).passes("H4", "H5"):
        check_flats(g)


def test_flats_match_dependent_3sets_on_regime_corpus():
    failing = set()
    for g in regime_graphs(random.Random(SEED_REGIME), 400):
        failing.update(validate(g).failing())
        check_flats(g)
    assert failing == {"H1", "H2", "H3"}


@pytest.mark.parametrize("g", FAMILIES[::4] + [pytest.param(load_graph("final_example.gg"), id="final")])
def test_flats_partition_the_triangles_and_the_global_rows_avoid_them(g):
    tris = [t.edge_ids for t in triangles(g)]
    xs = helpers.flat_list(flats(g))
    flat_of_pair = {}
    for index, flat in enumerate(xs):
        for pair in itertools.combinations(flat, 2):
            assert flat_of_pair.setdefault(pair, index) == index
    # the three pairs of every triangle lie in one flat, which holds it
    for tri in tris:
        (index,) = {flat_of_pair[pair] for pair in itertools.combinations(tri, 2)}
        assert set(tri) <= set(xs[index])
    m = g.n + 1
    inside = {s for flat in xs for s in itertools.combinations(flat, 3)}
    for row in helpers.global_rows(g.n, xs):
        for code in row:
            assert (code // (m * m), code // m % m, code % m) not in inside


@pytest.mark.parametrize(
    "argv",
    [["report", "--json"], ["phi3", "--method", "rank"], ["rank-f3"]],
    ids=["report", "phi3", "rank-f3"],
)
def test_each_command_runs_the_rank_route_once(monkeypatch, capsys, argv):
    g = load_graph("final_example.gg")
    run = Run(g)
    expected, _ = helpers.recorded_rows(monkeypatch, lambda: run.rank)
    # one call per group, each a group of the oracle's kept rows, last row first
    xs = helpers.flat_list(flats(g))
    groups = [rows[::-1] for rows in helpers.kept_rows_by_vertex_set(g.n, g.edge_ends, xs).values()]
    assert len(expected) > 1 and all(rows in groups for rows in expected)
    # a second read of the run makes no call
    assert helpers.recorded_rows(monkeypatch, lambda: run.rank)[0] == []
    path = str(DATA / "final_example.gg")
    calls, code = helpers.recorded_rows(monkeypatch, lambda: main([argv[0], path] + argv[1:]))
    assert code == 0 and calls == expected
    calls, _ = helpers.recorded_rows(monkeypatch, lambda: phi3_rank(type_b(3)))
    assert [len(rows) for rows in calls] == [69]
