"""The rank route's closed forms and its one elimination, across the H4/H5 regime.

The library reads dim A^2, |F3| and rank F3 off the rank-2 flats and ranks
only the kept blocks of the global rows G, in one call
(:func:`falkkit.exterior.rank_fields`).  Here
every rank field of :func:`falkkit.falk.verify` is checked against the full
eliminations of the test oracle (:func:`helpers.full_rank_fields`: |T|,
(n-3)*|T| and n*|T| rows, no decomposition assumed) on the reflection
families, the test data and a seeded regime corpus in which H1, H2 and H3
each fail, and the kept rows are checked to have the nullity of all of G
(:func:`helpers.global_rows`).  On the same graphs the flats of
:func:`falkkit.patterns.flats`, the rank route's input, are checked against
the oracle regroup of the dependent triples that
:func:`helpers.dependent_3sets` finds by ranking the hyperplane normals.
"""

import itertools
import random
from math import comb

import pytest

from falkkit import exterior
from falkkit.cli import main
from falkkit.falk import phi3_rank, verify
from falkkit.graphs import GainGraph, GraphFormatError, validate
from falkkit.patterns import flats, triangles
import helpers
from helpers import (
    DATA,
    braid,
    full_rank_fields,
    load_graph,
    regime_graphs,
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
)


def check_rank_fields(g) -> None:
    report = verify(g)
    assert {name: getattr(report, name) for name in RANK_FIELDS} == full_rank_fields(g)
    rows = helpers.global_rows(g.n, flats(g))
    excess = len(rows) - exterior.rank(rows)
    assert report.phi3_rank == 2 * report.num_triangles + excess
    assert excess >= 0


@pytest.mark.parametrize("g", FAMILIES + data_graphs())
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
    """nullity(kept rows) == nullity(G); returns the numbers of kept and of all rows."""
    xs = flats(g)
    (kept,), fields = helpers.recorded_rows(monkeypatch, lambda: exterior.rank_fields(g.n, xs))
    full = helpers.global_rows(g.n, xs)
    rank_full = exterior.rank(full)
    assert len(kept) - exterior.rank(kept) == len(full) - rank_full
    assert fields.dim_I3_2 == sum(comb(len(x), 3) for x in xs) + rank_full
    return len(kept), len(full)


@pytest.mark.parametrize("g", FAMILIES + data_graphs())
def test_kept_rows_have_the_nullity_of_all_global_rows_on_families_and_data(monkeypatch, g):
    if validate(g).passes("H4", "H5"):
        check_kept_nullity(monkeypatch, g)


@pytest.mark.parametrize("seed", SEEDS_KEPT)
def test_kept_rows_have_the_nullity_of_all_global_rows_on_regime_corpus(monkeypatch, seed):
    sizes = [check_kept_nullity(monkeypatch, g) for g in regime_graphs(random.Random(seed), 400)]
    # the corpus has graphs where some blocks are dropped and some kept
    assert any(0 < kept < full for kept, full in sizes)


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
    g = triangulated_grid(12)
    calls, phi3 = helpers.recorded_rows(monkeypatch, lambda: phi3_rank(g))
    # every flat is a triangle of the grid, and no outside edge meets two of its edges
    assert [len(rows) for rows in calls] == [0]
    k3, k4 = cliques(g)
    assert (k3, k4) == (2 * 11 * 11, 0)
    # Schenck-Suciu: phi_3 = 2(kappa_3 + kappa_4) for a graphic arrangement
    assert phi3 == 2 * (k3 + k4)
    assert cliques(braid(6)) == (comb(6, 3), comb(6, 4))


def check_flats(g) -> None:
    assert flats(g) == helpers.flats(g.n, helpers.dependent_3sets(g))


@pytest.mark.parametrize("g", FAMILIES + data_graphs())
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
    xs = flats(g)
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
def test_each_command_eliminates_once(monkeypatch, capsys, argv):
    calls = []
    real_rank = exterior.rank

    def counted(rows):
        calls.append(len(rows))
        return real_rank(rows)

    monkeypatch.setattr(exterior, "rank", counted)
    path = str(DATA / "final_example.gg")
    assert main([argv[0], path] + argv[1:]) == 0
    assert len(calls) == 1
    calls.clear()
    phi3_rank(type_b(3))
    assert calls == [69]
