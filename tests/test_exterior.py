"""The library's closed forms and its eliminations
(:func:`falkkit.exterior.rank_fields`), against the full eliminations of
:mod:`helpers` (``dim_I2``, ``span_F3``, ``full_dim_I3_2``) on small graphs
with pinned values."""

import copy
import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from falkkit import exterior, falk
from falkkit.exterior import rank, rank_fields
from falkkit.graphs import GainGraph, GraphTooLargeError
from falkkit.patterns import atlas, triangles
from falkkit.patterns import flats as graph_flats
from helpers import (
    boundary2,
    boundary3,
    braid,
    dim_I2,
    flats,
    full_dim_I3_2,
    one_vertex_set,
    pair_vector,
    seeded_graphs,
    span_F3,
    wedge1,
)


def library_dims(n, tris):
    """dim A^2, dim I^3_2 and (|F3|, rank F3) as :func:`rank_fields` reads
    them off the flats the oracle regroup makes of the triples."""
    fields = rank_fields(n, one_vertex_set(flats(n, tris)))
    return fields.dim_A2, fields.dim_I3_2, (fields.span_F3_size, fields.span_F3_rank)

ONE = Fraction(1)


def test_boundary3_values():
    assert boundary3((1, 2, 6)) == {(2, 6): ONE, (1, 6): -ONE, (1, 2): ONE}
    assert boundary3((1, 2, 3)) == {(2, 3): ONE, (1, 3): -ONE, (1, 2): ONE}


def test_boundary3_rejects_unsorted_input():
    with pytest.raises(ValueError):
        boundary3((2, 1, 3))
    with pytest.raises(ValueError):
        boundary3((1, 1, 3))


@pytest.mark.parametrize("triple", [(2, 1, 3), (1, 1, 3), (0, 1, 2)])
def test_eliminations_reject_non_increasing_triples(triple):
    with pytest.raises(ValueError):
        flats(4, [triple])
    with pytest.raises(ValueError):
        dim_I2(4, [triple])
    with pytest.raises(ValueError):
        span_F3(4, [triple])
    with pytest.raises(ValueError):
        full_dim_I3_2(4, [triple])


def test_degree_3_eliminations_reject_ids_above_n():
    assert library_dims(4, [(2, 3, 4)]) == (5, 2, (1, 1))
    assert full_dim_I3_2(4, [(2, 3, 4)]) == 2
    with pytest.raises(ValueError):
        flats(4, [(1, 2, 3), (2, 3, 5)])
    with pytest.raises(ValueError):
        span_F3(4, [(1, 2, 3), (2, 3, 5)])
    with pytest.raises(ValueError):
        full_dim_I3_2(4, [(1, 2, 3), (2, 3, 5)])
    assert dim_I2(4, [(2, 3, 4)]) == 1
    with pytest.raises(ValueError):
        dim_I2(3, [(1, 2, 5)])
    with pytest.raises(ValueError):
        flats(3, [(1, 2, 5)])


@pytest.mark.parametrize(
    "n, xs",
    [
        (3, [(1, 2, 5)]),  # an edge id above n
        (4, [(3, 1, 2)]),  # not increasing: G would take 3 for the smallest edge
        (4, [(1, 2, 2, 3)]),
        (4, [(0, 1, 2)]),
        (4, [(1, 2)]),  # too small to be a flat of size >= 3
        (4, [(1, 2, 3), ()]),
    ],
)
def test_entry_points_reject_bad_flats(n, xs):
    with pytest.raises(ValueError, match=r"expected 3 or more edge ids 1 <= x_1 < x_2"):
        rank_fields(n, one_vertex_set(xs))


def test_entry_points_take_valid_flats_as_given():
    assert rank_fields(3, one_vertex_set([(1, 2, 3)])).dim_A2 == 2
    assert rank_fields(4, one_vertex_set([(1, 2, 3)])).dim_I3_2 == 2
    assert rank_fields(5, one_vertex_set(iter([(1, 2, 3, 4)]))) == (7, 4 + 3, 8, 7, 8)


def test_rank_fields_sum_over_the_flats_and_check_them_against_n():
    # |T| = 4 + 1, dim I^2 = 3 + 1, one flat of three, and phi3 = 2|T|
    xs = [(1, 2, 3, 4), (4, 5, 6)]
    i32 = full_dim_I3_2(7, [s for x in xs for s in itertools.combinations(x, 3)])
    fields = rank_fields(7, one_vertex_set(iter(xs)))
    assert fields == (comb(7, 2) - 4, i32, 4 * 5, i32 - 1, 2 * 5) == (17, 18, 20, 17, 10)
    # the same flats name edge 6, so five hyperplanes are too few
    with pytest.raises(ValueError, match=r"<= 5: \(4, 5, 6\)"):
        rank_fields(5, one_vertex_set(iter(xs)))


@pytest.mark.parametrize(
    "triples",
    [
        # {1,2,3,4} would be one flat, but (1,3,4) and (2,3,4) are missing
        [(1, 2, 3), (1, 2, 4)],
        # (1,2,5) puts 5 into the flat {1,2,3,4}, which then misses (1,3,5)
        [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5), (3, 4, 5)],
        # (4,6,7) meets the flat {1,4,5,6} in (4,6) and the flat {2,6,7} in (6,7)
        [(1, 4, 5), (2, 6, 7), (4, 5, 6), (4, 6, 7)],
    ],
)
def test_flats_reject_triples_of_no_arrangement(triples):
    with pytest.raises(ValueError):
        flats(8, triples)


def test_flats_group_triples_by_shared_pairs(final_example, pattern_atlas):
    assert flats(6, []) == []
    # repeated triples and any input order give the same flats
    b2 = [t.edge_ids for t in triangles(pattern_atlas["B2"].reference)]
    assert flats(4, b2[::-1] + b2) == [(1, 2, 3, 4)]
    for g in [final_example] + seeded_graphs(10, seed=160161):
        tris = [t.edge_ids for t in triangles(g)]
        xs = flats(g.n, tris)
        assert sorted(s for x in xs for s in itertools.combinations(x, 3)) == sorted(tris)


def test_boundary_squared_is_zero():
    for triple in itertools.combinations(range(1, 7), 3):
        assert boundary2(boundary3(triple)) == {}


def test_wedge_values():
    assert wedge1(3, boundary3((1, 2, 6))) == {
        (2, 3, 6): -ONE,
        (1, 3, 6): ONE,
        (1, 2, 3): ONE,
    }
    assert wedge1(2, boundary3((1, 4, 5))) == {
        (2, 4, 5): ONE,
        (1, 2, 5): ONE,
        (1, 2, 4): -ONE,
    }
    # two of the three terms annihilate
    assert wedge1(1, boundary3((1, 2, 3))) == {(1, 2, 3): ONE}


def test_wedge_antisymmetry_instances():
    for t, a, b in itertools.permutations(range(1, 7), 3):
        left = wedge1(t, pair_vector(a, b))
        right = wedge1(a, pair_vector(t, b))
        assert left == {k: -v for k, v in right.items()}


def test_rank_invariant_under_scaling_and_permutation(final_example):
    tris = triangles(final_example)
    rows = []
    for t in tris:
        rows.extend(
            wedge1(i, boundary3(t.edge_ids))
            for i in range(1, final_example.n + 1)
        )
    base = rank(rows)
    rng = random.Random(8)
    scaled = []
    for row in rows:
        factor = rng.choice((-1, 1)) * rng.randrange(1, 9)
        scaled.append({k: v * factor for k, v in row.items()})
    rng.shuffle(scaled)
    assert rank(scaled) == base
    assert base <= len(rows)


def test_dim_I2_values(final_example, pattern_atlas):
    assert dim_I2(final_example.n, triangles(final_example)) == 13
    assert dim_I2(9, []) == 0
    gcirc = pattern_atlas["Gcirc"].reference
    assert dim_I2(gcirc.n, triangles(gcirc)) == 4
    b2 = pattern_atlas["B2"].reference
    dim_a2 = rank_fields(4, one_vertex_set([(1, 2, 3, 4)])).dim_A2
    assert dim_I2(b2.n, triangles(b2)) == 3 == comb(4, 2) - dim_a2


def test_dim_A2_values(final_example, pattern_atlas):
    k4 = pattern_atlas["K4"].reference
    for g, want in ((final_example, 78), (k4, 11)):
        tris = triangles(g)
        assert library_dims(g.n, tris)[0] == want == comb(g.n, 2) - dim_I2(g.n, tris)
    # triangle-free: a star with 5 edges
    star = GainGraph.from_edge_list(6, [(1, i, 1) for i in range(2, 7)])
    assert triangles(star) == []
    assert rank_fields(star.n, one_vertex_set([])).dim_A2 == 10


REFERENCE_F3 = {
    "Gcirc": (12, 10),
    "G1": (35, 34),
    "D3": (12, 10),
    "K4": (12, 10),
    "K33": (12, 10),
    "D31": (24, 19),
    "G2": (54, 52),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_F3))
def test_span_F3_reference_values(name, pattern_atlas):
    ref = pattern_atlas[name].reference
    tris = triangles(ref)
    assert span_F3(ref.n, tris) == REFERENCE_F3[name] == library_dims(ref.n, tris)[2]


def test_span_F3_empty_complement():
    # one triangle on a 3-edge graph leaves no outside factor
    assert span_F3(3, [(1, 2, 3)]) == (0, 0) == library_dims(3, [(1, 2, 3)])[2]


def test_dim_I3_2_values(final_example, pattern_atlas):
    gcirc = pattern_atlas["Gcirc"].reference
    for g, want in ((final_example, 151), (gcirc, 14)):
        tris = triangles(g)
        assert full_dim_I3_2(g.n, tris) == want == library_dims(g.n, tris)[1]
    assert full_dim_I3_2(9, []) == 0 == rank_fields(9, one_vertex_set([])).dim_I3_2


def test_direct_sum_decomposition(final_example, pattern_atlas):
    graphs = [final_example]
    graphs += [pattern_atlas[name].reference for name in ("Gcirc", "D31", "G1", "G2")]
    graphs += seeded_graphs(10, seed=160160)
    for g in graphs:
        tris = triangles(g)
        _, f3_rank = span_F3(g.n, tris)
        assert full_dim_I3_2(g.n, tris) == len(tris) + f3_rank
        assert dim_I2(g.n, tris) == len(tris)
        # under H1-H5 every flat has three edges
        assert {len(x) for x in flats(g.n, tris)} <= {3}


def test_direct_sum_fails_without_hypotheses(pattern_atlas):
    # in B2 two triangles share two edges, the spanning sets overlap, and
    # the decomposition under H1-H3 genuinely breaks; the direct elimination
    # must report the true rank, not the sum
    b2 = pattern_atlas["B2"].reference
    tris = triangles(b2)
    assert len(tris) == 4
    _, f3_rank = span_F3(b2.n, tris)
    assert full_dim_I3_2(b2.n, tris) == 4 < len(tris) + f3_rank
    # the closed forms hold without H1-H3: one flat of four, no global rows
    assert library_dims(b2.n, tris) == (3, 4, (4, 4))


def test_exterior_accepts_plain_triples(final_example):
    tris = triangles(final_example)
    raw = [t.edge_ids for t in tris]
    assert flats(final_example.n, raw) == flats(final_example.n, tris)
    assert dim_I2(final_example.n, raw) == dim_I2(final_example.n, tris)
    assert full_dim_I3_2(final_example.n, raw) == full_dim_I3_2(final_example.n, tris)


def test_rank_bounded_by_column_count():
    rows = [{(1, 2): 1}, {(1, 2): 2}, {(1, 2): -3}]
    assert exterior.rank(rows) == 1


def test_rank_leaves_its_rows_alone_and_drops_zero_entries():
    # the zeros at columns 1 and 2 are no entries: neither may lead a pivot
    rows = [{1: 0, 2: 3, 4: 6}, {2: 1, 3: -1, 4: 2}, {1: 2, 2: 0}, {2: 1, 3: -1, 4: 2}]
    before = copy.deepcopy(rows)
    assert exterior.rank(rows) == 3 == exterior.rank(rows)
    assert rows == before
    pivots = exterior._pivot_rows(rows)
    assert rows == before
    assert pivots == {2: {2: 1, 4: 2}, 3: {3: 1}, 1: {1: 1}}
    assert not any(pivot is row for pivot in pivots.values() for row in rows)


def test_rank_route_refuses_above_the_kept_row_bound(monkeypatch):
    # K_11 keeps 3 960 rows of G in C(11, 4) groups of one key, so one
    # 12-row group is written: four blocks of 3 rows.  Under a bound of 11
    # the fourth block crosses it and is refused unwritten, with no rank
    # taken; a bound of exactly 12 lets it through
    g = braid(11)
    written = []
    real_kept_rows = exterior._kept_rows

    def recording(*args):
        rows = real_kept_rows(*args)
        written.append(len(rows))
        return rows

    def forbidden(*args):
        raise AssertionError("a refused group was ranked")

    monkeypatch.setattr(exterior, "MAX_KEPT_ROWS", 11)
    monkeypatch.setattr(exterior, "_kept_rows", recording)
    monkeypatch.setattr(exterior, "rank", forbidden)
    with pytest.raises(GraphTooLargeError) as info:
        falk.phi3_rank(g)
    assert str(info.value) == "rank route has more than 11 rows to eliminate"
    assert written == [3, 3, 3]
    with pytest.raises(GraphTooLargeError):
        falk.verify(g)
    with pytest.raises(GraphTooLargeError):
        rank_fields(g.n, graph_flats(g))
    monkeypatch.setattr(exterior, "rank", rank)
    monkeypatch.setattr(exterior, "MAX_KEPT_ROWS", 12)
    written.clear()
    assert falk.phi3_rank(g) == 2 * comb(12, 4)
    assert written == [3, 3, 3, 3]
