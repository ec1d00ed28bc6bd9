import itertools
import random
from collections import Counter
from math import comb

import pytest

from falkkit import exterior, falk, patterns
from falkkit.falk import (
    dim_I3_2_closed_form,
    phi3_combinatorial,
    phi3_rank,
    verify,
)
from falkkit.graphs import GainGraph, switch, validate
from falkkit.patterns import HypothesisError, PatternCounts, count_patterns, triangles
from helpers import braid, load_graph, random_switching, seeded_graphs, type_b, type_d

PHI3_LADDER = {
    "K3": 2,
    "D21": 2,
    "K22": 2,
    "Theta3": 2,
    "K4": 10,
    "D3": 10,
    "K33": 10,
    "Gcirc": 10,
    "G1": 15,
    "D31": 17,
    "G2": 20,
}


def test_phi3_rank_final_example(final_example):
    assert phi3_rank(final_example) == 31


def test_phi3_rank_gcirc(pattern_atlas):
    assert phi3_rank(pattern_atlas["Gcirc"].reference) == 10


def test_phi3_rank_vanishes_without_triangles():
    # 2*C(n+1,3) - n*C(n,2) + C(n,3) == 0, so triangle-free graphs give 0
    for n in range(0, 7):
        assert 2 * comb(n + 1, 3) - n * comb(n, 2) + comb(n, 3) == 0
    empty = load_graph("empty.gg")
    assert phi3_rank(empty) == 0
    star = GainGraph.from_edge_list(5, [(1, i, 2) for i in range(2, 6)])
    assert triangles(star) == []
    assert phi3_rank(star) == 0


def test_phi3_combinatorial_values(final_example):
    assert phi3_combinatorial(count_patterns(final_example)) == 31
    assert phi3_combinatorial(PatternCounts()) == 0


def test_phi3_combinatorial_matches_rank_on_balanced_k4(pattern_atlas):
    k4 = pattern_atlas["K4"].reference
    counts = count_patterns(k4)
    assert counts == PatternCounts(k3=4, k4=1)
    assert phi3_combinatorial(counts) == 10 == phi3_rank(k4)


def test_phi3_ladder(pattern_atlas):
    for name, value in PHI3_LADDER.items():
        ref = pattern_atlas[name].reference
        assert phi3_rank(ref) == value, name
        assert phi3_combinatorial(count_patterns(ref)) == value, name


def test_verify_final_example(final_example):
    report = verify(final_example)
    assert report.agree is True
    assert report.phi3_rank == 31
    assert report.phi3_combinatorial == 31
    assert report.num_triangles == 13
    assert report.dim_A2 == 78
    assert report.dim_I3_2 == 151
    assert report.span_F3_size == 143
    assert report.span_F3_rank == 138
    assert report.withheld == {}
    assert comb(final_example.n, 3) - report.dim_I3_2 >= 0


def test_verify_validates_and_finds_triangles_once(final_example, pattern_atlas, monkeypatch):
    # pattern_atlas: the atlas has run its own census already, so it is not counted
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (falk, patterns):
        for name in ("validate", "triangles"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    assert verify(final_example).agree is True
    assert calls == {"validate": 1, "triangles": 1}


def test_verify_d31(pattern_atlas):
    report = verify(pattern_atlas["D31"].reference)
    assert report.counts == PatternCounts(k3=4, d21=2, d31=1)
    assert report.phi3_combinatorial == 17 == report.phi3_rank
    assert report.span_F3_rank == 19


def test_verify_withholds_census_when_h1_fails():
    report = verify(load_graph("b2.gg"))
    assert report.counts is None
    assert report.phi3_combinatorial is None
    assert report.agree is None
    assert report.withheld["counts"] == ("H1",)
    assert report.withheld["phi3_combinatorial"] == ("H1",)
    # the rank pipeline is unaffected by H1
    assert report.phi3_rank == 8
    assert report.num_triangles == 4


def test_verify_withholds_everything_when_h4_fails():
    g = GainGraph.from_edge_list(2, [(1, 1, 1), (1, 2, 2)])
    report = verify(g)
    assert report.phi3_rank is None
    assert report.withheld["phi3_rank"] == ("H4",)
    assert report.counts is None
    assert "H4" in report.withheld["counts"]


@pytest.mark.parametrize(
    "edges, failing",
    [
        # a balanced 2-circle: the distinct hyperplanes form the braid A_2
        ([(1, 2, 2), (1, 2, 2), (2, 3, 1), (1, 3, 2)], ("H4",)),
        ([(1, 1, 2), (1, 1, 3), (1, 2, 1)], ("H5",)),
    ],
)
def test_phi3_rank_refuses_when_h4_or_h5_fails(edges, failing):
    g = GainGraph.from_edge_list(3, edges)
    with pytest.raises(HypothesisError) as exc:
        phi3_rank(g)
    assert exc.value.failing == failing


def test_switching_invariance_of_phi3(final_example):
    rng = random.Random(606060)
    for g in [final_example] + seeded_graphs(6, seed=606061):
        lam = random_switching(g, rng)
        h = switch(g, lam)
        assert phi3_rank(h) == phi3_rank(g)
        if validate(g).all_pass:
            assert count_patterns(h) == count_patterns(g)


def test_closed_form_dimension_prediction(final_example, pattern_atlas):
    graphs = [final_example]
    graphs += [pattern_atlas[name].reference for name in PHI3_LADDER]
    graphs += seeded_graphs(10, seed=717171)
    for g in graphs:
        counts = count_patterns(g)
        tris = triangles(g)
        assert exterior.dim_I3_2(g.n, tris) == dim_I3_2_closed_form(g.n, counts)


def test_census_equals_rank_on_seeded_sample():
    for g in seeded_graphs(25, seed=123321):
        assert phi3_combinatorial(count_patterns(g)) == phi3_rank(g)


def test_graphic_arrangements_match_schenck_suciu():
    # a simple graph with every gain 1 gives a graphic arrangement, where
    # phi3 = 2*(kappa3 + kappa4) counts its 3- and 4-cliques (Schenck-Suciu 2002)
    rng = random.Random(2002)
    sizes = [(6, 12), (7, 15), (8, 20), (9, 26), (10, 30), (12, 36)] * 3 + [(48, 96)]
    kappa4_total = 0
    for num_vertices, num_edges in sizes:
        pairs = rng.sample(list(itertools.combinations(range(1, num_vertices + 1), 2)), num_edges)
        g = GainGraph.from_edge_list(num_vertices, [(u, v, 1) for u, v in pairs])
        adjacent = set(pairs)
        kappa3 = sum(
            all(p in adjacent for p in itertools.combinations(vs, 2))
            for vs in itertools.combinations(g.vertices, 3)
        )
        kappa4 = sum(
            all(p in adjacent for p in itertools.combinations(vs, 2))
            for vs in itertools.combinations(g.vertices, 4)
        )
        kappa4_total += kappa4
        report = verify(g)
        assert report.counts == PatternCounts(k3=kappa3, k4=kappa4), (num_vertices, num_edges)
        assert report.phi3_combinatorial == report.phi3_rank == 2 * (kappa3 + kappa4)
    assert kappa4_total > 0


@pytest.mark.parametrize("m", range(4, 14))
def test_phi3_rank_braid_closed_form(m):
    assert phi3_rank(braid(m)) == 2 * comb(m + 1, 4)


@pytest.mark.parametrize("m", range(3, 9))
def test_phi3_rank_type_d_closed_form(m):
    assert phi3_rank(type_d(m)) == (4 * m - 2) * comb(m, 3)


@pytest.mark.parametrize("m", range(4, 12))
def test_braid_census_closed_form(m):
    counts = count_patterns(braid(m))
    assert counts == PatternCounts(k3=comb(m, 3), k4=comb(m, 4))
    assert phi3_combinatorial(counts) == 2 * comb(m + 1, 4)


@pytest.mark.parametrize("m", range(3, 8))
def test_type_d_census_closed_form(m):
    counts = count_patterns(type_d(m))
    assert counts == PatternCounts(k3=4 * comb(m, 3), k4=8 * comb(m, 4), d3=comb(m, 3))
    assert phi3_combinatorial(counts) == (4 * m - 2) * comb(m, 3)


@pytest.mark.parametrize("m", range(2, 7))
def test_phi3_rank_type_b_falk_randell(m):
    # B_m is supersolvable with exponents 1, 3, ..., 2m-1 (Falk-Randell 1985);
    # it fails H1, so only the rank route is claimed here
    g = type_b(m)
    assert not validate(g).passes("H1")
    assert phi3_rank(g) == sum((d**3 - d) // 3 for d in range(1, 2 * m, 2))


def test_census_equals_rank_on_pattern_rich_hosts(pattern_atlas):
    # uniform random graphs rarely contain the larger patterns, so embed
    # switched reference copies into bigger hosts to exercise every count
    from collections import Counter

    from falkkit.patterns import COUNT_FIELDS
    from helpers import enriched_pattern_host

    rng = random.Random(424243)
    seen = Counter()
    for name in ("K4", "D3", "K33", "Gcirc", "D31", "G1", "G2"):
        produced = 0
        for _ in range(15):
            g = enriched_pattern_host(rng, pattern_atlas[name].reference)
            if g is None:
                continue
            produced += 1
            counts = count_patterns(g)
            assert phi3_combinatorial(counts) == phi3_rank(g), (name, counts)
            for field, value in counts.as_dict().items():
                seen[field] += value
        assert produced > 0, name
    assert all(seen[field] > 0 for field in COUNT_FIELDS), dict(seen)
