"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
seeds of the randomized populations.
"""

import random
import time
from contextlib import contextmanager

from falkkit.falk import (
    phi3_combinatorial,
    phi3_rank,
    verify,
)
from falkkit.patterns import atlas, count_patterns, triangles
from helpers import (
    RANDOM_GAINS,
    boundary2,
    boundary3,
    dependent_3sets,
    dim_I2,
    dim_I3_2_closed_form,
    find_occurrences,
    full_dim_I3_2,
    load_graph,
    random_gain_graph,
    span_F3,
    switch,
)

SEED_MATROID = 20260801
SEED_MAIN = 20260802
SEED_SWITCH = 20260803


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:>2} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:>2} PASS  {description} [{elapsed:.2f}s]")


def test_criterion_1_final_example_counts_and_phi3():
    with criterion(1, "final 14-edge example: counts, edge sets, phi3 = 31 both ways"):
        start = time.perf_counter()
        g = load_graph("final_example.gg")
        counts = count_patterns(g)
        assert counts.as_tuple() == (9, 1, 0, 2, 0, 0, 1, 0, 1, 0, 2)
        patterns = atlas()
        balanced = {
            t.edge_ids for t in triangles(g) if t.kind.value == "balanced_3_circle"
        }
        assert balanced == {
            (2, 5, 9), (2, 8, 13), (5, 8, 11), (9, 11, 13), (1, 6, 9),
            (1, 5, 10), (2, 4, 10), (3, 4, 9), (5, 7, 12),
        }
        assert find_occurrences(g, patterns["K4"]) == {frozenset({2, 5, 8, 9, 11, 13})}
        assert find_occurrences(g, patterns["D21"]) == {
            frozenset({7, 8, 14}), frozenset({11, 12, 14}),
        }
        assert find_occurrences(g, patterns["Gcirc"]) == {
            frozenset({5, 7, 8, 11, 12, 14}),
        }
        assert find_occurrences(g, patterns["G1"]) == {
            frozenset({1, 2, 3, 4, 5, 6, 9, 10}),
        }
        assert find_occurrences(g, patterns["Theta3"]) == {
            frozenset({1, 2, 3}), frozenset({4, 5, 6}),
        }
        comb_value = phi3_combinatorial(counts)
        rank_value = phi3_rank(g)
        assert comb_value == rank_value == 31
        assert time.perf_counter() - start < 5.0


def test_criterion_2_reference_f3_ranks():
    expected = {
        "Gcirc": (12, 10),
        "G1": (35, 34),
        "D3": (12, 10),
        "K4": (12, 10),
        "K33": (12, 10),
        "D31": (24, 19),
        "G2": (54, 52),
    }
    with criterion(2, "reference-pattern F3 sizes and ranks"):
        patterns = atlas()
        for name, want in expected.items():
            ref = patterns[name].reference
            start = time.perf_counter()
            report = verify(ref)
            elapsed = time.perf_counter() - start
            assert (report.span_F3_size, report.span_F3_rank) == want, name
            assert span_F3(ref.n, triangles(ref)) == want, name
            assert elapsed < 1.0, name


def test_criterion_3_final_example_dimensions():
    with criterion(3, "final example: |F3| = 143, dim I^3_2 = 151, dim A^2 = 78"):
        g = load_graph("final_example.gg")
        tris = triangles(g)
        report = verify(g)
        size, _ = span_F3(g.n, tris)
        assert report.span_F3_size == size == 143 == len(tris) * (g.n - 3)
        assert report.dim_I3_2 == full_dim_I3_2(g.n, tris) == 151
        assert report.dim_A2 == 78


def test_criterion_4_matroid_correspondence():
    with criterion(4, f"dependent 3-sets == triangle census, 200 graphs (seed {SEED_MATROID})"):
        start = time.perf_counter()
        g = load_graph("final_example.gg")
        assert dependent_3sets(g) == {t.edge_ids for t in triangles(g)}
        rng = random.Random(SEED_MATROID)
        for _ in range(200):
            g = random_gain_graph(rng)
            assert g.n <= 20
            assert dependent_3sets(g) == {t.edge_ids for t in triangles(g)}
        assert time.perf_counter() - start < 60.0


def test_criterion_5_census_rank_agreement():
    with criterion(5, f"census formula == rank formula on 200 graphs (seed {SEED_MAIN})"):
        start = time.perf_counter()
        rng = random.Random(SEED_MAIN)
        for index in range(200):
            g = random_gain_graph(rng)
            comb_value = phi3_combinatorial(count_patterns(g))
            rank_value = phi3_rank(g)
            assert comb_value == rank_value, (index, comb_value, rank_value)
        assert time.perf_counter() - start < 300.0


def test_criterion_6_switching_invariance():
    with criterion(6, f"50 switchings leave triangles, counts, phi3 unchanged (seed {SEED_SWITCH})"):
        rng = random.Random(SEED_SWITCH)
        for _ in range(50):
            g = random_gain_graph(rng)
            lam = {v: rng.choice(RANDOM_GAINS) for v in g.vertices}
            h = switch(g, lam)
            assert [(t.edge_ids, t.kind) for t in triangles(h)] == [
                (t.edge_ids, t.kind) for t in triangles(g)
            ]
            assert count_patterns(h) == count_patterns(g)
            assert phi3_rank(h) == phi3_rank(g)
            assert phi3_combinatorial(count_patterns(h)) == phi3_combinatorial(
                count_patterns(g)
            )


def test_criterion_7_structural_identities():
    with criterion(7, "dim I^2 == |T|, direct sum, closed form, boundary^2 = 0"):
        graphs = [load_graph("final_example.gg"), load_graph("gcirc.gg")]
        graphs += [p.reference for name, p in sorted(atlas().items()) if name != "B2"]
        rng = random.Random(SEED_MAIN + 1)
        graphs += [random_gain_graph(rng) for _ in range(30)]
        for g in graphs:
            tris = triangles(g)
            counts = count_patterns(g)
            assert dim_I2(g.n, tris) == len(tris)
            size, f3_rank = span_F3(g.n, tris)
            i32 = full_dim_I3_2(g.n, tris)
            assert i32 == len(tris) + f3_rank
            assert i32 == dim_I3_2_closed_form(g.n, counts) == verify(g).dim_I3_2
            for t in tris:
                assert boundary2(boundary3(t.edge_ids)) == {}


def test_criterion_8_pattern_self_tests():
    with criterion(8, "atlas census classes; G1 and G2 contain no D3"):
        patterns = atlas()
        for name, pattern in patterns.items():
            census = {frozenset(t.edge_ids) for t in triangles(pattern.reference)}
            assert census == set(pattern.distinguished), name
        d3 = patterns["D3"]
        assert find_occurrences(patterns["G1"].reference, d3) == set()
        assert find_occurrences(patterns["G2"].reference, d3) == set()


def test_criterion_9_standalone_pattern_ladder():
    ladder = {
        "K3": 2, "D21": 2, "K22": 2, "Theta3": 2, "K4": 10, "D3": 10,
        "K33": 10, "Gcirc": 10, "G1": 15, "D31": 17, "G2": 20,
    }
    with criterion(9, "standalone pattern phi3 ladder, both pipelines"):
        patterns = atlas()
        for name, value in ladder.items():
            report = verify(patterns[name].reference)
            assert report.phi3_rank == value, name
            assert report.phi3_combinatorial == value, name
            assert report.agree is True, name
