import random
from fractions import Fraction

import pytest

from falkkit.arrangement import ArrangementError, arrangement
from falkkit.graphs import GainGraph, RANDOM_GAINS, switch
from falkkit.patterns import triangles
from helpers import dependent_3sets, proportional, seeded_graphs

# defining polynomial factors of the bundled 3-vertex example, by edge id
EXPECTED_FACTORS = {
    1: (1, -1, 0),   # x - y
    2: (1, -2, 0),   # x - 2y
    3: (1, -3, 0),   # x - 3y
    4: (1, 0, -1),   # x - z
    5: (0, 1, -1),   # y - z
    6: (0, 2, -1),   # 2y - z
    7: (1, 0, 0),    # x
}


def test_arrangement_matches_defining_polynomial(seven_edge_example):
    planes = {h.edge_id: h.normal for h in arrangement(seven_edge_example)}
    assert len(planes) == 7
    for edge_id, factor in EXPECTED_FACTORS.items():
        assert proportional(planes[edge_id], factor), edge_id


def test_single_loop_normal():
    g = GainGraph.from_edge_list(1, [(1, 1, 2)])
    (h,) = arrangement(g)
    assert h.normal == (Fraction(1),)


def test_link_normal():
    g = GainGraph.from_edge_list(2, [(1, 2, 3)])
    (h,) = arrangement(g)
    assert h.normal == (Fraction(1), Fraction(-3))


def test_arrangement_rejects_proportional_normals():
    balanced_pair = GainGraph.from_edge_list(2, [(1, 2, 2), (1, 2, 2)])
    with pytest.raises(ArrangementError):
        arrangement(balanced_pair)
    # a reversed duplicate realizes the same hyperplane too
    reversed_pair = GainGraph.from_edge_list(2, [(1, 2, 2), (2, 1, Fraction(1, 2))])
    with pytest.raises(ArrangementError):
        arrangement(reversed_pair)


def test_dependent_3sets_examples():
    balanced = GainGraph.from_edge_list(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
    assert dependent_3sets(balanced) == {(1, 2, 3)}
    generic = GainGraph.from_edge_list(3, [(1, 1, 2), (1, 2, 1), (1, 3, 1)])
    assert dependent_3sets(generic) == set()


def test_dependent_3sets_final_example(final_example):
    assert dependent_3sets(final_example) == {t.edge_ids for t in triangles(final_example)}


def test_dependence_invariant_under_switching_and_reorientation():
    rng = random.Random(2)
    for g in seeded_graphs(6, seed=515151):
        base = dependent_3sets(g)
        lam = {v: rng.choice(RANDOM_GAINS) for v in g.vertices}
        assert dependent_3sets(switch(g, lam)) == base
        assert dependent_3sets(g.with_reversed_edge(1)) == base


def test_reorientation_scales_normal(final_example):
    before = {h.edge_id: h.normal for h in arrangement(final_example)}
    after = {h.edge_id: h.normal for h in arrangement(final_example.with_reversed_edge(7))}
    assert proportional(before[7], after[7])
    assert before[7] != after[7]
