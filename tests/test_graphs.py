import random
from fractions import Fraction

import pytest

from falkkit.graphs import (
    Circle,
    CircleError,
    Edge,
    GainGraph,
    GraphFormatError,
    GraphTooLargeError,
    all_circles_small,
    circle_gain,
    is_balanced,
    parse,
    random_gain_graph,
    serialize,
    switch,
    validate,
)
from helpers import brute_circle_sets, circle_from_edges, load_graph, seeded_graphs


def balanced_triangle():
    return GainGraph.from_edge_list(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])


# ---------------------------------------------------------------------------
# parsing and serialization


def test_parse_parallel_pair():
    g = parse("graph 2\nedge 1 1 2 1\nedge 2 1 2 2\n")
    assert g.num_vertices == 2
    assert g.n == 2
    assert g.edge(1).gain == 1
    assert g.edge(2).gain == 2


def test_parse_seven_edge_example(seven_edge_example):
    g = seven_edge_example
    assert g.n == 7
    assert g.num_vertices == 3
    assert [e.gain for e in g.links_between(1, 2)] == [1, 2, 3]
    assert g.loops_at(1)[0].gain == -1


def test_parse_zero_gain_is_error():
    with pytest.raises(GraphFormatError, match="zero gain"):
        parse("graph 2\nedge 1 1 2 0/3\n")


def test_parse_zero_denominator_is_error():
    with pytest.raises(GraphFormatError, match="denominator"):
        parse("graph 2\nedge 1 1 2 1/0\n")


def test_parse_negative_denominator_is_error():
    with pytest.raises(GraphFormatError, match="denominator"):
        parse("graph 2\nedge 1 1 2 1/-2\n")


def test_parse_duplicate_id_is_error():
    with pytest.raises(GraphFormatError, match="duplicate"):
        parse("graph 2\nedge 1 1 2 1\nedge 1 1 2 2\n")


def test_parse_non_contiguous_ids_is_error():
    with pytest.raises(GraphFormatError, match="contiguous"):
        parse("graph 2\nedge 1 1 2 1\nedge 3 1 2 2\n")


def test_parse_vertex_out_of_range_is_error():
    with pytest.raises(GraphFormatError, match="out of range"):
        parse("graph 2\nedge 1 1 3 1\n")


def test_parse_reports_line_numbers():
    with pytest.raises(GraphFormatError, match="line 4"):
        parse("# comment\n\ngraph 2\nedge 1 two 2 1\n")


BAD_INTEGERS = ("1_0", "\uff13", "\u0663", "1e3")  # separator, full-width 3, Arabic-Indic 3, exponent


@pytest.mark.parametrize("token", BAD_INTEGERS)
def test_parse_accepts_only_ascii_integers(token):
    texts = [
        f"graph {token}\n",
        f"graph 3\nedge {token} 1 2 1\n",
        f"graph 3\nedge 1 {token} 2 1\n",
        f"graph 3\nedge 1 1 {token} 1\n",
        f"graph 3\nedge 1 1 2 {token}\n",
        f"graph 3\nedge 1 1 2 1/{token}\n",
    ]
    for text in texts:
        with pytest.raises(GraphFormatError, match=f"must be an integer, got '{token}'"):
            parse(text)


def test_parse_signed_integers():
    g = parse("graph +2\nedge +1 1 +2 -3/+4\n")
    assert g.num_vertices == 2
    assert g.edge(1).gain == Fraction(-3, 4)


def test_parse_requires_header():
    with pytest.raises(GraphFormatError, match="header"):
        parse("edge 1 1 2 1\n")
    with pytest.raises(GraphFormatError):
        parse("graph 0\n")


def test_parse_ignores_comments_and_blank_lines():
    g = parse("\n# a comment\ngraph 1\n\n# another\n")
    assert g.n == 0


def test_serialize_round_trip(final_example):
    text = serialize(final_example)
    assert parse(text) == final_example
    assert parse(serialize(parse(text))) == final_example


def test_serialize_reduces_gains():
    g = GainGraph.from_edge_list(2, [(1, 2, Fraction(2, 4))])
    assert "edge 1 1 2 1/2" in serialize(g)


def test_edge_ids_must_cover_range():
    with pytest.raises(ValueError, match="edge ids"):
        GainGraph(2, (Edge(2, 1, 2, 1),))


# ---------------------------------------------------------------------------
# hypothesis checks


def test_validate_final_example_all_pass(final_example):
    report = validate(final_example)
    assert report.all_pass
    assert report.failing() == ()


def test_validate_b2_fails_h1():
    report = validate(load_graph("b2.gg"))
    assert not report.h1.passed
    assert report.h1.witnesses == (frozenset({1, 2, 3, 4}),)
    assert report.passes("H2", "H3", "H4", "H5")


def test_validate_loop_on_triple_bundle_fails_h2():
    g = GainGraph.from_edge_list(2, [(1, 2, 1), (1, 2, 2), (1, 2, 3), (1, 1, 2)])
    report = validate(g)
    assert not report.h2.passed
    assert frozenset({1, 2, 3, 4}) in report.h2.witnesses
    assert report.passes("H1", "H3", "H4", "H5")


def test_validate_quadruple_bundle_fails_h3():
    g = GainGraph.from_edge_list(2, [(1, 2, 1), (1, 2, 2), (1, 2, 3), (1, 2, 4)])
    report = validate(g)
    assert not report.h3.passed
    assert report.h3.witnesses == (frozenset({1, 2, 3, 4}),)


def test_validate_balanced_loop_and_pair_fail_h4():
    g = GainGraph.from_edge_list(2, [(1, 1, 1), (1, 2, 2), (2, 1, Fraction(1, 2))])
    report = validate(g)
    assert not report.h4.passed
    # gain-2 edge and its reversed twin form a balanced 2-circle
    assert frozenset({1}) in report.h4.witnesses
    assert frozenset({2, 3}) in report.h4.witnesses


def test_validate_two_loops_fail_h5():
    g = GainGraph.from_edge_list(1, [(1, 1, 2), (1, 1, 3)])
    report = validate(g)
    assert not report.h5.passed
    assert report.h5.witnesses == (frozenset({1, 2}),)


# ---------------------------------------------------------------------------
# circles and balance


def test_circle_gain_reference_values(seven_edge_example):
    g = seven_edge_example
    c1 = circle_from_edges(g, {1, 5, 4})
    c2 = circle_from_edges(g, {2, 6, 4})
    assert circle_gain(g, c1) == 1
    assert circle_gain(g, c2) == 1
    assert is_balanced(g, c1)
    assert is_balanced(g, c2)


def test_two_circle_gain():
    g = parse("graph 2\nedge 1 1 2 1\nedge 2 1 2 2\n")
    c = circle_from_edges(g, {1, 2})
    assert circle_gain(g, c) in (Fraction(1, 2), Fraction(2))
    assert not is_balanced(g, c)


def test_loop_is_unbalanced_in_valid_graph(final_example):
    c = circle_from_edges(final_example, {14})
    assert not is_balanced(final_example, c)


def test_unbalanced_triangle():
    g = GainGraph.from_edge_list(3, [(1, 2, 1), (2, 3, 1), (1, 3, 2)])
    c = circle_from_edges(g, {1, 2, 3})
    assert not is_balanced(g, c)


def test_circle_errors():
    g = GainGraph.from_edge_list(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
    with pytest.raises(CircleError):
        circle_from_edges(g, {1, 2})  # open path
    with pytest.raises(CircleError):
        circle_gain(g, Circle(((1, True), (1, False))))  # repeated edge
    with pytest.raises(CircleError):
        circle_gain(g, Circle(((1, True), (3, True))))  # walk does not close


def test_balance_independent_of_start_and_direction(final_example):
    g = final_example
    for edge_ids in brute_circle_sets(g):
        circle = circle_from_edges(g, edge_ids)
        steps = circle.steps
        value = is_balanced(g, circle)
        for shift in range(len(steps)):
            rotated = Circle(steps[shift:] + steps[:shift])
            assert is_balanced(g, rotated) == value
        reversed_steps = tuple((eid, not fwd) for eid, fwd in reversed(steps))
        assert is_balanced(g, Circle(reversed_steps)) == value


def test_all_circles_small_counts(pattern_atlas):
    d3 = pattern_atlas["D3"].reference
    assert len(all_circles_small(d3)) == 11  # 3 two-circles + 8 three-circles
    k4 = pattern_atlas["K4"].reference
    assert len(all_circles_small(k4)) == 7  # 4 three-circles + 3 four-circles
    loop = GainGraph.from_edge_list(1, [(1, 1, 2)])
    assert len(all_circles_small(loop)) == 1


def test_all_circles_small_size_bound():
    g = GainGraph.from_edge_list(13, [(i, i + 1 if i < 13 else 1, 2) for i in range(1, 14)])
    with pytest.raises(GraphTooLargeError):
        all_circles_small(g)


def test_all_circles_small_matches_walk_oracle():
    for g in seeded_graphs(8, seed=424242, max_edges=10):
        got = {c.edge_ids for c in all_circles_small(g)}
        assert got == brute_circle_sets(g)


# ---------------------------------------------------------------------------
# switching


def test_switch_identity(final_example):
    lam = {v: 1 for v in final_example.vertices}
    assert switch(final_example, lam) == final_example


def test_switch_single_edge():
    g = GainGraph.from_edge_list(2, [(1, 2, 3)])
    out = switch(g, {1: 3, 2: 1})
    assert out.edge(1).gain == 1


def test_switch_balanced_triangle():
    g = balanced_triangle()
    out = switch(g, {1: 1, 2: 2, 3: 6})
    assert [e.gain for e in out.edges] == [2, 3, 6]
    c = circle_from_edges(out, {1, 2, 3})
    assert is_balanced(out, c)


def test_switch_requires_total_nonzero_function():
    g = balanced_triangle()
    with pytest.raises(ValueError, match="misses vertex"):
        switch(g, {1: 1, 2: 1})
    with pytest.raises(ValueError, match="nonzero"):
        switch(g, {1: 1, 2: 0, 3: 1})


def test_switch_preserves_balanced_circles():
    rng = random.Random(777)
    from falkkit.graphs import RANDOM_GAINS

    for g in seeded_graphs(6, seed=90210, max_edges=10):
        lam = {v: rng.choice(RANDOM_GAINS) for v in g.vertices}
        h = switch(g, lam)
        balanced_g = {c.edge_ids for c in all_circles_small(g) if is_balanced(g, c)}
        balanced_h = {c.edge_ids for c in all_circles_small(h) if is_balanced(h, c)}
        assert balanced_g == balanced_h


def test_validate_invariant_under_switching():
    rng = random.Random(31337)
    from falkkit.graphs import RANDOM_GAINS

    for g in seeded_graphs(6, seed=60601):
        lam = {v: rng.choice(RANDOM_GAINS) for v in g.vertices}
        assert validate(switch(g, lam)) == validate(g)


# ---------------------------------------------------------------------------
# reorientation invariance


def test_reorientation_is_observationally_trivial():
    for g in seeded_graphs(6, seed=55500, max_edges=10):
        for eid in (1, g.n):
            h = g.with_reversed_edge(eid)
            assert validate(h) == validate(g)
            balanced_g = {c.edge_ids for c in all_circles_small(g) if is_balanced(g, c)}
            balanced_h = {c.edge_ids for c in all_circles_small(h) if is_balanced(h, c)}
            assert balanced_g == balanced_h


def test_double_reversal_restores_graph(final_example):
    g = final_example
    assert g.with_reversed_edge(7).with_reversed_edge(7) == g


# ---------------------------------------------------------------------------
# random generator


def test_random_gain_graph_is_reproducible_and_valid():
    a = seeded_graphs(5, seed=2026)
    b = seeded_graphs(5, seed=2026)
    assert a == b
    for g in a:
        assert validate(g).all_pass
        assert 6 <= g.n <= 14
        assert 3 <= g.num_vertices <= 6


def test_random_gain_graph_uses_gain_pool():
    from falkkit.graphs import RANDOM_GAINS

    for g in seeded_graphs(5, seed=99):
        assert all(e.gain in RANDOM_GAINS for e in g.edges)
