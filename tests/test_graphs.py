import copy
import dataclasses
import itertools
import pickle
import random
import weakref
from fractions import Fraction

import pytest

from falkkit.graphs import (
    Edge,
    GainGraph,
    GraphFormatError,
    GraphTooLargeError,
    MAX_WITNESSES,
    all_circles_small,
    as_gain,
    parse,
    serialize,
    validate,
)
from helpers import (
    DATA,
    INTEGER,
    RANDOM_GAINS,
    brute_circle_sets,
    circle_balance,
    load_graph,
    regime_graphs,
    reorder_edge_lines,
    scrambled,
    seeded_graphs,
    switch,
    three_pass_maps,
    type_b,
    with_reversed_edge,
)


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


#: each integer position of the format: a file with the token there, the
#: line it is on, its name in errors, and the value it parses to
INTEGER_POSITIONS = (
    ("graph {}\n", 1, "vertex count", lambda g: g.num_vertices),
    ("graph 3\nedge {} 1 2 1\n", 2, "edge id", lambda g: g.edges[0].id),
    ("graph 3\nedge 1 {} 2 1\n", 2, "tail vertex", lambda g: g.edges[0].tail),
    ("graph 3\nedge 1 1 {} 1\n", 2, "head vertex", lambda g: g.edges[0].head),
    ("graph 3\nedge 1 1 2 {}\n", 2, "gain numerator", lambda g: g.edges[0].gain),
    ("graph 3\nedge 1 1 2 1/{}\n", 2, "gain denominator", lambda g: 1 / g.edges[0].gain),
)

# '\u00b2' (superscript two) is a digit to str.isdigit but not ASCII
FIXED_TOKENS = BAD_INTEGERS + ("+", "-", "+-1", "--1", "0x1", "1.0", "\u00b2", "+0", "-0", "007")


def random_tokens(count: int, seed: int) -> list[str]:
    """Tokens of ASCII digits, signs and non-ASCII digits (Arabic-Indic,
    full-width, superscript, Devanagari, mathematical double-struck)."""
    rng = random.Random(seed)
    alphabet = "0123456789+-" + "\u0663\uff13\u00b2\u0967\U0001d7d8"
    return ["".join(rng.choices(alphabet, k=rng.randint(1, 4))) for _ in range(count)]


@pytest.mark.parametrize("template, line, what, value", INTEGER_POSITIONS)
def test_parse_takes_exactly_the_integer_grammar(template, line, what, value):
    tokens = FIXED_TOKENS + tuple(random_tokens(300, seed=7))
    accepted = [token for token in tokens if INTEGER.fullmatch(token)]
    assert 0 < len(accepted) < len(tokens)
    for token in tokens:
        text = template.format(token)
        if INTEGER.fullmatch(token):
            try:
                assert value(parse(text)) == int(token), token
            except GraphFormatError as exc:  # a range or id check, not the grammar
                assert "must be an integer" not in str(exc), token
        else:
            with pytest.raises(GraphFormatError) as info:
                parse(text)
            assert str(info.value) == f"line {line}: {what} must be an integer, got {token!r}"


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


#: the line boundaries of str.splitlines that do not end a line of a graph file
NOT_LINE_ENDS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.mark.parametrize("separator", NOT_LINE_ENDS)
def test_only_newlines_end_a_line(separator):
    text = f"graph 3\n# gains from the paper{separator} section 4\nedge 1 1 2 1\n"
    assert parse(text) == parse("graph 3\nedge 1 1 2 1\n")
    with pytest.raises(GraphFormatError) as info:
        parse(f"graph 3\n\nedge 1 1 2 1{separator}edge 2 2 3 1\n")
    assert str(info.value) == "line 3: expected 'edge <id> <tail> <head> <gain>'"


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_and_cr_files_parse_as_lf_files(newline):
    def outcome(text):
        try:
            return parse(text)
        except GraphFormatError as exc:
            return str(exc)

    texts = [path.read_text() for path in sorted(DATA.glob("*.gg"))]
    texts += ["# comment\n\ngraph 2\nedge 1 two 2 1\n", "graph 2\n\nedge 1 1 2 0\n"]
    assert any(isinstance(outcome(text), str) for text in texts)
    for text in texts:
        assert outcome(text.replace("\n", newline)) == outcome(text)


def test_serialize_round_trip(final_example):
    text = serialize(final_example)
    assert parse(text) == final_example
    assert parse(serialize(parse(text))) == final_example


def test_serialize_round_trips_random_graphs():
    rng = random.Random(11)
    for g in seeded_graphs(100, seed=11):
        for h in (g, scrambled(g, rng)):
            assert parse(serialize(h)) == h


@pytest.mark.parametrize(
    "token, message", [("x/2", "gain numerator must be an integer, got 'x'"), ("0", "zero gain")]
)
def test_a_repeated_bad_gain_is_reported_on_its_first_line(token, message):
    text = f"graph 3\nedge 1 1 2 2\nedge 2 1 3 {token}\nedge 3 2 3 2\nedge 4 2 3 {token}\n"
    with pytest.raises(GraphFormatError) as info:
        parse(text)
    assert str(info.value) == f"line 3: {message}"


def test_a_repeated_gain_gives_equal_gains():
    g = parse("graph 3\nedge 1 1 2 -2/3\nedge 2 2 3 -2/3\nedge 3 1 3 -4/6\nedge 4 1 3 -2/3\n")
    assert [e.gain for e in g.edges] == [Fraction(-2, 3)] * 4
    assert all(type(e.gain) is Fraction for e in g.edges)


def test_as_gain_passes_a_fraction_through():
    half = Fraction(1, 2)
    assert as_gain(half) is half
    assert as_gain("1/2") == as_gain(0.5) == half
    with pytest.raises(ValueError, match="nonzero"):
        as_gain(Fraction(0))


def test_serialize_reduces_gains():
    g = GainGraph.from_edge_list(2, [(1, 2, Fraction(2, 4))])
    assert "edge 1 1 2 1/2" in serialize(g)


def test_every_edge_holds_a_nonzero_fraction():
    # Edge takes its gain as given: parse and from_edge_list coerce it once
    triples = [(1, 2, 2), (2, 3, "-1/3"), (3, 1, Fraction(4, 6)), (1, 1, 0.5)]
    g = GainGraph.from_edge_list(3, triples)
    assert [e.gain for e in g.edges] == [2, Fraction(-1, 3), Fraction(2, 3), Fraction(1, 2)]
    graphs = [g, parse(serialize(g))]
    graphs += [
        load_graph(path.name) for path in sorted(DATA.glob("*.gg")) if path.stem != "bad_zero_gain"
    ]
    for h in seeded_graphs(5, seed=3):
        graphs += [h, switch(h, {v: Fraction(v + 1, 2) for v in h.vertices})]
        graphs += [scrambled(h, random.Random(3)), with_reversed_edge(h, 1)]
    for h in graphs:
        assert all(type(e.gain) is Fraction and e.gain for e in h.edges)


@pytest.mark.parametrize("gain", [0, "0/5", Fraction(0)])
def test_from_edge_list_rejects_a_zero_gain(gain):
    with pytest.raises(ValueError, match="gain must be a nonzero rational"):
        GainGraph.from_edge_list(2, [(1, 2, 1), (1, 2, gain)])


def test_edge_ids_must_cover_range():
    with pytest.raises(ValueError, match="edge ids"):
        GainGraph(2, (Edge(2, 1, 2, 1),))


@pytest.mark.parametrize("ids", [(2, 2, 3), (1, 3, 3), (1, 2, 4), (0, 1, 2), (3, 1)])
def test_edge_ids_repeated_or_missing_are_refused(ids):
    edges = tuple(Edge(i, 1, 2, k + 1) for k, i in enumerate(ids))
    with pytest.raises(ValueError, match="edge ids must be exactly 1..n with no repeats"):
        GainGraph(2, edges)


def test_edge_ids_out_of_order_are_kept_in_their_order():
    edges = tuple(Edge(i, 1, 2, i) for i in (3, 1, 2))
    g = GainGraph(2, list(edges))
    assert g.edges == edges
    assert [g.edge(i).gain for i in (1, 2, 3)] == [1, 2, 3]
    assert serialize(g) == serialize(GainGraph(2, sorted(edges, key=lambda e: e.id)))
    with pytest.raises(ValueError, match="touches a vertex outside 1..2"):
        GainGraph(2, (Edge(2, 1, 2, 1), Edge(1, 1, 3, 1)))


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


def bundle_with_loops(links, loops, equal_gains=0):
    """A bundle of ``links`` links between 1 and 2 with ``loops`` loops at
    each end; the first ``equal_gains`` links share one gain."""
    triples = [(1, 2, 1 if i < equal_gains else i + 2) for i in range(links)]
    triples += [(v, v, i + 2) for v in (1, 2) for i in range(loops)]
    return GainGraph.from_edge_list(2, triples)


def brute_witnesses(g):
    """Every witness of H1, H2 and H4 on a one-bundle graph, by definition."""
    links = [e for e in g.edges if not e.is_loop]
    loops = {v: [e.id for e in g.loops_at(v)] for v in (1, 2)}
    return {
        "H1": {frozenset({e.id, f.id, a, b}) for e, f in itertools.combinations(links, 2)
               for a in loops[1] for b in loops[2]},
        "H2": {frozenset({x.id, y.id, z.id, loop}) for x, y, z in itertools.combinations(links, 3)
               for loop in loops[1] + loops[2]},
        "H4": {frozenset({e.id, f.id}) for e, f in itertools.combinations(links, 2)
               if e.gain == f.gain},
    }


@pytest.mark.parametrize("links, loops, equal_gains", [(5, 3, 0), (4, 2, 4), (6, 4, 16), (8, 2, 8)])
def test_validate_counts_every_witness_and_lists_at_most_the_cap(links, loops, equal_gains):
    g = bundle_with_loops(links, loops, equal_gains)
    report = validate(g)
    for name, every in brute_witnesses(g).items():
        verdict = report.verdict(name)
        assert verdict.count == len(every)
        assert verdict.passed == (not every)
        assert set(verdict.witnesses) <= every
        assert len(verdict.witnesses) == min(len(every), MAX_WITNESSES)
        assert list(verdict.witnesses) == sorted(verdict.witnesses, key=lambda w: sorted(w))
    assert report.h5.count == (2 if loops > 1 else 0)


def test_gain_groups_read_each_link_from_the_smaller_end():
    # links 1 and 2 are one hyperplane (2 read from 1), and so are 3 and 4
    # (-1/3 read from 1, negative gains keep a positive denominator)
    g = GainGraph.from_edge_list(
        3, [(1, 2, 2), (2, 1, "1/2"), (3, 1, -3), (1, 3, "-1/3"), (1, 3, 5), (1, 1, 2)]
    )
    ids = {pair: {gain: [e.id for e in es] for gain, es in groups.items()}
           for pair, groups in g.gain_groups.items()}
    assert ids == {(1, 2): {(2, 1): [1, 2]}, (1, 3): {(-1, 3): [3, 4], (5, 1): [5]}}
    assert list(ids[1, 3]) == [(-1, 3), (5, 1)]  # in the order of their first links
    assert validate(g).h4.witnesses == (frozenset({1, 2}), frozenset({3, 4}))


# ---------------------------------------------------------------------------
# the one builder of the maps


def parsable_data():
    """The bundled graph files that parse, by name."""
    out = {}
    for path in sorted(DATA.glob("*.gg")):
        try:
            out[path.name] = parse(path.read_text())
        except GraphFormatError:
            pass
    return out


def map_graphs():
    cases = [pytest.param(g, id=name) for name, g in parsable_data().items()]
    cases += [pytest.param(g, id=f"seeded{i}") for i, g in enumerate(seeded_graphs(20, seed=3030))]
    rng = random.Random(3031)
    cases += [pytest.param(g, id=f"regime{i}") for i, g in enumerate(regime_graphs(rng, 60))]
    cases += [pytest.param(scrambled(type_b(4), random.Random(3032)), id="scrambled_b4")]
    # stored out of id order: the maps follow the stored order
    g = balanced_triangle()
    cases += [pytest.param(GainGraph(3, g.edges[::-1]), id="stored_backwards")]
    return cases


def map_items(g):
    """The three maps as nested item lists, so that == checks their order too."""
    links, loops, groups = g.link_map, g.loop_map, g.gain_groups
    return (
        list(links.items()),
        list(loops.items()),
        [(pair, list(by_gain.items())) for pair, by_gain in groups.items()],
    )


@pytest.mark.parametrize("g", map_graphs())
def test_one_pass_builds_the_maps_of_their_definitions(g):
    links, loops, groups = three_pass_maps(g)
    assert map_items(g) == (
        list(links.items()),
        list(loops.items()),
        [(pair, list(by_gain.items())) for pair, by_gain in groups.items()],
    )
    assert g.edge_ends == {e.id: e.ends() for e in g.edges}


def test_the_regime_corpus_breaks_h1_to_h3():
    failing = {name for g in regime_graphs(random.Random(3031), 60) for name in validate(g).failing()}
    assert {"H1", "H2", "H3"} <= failing


@pytest.mark.parametrize("name", sorted(parsable_data()))
@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_edge_line_order_gives_an_equal_graph_and_equal_maps(name, order):
    text = (DATA / name).read_text()
    rng = random.Random(name)
    moves = {"reversed": lambda ls: ls[::-1], "shuffled": lambda ls: rng.sample(ls, len(ls))}
    g, h = parse(text), parse(reorder_edge_lines(text, moves[order]))
    assert h == g
    assert map_items(h) == map_items(g)
    assert list(h.edge_ends.items()) == list(g.edge_ends.items())


def test_edge_is_a_frozen_value():
    e = Edge(1, 2, 3, Fraction(1, 2))
    for name in ("id", "tail", "head", "gain", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(e, name, 5)
    for name in ("id", "tail", "head", "gain"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(e, name)
    same = [
        Edge(id=1, tail=2, head=3, gain=Fraction(1, 2)),
        Edge(1, 2, head=3, gain=Fraction(1, 2)),
        copy.copy(e),
        copy.deepcopy(e),
        pickle.loads(pickle.dumps(e)),
        dataclasses.replace(Edge(1, 2, 3, Fraction(5)), gain=Fraction(1, 2)),
    ]
    for f in same:
        assert f == e and hash(f) == hash(e)
    for f in (Edge(9, 2, 3, Fraction(1, 2)), Edge(1, 3, 2, Fraction(1, 2)), Edge(1, 2, 3, Fraction(2))):
        assert f != e
    assert e != (1, 2, 3, Fraction(1, 2))
    assert len({e, *same}) == 1
    assert (e.id, e.tail, e.head, e.gain) == dataclasses.astuple(e) == (1, 2, 3, Fraction(1, 2))
    assert [f.name for f in dataclasses.fields(Edge)] == ["id", "tail", "head", "gain"]
    assert repr(e) == "Edge(id=1, tail=2, head=3, gain=Fraction(1, 2))"
    assert weakref.ref(e)() is e
    with pytest.raises(TypeError):
        Edge(1, 2, 3)


def test_switch_and_reversal_still_build_edges():
    g = GainGraph.from_edge_list(3, [(1, 2, 2), (2, 3, "1/3"), (3, 3, -1)])
    switched = switch(g, {1: 2, 2: 1, 3: 1})
    assert switched.edges == (
        Edge(1, 1, 2, Fraction(1)), Edge(2, 2, 3, Fraction(1, 3)), Edge(3, 3, 3, Fraction(-1))
    )
    assert with_reversed_edge(g, 2).edge(2) == Edge(2, 3, 2, Fraction(3))
    assert all(type(e) is Edge for e in switched.edges + with_reversed_edge(g, 1).edges)


# ---------------------------------------------------------------------------
# circles and balance


def balanced_circles(g):
    return {ids for ids, balanced in all_circles_small(g) if balanced}


def test_circle_gain_reference_values(seven_edge_example):
    g = seven_edge_example
    flags = dict(all_circles_small(g))
    for ids in ({1, 5, 4}, {2, 6, 4}):
        assert circle_balance(g, ids)
        assert flags[frozenset(ids)]


def test_two_circle_gain():
    g = parse("graph 2\nedge 1 1 2 1\nedge 2 1 2 2\n")
    assert all_circles_small(g) == [(frozenset({1, 2}), False)]
    assert not circle_balance(g, {1, 2})


def test_loop_is_unbalanced_in_valid_graph(final_example):
    assert not circle_balance(final_example, {14})
    loop = GainGraph.from_edge_list(1, [(1, 1, -1)])
    assert all_circles_small(loop) == [(frozenset({1}), False)]


def test_unbalanced_triangle():
    g = GainGraph.from_edge_list(3, [(1, 2, 1), (2, 3, 1), (1, 3, 2)])
    assert all_circles_small(g) == [(frozenset({1, 2, 3}), False)]
    assert not circle_balance(g, {1, 2, 3})


def test_circle_errors():
    g = GainGraph.from_edge_list(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
    with pytest.raises(ValueError):
        circle_balance(g, {1, 2})  # open path
    assert frozenset({1, 2}) not in dict(all_circles_small(g))
    # two loops at one vertex, and two triangles sharing a vertex
    bowtie = GainGraph.from_edge_list(
        5, [(1, 1, 2), (1, 1, 3), (1, 2, 1), (2, 3, 1), (3, 1, 1), (1, 4, 1), (4, 5, 1), (5, 1, 1)]
    )
    for ids in ({1, 2}, {3, 4, 5, 6, 7, 8}):
        with pytest.raises(ValueError):
            circle_balance(bowtie, ids)
        assert frozenset(ids) not in dict(all_circles_small(bowtie))


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
        got = {ids for ids, _ in all_circles_small(g)}
        assert got == brute_circle_sets(g)


def test_all_circles_small_balance_matches_gain_product(seven_edge_example, pattern_atlas):
    graphs = [seven_edge_example] + seeded_graphs(8, seed=424242, max_edges=10)
    for g in graphs:
        for ids, balanced in all_circles_small(g):
            assert balanced == circle_balance(g, ids), ids
    assert {balanced for g in graphs for _, balanced in all_circles_small(g)} == {True, False}
    for pattern in pattern_atlas.values():
        assert pattern.profile == tuple(all_circles_small(pattern.reference))


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
    assert circle_balance(out, {1, 2, 3})
    assert balanced_circles(out) == {frozenset({1, 2, 3})}


def test_switch_requires_total_nonzero_function():
    g = balanced_triangle()
    with pytest.raises(ValueError, match="misses vertex"):
        switch(g, {1: 1, 2: 1})
    with pytest.raises(ValueError, match="nonzero"):
        switch(g, {1: 1, 2: 0, 3: 1})


def test_switch_preserves_balanced_circles():
    rng = random.Random(777)
    for g in seeded_graphs(6, seed=90210, max_edges=10):
        lam = {v: rng.choice(RANDOM_GAINS) for v in g.vertices}
        assert balanced_circles(switch(g, lam)) == balanced_circles(g)


def test_validate_invariant_under_switching():
    rng = random.Random(31337)
    for g in seeded_graphs(6, seed=60601):
        lam = {v: rng.choice(RANDOM_GAINS) for v in g.vertices}
        assert validate(switch(g, lam)) == validate(g)


# ---------------------------------------------------------------------------
# reorientation invariance


def test_reorientation_is_observationally_trivial():
    for g in seeded_graphs(6, seed=55500, max_edges=10):
        for eid in (1, g.n):
            h = with_reversed_edge(g, eid)
            assert validate(h) == validate(g)
            assert balanced_circles(h) == balanced_circles(g)


def test_double_reversal_restores_graph(final_example):
    g = final_example
    assert with_reversed_edge(with_reversed_edge(g, 7), 7) == g


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
    for g in seeded_graphs(5, seed=99):
        assert all(e.gain in RANDOM_GAINS for e in g.edges)
