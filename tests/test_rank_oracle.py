"""The fraction-free :func:`exterior.rank` against the ``Fraction`` oracle.

:func:`helpers.fraction_rank` is the rational elimination the library used
before it switched to primitive integer rows; it shares no code with
:func:`exterior.rank`.  Random matrices with rational entries and dependent
rows reach pivots whose leading entry is not 1; :func:`exterior.rank` takes
integer rows only, so each rational row is scaled to integers before it gets
there, while the oracle ranks the rational rows.  The rows of the rank
route's eliminations cover the rows the library really builds: each is one
group of the kept blocks of the global rows G
(:func:`helpers.kept_rows_by_vertex_set`), and both
:func:`helpers.global_rows`, which writes all of G, and the library's
writer, given every t outside each flat, decode to the tuple algebra.

The rank route is claimed wherever H4 and H5 hold, so the regime corpus
(:func:`helpers.regime_graphs`) also has graphs where H1, H2 or H3 fails.
Where H1-H3 fail the census is withheld, and
:func:`helpers.holonomy_phi3`, which reads phi_3 off the holonomy Lie
algebra with no Falk formula, checks the rank route instead.
"""

import itertools
import random
from fractions import Fraction
from math import comb, gcd, lcm

import pytest

from falkkit import exterior
from falkkit.falk import phi3_rank
from falkkit.graphs import GainGraph, validate
from falkkit.patterns import flats, triangles
import helpers
from helpers import (
    DATA,
    PAPPUS_GRAPHS,
    _shape_kind,
    boundary3,
    braid,
    dependent_3sets,
    doubling_triangle,
    fraction_phi3,
    fraction_rank,
    holonomy_dim2,
    holonomy_phi3,
    load_graph,
    looped_hub,
    random_gain_graph,
    regime_graphs,
    type_b,
    type_d,
    wedge1,
)

SEED_MATRICES = 19680
SEED_MAIN = 20260802  # the criterion-5 corpus
SEED_REGIME = 4545
SEED_HOLONOMY = 3031
ENTRIES = [Fraction(x) for x in range(-3, 4)] + [
    Fraction(p, q) for p in (-5, -2, -1, 1, 2, 3) for q in (2, 3, 4, 7)
]
NONZERO = [x for x in ENTRIES if x]


def random_rows(rng: random.Random) -> list[dict]:
    """Sparse rows; about half are combinations of earlier rows."""
    columns = [(i, j) for i in range(rng.randrange(2, 5)) for j in range(rng.randrange(2, 5))]
    rows: list[dict] = []
    for _ in range(rng.randrange(1, 2 * len(columns))):
        if rows and rng.random() < 0.5:
            row: dict = {}
            for base in rng.sample(rows, rng.randrange(1, min(3, len(rows)) + 1)):
                factor = rng.choice(NONZERO)
                for k, v in base.items():
                    row[k] = row.get(k, 0) + factor * v
        else:
            row = {k: rng.choice(ENTRIES) for k in rng.sample(columns, rng.randrange(1, len(columns) + 1))}
        if rng.random() < 0.5 and all(Fraction(v).denominator == 1 for v in row.values()):
            row = {k: int(v) for k, v in row.items()}
        rows.append(row)
    return rows


def integer_row(row: dict) -> dict:
    """The row times the lcm of its denominators; scaling keeps the rank."""
    scale = lcm(*(Fraction(v).denominator for v in row.values()))
    return {k: int(v * scale) for k, v in row.items()}


def checked_pivots(rows: list) -> dict:
    """The pivot rows, after checking the rank and that each row is primitive."""
    integer_rows = [integer_row(row) for row in rows]
    pivots = exterior._pivot_rows(integer_rows)
    assert exterior.rank(integer_rows) == len(pivots) == fraction_rank(rows)
    for lead, pivot in pivots.items():
        assert lead == min(pivot)
        assert all(type(v) is int and v for v in pivot.values())
        assert pivot[lead] > 0
        assert gcd(*pivot.values()) == 1
    return pivots


def test_rank_matches_fraction_oracle_on_random_matrices():
    rng = random.Random(SEED_MATRICES)
    non_unit_leads = dependent = 0
    for _ in range(400):
        rows = random_rows(rng)
        pivots = checked_pivots(rows)
        # every pivot row lies in the span of the input rows
        assert fraction_rank(rows + list(pivots.values())) == len(pivots)
        non_unit_leads += sum(pivot[lead] != 1 for lead, pivot in pivots.items())
        dependent += len(rows) > len(pivots)
    assert non_unit_leads > 100 and dependent > 100


def test_rank_cross_multiplies_non_unit_pivots():
    rows = [{1: 3, 2: 2}, {1: 3, 2: 2}, {1: 2, 3: 15}]
    assert exterior.rank(rows) == 2
    assert exterior._pivot_rows(rows) == {1: {1: 3, 2: 2}, 2: {2: 4, 3: -45}}


def test_unit_lead_pivots_are_stored_without_a_gcd():
    assert exterior._pivot_rows([{5: -1, 7: 2}]) == {5: {5: 1, 7: -2}}
    assert exterior._pivot_rows([{5: 1, 7: -2}]) == {5: {5: 1, 7: -2}}


FAMILIES = (
    [pytest.param(type_b(m), id=f"B{m}") for m in range(2, 6)]
    + [pytest.param(type_d(m), id=f"D{m}") for m in range(3, 7)]
    + [pytest.param(braid(m), id=f"K{m}") for m in range(4, 10)]
    + [pytest.param(looped_hub(5), id="hub5")]
    # one group each, of 135 to 1 158 rows, with flats of up to 8 edges
    + [
        pytest.param(doubling_triangle(m, loop), id=f"doubling{m}" + ("-looped" if loop else ""))
        for m in (4, 5, 6) for loop in (None, 3)
    ]
)


def check_library_rows(monkeypatch, g) -> None:
    index = flats(g)
    calls, _ = helpers.recorded_rows(monkeypatch, lambda: exterior.rank_fields(g.n, index))
    xs = helpers.flat_list(index)
    groups = [rows[::-1] for rows in helpers.kept_rows_by_vertex_set(g.n, g.edge_ends, xs).values()]
    # one call per distinct group, none when nothing is kept
    assert bool(calls) == bool(groups)
    for rows in calls:
        # exactly the rows of one vertex set's kept blocks of G, eliminated last row first
        assert rows and rows in groups
        # the contract exterior.rank relies on
        assert all(type(v) is int and v for row in rows for v in row.values())
        checked_pivots(rows)


@pytest.mark.parametrize("g", FAMILIES)
def test_library_rows_match_fraction_oracle_on_reflection_families(monkeypatch, g):
    check_library_rows(monkeypatch, g)


def test_library_rows_match_fraction_oracle_on_seeded_corpus(monkeypatch):
    rng = random.Random(SEED_MAIN)
    for _ in range(200):
        check_library_rows(monkeypatch, random_gain_graph(rng))


def decoded_pivots(rows: list[dict], decode) -> list:
    """The pivots of ``rows`` in the order they were found, columns decoded."""
    return [
        (decode(lead), {decode(k): v for k, v in pivot.items()})
        for lead, pivot in exterior._pivot_rows(rows).items()
    ]


def check_row_builders(g) -> None:
    """The coded rows decode to the tuple algebra's rows, and eliminate alike.

    The global rows of G are e_t * boundary(e_S) for each flat X, each
    triple S of X through min X and each t outside X; the full eliminations
    of the test oracle take every triple S and every t.
    """
    triples = [t.edge_ids for t in triangles(g)]
    n = g.n
    m = n + 1

    def pair(code):
        return divmod(code, m)

    def triple(code):
        return (code // (m * m), code // m % m, code % m)

    xs = helpers.flat_list(flats(g))
    coded = helpers.global_rows(n, xs)
    tupled = [
        wedge1(t, boundary3((x[0], b, c)))
        for x in xs for b, c in itertools.combinations(x[1:], 2)
        for t in range(1, n + 1) if t not in x
    ]
    assert len(coded) == sum(comb(len(x) - 1, 2) * (n - len(x)) for x in xs)
    assert [{triple(k): v for k, v in row.items()} for row in coded] == tupled
    assert decoded_pivots(coded, triple) == decoded_pivots(tupled, lambda k: k)
    # the library's writer, given every t outside each flat, writes them too
    library = [
        row for x in xs
        for row in exterior._kept_rows(n, x, [t for t in range(1, n + 1) if t not in x])
    ]
    assert [{triple(k): v for k, v in row.items()} for row in library] == tupled

    coded = helpers._boundary_rows(triples, m)
    tupled = [boundary3(s) for s in triples]
    assert [{pair(k): v for k, v in row.items()} for row in coded] == tupled
    assert decoded_pivots(coded, pair) == decoded_pivots(tupled, lambda k: k)
    for inside in (False, True):
        coded = helpers._wedge_rows(triples, n, inside)
        tupled = [
            wedge1(t, boundary3(s)) for s in triples for t in range(1, n + 1)
            if inside or t not in s
        ]
        assert [{triple(k): v for k, v in row.items()} for row in coded] == tupled
        assert decoded_pivots(coded, triple) == decoded_pivots(tupled, lambda k: k)


@pytest.mark.parametrize("g", FAMILIES)
def test_row_builders_match_tuple_algebra_on_reflection_families(g):
    check_row_builders(g)


def test_row_builders_match_tuple_algebra_on_regime_corpus():
    check_row_builders(load_graph("final_example.gg"))
    for g in regime_graphs(random.Random(SEED_REGIME), 60):
        check_row_builders(g)


def test_rank_route_on_h4_h5_regime_corpus(monkeypatch):
    failing = set()
    for index, g in enumerate(regime_graphs(random.Random(SEED_REGIME), 60)):
        report = validate(g)
        assert report.passes("H4", "H5"), index
        failing.update(report.failing())
        check_library_rows(monkeypatch, g)
        tris = triangles(g)
        assert {t.edge_ids for t in tris} == dependent_3sets(g), index
        for t in tris:
            assert t.kind is _shape_kind(g, t.edge_ids), (index, t)
        assert phi3_rank(g) == fraction_phi3(g), index
    assert failing == {"H1", "H2", "H3"}


def test_rank_route_on_a_looped_hub():
    # each of the 200 flats holds the loop, whose neighbourhood has 601 edges;
    # a flat of four is four triangles and no outside edge meets it twice
    g = looped_hub(200)
    assert validate(g).failing() == ("H2",)
    assert phi3_rank(g) == 8 * 200


def test_holonomy_lie_algebra_matches_the_rank_route_where_h1_to_h3_fail():
    # the regime the census withholds: bundles of 2-4 links next to loops,
    # where the holonomy Lie algebra is the rank route's one oracle outside
    # the Orlik-Solomon algebra
    graphs = regime_graphs(random.Random(SEED_HOLONOMY), 40)
    failing = [g for g in graphs if validate(g).failing()]
    assert len(failing) == 25
    assert {name for g in failing for name in validate(g).failing()} == {"H1", "H2", "H3"}
    for index, g in enumerate(graphs):
        assert holonomy_phi3(g) == phi3_rank(g), index


def test_holonomy_lie_algebra_matches_the_rank_route():
    # a third route that needs no exterior algebra and no Falk formula, the
    # oracle for B_m and type_b3.gg, where H1 fails and the census is withheld
    cases = [type_b(m) for m in (2, 3, 4)] + [braid(m) for m in (4, 5, 6)]
    cases += [type_d(4), type_d(5)]
    for path in sorted(DATA.glob("*.gg")):
        if path.name != "bad_zero_gain.gg":
            g = load_graph(path.name)
            if validate(g).passes("H4", "H5"):
                cases.append(g)
    assert len(cases) > 8  # tests/data adds its graphs where H4 and H5 hold
    for g in cases:
        assert holonomy_phi3(g) == phi3_rank(g)
    for edges in PAPPUS_GRAPHS.values():
        assert holonomy_phi3(GainGraph.from_edge_list(3, edges)) == 20


def test_holonomy_lie_algebra_in_degree_2_matches_dim_A2():
    # phi_2 = dim h_2 = C(n, 2) - dim A^2, with h's own flats and no exterior
    # algebra, on the families, tests/data, the Pappus graphs and the regime
    # where H1-H3 fail
    cases = [type_b(m) for m in range(2, 6)] + [type_d(m) for m in range(3, 7)]
    cases += [braid(m) for m in range(4, 9)]
    cases += [load_graph(p.name) for p in sorted(DATA.glob("*.gg")) if p.name != "bad_zero_gain.gg"]
    cases += [GainGraph.from_edge_list(3, edges) for edges in PAPPUS_GRAPHS.values()]
    cases += regime_graphs(random.Random(SEED_HOLONOMY), 40)
    checked = 0
    for g in cases:
        if validate(g).passes("H4", "H5"):
            assert holonomy_dim2(g) == comb(g.n, 2) - exterior.rank_fields(g.n, flats(g)).dim_A2
            checked += 1
    assert checked > 60
