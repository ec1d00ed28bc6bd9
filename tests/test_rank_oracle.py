"""The fraction-free :func:`exterior.rank` against the ``Fraction`` oracle.

:func:`helpers.fraction_rank` is the rational elimination the library used
before it switched to primitive integer rows; it shares no code with
:func:`exterior.rank`.  Random matrices with rational entries and dependent
rows reach pivots whose leading entry is not 1; the exact row sets of the
F3 and I^3_2 eliminations cover the rows the library really builds.

The rank route is claimed wherever H4 and H5 hold, so the regime corpus
(:func:`helpers.regime_graphs`) also has graphs where H1, H2 or H3 fails.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from falkkit import exterior
from falkkit.falk import phi3_rank
from falkkit.graphs import random_gain_graph, validate
from falkkit.patterns import triangles
from helpers import (
    braid,
    dependent_3sets,
    fraction_phi3,
    fraction_rank,
    regime_graphs,
    type_b,
    type_d,
)

SEED_MATRICES = 19680
SEED_MAIN = 20260802  # the criterion-5 corpus
SEED_REGIME = 4545
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


def checked_pivots(rows: list) -> dict:
    """The pivot rows, after checking the rank and that each row is primitive."""
    pivots = exterior._pivot_rows(rows)
    assert exterior.rank(rows) == len(pivots) == fraction_rank(rows)
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


def test_rank_clears_denominators():
    rows = [{1: Fraction(1, 2), 2: Fraction(1, 3)}, {1: 3, 2: 2}, {1: Fraction(2, 3), 3: 5}]
    assert exterior.rank(rows) == 2
    assert exterior._pivot_rows(rows) == {1: {1: 3, 2: 2}, 2: {2: 4, 3: -45}}


def recorded_rows(monkeypatch, compute) -> list[list[dict]]:
    calls = []
    real_rank = exterior.rank

    def recording(rows):
        rows = list(rows)
        calls.append(rows)
        return real_rank(rows)

    monkeypatch.setattr(exterior, "rank", recording)
    compute()
    monkeypatch.undo()
    return calls


FAMILIES = (
    [pytest.param(type_b(m), id=f"B{m}") for m in range(2, 6)]
    + [pytest.param(type_d(m), id=f"D{m}") for m in range(3, 7)]
    + [pytest.param(braid(m), id=f"K{m}") for m in range(4, 10)]
)


def check_library_rows(monkeypatch, g) -> None:
    tris = triangles(g)
    for compute in (lambda: exterior.span_F3(g.n, tris), lambda: exterior.dim_I3_2(g.n, tris)):
        (rows,) = recorded_rows(monkeypatch, compute)
        assert all(type(v) is int for row in rows for v in row.values())
        checked_pivots(rows)


@pytest.mark.parametrize("g", FAMILIES)
def test_library_rows_match_fraction_oracle_on_reflection_families(monkeypatch, g):
    check_library_rows(monkeypatch, g)


def test_library_rows_match_fraction_oracle_on_seeded_corpus(monkeypatch):
    rng = random.Random(SEED_MAIN)
    for _ in range(200):
        check_library_rows(monkeypatch, random_gain_graph(rng))


def test_rank_route_on_h4_h5_regime_corpus(monkeypatch):
    failing = set()
    for index, g in enumerate(regime_graphs(random.Random(SEED_REGIME), 60)):
        report = validate(g)
        assert report.passes("H4", "H5"), index
        failing.update(report.failing())
        check_library_rows(monkeypatch, g)
        assert {t.edge_ids for t in triangles(g)} == dependent_3sets(g), index
        assert phi3_rank(g) == fraction_phi3(g), index
    assert failing == {"H1", "H2", "H3"}
