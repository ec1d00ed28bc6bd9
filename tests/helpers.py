"""Shared test utilities, including independent circle and rank oracles.

The circle oracle enumerates circles by depth-first closed walks over
vertex-simple paths, a different characterization from the library's
degree-2 subset scan, so the two can check each other.  The rank oracle,
:func:`fraction_rank`, eliminates over ``fractions.Fraction`` and shares no
code with the library's fraction-free :func:`falkkit.exterior.rank`.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Mapping

from falkkit.graphs import GainGraph, parse, random_gain_graph

DATA = Path(__file__).parent / "data"


def load_graph(name: str) -> GainGraph:
    return parse((DATA / name).read_text())


def braid(m: int) -> GainGraph:
    """K_m with every gain 1: the braid arrangement."""
    return GainGraph.from_edge_list(m, [(u, v, 1) for u, v in itertools.combinations(range(1, m + 1), 2)])


def _signed_pairs(m: int) -> list[tuple[int, int, int]]:
    return [(u, v, s) for u, v in itertools.combinations(range(1, m + 1), 2) for s in (1, -1)]


def type_d(m: int) -> GainGraph:
    """K_m with a +1 and a -1 link on every pair: the type D_m arrangement."""
    return GainGraph.from_edge_list(m, _signed_pairs(m))


def type_b(m: int) -> GainGraph:
    """type_d(m) plus an unbalanced loop at every vertex: the type B_m arrangement."""
    return GainGraph.from_edge_list(m, _signed_pairs(m) + [(v, v, 2) for v in range(1, m + 1)])


def seeded_graphs(count: int, seed: int, **kwargs) -> list[GainGraph]:
    rng = random.Random(seed)
    return [random_gain_graph(rng, **kwargs) for _ in range(count)]


def enriched_pattern_host(rng: random.Random, reference: GainGraph, max_tries: int = 200):
    """Random H1-H5 host containing a switched copy of a reference pattern.

    Returns None when rejection sampling fails (some patterns tolerate few
    additions before a hypothesis breaks).
    """
    from falkkit.graphs import RANDOM_GAINS, switch, validate

    for _ in range(max_tries):
        lam = {v: rng.choice(RANDOM_GAINS) for v in reference.vertices}
        base = switch(reference, lam)
        ell = reference.num_vertices + rng.randrange(0, 3)
        triples = [(e.tail, e.head, e.gain) for e in base.edges]
        for _ in range(rng.randrange(0, 5)):
            triples.append(
                (rng.randrange(1, ell + 1), rng.randrange(1, ell + 1), rng.choice(RANDOM_GAINS))
            )
        g = GainGraph.from_edge_list(ell, triples)
        if validate(g).all_pass:
            return g
    return None


def brute_circle_sets(g: GainGraph) -> set[frozenset[int]]:
    """Every circle's edge set, via closed vertex-simple walks."""
    circles: set[frozenset[int]] = set()
    for e in g.edges:
        if e.is_loop:
            circles.add(frozenset({e.id}))

    def walk(start: int, current: int, used: frozenset[int], visited: frozenset[int]):
        for e in g.edges:
            if e.is_loop or e.id in used or current not in (e.tail, e.head):
                continue
            nxt = e.other_end(current)
            if nxt == start and used:
                circles.add(used | {e.id})
            elif nxt not in visited:
                walk(start, nxt, used | {e.id}, visited | {nxt})

    for start in g.incident_vertices:
        walk(start, start, frozenset(), frozenset({start}))
    return circles


def proportional(a, b) -> bool:
    """Exact projective equality of two coefficient vectors."""
    if len(a) != len(b):
        return False
    if all(x == 0 for x in a) or all(y == 0 for y in b):
        return False
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            if a[i] * b[j] != a[j] * b[i]:
                return False
    return all((x == 0) == (y == 0) for x, y in zip(a, b))


def fraction_rank(rows: Iterable[Mapping]) -> int:
    """Exact rank of sparse rational rows keyed by comparable column labels."""
    pivots: dict = {}
    found = 0
    for row in rows:
        work = {k: Fraction(v) for k, v in row.items() if v}
        while work:
            lead = min(work)
            pivot = pivots.get(lead)
            if pivot is None:
                inv = 1 / work[lead]
                pivots[lead] = {k: v * inv for k, v in work.items()}
                found += 1
                break
            coeff = work[lead]
            for k, v in pivot.items():
                value = work.get(k, 0) - coeff * v
                if value:
                    work[k] = value
                else:
                    work.pop(k, None)
    return found
