"""Seeded benchmark inputs and the reference values they are checked against.

Nothing here imports falkkit: the gain pool, the H1-H5 rejection test, the
random-graph sampler, the graph families and the closed forms are the
benchmark's own, so a change to the package cannot change the workload or
its expected answers.

Every workload has fixed base graphs.  The run's ``--seed`` only applies
transformations that leave phi_3 unchanged: a switching with values from the
gain pool, random edge reversals with inverted gains, and a shuffle of edge
ids.  The references therefore hold for every seed.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import comb

#: same values and order as the package's random-graph gain pool
GAIN_POOL = tuple(
    Fraction(x) for x in ("1", "-1", "2", "-2", "3", "-3", "1/2", "1/3", "2/3")
)

#: base seeds of the random families; fixed so every run sees the same graphs
SPARSE_BASE_SEED = 1707_08449
CORPUS_BASE_SEED = 1707_08450

SPARSE_SIZES = (16, 24, 32)
CORPUS_SIZE = 200
B_SIZES = (3, 4, 5, 6)
BRAID_SIZES = (9, 10, 11)
D_SIZES = (5, 6, 7)

WORKLOADS = ("census_sparse", "rank_bm", "dense_dk", "corpus_small")

Triple = tuple[int, int, Fraction]


@dataclass(frozen=True)
class Case:
    """One benchmark input and what a correct ``report --json`` must say.

    ``phi3`` is the closed-form value, or None where the only reference is
    census equals rank.  ``census`` says whether the census runs (H1-H5 all
    pass); when it does not, the census fields must be withheld for H1.
    """

    name: str
    num_vertices: int
    edges: tuple[Triple, ...]
    phi3: int | None
    census: bool


# ---------------------------------------------------------------------------
# closed forms


def braid_phi3(m: int) -> int:
    """Braid arrangement K_m: phi_3 = 2*C(m+1, 4)."""
    return 2 * comb(m + 1, 4)


def type_d_phi3(m: int) -> int:
    """Type D_m (+-K_m): phi_3 = (4m-2)*C(m, 3)."""
    return (4 * m - 2) * comb(m, 3)


def type_b_phi3(m: int) -> int:
    """Type B_m, by the Falk-Randell LCS formula for supersolvable arrangements.

    phi_3 = sum of (d^3 - d)/3 over the exponents d = 1, 3, ..., 2m-1.
    """
    return sum((d**3 - d) // 3 for d in range(1, 2 * m, 2))


# ---------------------------------------------------------------------------
# graph families


def complete(m: int, gains: tuple[int, ...]) -> list[Triple]:
    """One link per gain on every vertex pair of K_m."""
    return [
        (u, v, Fraction(g))
        for u, v in itertools.combinations(range(1, m + 1), 2)
        for g in gains
    ]


def type_b(m: int) -> list[Triple]:
    """+-K_m plus an unbalanced loop at every vertex (fails H1 for m >= 2)."""
    return complete(m, (1, -1)) + [(v, v, Fraction(2)) for v in range(1, m + 1)]


def passes_h1_h5(edges: list[Triple]) -> bool:
    """The five hypotheses, from their definitions.

    H1 no two parallel links with a loop at each end, H2 no loop at an end of
    a triple bundle, H3 multiplicity at most 3, H4 loops and 2-circles
    unbalanced, H5 at most one loop per vertex.
    """
    bundles: dict[tuple[int, int], list[Fraction]] = defaultdict(list)
    loops: dict[int, int] = defaultdict(int)
    for t, h, g in edges:
        if t == h:
            if g == 1:
                return False
            loops[t] += 1
        elif t < h:
            bundles[(t, h)].append(g)
        else:
            bundles[(h, t)].append(1 / g)
    if any(count > 1 for count in loops.values()):
        return False
    for (u, v), gains in bundles.items():
        looped = (u in loops) + (v in loops)
        if len(set(gains)) != len(gains) or len(gains) > 3:
            return False
        if len(gains) >= 2 and looped == 2:
            return False
        if len(gains) == 3 and looped:
            return False
    return True


def random_graph(
    rng: random.Random, min_vertices: int, max_vertices: int, min_edges: int, max_edges: int
) -> tuple[int, list[Triple]]:
    """Uniform endpoints, gains from the pool, resampled until H1-H5 pass.

    Draws in the same order as the package's seed-time sampler, so both give
    the same graphs for the same generator state.
    """
    for _ in range(100_000):
        ell = rng.randrange(min_vertices, max_vertices + 1)
        m = rng.randrange(min_edges, max_edges + 1)
        edges = [
            (rng.randrange(1, ell + 1), rng.randrange(1, ell + 1), rng.choice(GAIN_POOL))
            for _ in range(m)
        ]
        if passes_h1_h5(edges):
            return ell, edges
    raise RuntimeError("rejection sampling did not converge")


def base_cases(workload: str) -> list[Case]:
    """The untransformed inputs of a workload, smallest first."""
    if workload == "census_sparse":
        rng = random.Random(SPARSE_BASE_SEED)
        cases = []
        for v in SPARSE_SIZES:
            ell, edges = random_graph(rng, v, v, 2 * v, 2 * v)
            cases.append(Case(f"sparse{v}", ell, tuple(edges), None, True))
        return cases
    if workload == "rank_bm":
        return [Case(f"B{m}", m, tuple(type_b(m)), type_b_phi3(m), False) for m in B_SIZES]
    if workload == "dense_dk":
        cases = [Case(f"K{m}", m, tuple(complete(m, (1,))), braid_phi3(m), True) for m in BRAID_SIZES]
        cases += [Case(f"D{m}", m, tuple(complete(m, (1, -1))), type_d_phi3(m), True) for m in D_SIZES]
        return sorted(cases, key=lambda c: len(c.edges))
    if workload == "corpus_small":
        rng = random.Random(CORPUS_BASE_SEED)
        cases = []
        for i in range(CORPUS_SIZE):
            ell, edges = random_graph(rng, 3, 6, 6, 14)
            cases.append(Case(f"corpus{i:03d}", ell, tuple(edges), None, True))
        return cases
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# phi_3-preserving transformations


def transform(case: Case, rng: random.Random) -> Case:
    """Switch, reverse some edges and shuffle edge ids; phi_3 is unchanged.

    Switching by lam maps a gain g on (tail, head) to g*lam(head)/lam(tail),
    which keeps every circle's balance.  A reversed edge carries 1/g.  Edge
    ids only name the hyperplanes.
    """
    lam = {v: rng.choice(GAIN_POOL) for v in range(1, case.num_vertices + 1)}
    edges = []
    for t, h, g in case.edges:
        g = g * lam[h] / lam[t]
        if rng.random() < 0.5:
            t, h, g = h, t, 1 / g
        edges.append((t, h, g))
    rng.shuffle(edges)
    return Case(case.name, case.num_vertices, tuple(edges), case.phi3, case.census)


def cases(workload: str, seed: int) -> list[Case]:
    """The workload's inputs for one seed."""
    rng = random.Random(seed)
    return [transform(c, rng) for c in base_cases(workload)]


def graph_text(case: Case) -> str:
    """The graph file: ``graph <V>`` then ``edge <id> <tail> <head> <gain>``."""
    lines = [f"# {case.name}", f"graph {case.num_vertices}"]
    lines += [f"edge {i} {t} {h} {g}" for i, (t, h, g) in enumerate(case.edges, start=1)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the correctness gate


def check_report(case: Case, code: int, stdout: str) -> str | None:
    """Why a ``report --json`` result is wrong for this case, or None if right."""
    if code != 0:
        return f"exit code {code}"
    try:
        rep = json.loads(stdout)
        phi3 = rep["phi3"]
        withheld = rep["withheld"]
        n = rep["n"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable report: {exc!r}"
    if n != len(case.edges):
        return f"n = {n}, expected {len(case.edges)}"
    rank = phi3.get("rank")
    if not isinstance(rank, int):
        return f"no rank value: {phi3!r}"
    if case.phi3 is not None and rank != case.phi3:
        return f"phi3 rank = {rank}, closed form {case.phi3}"
    if case.census:
        if withheld:
            return f"withheld {sorted(withheld)} on an H1-H5 graph"
        if phi3.get("comb") != rank or phi3.get("agree") is not True:
            return f"census/rank mismatch: {phi3!r}"
    else:
        fields = ("counts", "phi3_combinatorial", "agree")
        if any("H1" not in withheld.get(f, ()) for f in fields):
            return f"census fields not withheld for H1: {withheld!r}"
        if phi3.get("comb") is not None or phi3.get("agree") is not None:
            return f"census value reported although H1 fails: {phi3!r}"
    return None
