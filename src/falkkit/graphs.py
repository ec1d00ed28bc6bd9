"""Gain graph data model: parsing, validation, circles, balance, switching.

A gain graph is a finite multigraph (loops and parallel edges allowed) whose
edges carry nonzero rational gains.  Reversing an edge inverts its gain, so
the stored (tail, head) orientation is bookkeeping only; every operation in
this package is invariant under reorientation.  Gains are
``fractions.Fraction`` values and all arithmetic is exact.

Hypotheses H1..H5 checked by :func:`validate`:

H1  no B2 subgraph (two parallel links plus a loop at each endpoint),
H2  no loop at an endpoint of a triple parallel bundle (a 3-edge theta),
H3  parallel multiplicity at most 3,
H4  every loop and every 2-circle is unbalanced,
H5  at most one loop per vertex.

H4 and H5 are standing assumptions for the hyperplane realization (they make
the hyperplanes pairwise distinct); H1-H3 additionally gate the combinatorial
invariant formula.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence, Union

GainLike = Union[Fraction, int, str]

#: largest edge count accepted by the exhaustive circle enumerator
MAX_CIRCLE_EDGES = 12

HYPOTHESES = ("H1", "H2", "H3", "H4", "H5")

HYPOTHESIS_LABELS = {
    "H1": "no B2 subgraph",
    "H2": "no loop on a 3-edge theta bundle",
    "H3": "parallel multiplicity at most 3",
    "H4": "loops and 2-circles unbalanced",
    "H5": "at most one loop per vertex",
}

#: gain pool used by the reproducible random-graph generator
RANDOM_GAINS = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(-2),
    Fraction(3),
    Fraction(-3),
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2, 3),
)


class GraphFormatError(ValueError):
    """Raised for malformed graph files."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class CircleError(ValueError):
    """Raised when an edge sequence is not a circle of the graph."""


class GraphTooLargeError(ValueError):
    """Raised when a graph exceeds an exhaustive enumeration bound."""


def as_gain(value: GainLike) -> Fraction:
    """Coerce to an exact nonzero rational (gains live in Q*)."""
    gain = Fraction(value)
    if gain == 0:
        raise ValueError("gain must be a nonzero rational")
    return gain


@dataclass(frozen=True)
class Edge:
    """Oriented edge with a nonzero rational gain.

    ``tail == head`` marks a loop.  The reversed edge
    ``(head, tail, 1/gain)`` denotes the same underlying edge.
    """

    id: int
    tail: int
    head: int
    gain: Fraction

    def __post_init__(self):
        object.__setattr__(self, "gain", as_gain(self.gain))

    @property
    def is_loop(self) -> bool:
        return self.tail == self.head

    def ends(self) -> tuple[int, int]:
        """Unordered endpoints, smaller vertex first."""
        if self.tail <= self.head:
            return (self.tail, self.head)
        return (self.head, self.tail)

    def other_end(self, v: int) -> int:
        if v == self.tail:
            return self.head
        if v == self.head:
            return self.tail
        raise ValueError(f"vertex {v} is not an end of edge {self.id}")

    def gain_from(self, v: int) -> Fraction:
        """Gain picked up when traversing the edge starting at vertex ``v``."""
        if v == self.tail:
            return self.gain
        if v == self.head:
            return 1 / self.gain
        raise ValueError(f"vertex {v} is not an end of edge {self.id}")

    def reversed(self) -> "Edge":
        return Edge(self.id, self.head, self.tail, 1 / self.gain)


@dataclass(frozen=True)
class GainGraph:
    """Immutable multigraph on vertices 1..num_vertices with edge ids 1..n."""

    num_vertices: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        if self.num_vertices < 1:
            raise ValueError("a gain graph needs at least one vertex")
        ids = sorted(e.id for e in self.edges)
        if ids != list(range(1, len(self.edges) + 1)):
            raise ValueError("edge ids must be exactly 1..n with no repeats")
        for e in self.edges:
            if not (1 <= e.tail <= self.num_vertices and 1 <= e.head <= self.num_vertices):
                raise ValueError(
                    f"edge {e.id} touches a vertex outside 1..{self.num_vertices}"
                )

    @classmethod
    def from_edge_list(
        cls, num_vertices: int, triples: Iterable[tuple[int, int, GainLike]]
    ) -> "GainGraph":
        """Build from ``(tail, head, gain)`` triples; ids are assigned 1..n in order."""
        edges = tuple(
            Edge(i, t, h, as_gain(gain)) for i, (t, h, gain) in enumerate(triples, start=1)
        )
        return cls(num_vertices, edges)

    @property
    def n(self) -> int:
        return len(self.edges)

    @property
    def vertices(self) -> range:
        return range(1, self.num_vertices + 1)

    def edge(self, edge_id: int) -> Edge:
        try:
            return self._by_id[edge_id]
        except KeyError:
            raise KeyError(f"no edge with id {edge_id}") from None

    @cached_property
    def _by_id(self) -> dict[int, Edge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def loop_map(self) -> dict[int, tuple[Edge, ...]]:
        """Loops grouped by vertex."""
        grouped: dict[int, list[Edge]] = defaultdict(list)
        for e in self.edges:
            if e.is_loop:
                grouped[e.tail].append(e)
        return {v: tuple(es) for v, es in grouped.items()}

    @cached_property
    def link_map(self) -> dict[tuple[int, int], tuple[Edge, ...]]:
        """Links grouped by unordered endpoint pair (u < v)."""
        grouped: dict[tuple[int, int], list[Edge]] = defaultdict(list)
        for e in self.edges:
            if not e.is_loop:
                grouped[e.ends()].append(e)
        return {pair: tuple(es) for pair, es in grouped.items()}

    def loops_at(self, v: int) -> tuple[Edge, ...]:
        return self.loop_map.get(v, ())

    def links_between(self, u: int, v: int) -> tuple[Edge, ...]:
        pair = (u, v) if u <= v else (v, u)
        return self.link_map.get(pair, ())

    @cached_property
    def incident_vertices(self) -> tuple[int, ...]:
        seen = {v for e in self.edges for v in (e.tail, e.head)}
        return tuple(sorted(seen))

    def with_reversed_edge(self, edge_id: int) -> "GainGraph":
        """Same graph with one edge stored in the opposite orientation."""
        return GainGraph(
            self.num_vertices,
            tuple(e.reversed() if e.id == edge_id else e for e in self.edges),
        )


# ---------------------------------------------------------------------------
# file format


#: the only integer syntax in graph files; ``int()`` alone would also take
#: ``1_0`` and non-ASCII digits such as full-width ones
_INTEGER = r"[+-]?[0-9]+"


def _parse_int(token: str, what: str, line: int) -> int:
    if not re.fullmatch(_INTEGER, token):
        raise GraphFormatError(f"{what} must be an integer, got {token!r}", line)
    try:
        return int(token)
    except ValueError:  # more digits than the interpreter converts
        digits = len(token.lstrip("+-"))
        raise GraphFormatError(f"{what} has too many digits ({digits})", line) from None


def _parse_gain(token: str, line: int) -> Fraction:
    num, sep, den = token.partition("/")
    p = _parse_int(num, "gain numerator", line)
    if sep:
        q = _parse_int(den, "gain denominator", line)
        if q == 0:
            raise GraphFormatError("zero denominator in gain", line)
        if q < 0:
            raise GraphFormatError("gain denominator must be positive", line)
    else:
        q = 1
    if p == 0:
        raise GraphFormatError("zero gain", line)
    return Fraction(p, q)


def parse(text: str) -> GainGraph:
    """Parse the line-oriented graph format.

    Blank lines and ``#`` comments are ignored.  The first significant line is
    ``graph <V>`` with V >= 1, followed by one ``edge <id> <tail> <head> <gain>``
    line per edge (ids 1..n in any order, gains written ``p`` or ``p/q``).
    Every integer is ASCII: an optional sign, then the digits 0-9.
    """
    num_vertices: int | None = None
    edges: dict[int, Edge] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if num_vertices is None:
            if fields[0] != "graph" or len(fields) != 2:
                raise GraphFormatError("expected 'graph <V>' header", lineno)
            num_vertices = _parse_int(fields[1], "vertex count", lineno)
            if num_vertices < 1:
                raise GraphFormatError("vertex count must be at least 1", lineno)
            continue
        if fields[0] != "edge" or len(fields) != 5:
            raise GraphFormatError("expected 'edge <id> <tail> <head> <gain>'", lineno)
        edge_id = _parse_int(fields[1], "edge id", lineno)
        tail = _parse_int(fields[2], "tail vertex", lineno)
        head = _parse_int(fields[3], "head vertex", lineno)
        gain = _parse_gain(fields[4], lineno)
        if edge_id in edges:
            raise GraphFormatError(f"duplicate edge id {edge_id}", lineno)
        if not (1 <= tail <= num_vertices and 1 <= head <= num_vertices):
            raise GraphFormatError(f"vertex out of range 1..{num_vertices}", lineno)
        edges[edge_id] = Edge(edge_id, tail, head, gain)
    if num_vertices is None:
        raise GraphFormatError("missing 'graph <V>' header")
    if sorted(edges) != list(range(1, len(edges) + 1)):
        raise GraphFormatError("edge ids are not contiguous 1..n")
    return GainGraph(num_vertices, tuple(edges[i] for i in sorted(edges)))


def serialize(g: GainGraph) -> str:
    """Inverse of :func:`parse`; edges sorted by id, gains in reduced form."""
    lines = [f"graph {g.num_vertices}"]
    for e in sorted(g.edges, key=lambda e: e.id):
        lines.append(f"edge {e.id} {e.tail} {e.head} {e.gain}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# hypothesis checks


@dataclass(frozen=True)
class Verdict:
    passed: bool
    witnesses: tuple[frozenset[int], ...] = ()


@dataclass(frozen=True)
class ValidationReport:
    """Per-hypothesis verdicts; a failing verdict carries witness edge sets."""

    h1: Verdict
    h2: Verdict
    h3: Verdict
    h4: Verdict
    h5: Verdict

    def verdict(self, name: str) -> Verdict:
        return getattr(self, name.lower())

    def items(self) -> list[tuple[str, Verdict]]:
        return [(name, self.verdict(name)) for name in HYPOTHESES]

    @property
    def all_pass(self) -> bool:
        return all(v.passed for _, v in self.items())

    def failing(self) -> tuple[str, ...]:
        return tuple(name for name, v in self.items() if not v.passed)

    def passes(self, *names: str) -> bool:
        return all(self.verdict(name).passed for name in names)


def _verdict(witnesses: list[frozenset[int]]) -> Verdict:
    ordered = tuple(sorted(witnesses, key=lambda w: tuple(sorted(w))))
    return Verdict(not ordered, ordered)


def validate(g: GainGraph) -> ValidationReport:
    """Check hypotheses H1..H5; never raises, failures carry witnesses.

    Every witness is listed.  A bundle of b links with l_u and l_v loops at
    its ends gives C(b,2)*l_u*l_v H1 witnesses and C(b,3)*(l_u+l_v) H2
    witnesses, so the lists grow with the fourth power of the input.
    """
    w1: list[frozenset[int]] = []
    w2: list[frozenset[int]] = []
    w3: list[frozenset[int]] = []
    w4: list[frozenset[int]] = []
    w5: list[frozenset[int]] = []

    for (u, v), bundle in sorted(g.link_map.items()):
        if len(bundle) >= 2 and g.loops_at(u) and g.loops_at(v):
            for e, f in itertools.combinations(bundle, 2):
                for lu in g.loops_at(u):
                    for lv in g.loops_at(v):
                        w1.append(frozenset({e.id, f.id, lu.id, lv.id}))
        if len(bundle) >= 3:
            loops = [l for w in (u, v) for l in g.loops_at(w)]
            for triple in itertools.combinations(bundle, 3):
                for loop in loops:
                    w2.append(frozenset({triple[0].id, triple[1].id, triple[2].id, loop.id}))
        if len(bundle) >= 4:
            w3.append(frozenset(e.id for e in bundle))
        for e, f in itertools.combinations(bundle, 2):
            if e.gain_from(u) == f.gain_from(u):
                w4.append(frozenset({e.id, f.id}))

    for v, loops in sorted(g.loop_map.items()):
        for loop in loops:
            if loop.gain == 1:
                w4.append(frozenset({loop.id}))
        if len(loops) >= 2:
            w5.append(frozenset(l.id for l in loops))

    return ValidationReport(
        h1=_verdict(w1), h2=_verdict(w2), h3=_verdict(w3), h4=_verdict(w4), h5=_verdict(w5)
    )


# ---------------------------------------------------------------------------
# circles and balance


@dataclass(frozen=True)
class Circle:
    """Closed edge walk with no repeated edge.

    Each step is ``(edge_id, forward)``; a forward step traverses the edge
    tail -> head.  For circles of length <= 3 the edge-id set determines the
    circle, so :attr:`edge_ids` doubles as a canonical key.
    """

    steps: tuple[tuple[int, bool], ...]

    @property
    def edge_ids(self) -> frozenset[int]:
        return frozenset(eid for eid, _ in self.steps)

    def __len__(self) -> int:
        return len(self.steps)


def circle_gain(g: GainGraph, circle: Circle) -> Fraction:
    """Product of edge gains along the traversal.

    Whether the result equals 1 does not depend on the start point or the
    traversal direction, because the gain group is abelian.
    """
    if not circle.steps:
        raise CircleError("empty circle")
    ids = [eid for eid, _ in circle.steps]
    if len(set(ids)) != len(ids):
        raise CircleError("repeated edge in circle")
    first_id, first_fwd = circle.steps[0]
    try:
        first = g.edge(first_id)
    except KeyError as exc:
        raise CircleError(str(exc)) from None
    start = first.tail if first_fwd else first.head
    current = start
    total = Fraction(1)
    for eid, fwd in circle.steps:
        try:
            e = g.edge(eid)
        except KeyError as exc:
            raise CircleError(str(exc)) from None
        frm = e.tail if fwd else e.head
        to = e.head if fwd else e.tail
        if frm != current:
            raise CircleError("consecutive steps do not share a vertex")
        total *= e.gain if fwd else 1 / e.gain
        current = to
    if current != start:
        raise CircleError("walk does not close")
    return total


def is_balanced(g: GainGraph, circle: Circle) -> bool:
    """A circle is balanced exactly when its gain is 1."""
    return circle_gain(g, circle) == 1


def _trace_circle(edges: Sequence[Edge]) -> Circle | None:
    """Trace the unique closed walk if the edge set is a circle, else None."""
    degree: dict[int, int] = defaultdict(int)
    incident: dict[int, list[Edge]] = defaultdict(list)
    for e in edges:
        if e.is_loop:
            degree[e.tail] += 2
            incident[e.tail].append(e)
        else:
            degree[e.tail] += 1
            degree[e.head] += 1
            incident[e.tail].append(e)
            incident[e.head].append(e)
    if any(d != 2 for d in degree.values()):
        return None
    start = min(degree)
    current = start
    used: set[int] = set()
    steps: list[tuple[int, bool]] = []
    while True:
        options = [e for e in incident[current] if e.id not in used]
        if not options:
            break
        e = min(options, key=lambda e: e.id)
        used.add(e.id)
        if e.is_loop:
            steps.append((e.id, True))
        else:
            steps.append((e.id, e.tail == current))
            current = e.other_end(current)
    if current != start or len(used) != len(edges):
        return None
    return Circle(tuple(steps))


def all_circles_small(g: GainGraph, max_edges: int = MAX_CIRCLE_EDGES) -> list[Circle]:
    """Every circle of every length, by exhaustion over edge subsets.

    Only for pattern-sized graphs; raises :class:`GraphTooLargeError` above
    ``max_edges`` edges.
    """
    if g.n > max_edges:
        raise GraphTooLargeError(
            f"exhaustive circle enumeration limited to {max_edges} edges, got {g.n}"
        )
    out: list[Circle] = []
    for size in range(1, g.n + 1):
        for subset in itertools.combinations(g.edges, size):
            circle = _trace_circle(subset)
            if circle is not None:
                out.append(circle)
    return sorted(out, key=lambda c: (len(c), tuple(sorted(c.edge_ids))))


# ---------------------------------------------------------------------------
# switching


def switch(g: GainGraph, lam: Mapping[int, GainLike]) -> GainGraph:
    """Regauge gains by a vertex function: gain -> lam(tail)^-1 * gain * lam(head).

    The underlying graph and the set of balanced circles are unchanged.
    """
    table: dict[int, Fraction] = {}
    for v in g.vertices:
        if v not in lam:
            raise ValueError(f"switching function misses vertex {v}")
        value = Fraction(lam[v])
        if value == 0:
            raise ValueError(f"switching value at vertex {v} must be nonzero")
        table[v] = value
    edges = tuple(
        Edge(e.id, e.tail, e.head, e.gain * table[e.head] / table[e.tail]) for e in g.edges
    )
    return GainGraph(g.num_vertices, edges)


# ---------------------------------------------------------------------------
# reproducible random instances


def random_gain_graph(
    rng: random.Random,
    *,
    min_vertices: int = 3,
    max_vertices: int = 6,
    min_edges: int = 6,
    max_edges: int = 14,
    max_tries: int = 100_000,
) -> GainGraph:
    """Sample a gain graph satisfying H1..H5 by rejection.

    Endpoints are uniform, gains are drawn from :data:`RANDOM_GAINS`, and the
    whole candidate is resampled until every hypothesis passes, so results
    are reproducible for a fixed ``rng`` seed.
    """
    for _ in range(max_tries):
        ell = rng.randrange(min_vertices, max_vertices + 1)
        m = rng.randrange(min_edges, max_edges + 1)
        triples = [
            (rng.randrange(1, ell + 1), rng.randrange(1, ell + 1), rng.choice(RANDOM_GAINS))
            for _ in range(m)
        ]
        g = GainGraph.from_edge_list(ell, triples)
        if validate(g).all_pass:
            return g
    raise RuntimeError("random graph rejection sampling did not converge")
