"""Gain graph data model: parsing, validation, and the circles of small graphs.

A gain graph is a finite multigraph (loops and parallel edges allowed) whose
edges carry nonzero rational gains.  Reversing an edge inverts its gain, so
the stored (tail, head) orientation is bookkeeping only; every operation in
this package is invariant under reorientation.  All arithmetic is exact.

A graph is held as integer rows ``(id, tail, head, p, q)``, one per edge,
its gain p/q reduced with q > 0 (:data:`Row`), and by nothing else.
:func:`parse` reads each edge line into one, with one ``gcd`` per distinct
gain token; the constructor ``GainGraph(num_vertices, edges)`` is the one
place a graph built from edges is checked, and it coerces each gain with
:func:`as_gain`, which refuses a zero gain.  The reduced pair decides every
balance the library needs.  A graph's link bundles, loops, gain groups and
edge ends hold edge ids and come from one pass over its rows in id order
(:func:`_bundle_index`), made on the first read of any of them, whatever
built the graph and in whatever order a file lists them.  The
:class:`Edge` objects of :attr:`GainGraph.edges`, with
``fractions.Fraction`` gains, are built from the rows on their first read,
which no stage of :func:`falkkit.falk.verify` makes.

Hypotheses H1..H5 checked by :func:`validate`:

H1  no B2 subgraph (two parallel links plus a loop at each endpoint),
H2  no loop at an endpoint of a triple parallel bundle (a 3-edge theta),
H3  parallel multiplicity at most 3,
H4  every loop and every 2-circle is unbalanced,
H5  at most one loop per vertex.

:data:`NEEDS` says which of them each stage needs: H4 and H5 make the
hyperplanes pairwise distinct, as the rank-2 flats and all built on them
need, and the combinatorial invariant formula needs all five.
:meth:`ValidationReport.require` is the one hypothesis gate: every gated
entry point hands it its graph's report and its stage, and it raises
:class:`HypothesisError` naming what that stage needs and the graph fails.

:func:`all_circles_small` lists every circle of a pattern-sized graph with
its balance (a circle is balanced when the product of the gains along it is
1).  Neither route of the invariant needs it: they read only the dependent
triples.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, gcd
from typing import Iterable, NamedTuple, Sequence, Union

GainLike = Union[Fraction, int, str]

#: largest edge count accepted by the exhaustive circle enumerator
MAX_CIRCLE_EDGES = 12

HYPOTHESES = ("H1", "H2", "H3", "H4", "H5")
#: the hypotheses each gated stage needs (:meth:`ValidationReport.require`)
NEEDS = {"flats": ("H4", "H5"), "census": HYPOTHESES}

HYPOTHESIS_LABELS = {
    "H1": "no B2 subgraph",
    "H2": "no loop on a 3-edge theta bundle",
    "H3": "parallel multiplicity at most 3",
    "H4": "loops and 2-circles unbalanced",
    "H5": "at most one loop per vertex",
}

#: a rank-2 flat: the increasing edge ids of its hyperplanes
Flat = tuple[int, ...]

#: an edge as a graph holds it: ``(id, tail, head, p, q)``, its gain p/q
#: reduced with q > 0
Row = tuple[int, int, int, int, int]


class FlatIndex(NamedTuple):
    """The rank-2 flats of size >= 3 (:func:`falkkit.patterns.flats`) by the
    vertices they cover: ``by_verts[vs]`` the sorted flats on the two or
    three sorted vertices ``vs``, ``ends[a]`` the ends of each edge ``a``,
    as :meth:`Edge.ends` gives them, and ``slot[a]`` the place of each link
    ``a`` of a bundle of two or more links in the order of their gains, read
    from the bundle's lower end: 0 for the smallest.  Single links and loops
    have no entry and are read as slot 0."""

    by_verts: dict[tuple[int, ...], tuple[Flat, ...]]
    ends: dict[int, tuple[int, int]]
    slot: dict[int, int]


class GraphFormatError(ValueError):
    """Raised for malformed graph files."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class GraphTooLargeError(ValueError):
    """Raised when a graph exceeds a documented size bound of a computation."""


class HypothesisError(ValueError):
    """A refused computation: ``failing`` names every failing hypothesis,
    ``unmet`` those of them the refused stage needs."""

    def __init__(self, failing: tuple[str, ...], unmet: tuple[str, ...]):
        self.failing = failing
        self.unmet = unmet
        super().__init__("hypotheses violated: " + ", ".join(failing))


def as_gain(value: GainLike) -> Fraction:
    """Coerce to an exact nonzero rational (gains live in Q*); a
    ``Fraction`` passes through unchanged."""
    gain = value if isinstance(value, Fraction) else Fraction(value)
    if not gain:
        raise ValueError("gain must be a nonzero rational")
    return gain


@dataclass(frozen=True)
class Edge:
    """Oriented edge with a nonzero rational gain.

    ``tail == head`` marks a loop.  The reversed edge
    ``(head, tail, 1/gain)`` denotes the same underlying edge.  ``gain`` is
    held as given: :class:`GainGraph` coerces it with :func:`as_gain`, and
    every edge of :attr:`GainGraph.edges` holds a ``Fraction``.
    """

    id: int
    tail: int
    head: int
    gain: GainLike

    @property
    def is_loop(self) -> bool:
        return self.tail == self.head

    def ends(self) -> tuple[int, int]:
        """Unordered endpoints, smaller vertex first."""
        if self.tail <= self.head:
            return (self.tail, self.head)
        return (self.head, self.tail)


class _Bundles(NamedTuple):
    """The maps of a graph's edge ids that :func:`_bundle_index` builds in
    one pass, and the ids of its balanced loops (gain 1)."""

    link_map: dict[tuple[int, int], tuple[int, ...]]
    loop_map: dict[int, tuple[int, ...]]
    gain_groups: dict[tuple[int, int], dict[tuple[int, int], list[int]]]
    ends: dict[int, tuple[int, int]]
    balanced_loops: set[int]


def _bundle_index(rows: Iterable[Row]) -> _Bundles:
    """Group the ids of ``rows`` into bundles, loops and gain groups, and
    record each edge's ends, in one pass in the order given (by id in every
    graph :func:`parse` or :meth:`GainGraph.from_edge_list` makes).  So the
    bundles, the loop sets and each bundle's gain groups come in the order
    of their first edges, and each holds its edge ids in that order.  The
    gains are reduced, so a loop is balanced when p == q."""
    links: dict[tuple[int, int], list[int]] = {}
    loops: dict[int, list[int]] = {}
    groups: dict[tuple[int, int], dict[tuple[int, int], list[int]]] = {}
    ends: dict[int, tuple[int, int]] = {}
    balanced: set[int] = set()
    for i, t, h, p, q in rows:
        if t < h:
            pair, pq = (t, h), (p, q)
        elif t > h:  # read from the lower end h, the gain p/q is q/p
            pair, pq = (h, t), (q, p) if p > 0 else (-q, -p)
        else:
            ends[i] = (t, t)
            if p == q:
                balanced.add(i)
            if t in loops:
                loops[t].append(i)
            else:
                loops[t] = [i]
            continue
        ends[i] = pair
        by_gain = groups.get(pair)
        if by_gain is None:
            links[pair] = [i]
            groups[pair] = {pq: [i]}
            continue
        links[pair].append(i)
        group = by_gain.get(pq)
        if group is None:
            by_gain[pq] = [i]
        else:
            group.append(i)
    return _Bundles(
        {pair: tuple(ids) for pair, ids in links.items()},
        {v: tuple(ids) for v, ids in loops.items()},
        groups,
        ends,
        balanced,
    )


@dataclass(frozen=True, init=False)
class GainGraph:
    """Immutable multigraph on vertices 1..num_vertices with edge ids 1..n.

    It holds one :data:`Row` per edge, in the order the edges were given,
    and nothing else: :attr:`edges` is built from the rows on its first
    read, whatever built the graph.  Two graphs are equal when their vertex
    counts and rows are, which is when their edge tuples are.
    """

    num_vertices: int
    _rows: tuple[Row, ...]

    def __init__(self, num_vertices: int, edges: Iterable[Edge]):
        """The one place a graph built from edges is checked: each gain is
        coerced with :func:`as_gain`, which refuses a zero gain, the ids
        must be 1..n and the ends in 1..num_vertices."""
        if num_vertices < 1:
            raise ValueError("a gain graph needs at least one vertex")
        rows = tuple((e.id, e.tail, e.head, *as_gain(e.gain).as_integer_ratio()) for e in edges)
        if sorted(row[0] for row in rows) != list(range(1, len(rows) + 1)):
            raise ValueError("edge ids must be exactly 1..n with no repeats")
        for i, t, h, _, _ in rows:
            if not (1 <= t <= num_vertices and 1 <= h <= num_vertices):
                raise ValueError(f"edge {i} touches a vertex outside 1..{num_vertices}")
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "_rows", rows)

    @classmethod
    def _of_rows(cls, num_vertices: int, rows: tuple[Row, ...]) -> "GainGraph":
        """The graph of ``rows``, with none of ``__init__``'s checks: the
        caller has made them (ids 1..n, ends in 1..num_vertices, num_vertices
        >= 1) and reduced every gain."""
        g = object.__new__(cls)
        object.__setattr__(g, "num_vertices", num_vertices)
        object.__setattr__(g, "_rows", rows)
        return g

    @classmethod
    def from_edge_list(
        cls, num_vertices: int, triples: Iterable[tuple[int, int, GainLike]]
    ) -> "GainGraph":
        """Build from ``(tail, head, gain)`` triples; ids are assigned 1..n in
        order, and the constructor checks them."""
        edges = (Edge(i, t, h, gain) for i, (t, h, gain) in enumerate(triples, start=1))
        return cls(num_vertices, edges)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges in the order of the rows, gains as ``Fraction`` s."""
        return tuple(Edge(i, t, h, Fraction(p, q)) for i, t, h, p, q in self._rows)

    @property
    def n(self) -> int:
        return len(self._rows)

    @property
    def vertices(self) -> range:
        return range(1, self.num_vertices + 1)

    @cached_property
    def _bundles(self) -> _Bundles:
        return _bundle_index(self._rows)

    # the maps below read the one result of _bundle_index, built on first read

    @property
    def loop_map(self) -> dict[int, tuple[int, ...]]:
        """Loop ids grouped by vertex."""
        return self._bundles.loop_map

    @property
    def link_map(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Link ids grouped by unordered endpoint pair (u < v)."""
        return self._bundles.link_map

    @property
    def gain_groups(self) -> dict[tuple[int, int], dict[tuple[int, int], list[int]]]:
        """Each bundle's link ids (u < v) grouped by their gain read from u,
        as its reduced (numerator, denominator) with a positive denominator.

        Two links of a bundle have one hyperplane exactly when they share a
        group (H4).  The groups come in the order of their first links, so
        the first holds the bundle's first link.
        """
        return self._bundles.gain_groups

    @property
    def edge_ends(self) -> dict[int, tuple[int, int]]:
        """The ends of each edge by id, as :meth:`Edge.ends` gives them."""
        return self._bundles.ends

    def loops_at(self, v: int) -> tuple[int, ...]:
        return self.loop_map.get(v, ())

    @cached_property
    def incident_vertices(self) -> tuple[int, ...]:
        seen = {v for _, t, h, _, _ in self._rows for v in (t, h)}
        return tuple(sorted(seen))


# ---------------------------------------------------------------------------
# file format


def _parse_int(token: str, what: str, line: int) -> int:
    """The only integer syntax in graph files: one optional sign, then the
    ASCII digits 0-9.  ``int()`` alone would also take ``1_0`` and non-ASCII
    digits such as full-width ones, and ``isdigit()`` alone takes ``²``."""
    digits = token[1:] if token[:1] in ("+", "-") else token
    if not (digits and digits.isascii() and digits.isdigit()):
        raise GraphFormatError(f"{what} must be an integer, got {token!r}", line)
    try:
        return int(token)
    except ValueError:  # more digits than the interpreter converts
        raise GraphFormatError(f"{what} has too many digits ({len(digits)})", line) from None


def _parse_gain(token: str, line: int) -> tuple[int, int]:
    """The gain ``token`` as its reduced (p, q), q > 0."""
    num, sep, den = token.partition("/")
    # int() takes a token that is ASCII, holds no "_" and no whitespace (no
    # token does) exactly when it is [+-]?[0-9]+
    if token.isascii() and "_" not in token:
        try:
            p, q = int(num), int(den) if sep else 1
        except ValueError:
            pass
        else:
            if p and q > 0:
                d = gcd(p, q)
                return (p // d, q // d) if d != 1 else (p, q)
    # any other token is malformed: name its first fault in the grammar's
    # order; a token whose parts are integers with q > 0 got here for p = 0
    _parse_int(num, "gain numerator", line)
    q = _parse_int(den, "gain denominator", line) if sep else 1
    if q == 0:
        raise GraphFormatError("zero denominator in gain", line)
    if q < 0:
        raise GraphFormatError("gain denominator must be positive", line)
    raise GraphFormatError("zero gain", line)


def parse(text: str) -> GainGraph:
    """Parse the line-oriented graph format.

    Blank lines and ``#`` comments are ignored.  The first significant line is
    ``graph <V>`` with V >= 1, followed by one ``edge <id> <tail> <head> <gain>``
    line per edge (ids 1..n in any order, gains written ``p`` or ``p/q``).
    Every integer is ASCII: an optional sign, then the digits 0-9.  Lines
    end at ``\\n``, ``\\r\\n`` and ``\\r`` only, as a text-mode ``open`` reads
    them; the other line boundaries of :meth:`str.splitlines` (``\\v``,
    ``\\f``, ``\\x1c``-``\\x1e``, U+0085, U+2028, U+2029) are whitespace
    inside a line.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    num_vertices: int | None = None
    rows: dict[int, Row] = {}
    gains: dict[str, tuple[int, int]] = {}  # one reduced (p, q) per distinct gain token
    for lineno, raw in enumerate(text.split("\n"), start=1):
        fields = raw.split()  # splits on the whitespace str.strip() strips
        if not fields or fields[0][0] == "#":
            continue
        if num_vertices is None:
            if fields[0] != "graph" or len(fields) != 2:
                raise GraphFormatError("expected 'graph <V>' header", lineno)
            num_vertices = _parse_int(fields[1], "vertex count", lineno)
            if num_vertices < 1:
                raise GraphFormatError("vertex count must be at least 1", lineno)
            continue
        if len(fields) != 5 or fields[0] != "edge":
            raise GraphFormatError("expected 'edge <id> <tail> <head> <gain>'", lineno)
        _, id_token, tail_token, head_token, gain_token = fields
        unsigned = id_token + tail_token + head_token
        try:
            # the usual line: three unsigned ASCII numbers, read directly
            if not (unsigned.isascii() and unsigned.isdigit()):
                raise ValueError
            edge_id, tail, head = int(id_token), int(tail_token), int(head_token)
        except ValueError:  # a sign, a malformed token or too many digits
            edge_id = _parse_int(id_token, "edge id", lineno)
            tail = _parse_int(tail_token, "tail vertex", lineno)
            head = _parse_int(head_token, "head vertex", lineno)
        pq = gains.get(gain_token)
        if pq is None:
            pq = gains[gain_token] = _parse_gain(gain_token, lineno)
        if edge_id in rows:
            raise GraphFormatError(f"duplicate edge id {edge_id}", lineno)
        if not (1 <= tail <= num_vertices and 1 <= head <= num_vertices):
            raise GraphFormatError(f"vertex out of range 1..{num_vertices}", lineno)
        p, q = pq
        rows[edge_id] = (edge_id, tail, head, p, q)
    if num_vertices is None:
        raise GraphFormatError("missing 'graph <V>' header")
    # n distinct ids are 1..n exactly when none lies outside 1..n
    n = len(rows)
    if rows and not (min(rows) >= 1 and max(rows) <= n):
        raise GraphFormatError("edge ids are not contiguous 1..n")
    # every check of GainGraph.__init__ is made above
    return GainGraph._of_rows(num_vertices, tuple(map(rows.__getitem__, range(1, n + 1))))


def serialize(g: GainGraph) -> str:
    """Inverse of :func:`parse`; edges sorted by id, gains in reduced form."""
    lines = [f"graph {g.num_vertices}"]
    for e in sorted(g.edges, key=lambda e: e.id):
        lines.append(f"edge {e.id} {e.tail} {e.head} {e.gain}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# hypothesis checks


#: most witnesses a verdict lists per hypothesis; it counts all of them
MAX_WITNESSES = 100


@dataclass(frozen=True)
class Verdict:
    """One hypothesis: whether it holds, and the edge sets that break it.

    ``count`` is the number of witnesses and ``witnesses`` lists at most
    :data:`MAX_WITNESSES` of them, sorted.
    """

    passed: bool
    witnesses: tuple[frozenset[int], ...] = ()
    count: int = 0


#: the verdict of every hypothesis that holds, made once
_HOLDS = Verdict(True)


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
        return list(zip(HYPOTHESES, (self.h1, self.h2, self.h3, self.h4, self.h5)))

    @property
    def all_pass(self) -> bool:
        return not self.failing()

    def failing(self) -> tuple[str, ...]:
        return tuple(name for name, v in self.items() if not v.passed)

    def passes(self, *names: str) -> bool:
        verdicts = (self.h1, self.h2, self.h3, self.h4, self.h5)
        return all(verdicts[HYPOTHESES.index(name)].passed for name in names)

    def require(self, stage: str) -> None:
        """Raise :class:`HypothesisError` when a hypothesis that ``stage``
        needs (:data:`NEEDS`) fails in this report."""
        failing = self.failing()
        unmet = tuple(name for name in failing if name in NEEDS[stage])
        if unmet:
            raise HypothesisError(failing, unmet)


def validate(g: GainGraph) -> ValidationReport:
    """Check hypotheses H1..H5; never raises, failures carry witnesses.

    A bundle of b links with l_u and l_v loops at its ends has
    C(b,2)*l_u*l_v H1 witnesses and C(b,3)*(l_u+l_v) H2 witnesses, which
    grow with the fourth power of the input.  So every witness is counted
    by such a closed form first, and only the first :data:`MAX_WITNESSES`
    per hypothesis are built, bundle by bundle in vertex-pair order, then
    loop by loop in vertex order, each bundle's witnesses in edge-id order.
    When there are no more than that, the list is complete.
    """
    found: dict[str, list[frozenset[int]]] = {name: [] for name in HYPOTHESES}
    counts = dict.fromkeys(HYPOTHESES, 0)

    def add(name: str, count: int, witnesses: Iterable[frozenset[int]]) -> None:
        counts[name] += count
        room = MAX_WITNESSES - len(found[name])
        if room > 0:
            found[name].extend(itertools.islice(witnesses, room))

    links = g.link_map
    # only a bundle of two or more links has a witness
    for u, v in sorted([pair for pair, bundle in links.items() if len(bundle) > 1]):
        bundle = links[u, v]
        b = len(bundle)
        at_u, at_v = g.loops_at(u), g.loops_at(v)
        if at_u and at_v:
            add("H1", comb(b, 2) * len(at_u) * len(at_v), (
                frozenset({e, f, lu, lv})
                for e, f in itertools.combinations(bundle, 2) for lu in at_u for lv in at_v
            ))
        loops = at_u + at_v
        if b >= 3 and loops:
            add("H2", comb(b, 3) * len(loops), (
                frozenset({x, y, z, loop})
                for x, y, z in itertools.combinations(bundle, 3) for loop in loops
            ))
        if b >= 4:
            add("H3", 1, [frozenset(bundle)])
        # a balanced 2-circle is a pair of links with one gain
        for group in g.gain_groups[u, v].values():
            if len(group) > 1:
                add("H4", comb(len(group), 2), map(frozenset, itertools.combinations(group, 2)))

    balanced_loops = g._bundles.balanced_loops
    for v, loops in sorted(g.loop_map.items()):
        balanced = [i for i in loops if i in balanced_loops]
        if balanced:
            add("H4", len(balanced), (frozenset({i}) for i in balanced))
        if len(loops) >= 2:
            add("H5", 1, [frozenset(loops)])

    return ValidationReport(*(
        Verdict(False, tuple(sorted(found[name], key=sorted)), counts[name])
        if counts[name] else _HOLDS
        for name in HYPOTHESES
    ))


# ---------------------------------------------------------------------------
# circles and balance


def _trace_circle(edges: Sequence[Edge]) -> bool | None:
    """Walk the edge set if it is a circle: whether the circle is balanced
    (its gain is 1), or None when the edges form no circle.

    The product of the gains picked up along the walk is 1 or not whatever
    the start and direction, because the gain group is abelian.
    """
    degree: dict[int, int] = defaultdict(int)
    incident: dict[int, list[Edge]] = defaultdict(list)
    for e in edges:
        for v in (e.tail, e.head):  # a loop counts twice at its vertex
            degree[v] += 1
            incident[v].append(e)
    if any(d != 2 for d in degree.values()):
        return None
    start = min(degree)
    current = start
    used: set[int] = set()
    gain = Fraction(1)
    while True:
        options = [e for e in incident[current] if e.id not in used]
        if not options:
            break
        e = min(options, key=lambda e: e.id)
        used.add(e.id)
        if current == e.tail:
            gain *= e.gain
            current = e.head
        else:
            gain /= e.gain
            current = e.tail
    if current != start or len(used) != len(edges):
        return None
    return gain == 1


def all_circles_small(g: GainGraph) -> list[tuple[frozenset[int], bool]]:
    """Every circle of every length as ``(edge ids, balanced)``, by exhaustion
    over edge subsets, sorted by length and then by sorted edge ids.

    Only for pattern-sized graphs; raises :class:`GraphTooLargeError` above
    :data:`MAX_CIRCLE_EDGES` edges.
    """
    if g.n > MAX_CIRCLE_EDGES:
        raise GraphTooLargeError(
            f"exhaustive circle enumeration limited to {MAX_CIRCLE_EDGES} edges, got {g.n}"
        )
    out: list[tuple[frozenset[int], bool]] = []
    for size in range(1, g.n + 1):
        for subset in itertools.combinations(g.edges, size):
            balanced = _trace_circle(subset)
            if balanced is not None:
                out.append((frozenset(e.id for e in subset), balanced))
    return sorted(out, key=lambda c: (len(c[0]), tuple(sorted(c[0]))))
