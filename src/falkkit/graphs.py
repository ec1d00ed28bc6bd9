"""Gain graph data model: parsing, validation, and the circles of small graphs.

A gain graph is a finite multigraph (loops and parallel edges allowed) whose
edges carry nonzero rational gains.  Reversing an edge inverts its gain, so
the stored (tail, head) orientation is bookkeeping only; every operation in
this package is invariant under reorientation.  Gains are
``fractions.Fraction`` values and all arithmetic is exact.  A graph's link
bundles, loops, gain groups and edge ends come from one pass over its
edges in id order (:func:`_bundle_index`), made on the first read of any
of them, whatever built the graph and in whatever order a file lists them.

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
from math import comb
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


@dataclass(frozen=True, init=False)
class Edge:
    """Oriented edge with a nonzero rational gain.

    ``tail == head`` marks a loop.  The reversed edge
    ``(head, tail, 1/gain)`` denotes the same underlying edge.  ``gain``
    must be a nonzero ``Fraction``; it is not coerced here, as
    :func:`parse` and :meth:`GainGraph.from_edge_list` coerce each gain once.

    The fields live in slots, which ``__init__`` writes through their
    descriptors: the frozen dataclass's own ``__init__`` calls
    ``object.__setattr__`` once per field, 0.78 us an edge against 0.48 us
    (CPython 3.11.7).  ``__reduce__`` rebuilds an edge through ``__init__``,
    since the frozen ``__setattr__`` refuses the slot state that pickle and
    ``copy`` would set otherwise.
    """

    __slots__ = ("id", "tail", "head", "gain", "__weakref__")

    id: int
    tail: int
    head: int
    gain: Fraction

    def __init__(self, id: int, tail: int, head: int, gain: Fraction):
        _set_id(self, id)
        _set_tail(self, tail)
        _set_head(self, head)
        _set_gain(self, gain)

    def __reduce__(self):
        return (Edge, (self.id, self.tail, self.head, self.gain))

    @property
    def is_loop(self) -> bool:
        return self.tail == self.head

    def ends(self) -> tuple[int, int]:
        """Unordered endpoints, smaller vertex first."""
        if self.tail <= self.head:
            return (self.tail, self.head)
        return (self.head, self.tail)


_set_id, _set_tail, _set_head, _set_gain = (
    vars(Edge)[name].__set__ for name in ("id", "tail", "head", "gain")
)


class _Bundles(NamedTuple):
    """The maps of a graph's edges that :func:`_bundle_index` builds in one pass."""

    link_map: dict[tuple[int, int], tuple[Edge, ...]]
    loop_map: dict[int, tuple[Edge, ...]]
    gain_groups: dict[tuple[int, int], dict[tuple[int, int], list[Edge]]]
    ends: dict[int, tuple[int, int]]


def _bundle_index(edges: Iterable[Edge]) -> _Bundles:
    """Group ``edges`` into bundles, loops and gain groups, and record each
    edge's ends, in one pass in the order given (by id in every graph
    :func:`parse` or :meth:`GainGraph.from_edge_list` makes).  So the
    bundles, the loop sets and each bundle's gain groups come in the order
    of their first edges, and each holds its edges in that order."""
    links: dict[tuple[int, int], list[Edge]] = {}
    loops: dict[int, list[Edge]] = {}
    groups: dict[tuple[int, int], dict[tuple[int, int], list[Edge]]] = {}
    ends: dict[int, tuple[int, int]] = {}
    for e in edges:
        t, h = e.tail, e.head
        if t < h:
            pair, pq = (t, h), e.gain.as_integer_ratio()
        elif t > h:  # read from the lower end h, the gain p/q is q/p
            pair, (p, q) = (h, t), e.gain.as_integer_ratio()
            pq = (q, p) if p > 0 else (-q, -p)
        else:
            ends[e.id] = (t, t)
            if t in loops:
                loops[t].append(e)
            else:
                loops[t] = [e]
            continue
        ends[e.id] = pair
        by_gain = groups.get(pair)
        if by_gain is None:
            links[pair] = [e]
            groups[pair] = {pq: [e]}
            continue
        links[pair].append(e)
        group = by_gain.get(pq)
        if group is None:
            by_gain[pq] = [e]
        else:
            group.append(e)
    return _Bundles(
        {pair: tuple(es) for pair, es in links.items()},
        {v: tuple(es) for v, es in loops.items()},
        groups,
        ends,
    )


@dataclass(frozen=True)
class GainGraph:
    """Immutable multigraph on vertices 1..num_vertices with edge ids 1..n."""

    num_vertices: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        if self.num_vertices < 1:
            raise ValueError("a gain graph needs at least one vertex")
        ids = [e.id for e in self.edges]
        expected = list(range(1, len(ids) + 1))
        # parse hands its edges over in id order: sort only another order
        if ids != expected and sorted(ids) != expected:
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
        """Build from ``(tail, head, gain)`` triples; ids are assigned 1..n in
        order, and each gain is coerced with :func:`as_gain`."""
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
    def _bundles(self) -> _Bundles:
        return _bundle_index(self.edges)

    # the maps below read the one result of _bundle_index, built on first read

    @property
    def loop_map(self) -> dict[int, tuple[Edge, ...]]:
        """Loops grouped by vertex."""
        return self._bundles.loop_map

    @property
    def link_map(self) -> dict[tuple[int, int], tuple[Edge, ...]]:
        """Links grouped by unordered endpoint pair (u < v)."""
        return self._bundles.link_map

    @property
    def gain_groups(self) -> dict[tuple[int, int], dict[tuple[int, int], list[Edge]]]:
        """Each bundle's links (u < v) grouped by their gain read from u, as
        its reduced (numerator, denominator) with a positive denominator.

        Two links of a bundle have one hyperplane exactly when they share a
        group (H4).  The groups come in the order of their first links, so
        the first holds the bundle's first link.
        """
        return self._bundles.gain_groups

    @property
    def edge_ends(self) -> dict[int, tuple[int, int]]:
        """The ends of each edge by id, as :meth:`Edge.ends` gives them."""
        return self._bundles.ends

    def loops_at(self, v: int) -> tuple[Edge, ...]:
        return self.loop_map.get(v, ())

    def links_between(self, u: int, v: int) -> tuple[Edge, ...]:
        pair = (u, v) if u <= v else (v, u)
        return self.link_map.get(pair, ())

    @cached_property
    def incident_vertices(self) -> tuple[int, ...]:
        seen = {v for e in self.edges for v in (e.tail, e.head)}
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


def _parse_gain(token: str, line: int) -> Fraction:
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
                return Fraction(p, q) if q != 1 else Fraction(p)
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
    edges: dict[int, Edge] = {}
    gains: dict[str, Fraction] = {}  # one Fraction per distinct gain token
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
        gain = gains.get(gain_token)
        if gain is None:
            gain = gains[gain_token] = _parse_gain(gain_token, lineno)
        if edge_id in edges:
            raise GraphFormatError(f"duplicate edge id {edge_id}", lineno)
        if not (1 <= tail <= num_vertices and 1 <= head <= num_vertices):
            raise GraphFormatError(f"vertex out of range 1..{num_vertices}", lineno)
        edges[edge_id] = Edge(edge_id, tail, head, gain)
    if num_vertices is None:
        raise GraphFormatError("missing 'graph <V>' header")
    # n distinct ids are 1..n exactly when none lies outside 1..n
    n = len(edges)
    if edges and not (min(edges) >= 1 and max(edges) <= n):
        raise GraphFormatError("edge ids are not contiguous 1..n")
    return GainGraph(num_vertices, tuple(map(edges.__getitem__, range(1, n + 1))))


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
                frozenset({e.id, f.id, lu.id, lv.id})
                for e, f in itertools.combinations(bundle, 2) for lu in at_u for lv in at_v
            ))
        loops = at_u + at_v
        if b >= 3 and loops:
            add("H2", comb(b, 3) * len(loops), (
                frozenset({x.id, y.id, z.id, loop.id})
                for x, y, z in itertools.combinations(bundle, 3) for loop in loops
            ))
        if b >= 4:
            add("H3", 1, [frozenset(e.id for e in bundle)])
        # a balanced 2-circle is a pair of links with one gain
        for group in g.gain_groups[u, v].values():
            if len(group) > 1:
                add("H4", comb(len(group), 2), (
                    frozenset({e.id, f.id}) for e, f in itertools.combinations(group, 2)
                ))

    for v, loops in sorted(g.loop_map.items()):
        balanced = [loop.id for loop in loops if loop.gain == 1]
        if balanced:
            add("H4", len(balanced), (frozenset({i}) for i in balanced))
        if len(loops) >= 2:
            add("H5", 1, [frozenset(loop.id for loop in loops)])

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
