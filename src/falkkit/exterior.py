"""Exact exterior algebra in degrees 2 and 3 over an edge ground set.

The rank route needs three numbers: dim A^2, dim I^3_2 (the degree-3 slice
of the ideal generated by the boundaries of the dependent triples) and the
size and rank of F3 = {e_t * boundary(e_S) : t not in S}.  All of them are
read off the rank-2 flats of the arrangement and the ends of their edges,
with one elimination per distinct group of the global rows, and Falk's
formula turns them into phi3 (:func:`rank_fields`, the route's one entry
point).  It reads the index of :func:`falkkit.patterns.flats`
(:class:`~falkkit.graphs.FlatIndex`) and checks only the flats' shape.

A rank-2 flat X of size >= 3 is a maximal set of edges whose every
3-subset is dependent; two flats share at most one edge, so each pair of
edges lies in at most one flat, and each dependent triple lies in exactly
one.  Write I_X for the span of the boundaries e_jk - e_ik + e_ij of the
3-subsets of X, and x = min X.

* **dim I^2 = sum_X C(|X|-1, 2).**  The boundary of a triple in X lives on
  the pairs of X, and the flats share no pair, so I^2 is the direct sum of
  the I_X.  The boundary map is exact on the exterior algebra of X, so
  dim I_X = C(|X|, 2) - (|X| - 1) = C(|X|-1, 2), with basis the boundaries
  of the triples S = {x, b, c}.  Hence dim A^2 = C(n, 2) - sum_X C(|X|-1, 2).
* **dim I^3_2 = sum_X C(|X|, 3) + rank G.**  I^3_2 is spanned by
  e_t * I_X over every flat X and every edge t.  The local rows (t in X)
  lie in Lambda^3(X) and span it: for t in S, e_t * e_S = 0 and so
  e_t * boundary(e_S) = e_S - boundary(e_t * e_S) = e_S.  The global rows
  G are e_t * boundary(e_S) for the basis triples S of each flat and each
  t outside it.  A term e_tab of such a row has a, b in X and t outside X,
  so {t, a, b} lies in no flat: a flat holding a and b is X.  The local and
  global spans sit on disjoint sets of columns, so their dimensions add.
  G has sum_X C(|X|-1, 2)*(n - |X|) rows.
* **Only the blocks of G that share columns are ranked.**  The block
  (X, t) of G is its C(|X|-1, 2) rows for one flat X and one t outside X;
  it is e_t * I_X, on the columns e_tab with a, b in X.  Let
  A = {a in X : {t, a} lies in a flat}.  Another block (Y, s) has the
  column e_tab only when s = a and {t, b} lies in Y, or s = b and {t, a}
  does, since X is the one flat holding a and b.  So when |A| <= 1 the
  columns e_tbc with b, c in X - A belong to this block alone, and the
  block is injective on them: an element of I_X = ker boundary on
  Lambda^2(X) that vanishes off the pairs through a is e_a * v with v in
  the span of X - {a}, and boundary(e_a * v) = v - (sum of v's
  coefficients)*e_a = 0 forces v = 0.  So every vector of the left kernel
  of G is zero on such a block, and nullity(G) = nullity(G_kept), where
  G_kept holds the blocks with |A| >= 2.  Hence
  dim I^3_2 = sum_X C(|X|, 3) + |G| - |G_kept| + rank G_kept, with
  |G_kept| = sum_X C(|X|-1, 2)*#{t : |A| >= 2} rows.  G_kept has 3 960
  of the 8 580 rows of G for the braid arrangement K_11, 2 820 of 4 080
  for B_6, and none for a triangulated grid, where every flat is a
  triangle no outside edge meets twice.
* **G_kept is block-diagonal by vertex set, and equal keys have equal
  nullity.**  Write supp(e) for the ends of edge e and V(X) for the
  vertices of flat X.  Under H4 and H5 a flat lies on two vertices (a
  bundle with the loops at its ends) or three (a balanced 3-circle), and
  any two distinct edges of a flat cover its vertices.  By the column rule
  above, a block (Y, s) that shares a column e_tab with (X, t) has s = a
  and t, b in Y (or the same with a and b swapped), so
  V(Y) | supp(s) = supp(t) | supp(b) | supp(a) = V(X) | supp(t).  So
  G_kept splits into groups by W = V(X) | supp(t), which no column
  crosses, and nullity(G_kept) is the sum of the groups' nullities.  A kept
  block takes three flats X, Y, Z, each two of which share an edge
  (a in X and Y, b in X and Z, t in Y and Z); W is the union of the
  vertex sets of any two of them, so |W| is 3 or 4, and W is made twice,
  from two shared edges, unless X, Y and Z lie on one vertex set.  Only
  those W, and the vertex sets that hold three flats, are candidates, and
  a candidate whose group has no kept row is not ranked.  A graph with
  fewer than three flats has no candidate.  The unions are counted edge by
  edge, with no set and no sort for the common case: every vertex set
  through a link holds both of its ends, so two 3-vertex sets through the
  link u < v differ only in their third vertices x < y, and their union is
  (u, v) merged with (x, y) by fixed comparisons.  A 3-vertex set and the
  link's own pair (u, v) make the 3-vertex set, and only through a loop
  do two 2-vertex sets meet.  A group's rows depend only on the flats on
  subsets of W and the ends of their edges.  The key of W is one tuple
  with a fixed place for each subset of 2 or 3 of its sorted vertices (six
  pairs and four triples when |W| = 4, three pairs and W when |W| = 3),
  holding the shape code of the subset's flats, or None when it carries
  none.  The shape code names the sorted tuple of those flats, each edge
  relabelled by the positions of its ends in the subset and its
  slot (:class:`~falkkit.graphs.FlatIndex`): its place among the links
  of its bundle in the order of their gains read from the lower end, and
  0 for a single link or a loop.  Edges with the same ends have distinct
  slots, so two W with equal keys have a bijection of those edges that
  keeps the labels; it maps flats to flats and kept blocks to kept
  blocks.  A relabelling of the edges is an automorphism of the exterior
  algebra that maps each e_t * I_X onto its image, whatever the signs the
  new id order gives, so the two groups span spaces of one dimension with
  one number of rows, and have one nullity.  So any labels distinct within
  each bundle are exact, and the gain order decides only which groups
  merge.  No canonical form is needed: a key only has to be equal for the
  groups it treats alike.  So each distinct key's blocks are found and
  eliminated once, and dim I^3_2 = sum_X C(|X|, 3) + |G| - nullity(G_kept)
  with nullity(G_kept) the sum over keys of their multiplicity times the
  nullity of one group.  K_m has one distinct key (C(m, 4) groups of 12
  rows, nullity 2) however its edges are numbered.  D_m and B_m have two
  however they are numbered, reversed or switched: a reversal keeps each
  gain read from the lower end, renumbering keeps every gain, and a
  switching multiplies a bundle's gains by one factor, which keeps the
  order of a +c, -c pair or flips both slots.  The bound is on the rows
  written and eliminated, one group per key, not on |G_kept|: each
  block's rows are counted before they are written, and the route
  refuses (raises :class:`~falkkit.graphs.GraphTooLargeError`) once they
  pass :data:`MAX_KEPT_ROWS`, after the groups before it are ranked.
* **|F3| = (n-3)*|T| and rank F3 = dim I^3_2 - #{X : |X| = 3}.**  F3 holds
  the global rows of every triple, which span e_t * I_X like G does, and
  the local rows with t in X but outside S.  For a 4-set Y in X and
  S = Y - {t}, e_t * e_S = s*e_Y where s is the sign of e_S in
  boundary(e_Y), so the local row is e_S - s*boundary(e_Y).  Summed with
  those signs, the four rows of Y give -3*boundary(e_Y), so every e_S with
  S in Y lies in F3.  So Lambda^3(X) lies in F3 when |X| >= 4, while a
  flat of three has no local F3 row, and no global row reaches its
  monomial e_X.

One generator, :func:`_kept_groups`, walks each group once.  For each
distinct key it takes one W and the flats on W's subsets in increasing
order, read off the index's vertex sets as they are with the ends of their
edges: a flat through t and a is what puts a in A, so the kept t found this
way are G_kept's by definition, and no flat needs to be filtered out first.
The kept t of a flat X are the edges outside X that lie in N(a) and N(b)
for two edges a != b of X, where N(a) is the union of the group's flats
through a, and whose ends hold the vertices of W that X misses: set
intersections over ints only, one pass over the a of X.  Each flat's kept
blocks are counted against the bound, then written, and the group's rows
are yielded with its multiplicity, so :func:`rank_fields` reads
nullity(G_kept) as one sum of multiplicity times nullity.
The rows of the kept blocks are written out directly: each basis triple
i < j < k times each kept e_t, term by term with one sign rule, e_t * e_ab
(a < b) being e_tab, -e_atb or e_abt as t falls below a, between a and b,
or above b.  A column is a lexicographic int code,
(a*m + b)*m + c for e_abc with m = n + 1 larger than every edge id, so
integer order is the lexicographic order of the index tuples.  The rows are
eliminated last row first.  The pivot rows then keep about the three terms
they were written with; in the written order they fill in to about four.

Ranks are computed by fraction-free elimination of these Python-int rows,
with no conversion of their entries: every pivot row is kept primitive (its
entries have gcd 1 and its leading entry is positive), and the pivot rule is
deterministic (first nonzero column in lexicographic order).  A new pivot
whose leading entry is 1 or -1 is primitive already and is stored without a
gcd.  There is no floating point, modular or randomized step, so every
dimension reported here is exact.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb, gcd
from operator import lt
from typing import Iterable, Iterator, Mapping, NamedTuple

from .graphs import Flat, FlatIndex, GraphTooLargeError

#: most rows that :func:`rank_fields` writes and eliminates, one group of
#: G_kept per distinct key; the braid arrangement K_m has one key, so one
#: 12-row group whatever m, and ``phi3 --method rank`` on K_40 takes about
#: 0.3 s and 33 MB (CPython 3.11, 2-core VM)
MAX_KEPT_ROWS = 250_000


def _divide_content(row: dict, negate: bool = False) -> dict:
    """The row divided by the gcd of its entries (and by -1 when ``negate``)."""
    content = gcd(*row.values())
    if negate:
        content = -content
    if content == 1:
        return row
    return {k: v // content for k, v in row.items()}


def _pivot_rows(rows: Iterable[Mapping]) -> dict:
    """Echelon basis of the rows' span: leading column -> primitive pivot row.

    Each row is reduced against the pivots in order of its leading column.
    A pivot with leading entry 1 is subtracted directly; any other pivot p
    is cross-multiplied (a*row - b*pivot with a = p/g, b = c/g for the row's
    leading entry c and g = gcd(p, c)) and the result divided by its content,
    so entries stay small integers.
    """
    pivots: dict = {}
    for row in rows:
        work = dict(row)
        if 0 in work.values():
            work = {k: v for k, v in work.items() if v}
        while work:
            lead = min(work)
            c = work[lead]
            pivot = pivots.get(lead)
            if pivot is None:
                # a leading entry of 1 or -1 leaves content 1: no gcd needed
                if c == 1:
                    pivots[lead] = work
                elif c == -1:
                    pivots[lead] = {k: -v for k, v in work.items()}
                else:
                    pivots[lead] = _divide_content(work, c < 0)
                break
            p = pivot[lead]
            if p != 1:
                g = gcd(p, c)
                a, c = p // g, c // g
                work = {k: a * v for k, v in work.items()}
            for k, v in pivot.items():
                value = work.get(k, 0) - c * v
                if value:
                    work[k] = value
                else:
                    del work[k]
            if p != 1 and work:
                work = _divide_content(work)
    return pivots


def rank(rows: Iterable[Mapping]) -> int:
    """Exact rank of sparse integer rows keyed by comparable column labels.

    Values must be Python ints, as the row builder below writes them; zero
    entries are dropped.
    """
    return len(_pivot_rows(rows))


def _candidates(index: FlatIndex) -> list[tuple[int, ...]]:
    """The vertex sets W, as sorted tuples, whose group may hold a kept row:
    each W made twice as the union of two vertex sets through one edge, and
    each vertex set that holds three flats or more."""
    by_verts, ends = index.by_verts, index.ends
    # thirds[a]: the third vertices of the 3-vertex sets through the link a,
    # which hold both of its ends; pairs[a]: the 2-vertex sets through the
    # edge a.  A vertex set's flats come one after another, so a vertex set
    # already listed for a is the last entry.
    thirds: dict[int, list[int]] = {}
    pairs: dict[int, list[tuple[int, ...]]] = {}
    for vs, xs in by_verts.items():
        if len(vs) == 3:
            total = vs[0] + vs[1] + vs[2]
            for flat in xs:
                for a in flat:
                    u, v = ends[a]
                    x = total - u - v
                    got = thirds.setdefault(a, [])
                    if not got or got[-1] != x:
                        got.append(x)
        else:
            for flat in xs:
                for a in flat:
                    got = pairs.setdefault(a, [])
                    if not got or got[-1] != vs:
                        got.append(vs)

    def unions() -> Iterator[tuple[int, ...]]:
        # vertex sets, and the W made of two, are sorted tuples: tuples of
        # ints drop out of the cyclic garbage collector's view, where as many
        # sets would make it sweep the whole heap again and again on a large grid
        for a, xs in thirds.items():
            u, v = ends[a]
            xs.sort()
            # two 3-vertex sets through the link: its ends merged with x < y
            for x, y in itertools.combinations(xs, 2):
                if y < u:
                    yield x, y, u, v
                elif x > v:
                    yield u, v, x, y
                elif x < u:
                    yield (x, u, y, v) if y < v else (x, u, v, y)
                else:
                    yield (u, x, y, v) if y < v else (u, x, v, y)
            if a in pairs:
                # a 3-vertex set and the link's own 2-vertex set
                for x in xs:
                    yield (x, u, v) if x < u else (u, x, v) if x < v else (u, v, x)
        # two 2-vertex sets through a loop
        for sets in pairs.values():
            for p, q in itertools.combinations(sets, 2):
                yield tuple(sorted({*p, *q}))

    # W = V(X) | V(Y) = V(X) | V(Z) = V(Y) | V(Z) is made by two edges and
    # two distinct vertex sets each, unless X, Y and Z lie on one vertex set
    made = Counter(unions())
    candidates = [w for w, count in made.items() if count > 1]
    candidates += [vs for vs, xs in by_verts.items() if len(xs) > 2 and made[vs] < 2]
    return candidates


def _shape_codes(index: FlatIndex) -> dict[tuple[int, ...], int]:
    """A small int for each vertex set of the index, equal for two vertex
    sets of one size exactly when their flats have one shape, each edge
    labelled by its slot and the positions of its ends in the vertex set."""
    ends, slot = index.ends, index.slot
    # an edge's label: its slot, its place by gain in its bundle, and the
    # positions of its ends in a vertex set (a bit mask), as one small int;
    # a vertex set's flats as a tuple of labels each, named by a small int
    code_of: dict[tuple, int] = {}
    codes: dict[tuple[int, ...], int] = {}
    for vs, xs in index.by_verts.items():
        bit = {v: 1 << i for i, v in enumerate(vs)}
        shift = len(vs)
        shape = tuple(sorted(
            tuple(sorted([
                slot.get(a, 0) << shift | bit[ends[a][0]] | bit[ends[a][-1]] for a in flat
            ]))
            for flat in xs
        ))
        codes[vs] = code_of.setdefault(shape, len(code_of))
    return codes


def _keyed(
    ws: Iterable[tuple[int, ...]], codes: Mapping[tuple[int, ...], int]
) -> dict[tuple, list]:
    """The vertex sets ``ws`` by key, each distinct key with how many of them
    have it and the first.  The key of W lists the shape code (``codes``) of
    each subset of 2 or 3 of its sorted vertices, in one fixed order, and
    None for a subset that holds no flat; the key's length tells |W|."""
    get = codes.get
    groups: dict[tuple, list] = {}
    for w in ws:
        if len(w) == 4:
            a, b, c, d = w
            key = (
                get((a, b)), get((a, c)), get((a, d)), get((b, c)), get((b, d)), get((c, d)),
                get((a, b, c)), get((a, b, d)), get((a, c, d)), get((b, c, d)),
            )
        elif len(w) == 3:
            a, b, c = w
            key = get((a, b)), get((a, c)), get((b, c)), get(w)
        else:
            # a pair that holds three flats or more
            key = (get(w),)
        group = groups.get(key)
        if group is None:
            groups[key] = [1, w]
        else:
            group[0] += 1
    return groups


def _kept_groups(
    n: int, index: FlatIndex
) -> Iterator[tuple[int, tuple[int, ...], list[dict[int, int]]]]:
    """G_kept's groups, one per distinct key (:func:`_keyed`) of the
    candidates (:func:`_candidates`) that has kept rows: how many vertex sets
    W have that key, one of them, and its group's rows, last written first.

    Each block is counted before it is written, and
    :class:`~falkkit.graphs.GraphTooLargeError` is raised once the rows
    written pass :data:`MAX_KEPT_ROWS`.
    """
    by_verts, ends = index.by_verts, index.ends
    # a kept block takes three flats
    if sum(map(len, by_verts.values())) < 3:
        return
    candidates = _candidates(index)
    if not candidates:
        return
    written = 0
    for multiplicity, w in _keyed(candidates, _shape_codes(index)).values():
        members = sorted(
            (flat, vs)
            for size in (2, 3)
            for vs in itertools.combinations(w, size)
            for flat in by_verts.get(vs, ())
        )
        # linked[a] = N(a), the union of the group's flats through a
        linked: dict[int, set[int]] = {}
        for flat, _ in members:
            for a in flat:
                linked.setdefault(a, set()).update(flat)
        touching: dict[int, set[int]] = {v: set() for v in w}
        for a in linked:
            for v in ends[a]:
                touching[v].add(a)
        rows: list[dict[int, int]] = []
        for flat, vs in members:
            once: set[int] = set()
            twice: set[int] = set()
            for a in flat:
                near = linked[a]
                twice |= once & near
                once |= near
            twice.difference_update(flat)
            for v in w:
                if v not in vs:
                    twice &= touching[v]
            # counted first, so the block that crosses the bound is never written
            written += comb(len(flat) - 1, 2) * len(twice)
            if written > MAX_KEPT_ROWS:
                raise GraphTooLargeError(
                    f"rank route has more than {MAX_KEPT_ROWS} rows to eliminate"
                )
            rows += _kept_rows(n, flat, twice)
        if rows:
            rows.reverse()  # less fill-in than the written order (see the module docstring)
            yield multiplicity, w, rows


def _kept_rows(n: int, flat: Flat, outside: Iterable[int]) -> list[dict[int, int]]:
    """The rows e_t * (e_jk - e_ik + e_ij) of the kept blocks (X, t) of one
    flat X and its kept t outside X, given in any order.

    One row for each basis triple (i, j, k) = (x, b, c) with x = min X and
    b < c in X, and each t in increasing order.  One sign rule writes every term:
    e_t * e_ab with a < b is e_tab, -e_atb or e_abt as t falls below a,
    between a and b, or above b.  e_abc is coded (a*m + b)*m + c with
    m = n + 1.
    """
    m = n + 1
    outside = sorted(outside)
    i = flat[0]
    rows: list[dict[int, int]] = []
    for j, k in itertools.combinations(flat[1:], 2):
        terms = ((j, k, 1), (i, k, -1), (i, j, 1))
        for t in outside:
            row = {}
            for a, b, sign in terms:
                if t < a:
                    row[(t * m + a) * m + b] = sign
                elif t < b:
                    row[(a * m + t) * m + b] = -sign
                else:
                    row[(a * m + b) * m + t] = sign
            rows.append(row)
    return rows


class RankFields(NamedTuple):
    """The rank route's numbers for one graph, named as in
    :class:`~falkkit.falk.FalkReport`."""

    dim_A2: int
    dim_I3_2: int
    span_F3_size: int
    span_F3_rank: int
    phi3_rank: int


def rank_fields(n: int, index: FlatIndex) -> RankFields:
    """dim A^2, dim I^3_2, |F3|, rank F3 and phi3 of an arrangement of ``n``
    hyperplanes, from the index of its rank-2 flats of size >= 3
    (:class:`~falkkit.graphs.FlatIndex`): the closed forms above, one
    elimination per distinct group of G_kept, and
    phi3 = 2*C(n+1, 3) - n*dim A^2 + C(n, 3) - dim I^3_2.

    Raises ``ValueError`` unless each flat has 3 or more edge ids
    1 <= x_1 < x_2 < ... <= n, which the row codes rely on, and
    :class:`~falkkit.graphs.GraphTooLargeError` when the rows written over
    the distinct groups would pass :data:`MAX_KEPT_ROWS`: the rows of the
    block that crosses the bound are not written, but the groups before it
    may have been ranked.
    """
    triangles = dim_i2 = threes = size_g = 0
    for flat in itertools.chain.from_iterable(index.by_verts.values()):
        size = len(flat)
        if size < 3 or flat[0] < 1 or flat[-1] > n or not all(map(lt, flat, flat[1:])):
            raise ValueError(f"expected 3 or more edge ids 1 <= x_1 < x_2 < ... <= {n}: {flat}")
        basis = comb(size - 1, 2)
        triangles += comb(size, 3)
        dim_i2 += basis
        threes += size == 3
        size_g += basis * (n - size)
    nullity = sum(m * (len(rows) - rank(rows)) for m, _, rows in _kept_groups(n, index))
    dim_a2 = comb(n, 2) - dim_i2
    dim_i32 = triangles + size_g - nullity
    phi3 = 2 * comb(n + 1, 3) - n * dim_a2 + comb(n, 3) - dim_i32
    return RankFields(dim_a2, dim_i32, (n - 3) * triangles, dim_i32 - threes, phi3)
