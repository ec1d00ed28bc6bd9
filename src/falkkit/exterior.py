"""Exact exterior algebra in degrees 2 and 3 over an edge ground set.

The rank route needs three numbers: dim A^2, dim I^3_2 (the degree-3 slice
of the ideal generated by the boundaries of the dependent triples) and the
size and rank of F3 = {e_t * boundary(e_S) : t not in S}.  All of them are
read off the rank-2 flats of the arrangement, with one elimination, and
Falk's formula turns them into phi3 (:func:`rank_fields`, the route's one
entry point).  The flats come in as increasing edge-id tuples
(:func:`falkkit.patterns.flats`), and :func:`rank_fields` checks only their
shape.

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
  triangle no outside edge meets twice.  |G_kept| is counted before any
  row is written, and the route refuses (raises
  :class:`~falkkit.graphs.GraphTooLargeError`) above :data:`MAX_KEPT_ROWS`.
* **|F3| = (n-3)*|T| and rank F3 = dim I^3_2 - #{X : |X| = 3}.**  F3 holds
  the global rows of every triple, which span e_t * I_X like G does, and
  the local rows with t in X but outside S.  For a 4-set Y in X and
  S = Y - {t}, e_t * e_S = s*e_Y where s is the sign of e_S in
  boundary(e_Y), so the local row is e_S - s*boundary(e_Y).  Summed with
  those signs, the four rows of Y give -3*boundary(e_Y), so every e_S with
  S in Y lies in F3.  So Lambda^3(X) lies in F3 when |X| >= 4, while a
  flat of three has no local F3 row, and no global row reaches its
  monomial e_X.

The kept t of a flat X are the edges outside X that lie in N(a) and N(b)
for two edges a != b of X, where N(a) is the union of the flats through a;
the work is sum_X sum_{a in X} |N(a)| over ints only, less the largest N(a)
of X: it is only intersected with the others' union, and & walks the
smaller set.  The rows of the kept blocks are written out directly: each
basis triple i < j < k times each kept e_t, case by case on where t falls
relative to i < j < k.  A column is a lexicographic int code,
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
from bisect import bisect_left
from math import comb, gcd
from typing import Iterable, Mapping, NamedTuple

from .graphs import Flat, GraphTooLargeError

#: most rows of G_kept that :func:`rank_fields` writes out and eliminates; the
#: braid arrangement K_28 has 245 700, which take about 1 s and 150 MB
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


def _kept_outside(flats: list[Flat]) -> list[list[int]]:
    """For each flat X, the increasing edges t outside X whose block of G is
    kept: those that share a flat with two or more edges of X."""
    # linked[a] = N(a), the union of the flats through a
    linked: dict[int, set[int]] = {}
    for flat in flats:
        for a in flat:
            linked.setdefault(a, set()).update(flat)
    kept = []
    for flat in flats:
        once: set[int] = set()
        twice: set[int] = set()
        largest = linked[flat[0]]
        for a in flat[1:]:
            near = linked[a]
            if len(near) > len(largest):
                near, largest = largest, near
            twice |= once & near
            once |= near
        twice |= once & largest
        twice.difference_update(flat)
        kept.append(sorted(twice))
    return kept


def _kept_rows(n: int, flats: Iterable[Flat], kept: Iterable[list[int]]) -> list[dict[int, int]]:
    """The rows e_t * (e_jk - e_ik + e_ij) of G's kept blocks, flat by flat.

    For each flat X with x = min X, each basis triple (i, j, k) = (x, b, c)
    with b < c in X, and each kept t outside X in increasing order.
    e_abc is coded (a*m + b)*m + c with m = n + 1.
    """
    m = n + 1
    mm = m * m
    rows: list[dict[int, int]] = []
    for flat, outside in zip(flats, kept):
        if not outside:
            continue
        i = flat[0]
        below = bisect_left(outside, i)
        tmm_below = [t * mm for t in outside[:below]]
        for j, k in itertools.combinations(flat[1:], 2):
            ij, ik, jk = i * m + j, i * m + k, j * m + k
            imj, imk, jmk = i * mm + j, i * mm + k, j * mm + k
            ijm, ikm, jkm = ij * m, ik * m, jk * m
            a = bisect_left(outside, j, below)
            b = bisect_left(outside, k, a)
            # t < i: e_tjk - e_tik + e_tij
            rows.extend([{tmm + jk: 1, tmm + ik: -1, tmm + ij: 1} for tmm in tmm_below])
            # i < t < j: e_tjk + e_itk - e_itj
            rows.extend(
                [{t * mm + jk: 1, imk + t * m: 1, imj + t * m: -1} for t in outside[below:a]]
            )
            # j < t < k: -e_jtk + e_itk + e_ijt
            rows.extend([{jmk + t * m: -1, imk + t * m: 1, ijm + t: 1} for t in outside[a:b]])
            # k < t: e_jkt - e_ikt + e_ijt
            rows.extend([{jkm + t: 1, ikm + t: -1, ijm + t: 1} for t in outside[b:]])
    return rows


class RankFields(NamedTuple):
    """The rank route's numbers for one graph, named as in
    :class:`~falkkit.falk.FalkReport`."""

    dim_A2: int
    dim_I3_2: int
    span_F3_size: int
    span_F3_rank: int
    phi3_rank: int


def rank_fields(n: int, flats: Iterable[Flat]) -> RankFields:
    """dim A^2, dim I^3_2, |F3|, rank F3 and phi3 of an arrangement of ``n``
    hyperplanes, from its rank-2 flats of size >= 3: the closed forms above,
    one elimination of G_kept, and
    phi3 = 2*C(n+1, 3) - n*dim A^2 + C(n, 3) - dim I^3_2.

    Raises ``ValueError`` unless each flat has 3 or more edge ids
    1 <= x_1 < x_2 < ... <= n, which the row codes rely on, and
    :class:`~falkkit.graphs.GraphTooLargeError`, before it writes a row,
    when G_kept has more than :data:`MAX_KEPT_ROWS` rows.
    """
    flats = list(flats)
    triangles = dim_i2 = threes = size_g = 0
    for flat in flats:
        size = len(flat)
        if size < 3 or flat[0] < 1 or flat[-1] > n or any(
            a >= b for a, b in zip(flat, flat[1:])
        ):
            raise ValueError(f"expected 3 or more edge ids 1 <= x_1 < x_2 < ... <= {n}: {flat}")
        basis = comb(size - 1, 2)
        triangles += comb(size, 3)
        dim_i2 += basis
        threes += size == 3
        size_g += basis * (n - size)
    kept = _kept_outside(flats)
    size_kept = sum(comb(len(flat) - 1, 2) * len(outside) for flat, outside in zip(flats, kept))
    if size_kept > MAX_KEPT_ROWS:
        raise GraphTooLargeError(
            f"rank route has {size_kept} rows to eliminate, more than {MAX_KEPT_ROWS}"
        )
    rows = _kept_rows(n, flats, kept)
    rows.reverse()  # less fill-in than the written order (see the module docstring)
    dim_a2 = comb(n, 2) - dim_i2
    dim_i32 = triangles + size_g - size_kept + rank(rows)
    phi3 = 2 * comb(n + 1, 3) - n * dim_a2 + comb(n, 3) - dim_i32
    return RankFields(dim_a2, dim_i32, (n - 3) * triangles, dim_i32 - threes, phi3)
