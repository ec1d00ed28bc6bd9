"""Exact exterior algebra in degrees 2 and 3 over an edge ground set.

The rank route needs three numbers: dim A^2, dim I^3_2 (the degree-3 slice
of the ideal generated by the boundaries of the dependent triples) and the
size and rank of F3 = {e_t * boundary(e_S) : t not in S}.  All of them are
read off the rank-2 flats of the arrangement, with one elimination.  The
flats come in as increasing edge-id tuples (:func:`falkkit.patterns.flats`),
and each entry point checks only their shape (:func:`_checked`).

A rank-2 flat X of size >= 3 is a maximal set of edges whose every
3-subset is dependent; two flats share at most one edge, so each pair of
edges lies in at most one flat, and each dependent triple lies in exactly
one.  Write I_X for the span of the boundaries e_jk - e_ik + e_ij of the
3-subsets of X, and x = min X.

* **dim I^2 = sum_X C(|X|-1, 2).**  The boundary of a triple in X lives on
  the pairs of X, and the flats share no pair, so I^2 is the direct sum of
  the I_X.  The boundary map is exact on the exterior algebra of X, so
  dim I_X = C(|X|, 2) - (|X| - 1) = C(|X|-1, 2), with basis the boundaries
  of the triples S = {x, b, c}.  Hence dim A^2 = C(n, 2) - sum_X C(|X|-1, 2)
  (:func:`dim_A2`).
* **dim I^3_2 = sum_X C(|X|, 3) + rank G.**  I^3_2 is spanned by
  e_t * I_X over every flat X and every edge t.  The local rows (t in X)
  lie in Lambda^3(X) and span it: for t in S, e_t * e_S = 0 and so
  e_t * boundary(e_S) = e_S - boundary(e_t * e_S) = e_S.  The global rows
  G are e_t * boundary(e_S) for the basis triples S of each flat and each
  t outside it.  A term e_tab of such a row has a, b in X and t outside X,
  so {t, a, b} lies in no flat: a flat holding a and b is X.  The local and
  global spans sit on disjoint sets of columns, so their dimensions add
  (:func:`dim_I3_2`; G is :func:`_global_rows`, with
  sum_X C(|X|-1, 2)*(n - |X|) rows).
* **|F3| = (n-3)*|T| and rank F3 = dim I^3_2 - #{X : |X| = 3}.**  F3 holds
  the global rows of every triple, which span e_t * I_X like G does, and
  the local rows with t in X but outside S.  For a 4-set Y in X and
  S = Y - {t}, e_t * e_S = s*e_Y where s is the sign of e_S in
  boundary(e_Y), so the local row is e_S - s*boundary(e_Y).  Summed with
  those signs, the four rows of Y give -3*boundary(e_Y), so every e_S with
  S in Y lies in F3.  So Lambda^3(X) lies in F3 when |X| >= 4, while a
  flat of three has no local F3 row, and no global row reaches its
  monomial e_X (:func:`f3_size_and_rank`).

The rows of G are written out directly: each basis triple i < j < k times
each outside e_t, case by case on where t falls relative to i < j < k.  A
column is a lexicographic int code, (a*m + b)*m + c for e_abc with
m = n + 1 larger than every edge id, so integer order is the lexicographic
order of the index tuples.

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
from typing import Iterable, Mapping

#: a rank-2 flat: the increasing edge ids of its hyperplanes
Flat = tuple[int, ...]


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
        work = {k: v for k, v in row.items() if v}
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


def _checked(n: int, flats: Iterable[Flat]) -> list[Flat]:
    """The flats as a list; raises ``ValueError`` unless each has 3 or more
    edge ids 1 <= x_1 < x_2 < ... <= n, which the row codes rely on."""
    out = list(flats)
    for flat in out:
        if len(flat) < 3 or flat[0] < 1 or flat[-1] > n or any(
            a >= b for a, b in zip(flat, flat[1:])
        ):
            raise ValueError(f"expected 3 or more edge ids 1 <= x_1 < x_2 < ... <= {n}: {flat}")
    return out


def dim_A2(n: int, flats: Iterable[Flat]) -> int:
    """dim A^2 = C(n, 2) - sum_X C(|X|-1, 2), with no elimination."""
    return comb(n, 2) - sum(comb(len(flat) - 1, 2) for flat in _checked(n, flats))


def _global_rows(n: int, flats: Iterable[Flat]) -> list[dict[int, int]]:
    """The rows e_t * (e_jk - e_ik + e_ij) of G, flat by flat.

    For each flat X with x = min X, each basis triple (i, j, k) = (x, b, c)
    with b < c in X, and each t = 1..n outside X in increasing order.
    e_abc is coded (a*m + b)*m + c with m = n + 1.
    """
    m = n + 1
    mm = m * m
    rows: list[dict[int, int]] = []
    for flat in flats:
        inside = set(flat)
        outside = [t for t in range(1, m) if t not in inside]
        i = flat[0]
        below = i - 1  # i = min X, so outside[:below] is 1..i-1
        tmm_below = range(mm, i * mm, mm)
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


def dim_I3_2(n: int, flats: Iterable[Flat]) -> int:
    """dim I^3_2 = sum_X C(|X|, 3) + rank G: the rank route's one elimination."""
    flats = _checked(n, flats)
    return sum(comb(len(flat), 3) for flat in flats) + rank(_global_rows(n, flats))


def f3_size_and_rank(n: int, flats: Iterable[Flat], dim_i32: int) -> tuple[int, int]:
    """Size and rank of F3, from the flats and ``dim_i32`` = :func:`dim_I3_2`.

    |F3| = (n-3)*|T| with |T| = sum_X C(|X|, 3), and
    rank F3 = dim I^3_2 - #{X : |X| = 3}.
    """
    flats = _checked(n, flats)
    size = (n - 3) * sum(comb(len(flat), 3) for flat in flats)
    return size, dim_i32 - sum(len(flat) == 3 for flat in flats)
