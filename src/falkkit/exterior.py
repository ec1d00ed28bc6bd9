"""Exact exterior algebra in degrees 2 and 3 over an edge ground set.

The rows of the three eliminations are written out directly: the boundary
e_jk - e_ik + e_ij of each dependent triple i < j < k (degree 2), and its
products with each e_t (degree 3), case by case on where t falls relative
to i < j < k.  A column is a lexicographic int code, a*m + b for e_ab and
(a*m + b)*m + c for e_abc, with m larger than every edge id, so integer
order is the lexicographic order of the index tuples.

Ranks are computed by fraction-free elimination of these Python-int rows,
with no conversion of their entries: every pivot row is kept primitive (its
entries have gcd 1 and its leading entry is positive), and the pivot rule is
deterministic (first nonzero column in lexicographic order).  A new pivot
whose leading entry is 1 or -1 is primitive already and is stored without a
gcd.  There is no floating point, modular or randomized step, so every
dimension reported here is exact.

Only degrees 2 and 3 are materialized as vector spaces; that is all the
degree-3 invariant needs.
"""

from __future__ import annotations

from math import comb, gcd
from typing import Iterable, Mapping

Triple = tuple[int, int, int]


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

    Values must be Python ints, as the row builders below write them; zero
    entries are dropped.
    """
    return len(_pivot_rows(rows))


def _triples(triangles: Iterable, n: int) -> list[Triple]:
    """The edge triples, each checked to be 1 <= i < j < k <= n.

    The column codes are only injective and ordered on such triples.
    """
    out = []
    for t in triangles:
        ids = tuple(getattr(t, "edge_ids", t))
        if len(ids) != 3:
            raise ValueError(f"expected an edge triple, got {ids}")
        i, j, k = ids
        if not 1 <= i < j < k <= n:
            raise ValueError(f"expected edge ids 1 <= i < j < k <= {n}, got {ids}")
        out.append(ids)
    return out


def _boundary_rows(triples: list[Triple], m: int) -> list[dict[int, int]]:
    """The rows e_jk - e_ik + e_ij, with e_ab coded a*m + b (m > every id)."""
    return [{j * m + k: 1, i * m + k: -1, i * m + j: 1} for i, j, k in triples]


def _wedge_rows(triples: list[Triple], n: int, inside: bool) -> list[dict[int, int]]:
    """The rows e_t * (e_jk - e_ik + e_ij) for t = 1..n, triple by triple.

    e_abc is coded (a*m + b)*m + c with m = n + 1.  A t in {i, j, k} gives
    the row e_ijk when ``inside`` is set and no row otherwise.
    """
    m = n + 1
    mm = m * m
    rows: list[dict[int, int]] = []
    for i, j, k in triples:
        ij, ik, jk = i * m + j, i * m + k, j * m + k
        imj, imk, jmk = i * mm + j, i * mm + k, j * mm + k
        ijm, ikm, jkm = ij * m, ik * m, jk * m
        monomial = [{ijm + k: 1}] if inside else []
        # t < i: e_tjk - e_tik + e_tij
        rows.extend([{tmm + jk: 1, tmm + ik: -1, tmm + ij: 1} for tmm in range(mm, i * mm, mm)])
        rows.extend(monomial)
        # i < t < j: e_tjk + e_itk - e_itj
        rows.extend([{t * mm + jk: 1, imk + t * m: 1, imj + t * m: -1} for t in range(i + 1, j)])
        rows.extend(monomial)
        # j < t < k: -e_jtk + e_itk + e_ijt
        rows.extend([{jmk + t * m: -1, imk + t * m: 1, ijm + t: 1} for t in range(j + 1, k)])
        rows.extend(monomial)
        # k < t: e_jkt - e_ikt + e_ijt
        rows.extend([{jkm + t: 1, ikm + t: -1, ijm + t: 1} for t in range(k + 1, m)])
    return rows


def dim_I2(n: int, triangles: Iterable) -> int:
    """Rank of the boundaries of the dependent triples (degree-2 ideal slice)."""
    return rank(_boundary_rows(_triples(triangles, n), n + 1))


def dim_A2(n: int, triangles: Iterable) -> int:
    """C(n,2) minus :func:`dim_I2`."""
    return comb(n, 2) - dim_I2(n, triangles)


def span_F3(n: int, triangles: Iterable) -> tuple[int, int]:
    """Size and exact rank of {e_t * boundary(e_S)} over t outside S."""
    rows = _wedge_rows(_triples(triangles, n), n, inside=False)
    return len(rows), rank(rows)


def dim_I3_2(n: int, triangles: Iterable) -> int:
    """Rank of the full degree-3 slice of the 2-adic ideal, by elimination.

    Spans e_t * boundary(e_S) for every dependent triple S and every t in
    1..n; no decomposition shortcut is assumed.
    """
    return rank(_wedge_rows(_triples(triangles, n), n, inside=True))
