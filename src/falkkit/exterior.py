"""Exact exterior algebra in degrees 2 and 3 over an edge ground set.

Vectors are sparse maps from strictly increasing index tuples to integer
coefficients.  Ranks are computed by fraction-free elimination of the
Python-int rows that :func:`boundary3` and :func:`wedge1` build, with no
conversion of their entries: every pivot row is kept primitive (its entries
have gcd 1 and its leading entry is positive), and the pivot rule is
deterministic (first nonzero column in lexicographic order).  There is no floating point, modular
or randomized step, so every dimension reported here is exact.

Only degrees 2 and 3 are materialized as vector spaces; that is all the
degree-3 invariant needs.
"""

from __future__ import annotations

from math import comb, gcd
from typing import Iterable, Mapping, Sequence

Pair = tuple[int, int]
Triple = tuple[int, int, int]
Vec2 = dict[Pair, int]
Vec3 = dict[Triple, int]

_ONE = 1


def _check_increasing(indices: Sequence[int]) -> None:
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise ValueError(f"index tuple must be strictly increasing, got {tuple(indices)}")


def boundary3(triple: Sequence[int]) -> Vec2:
    """Boundary of a degree-3 monomial: e_ijk -> e_jk - e_ik + e_ij."""
    i, j, k = triple
    _check_increasing((i, j, k))
    return {(j, k): _ONE, (i, k): -_ONE, (i, j): _ONE}


def boundary2(vec: Vec2) -> dict[int, int]:
    """Linear extension of e_ij -> e_j - e_i.  Composed with boundary3 it is 0."""
    out: dict[int, int] = {}
    for (i, j), c in vec.items():
        for idx, term in ((j, c), (i, -c)):
            value = out.get(idx, 0) + term
            if value:
                out[idx] = value
            else:
                out.pop(idx, None)
    return out


def pair_vector(a: int, b: int) -> Vec2:
    """e_a wedge e_b as a signed degree-2 basis vector (empty when a == b)."""
    if a == b:
        return {}
    return {(a, b): _ONE} if a < b else {(b, a): -_ONE}


def wedge1(t: int, vec: Vec2) -> Vec3:
    """Left-multiply a degree-2 vector by e_t; terms containing t vanish."""
    out: Vec3 = {}
    for (a, b), c in vec.items():
        if t == a or t == b:
            continue
        if t < a:
            key, coeff = (t, a, b), c
        elif t < b:
            key, coeff = (a, t, b), -c
        else:
            key, coeff = (a, b, t), c
        value = out.get(key, 0) + coeff
        if value:
            out[key] = value
        else:
            out.pop(key, None)
    return out


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

    Values must be Python ints, as :func:`boundary3` and :func:`wedge1` build
    them; zero entries are dropped.
    """
    return len(_pivot_rows(rows))


def _triples(triangles: Iterable) -> list[Triple]:
    out = []
    for t in triangles:
        ids = tuple(getattr(t, "edge_ids", t))
        if len(ids) != 3:
            raise ValueError(f"expected an edge triple, got {ids}")
        out.append(ids)
    return out


def dim_I2(triangles: Iterable) -> int:
    """Rank of the boundaries of the dependent triples (degree-2 ideal slice)."""
    return rank(boundary3(t) for t in _triples(triangles))


def dim_A2(n: int, triangles: Iterable) -> int:
    """C(n,2) minus :func:`dim_I2`."""
    return comb(n, 2) - dim_I2(triangles)


def span_F3(n: int, triangles: Iterable) -> tuple[int, int]:
    """Size and exact rank of {e_t * boundary(e_S)} over t outside S."""
    rows = []
    for s in _triples(triangles):
        b = boundary3(s)
        inside = set(s)
        rows.extend(wedge1(t, b) for t in range(1, n + 1) if t not in inside)
    return len(rows), rank(rows)


def dim_I3_2(n: int, triangles: Iterable) -> int:
    """Rank of the full degree-3 slice of the 2-adic ideal, by elimination.

    Spans e_t * boundary(e_S) for every dependent triple S and every t in
    1..n; no decomposition shortcut is assumed.
    """
    rows = []
    for s in _triples(triangles):
        b = boundary3(s)
        rows.extend(wedge1(t, b) for t in range(1, n + 1))
    return rank(rows)
