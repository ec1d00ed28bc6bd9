"""A fixed pure-Python reference kernel, timed next to the requests.

On a shared host the CPU speed can change by about 1.5x for seconds to
minutes at a time, and CPU time moves with wall time, so absolute timings of
the same code spread by a third between runs.  Dividing a request's latency
by the time this kernel took just before and just after it gives the
request's cost in kernel units, which such swings move far less.

The kernel mixes the two kinds of work on falkkit's hot paths: a scan over
vertex tuples with dictionary lookups, and exact elimination over Fractions.
It does not import falkkit, so no change to the package can change it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

_SIZE = 16
_PAIRS = frozenset(
    (u, v) for u in range(_SIZE) for v in range(u + 1, _SIZE) if (7 * u + v) % 3
)
_MATRIX = tuple(
    tuple(Fraction((5 * i + 3 * j) % 7 - 3, 1 + (i + 2 * j) % 4) for j in range(12))
    for i in range(12)
)


def run() -> int:
    """One unit of reference work; returns a checksum so nothing is skipped."""
    hits = 0
    for a, b, c in itertools.permutations(range(_SIZE), 3):
        if (min(a, b), max(a, b)) in _PAIRS and (min(b, c), max(b, c)) in _PAIRS:
            hits += 1
    return hits + _rank([list(row) for row in _MATRIX])


def _rank(rows: list[list[Fraction]]) -> int:
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / lead[col]
            if factor:
                rows[r] = [x - factor * y for x, y in zip(rows[r], lead)]
        rank += 1
    return rank
