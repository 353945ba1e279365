"""Integer-matrix workhorses: row Hermite normal form and intersections.

Matrices are lists/tuples of integer row vectors; lattices are row spans.
The HNF convention is row-style echelon: pivots strictly to the right as
rows descend, positive pivots, entries above a pivot reduced into
[0, pivot).  Zero rows are dropped, so the HNF is a canonical basis of the
row lattice and two lattices are equal iff their HNFs are identical.
Every meet is read off one HNF of an augmented matrix: it is in echelon
form, so its rows that vanish on the leading block hold the meet's HNF.
"""

from __future__ import annotations

from .errors import DomainError


def hnf(rows) -> list[list[int]]:
    """Canonical row Hermite normal form of the integer row span."""
    a = [list(r) for r in rows if any(r)]
    if not a:
        return []
    m, n = len(a), len(a[0])
    r = 0
    for c in range(n):
        if r == m:
            break
        # Reduce column c below row r to a single nonzero entry via gcd steps.
        # The pivot is the first row of least nonzero |entry|; after a pass
        # every remainder is smaller than the pivot, so the pass finds the
        # next one among the rows below.
        i0 = -1
        for i in range(r, m):
            v = abs(a[i][c])
            if v and (i0 < 0 or v < best):
                i0, best = i, v
        while i0 >= 0:
            a[r], a[i0] = a[i0], a[r]
            ar = a[r]
            p = ar[c]
            i0 = -1
            for i in range(r + 1, m):
                ai = a[i]
                if ai[c]:
                    q = ai[c] // p
                    for j in range(c, n):
                        ai[j] -= q * ar[j]
                    v = abs(ai[c])
                    if v and (i0 < 0 or v < best):
                        i0, best = i, v
        if r < m and a[r][c]:
            if a[r][c] < 0:
                a[r] = [-x for x in a[r]]
            p = a[r][c]
            for i in range(r):
                q = a[i][c] // p
                if q:
                    ai, ar = a[i], a[r]
                    for j in range(c, n):
                        ai[j] -= q * ar[j]
            r += 1
    return [row for row in a[:r]]


def hnf_square(rows, n: int) -> tuple[tuple[int, ...], ...]:
    """HNF of a full-rank lattice in Z^n; raises if the rank is lower."""
    h = hnf(rows)
    if len(h) != n:
        raise DomainError(f"expected rank {n}, got {len(h)}")
    return tuple(tuple(r) for r in h)


def _lower_block(rows, k: int) -> list[list[int]]:
    """The rows of hnf(rows) that vanish on the first k columns, without
    those columns: the HNF of the row span's meet with 0^k x Z^(n-k)."""
    return [row[k:] for row in hnf(rows) if not any(row[:k])]


def intersect_rows(rows_a, rows_b) -> list[list[int]]:
    """HNF basis of the intersection of two integer row lattices in Z^n: the
    rows of hnf([a | a] + [b | 0]) that vanish on the first n columns."""
    a = [list(r) for r in rows_a]
    if not a or not rows_b:
        return []
    n = len(a[0])
    return _lower_block([r + r for r in a] + [list(r) + [0] * n for r in rows_b], n)


def contains(hnf_rows, vec) -> bool:
    """Membership of an integer vector in the row lattice given by an HNF."""
    v = list(vec)
    n = len(v)
    for row in hnf_rows:
        c = next(j for j in range(n) if row[j])
        if v[c] % row[c]:
            return False
        q = v[c] // row[c]
        if q:
            for j in range(c, n):
                v[j] -= q * row[j]
    return not any(v)


def diagonal_product(hnf_rows) -> int:
    """Index of a full-rank HNF lattice in Z^n (product of pivots)."""
    out = 1
    for i, row in enumerate(hnf_rows):
        out *= row[i]
    return out
