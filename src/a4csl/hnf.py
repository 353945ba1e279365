"""Integer-matrix workhorses: row Hermite normal form, kernels, intersections.

Matrices are lists/tuples of integer row vectors; lattices are row spans.
The HNF convention is row-style echelon: pivots strictly to the right as
rows descend, positive pivots, entries above a pivot reduced into
[0, pivot).  Zero rows are dropped, so the HNF is a canonical basis of the
row lattice and two lattices are equal iff their HNFs are identical.
Kernels and intersections are each read off one HNF of an augmented
matrix: the rows that vanish on the leading block.
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


def left_kernel(rows) -> list[list[int]]:
    """Basis (in HNF) of {c : sum_i c_i * rows[i] = 0} over Z.

    The rows of hnf([rows[i] | e_i]) that vanish on the first n columns form
    the HNF of the kernel in their last m columns.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    aug = [r + [int(i == j) for j in range(m)] for i, r in enumerate(a)]
    return [row[n:] for row in hnf(aug) if not any(row[:n])]


def intersect_rows(rows_a, rows_b) -> list[list[int]]:
    """HNF basis of the intersection of two integer row lattices in Z^n: the
    rows of hnf([a | a] + [b | 0]) that vanish on the first n columns."""
    a = [list(r) for r in rows_a]
    if not a or not rows_b:
        return []
    n = len(a[0])
    aug = [r + r for r in a] + [list(r) + [0] * n for r in rows_b]
    return [row[n:] for row in hnf(aug) if not any(row[:n])]


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
