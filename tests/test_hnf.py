import random

import pytest
from hypothesis import given, settings, strategies as st

from a4csl.errors import DomainError
from a4csl.hnf import (
    _lower_block,
    contains,
    diagonal_product,
    hnf,
    hnf_square,
)

rng = random.Random(4242)


def left_kernel(rows) -> list[list[int]]:
    """Basis (in HNF) of {c : sum_i c_i * rows[i] = 0} over Z: the rows of
    hnf([rows[i] | e_i]) that vanish on the first n columns, cut to their
    last m columns.  The oracle of the meets read off one echelon form."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    aug = [r + [int(i == j) for j in range(m)] for i, r in enumerate(a)]
    return [row[n:] for row in hnf(aug) if not any(row[:n])]


def intersect_rows(rows_a, rows_b) -> list[list[int]]:
    """HNF basis of the intersection of two integer row lattices in Z^n: the
    rows of hnf([a | a] + [b | 0]) that vanish on the first n columns.  The
    meet oracle of the meets with L read off one echelon form."""
    a = [list(r) for r in rows_a]
    if not a or not rows_b:
        return []
    n = len(a[0])
    return _lower_block([r + r for r in a] + [list(r) + [0] * n for r in rows_b], n)


def rand_matrix(m, n, span=6):
    return [[rng.randint(-span, span) for _ in range(n)] for _ in range(m)]


def unimodular_mix(rows):
    out = [list(r) for r in rows]
    for _ in range(20):
        i, j = rng.randrange(len(out)), rng.randrange(len(out))
        if i == j:
            continue
        c = rng.randint(-3, 3)
        out[i] = [a + c * b for a, b in zip(out[i], out[j])]
    rng.shuffle(out)
    return out


def test_hnf_canonical_under_row_mixing():
    for _ in range(60):
        rows = rand_matrix(4, 4)
        h = hnf(rows)
        assert hnf(h) == h  # idempotent
        assert hnf(unimodular_mix(rows)) == h


def test_hnf_shape():
    h = hnf([[2, 4], [6, 8]])
    # echelon with positive pivots, entries above reduced
    assert h == [[2, 0], [0, 4]] or all(h[i][i] > 0 for i in range(len(h)))
    for i, row in enumerate(h):
        piv_col = next(j for j, v in enumerate(row) if v)
        for k in range(i):
            assert 0 <= h[k][piv_col] < row[piv_col]


def test_hnf_square_rank_check():
    with pytest.raises(DomainError):
        hnf_square([[1, 0, 0, 0], [2, 0, 0, 0]], 4)
    h = hnf_square([[1, 0], [0, 1], [3, 5]], 2)
    assert h == ((1, 0), (0, 1))
    assert diagonal_product(h) == 1


def test_left_kernel():
    for _ in range(60):
        a = rand_matrix(6, 4)
        ker = left_kernel(a)
        for c in ker:
            vec = [sum(c[i] * a[i][j] for i in range(6)) for j in range(4)]
            assert vec == [0, 0, 0, 0]
        rank = len(hnf(a))
        assert len(ker) == 6 - rank


def test_intersect_rows_simple():
    two_l = [[2, 0], [0, 2]]
    three_l = [[3, 0], [0, 3]]
    assert intersect_rows(two_l, three_l) == [[6, 0], [0, 6]]
    full = [[1, 0], [0, 1]]
    assert intersect_rows(two_l, full) == [[2, 0], [0, 2]]


def test_intersect_rows_is_meet():
    for _ in range(40):
        a = hnf(rand_matrix(3, 3))
        b = hnf(rand_matrix(3, 3))
        if len(a) < 3 or len(b) < 3:
            continue
        meet = intersect_rows(a, b)
        for row in meet:
            assert contains(a, row) and contains(b, row)
        # index multiplicativity with the sum: [L:A meet B] * [L:A+B] may not
        # factor, but A meet B sits inside both and contains det(A)*det(B)*Z^3
        dab = diagonal_product(hnf_square(a, 3)) * diagonal_product(hnf_square(b, 3))
        for i in range(3):
            vec = [0, 0, 0]
            vec[i] = dab
            assert contains(meet, vec)


def test_contains():
    h = hnf([[2, 1], [0, 3]])
    assert contains(h, [2, 1])
    assert contains(h, [2, 4])
    assert not contains(h, [1, 0])
    assert contains(h, [0, 0])


def _meet_by_kernel(a, b):
    """A n B the long way: the kernel combinations c of a + b, applied to a."""
    n = len(a[0])
    gens = [
        [sum(c[i] * a[i][j] for i in range(len(a))) for j in range(n)]
        for c in left_kernel(list(a) + list(b))
    ]
    return hnf(gens)


def _rows(n):
    row = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    return st.lists(row, min_size=1, max_size=6)


@st.composite
def _meet_case(draw):
    n = draw(st.integers(1, 5))
    a, b = draw(_rows(n)), draw(_rows(n))
    # a unimodular mix of the rows of a: elementary additions, then a permutation
    mixed = [list(r) for r in a]
    for i, j, c in draw(st.lists(st.tuples(
        st.integers(0, len(a) - 1), st.integers(0, len(a) - 1), st.integers(-3, 3)
    ), max_size=12)):
        if i != j:
            mixed[i] = [x + c * y for x, y in zip(mixed[i], mixed[j])]
    return a, b, draw(st.permutations(mixed))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_meet_case())
def test_intersect_rows_matches_kernel_route_and_ignores_mixing(case):
    a, b, mixed = case
    meet = intersect_rows(a, b)
    assert meet == _meet_by_kernel(a, b)
    assert intersect_rows(mixed, b) == meet
    assert intersect_rows(b, a) == meet
    assert hnf(meet) == meet


@st.composite
def unimodular_mixes(draw):
    """(rows, mixed): mixed is rows under random elementary row operations
    (adding a multiple of another row, negating a row) and a permutation."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-20, 20), st.integers(-(2**70), 2**70))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    mixed = [list(r) for r in rows]
    ops = st.tuples(st.integers(0, m - 1), st.integers(0, m - 1), st.integers(-5, 5))
    for i, j, c in draw(st.lists(ops, max_size=30)):
        if i == j:
            mixed[i] = [-v for v in mixed[i]]
        else:
            mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
    order = draw(st.permutations(range(m)))
    return rows, [mixed[i] for i in order]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(unimodular_mixes())
def test_hnf_unchanged_under_unimodular_row_mixing(case):
    rows, mixed = case
    h = hnf(rows)
    assert hnf(mixed) == h
    assert hnf(h) == h


def _hnf_by_min_key(rows):
    """The HNF with its pivot found by min(key=abs) over a rescanned column,
    the route the fused pivot search replaced."""
    a = [list(r) for r in rows if any(r)]
    if not a:
        return []
    m, n = len(a), len(a[0])
    r = 0
    for c in range(n):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if a[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(a[i][c]))
            a[r], a[i0] = a[i0], a[r]
            done = True
            for i in range(r + 1, m):
                if a[i][c]:
                    q = a[i][c] // a[r][c]
                    ai, ar = a[i], a[r]
                    for j in range(c, n):
                        ai[j] -= q * ar[j]
                    if ai[c]:
                        done = False
            if done:
                break
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
    return a[:r]


@st.composite
def deficient_matrices(draw):
    """Rows with small or huge entries, then zero rows and integer combinations
    of the drawn rows (so the rank is often below the row count), shuffled."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 9))
    entry = st.one_of(st.integers(-9, 9), st.integers(-(2**80), 2**80))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    coeffs = st.lists(st.integers(-4, 4), min_size=m, max_size=m)
    for cs in draw(st.lists(coeffs, max_size=6)):
        rows.append([sum(c * row[j] for c, row in zip(cs, rows)) for j in range(n)])
    rows += [[0] * n] * draw(st.integers(0, 3))
    return draw(st.permutations(rows))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(deficient_matrices())
def test_hnf_matches_min_key_pivot_route(rows):
    assert hnf(rows) == _hnf_by_min_key(rows)
