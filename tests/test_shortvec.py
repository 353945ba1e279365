"""The exact short-vector search, the oracle of the generator search, of
the product enumerator, of glcd and of completeness; the enumeration
budget, gram_of_basis, and the rational Gauss-Jordan of the integer
changes of coordinates.

One depth-first search walks the integer vectors x with F_i(x) = x^T G_i x
equal to (or at most) a target for each of k symmetric positive definite
integer Gram matrices G_i at once, pruning on every form at every level.
enumerate_form is its one-form case (an equality or a ball) and
enumerate_two_forms its two-form equality case.  Each quadratic form is
completed into a sum of weighted squares once per Gram matrix, by an exact
LDL decomposition read off the integral Gram-Schmidt data (leading minors
d_i and the integers lambda_ij of Cohen, GTM 138, Alg. 2.6.7); the search
itself runs on rescaled integers only, so the enumeration is exact and
provably complete.  In an equality search the last coordinate is solved for
exactly instead of scanned.  Vectors come in +-pairs; exactly one
representative per pair is produced (the one whose highest-index nonzero
coordinate is positive), and never the zero vector.
"""

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from a4csl.counting import prime_class_reps
from a4csl.errors import BudgetError, DomainError
from a4csl.field import OInt
from a4csl.icosian import NORM_A_GRAM, NORM_B_GRAM, Icosian, right_ideal
from a4csl.shortvec import NodeBudget, eval_form, gram_of_basis

rng = random.Random(4181)

# x^T TRACE_GRAM x == 2 * Tr(nr(x)), Tr(a + b tau) = 2a + b: with NORM_A_GRAM
# the two forms of the search for the icosians of a given reduced norm.
TRACE_GRAM = tuple(
    tuple(2 * a + b for a, b in zip(ra, rb)) for ra, rb in zip(NORM_A_GRAM, NORM_B_GRAM)
)


def _gram_schmidt(gram, d, lam, k: int) -> None:
    """Row k of the integral Gram-Schmidt data of a Gram matrix, given rows
    0..k-1 (Cohen, GTM 138, Alg. 2.6.7): d[i] is the i-th leading principal
    minor (d[0] = 1) and lam[k][j] = d[j+1] * mu_kj for j < k.  Every
    division is exact.  Sets lam[k][:k] and d[k+1]; raises DomainError unless
    d[k+1] > 0, i.e. unless the leading (k+1)-block is positive definite."""
    gk, lk = gram[k], lam[k]
    for j in range(k + 1):
        u, lj = gk[j], lam[j]
        for i in range(j):
            u = (d[i + 1] * u - lk[i] * lj[i]) // d[i]
        if j < k:
            lk[j] = u
        elif u <= 0:
            raise DomainError("form is not positive definite")
        else:
            d[k + 1] = u


@lru_cache(maxsize=64)
def _prepared(gram: tuple[tuple[int, ...], ...]):
    """LDL data rescaled to integers: weights W, row denominators UD,
    scaled off-diagonal rows UN and the global multiplier M with
    M * F(x) = sum_i W[i] * (x[i]*UD[i] + sum_{j>i} UN[i][j]*x[j])^2.

    Read off the integral Gram-Schmidt data: the LDL weight of row i is
    d[i+1] / d[i], and its off-diagonal entries are lam[j][i] / d[i+1].
    """
    n = len(gram)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        _gram_schmidt(gram, d, lam, k)
    ud = [
        lcm(*(d[i + 1] // gcd(lam[j][i], d[i + 1]) for j in range(i + 1, n)))
        for i in range(n)
    ]
    un = [
        tuple(lam[j][i] * ud[i] // d[i + 1] if j > i else 0 for j in range(n))
        for i in range(n)
    ]
    # The weight d[i+1] / d[i] in lowest terms, over its row's ud^2.
    gs = [gcd(d[i + 1], d[i]) for i in range(n)]
    dens = [d[i] // gs[i] * ud[i] * ud[i] for i in range(n)]
    m = lcm(*dens)
    w = [m // dens[i] * (d[i + 1] // gs[i]) for i in range(n)]
    return tuple(w), tuple(ud), tuple(un), m


def _dfs(grams, targets, equal: bool):
    """Yield (x, F_0(x)) with F_i(x) == targets[i] for every form (equal=True)
    or 0 < F_0(x) and F_i(x) <= targets[i] for every form (equal=False)."""
    n = len(grams[0])
    forms = [_prepared(tuple(tuple(int(v) for v in row) for row in g)) for g in grams]
    if min(targets) < 0 or (equal and 0 in targets):
        return

    # steps[lvl] holds, per form: its index, the weight and row denominator
    # of the level above (zero above the top level), those of this level and
    # the scaled off-diagonal row, which is zero up to this level so that the
    # stale coordinates below it drop out of the centre.
    k = len(forms)
    w = [[f[0][lvl] for f in forms] for lvl in range(n)] + [[0] * k]
    ud = [[f[1][lvl] for f in forms] for lvl in range(n)] + [[0] * k]
    rows = [[f[2][lvl] for f in forms] for lvl in range(n)]
    steps = [
        tuple(zip(range(k), w[lvl + 1], ud[lvl + 1], w[lvl], ud[lvl], rows[lvl]))
        for lvl in range(n)
    ]
    w0, ud0, m0 = w[0][0], ud[0][0], forms[0][3]
    target0 = targets[0]

    x = [0] * n
    rem = [[0] * k for _ in range(n + 1)]  # scaled remainders entering each level
    rem[n] = [t * f[3] for t, f in zip(targets, forms)]
    cen = [[0] * k for _ in range(n + 1)]  # scaled centres at each level
    rem0, cen0 = rem[0], cen[0]
    # What entering a level reads (the level above) and writes (its own).
    frames = [(rem[lvl + 1], cen[lvl + 1], rem[lvl], cen[lvl]) for lvl in range(n)]
    cur = [0] * n
    high = [0] * n
    zpref = [True] * (n + 1)  # x[lvl+1:] all zero?
    lvl = n - 1
    entering = True
    while True:
        if entering:
            xp = x[lvl + 1] if lvl + 1 < n else 0
            rp, cp, rs, cs = frames[lvl]
            lo = hi = None
            for f, wp, up, wl, u, row in steps[lvl]:
                v = xp * up + cp[f]
                r = rp[f] - wp * v * v
                c = sum(map(mul, row, x))
                rs[f] = r
                cs[f] = c
                # |x*u + c| <= isqrt(r // wl) is exactly wl*(x*u + c)^2 <= r,
                # so every x in [lo, hi] leaves each form a remainder >= 0.
                s = isqrt(r // wl)
                a = -((s + c) // u)
                b = (s - c) // u
                if lo is None:
                    lo, hi = a, b
                else:
                    if a > lo:
                        lo = a
                    if b < hi:
                        hi = b
            if zpref[lvl + 1] and lo < 0:
                lo = 0
            if lvl == 0 and equal:
                # Solve w0 * v^2 == r exactly for the first form instead
                # of scanning, then test every form for equality.
                q, r = divmod(rs[0], w0)
                if r == 0:
                    v = isqrt(q)
                    if v * v == q:
                        for vc in (v, -v) if v else (0,):
                            num = vc - cs[0]
                            if num % ud0 == 0:
                                x0 = num // ud0
                                if (
                                    lo <= x0 <= hi
                                    and not (zpref[1] and x0 == 0)
                                    and all(
                                        wf * (x0 * uf + c) ** 2 == rf
                                        for wf, uf, rf, c in zip(w[0], ud[0], rs, cs)
                                    )
                                ):
                                    x[0] = x0
                                    yield tuple(x), target0
                # fall through to backtrack
                cur[lvl] = 1
                high[lvl] = 0
            else:
                cur[lvl] = lo
                high[lvl] = hi
            entering = False
            continue

        if cur[lvl] > high[lvl]:
            lvl += 1
            if lvl == n:
                return
            continue

        xl = cur[lvl]
        cur[lvl] = xl + 1
        x[lvl] = xl
        if lvl == 0:
            if not (zpref[1] and xl == 0):
                v = xl * ud0 + cen0[0]
                yield tuple(x), target0 - (rem0[0] - w0 * v * v) // m0
            continue
        zpref[lvl] = zpref[lvl + 1] and xl == 0
        lvl -= 1
        entering = True


def enumerate_form(gram, target: int, *, equal: bool = True):
    """Yield (x, F(x)) with F(x) == target (equal=True) or 0 < F(x) <= target."""
    yield from _dfs((gram,), (target,), equal)


def enumerate_two_forms(gram1, target1: int, gram2, target2: int):
    """Yield x with F1(x) == target1 and F2(x) == target2, both forms positive
    definite.  The DFS prunes on both quadrics at every level, which is far
    tighter than enumerating one form and filtering the other."""
    for x, _ in _dfs((gram1, gram2), (target1, target2), True):
        yield x


def gauss_jordan(rows, ncols: int):
    """Bring rows (lists of Fraction or KNum) to reduced row echelon form in
    their first ncols columns, in place; later columns (an identity block,
    right-hand sides) ride along.  Returns the signed product of the pivots:
    the determinant of a square matrix, 0 iff some column lacks a pivot.
    The rational oracle of _box and of the integer changes of coordinates
    (Icosian.from_quat, to_L_coords, int_L_coords).
    """
    det = 1
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            det = 0
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            det = -det
        p = rows[r][col]
        det = det * p
        rows[r] = [v / p for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                f = row[col]
                rows[i] = [v - f * w for v, w in zip(row, rows[r])]
        r += 1
    return det


def _box(gram, target):
    """Every integer x with x^T G x <= target: |x_i|^2 <= target * (G^-1)_ii."""
    n = len(gram)
    aug = [
        [Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(gram)
    ]
    gauss_jordan(aug, n)
    radii = [isqrt(int(target * aug[i][n + i])) for i in range(n)]
    return itertools.product(*(range(-r, r + 1) for r in radii))


def _canonical(x) -> bool:
    """The +-representative: the highest-index nonzero coordinate is positive."""
    nz = [v for v in x if v]
    return bool(nz) and nz[-1] > 0


def _random_gram(dim):
    b = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
    return tuple(
        tuple(sum(b[k][i] * b[k][j] for k in range(dim)) + (i == j) for j in range(dim))
        for i in range(dim)
    )


@pytest.fixture(scope="module")
def icosian_box():
    """(x, trace value, norm-a value) for all canonical x with x^T TRACE_GRAM x <= 4."""
    out = []
    for x in _box(TRACE_GRAM, 4):
        if _canonical(x):
            t = eval_form(TRACE_GRAM, x)
            if t <= 4:
                out.append((x, t, eval_form(NORM_A_GRAM, x)))
    return out


def test_ball_matches_brute_force_on_random_forms():
    for _ in range(25):
        gram = _random_gram(rng.randint(1, 4))
        target = rng.randint(0, 14)
        got = sorted(enumerate_form(gram, target, equal=False))
        want = sorted(
            (x, v)
            for x in _box(gram, target)
            if _canonical(x) and (v := eval_form(gram, x)) <= target
        )
        assert got == want


def test_equality_matches_brute_force_on_random_forms():
    for _ in range(25):
        gram = _random_gram(rng.randint(1, 4))
        target = rng.randint(1, 14)
        got = sorted(enumerate_form(gram, target))
        want = sorted(
            (x, target)
            for x in _box(gram, target)
            if _canonical(x) and eval_form(gram, x) == target
        )
        assert got == want


def test_two_forms_match_brute_force_on_random_forms():
    for _ in range(25):
        dim = rng.randint(1, 4)
        g1, g2 = _random_gram(dim), _random_gram(dim)
        t1 = rng.randint(1, 14)
        vals = {}
        for x in _box(g1, t1):
            if _canonical(x) and eval_form(g1, x) == t1:
                vals.setdefault(eval_form(g2, x), []).append(x)
        for t2, xs in vals.items():
            assert sorted(enumerate_two_forms(g1, t1, g2, t2)) == sorted(xs)
        t2 = max(vals, default=0) + 1
        assert list(enumerate_two_forms(g1, t1, g2, t2)) == []


def test_icosian_forms_match_brute_force(icosian_box):
    for target in (2, 4):
        got = sorted(enumerate_form(TRACE_GRAM, target, equal=False))
        assert got == sorted((x, t) for x, t, _ in icosian_box if t <= target)
    assert sorted(enumerate_form(TRACE_GRAM, 4)) == sorted((x, 4) for x, t, _ in icosian_box if t == 4)
    # nr(x) = 1: the 120 units of reduced norm one, one per +-pair.
    units = sorted(enumerate_two_forms(NORM_A_GRAM, 2, TRACE_GRAM, 4))
    assert units == sorted(x for x, t, a in icosian_box if t == 4 and a == 2)
    assert len(units) == 60


def test_one_per_pair_and_never_zero():
    gram = _random_gram(3)
    for target in (0, 1, 5, 12):
        ball = [x for x, _ in enumerate_form(gram, target, equal=False)]
        assert len(set(ball)) == len(ball)
        for x in ball:
            assert any(x) and _canonical(x)
            assert tuple(-v for v in x) not in ball
    assert list(enumerate_form(gram, 0, equal=False)) == []
    assert list(enumerate_form(gram, 0)) == []
    assert list(enumerate_form(gram, -3, equal=False)) == []
    assert list(enumerate_two_forms(TRACE_GRAM, 0, NORM_A_GRAM, 2)) == []


def test_not_positive_definite_rejected():
    for gram in (((1, 2), (2, 1)), ((0,),), ((1, 1), (1, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, -1))):
        with pytest.raises(DomainError):
            list(enumerate_form(gram, 3))


def _units(pi: OInt) -> int:
    """The budget units the generator search of nr pi charges: one per
    remainder sequence it runs."""
    budget = NodeBudget(1 << 62)
    prime_class_reps(pi, budget)
    return budget.used


def test_budget_error_at_limit_plus_one():
    """The generator search of nr 13 (20 lines divided) raises when the
    (limit+1)-th unit is charged, and runs to its end on exactly its units."""
    pi = OInt(13, 0)
    total = _units(pi)
    assert total > 10
    exact = NodeBudget(total)
    prime_class_reps(pi, exact)
    assert exact.used == total
    for limit in (0, 1, total // 2, total - 1):
        budget = NodeBudget(limit)
        with pytest.raises(BudgetError):
            prime_class_reps(pi, budget)
        assert budget.used == limit + 1


def test_budget_accumulates_across_calls():
    total, more = _units(OInt(13, 0)), _units(OInt(7, 0))
    budget = NodeBudget(1 << 62)
    prime_class_reps(OInt(13, 0), budget)
    prime_class_reps(OInt(7, 0), budget)
    assert budget.used == total + more
    both = budget.used
    # The second call sees what the first one used.
    budget = NodeBudget(both - 1)
    prime_class_reps(OInt(13, 0), budget)
    assert budget.used == total
    with pytest.raises(BudgetError):
        prime_class_reps(OInt(7, 0), budget)
    assert budget.used == both


# -- form preparation against a Fraction oracle ------------------------------


def _fraction_ldl(gram):
    """G = U^T D U over Fractions, U unit upper triangular: (d, u)."""
    n = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    d: list[Fraction] = []
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        di = a[i][i] - sum(d[k] * u[k][i] * u[k][i] for k in range(i))
        if di <= 0:
            raise DomainError("form is not positive definite")
        d.append(di)
        u[i][i] = Fraction(1)
        for j in range(i + 1, n):
            u[i][j] = (a[i][j] - sum(d[k] * u[k][i] * u[k][j] for k in range(i))) / di
    return d, u


def _prepared_oracle(gram):
    """The (W, UD, UN, M) tuple of shortvec's form preparation, from the LDL
    over Fractions."""
    d, u = _fraction_ldl(gram)
    n = len(gram)
    ud = [lcm(*(u[i][j].denominator for j in range(i, n))) for i in range(n)]
    un = [
        tuple(int(u[i][j] * ud[i]) if j > i else 0 for j in range(n))
        for i in range(n)
    ]
    m = lcm(*(d[i].denominator * ud[i] * ud[i] for i in range(n)))
    w = [m * d[i].numerator // (d[i].denominator * ud[i] * ud[i]) for i in range(n)]
    return tuple(w), tuple(ud), tuple(un), m


def _dense_gram(gram, rows):
    """B G B^T by the dense triple sum: every entry of every row, both
    triangles."""
    dim = range(len(gram))
    return tuple(tuple(sum(a[i] * gram[i][j] * b[j] for i in dim for j in dim) for b in rows) for a in rows)


@st.composite
def pd_grams(draw, max_dim=8):
    """B^T B + D for an integer B and a positive diagonal D."""
    n = draw(st.integers(1, max_dim))
    b = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n))
    extra = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    return tuple(
        tuple(sum(r[i] * r[j] for r in b) + (extra[i] if i == j else 0) for j in range(n))
        for i in range(n)
    )


@st.composite
def symmetric_matrices(draw, max_dim=6):
    n = draw(st.integers(1, max_dim))
    upper = {(i, j): draw(st.integers(-4, 6)) for i in range(n) for j in range(i, n)}
    return tuple(tuple(upper[min(i, j), max(i, j)] for j in range(n)) for i in range(n))


@st.composite
def glcd_modules(draw):
    """The HNF rows of p I + beta I, the module whose generator glcd returns."""
    p = Icosian(draw(st.tuples(*[st.integers(-3, 3)] * 8).filter(any)))
    beta = OInt(draw(st.integers(1, 6)), draw(st.integers(0, 3)))
    return right_ideal([p, Icosian.from_o(beta)]).rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pd_grams())
def test_prepared_matches_fraction_ldl_on_pd_grams(gram):
    assert _prepared(gram) == _prepared_oracle(gram)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(glcd_modules())
def test_prepared_matches_fraction_ldl_on_glcd_grams(rows):
    for gram in (TRACE_GRAM, NORM_A_GRAM, gram_of_basis(TRACE_GRAM, rows)):
        assert _prepared(gram) == _prepared_oracle(gram)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(symmetric_matrices())
def test_prepared_rejects_what_the_oracle_rejects(gram):
    try:
        want = _prepared_oracle(gram)
    except DomainError:
        with pytest.raises(DomainError):
            _prepared(gram)
    else:
        assert _prepared(gram) == want


@st.composite
def sparse_rows_and_grams(draw):
    """(gram, rows): a symmetric form of dimension dim and 0..9 rows of that
    length, with many zero entries; the number of rows is free of dim."""
    gram = draw(symmetric_matrices(max_dim=8))
    entry = st.one_of(st.just(0), st.integers(-60, 60))
    rows = draw(st.lists(st.lists(entry, min_size=len(gram), max_size=len(gram)), max_size=9))
    return gram, rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sparse_rows_and_grams())
def test_gram_of_basis_matches_the_dense_triple_sum(case):
    gram, rows = case
    assert gram_of_basis(gram, rows) == _dense_gram(gram, rows)


def test_gram_of_basis_on_hnf_rows_and_non_square_bases():
    rows = right_ideal([Icosian((1, 2, 0, -1, 0, 0, 3, 1)), Icosian.from_int(6)]).rows
    assert sum(v == 0 for row in rows for v in row) >= 28
    assert gram_of_basis(TRACE_GRAM, rows) == _dense_gram(TRACE_GRAM, rows)
    for some in (rows[:3], rows[5:], rows + rows[:2], ()):
        assert gram_of_basis(TRACE_GRAM, some) == _dense_gram(TRACE_GRAM, some)
