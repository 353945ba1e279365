"""Exact short-vector enumeration for positive definite integer forms.

One depth-first search walks the integer vectors x with F_i(x) = x^T G_i x
equal to (or at most) a target for each of k symmetric positive definite
integer Gram matrices G_i at once, pruning on every form at every level.
enumerate_form is its one-form case (an equality or a ball) and
enumerate_two_forms its two-form equality case.  Each quadratic form is
completed into a sum of weighted squares once per Gram matrix, by an exact
LDL decomposition read off the integral Gram-Schmidt data (leading minors
d_i and the integers lambda_ij of Cohen, GTM 138, Alg. 2.6.7); the search
itself runs on rescaled integers only, so the enumeration is exact and
provably complete (no floating point, no epsilon, no rationals).  In an
equality search the last coordinate is solved for exactly instead of
scanned.

Vectors come in +-pairs; exactly one representative per pair is produced
(the one whose highest-index nonzero coordinate is positive).  The zero
vector is never produced.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt, lcm
from operator import mul

from .errors import BudgetError, DomainError


class NodeBudget:
    """Mutable node counter shared by possibly-nested enumerations."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0


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


def _dfs(grams, targets, equal: bool, budget: NodeBudget | None):
    """Yield (x, F_0(x)) with F_i(x) == targets[i] for every form (equal=True)
    or 0 < F_0(x) and F_i(x) <= targets[i] for every form (equal=False)."""
    n = len(grams[0])
    forms = [_prepared(tuple(tuple(int(v) for v in row) for row in g)) for g in grams]
    if min(targets) < 0 or (equal and 0 in targets):
        return
    limit = budget.limit - budget.used if budget is not None else None
    used = 0

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
    try:
        while True:
            if entering:
                used += 1
                if limit is not None and used > limit:
                    raise BudgetError(f"enumeration exceeded {budget.limit} nodes")
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
    finally:
        if budget is not None:
            budget.used += used


def enumerate_form(gram, target: int, *, equal: bool = True, budget: NodeBudget | None = None):
    """Yield (x, F(x)) with F(x) == target (equal=True) or 0 < F(x) <= target."""
    yield from _dfs((gram,), (target,), equal, budget)


def enumerate_two_forms(
    gram1,
    target1: int,
    gram2,
    target2: int,
    *,
    budget: NodeBudget | None = None,
):
    """Yield x with F1(x) == target1 and F2(x) == target2, both forms positive
    definite.  The DFS prunes on both quadrics at every level, which is far
    tighter than enumerating one form and filtering the other."""
    for x, _ in _dfs((gram1, gram2), (target1, target2), True, budget):
        yield x


def eval_form(gram, x) -> int:
    """x^T G x for an integer symmetric matrix G."""
    total = 0
    n = len(x)
    for i in range(n):
        xi = x[i]
        if not xi:
            continue
        row = gram[i]
        total += row[i] * xi * xi
        for j in range(i + 1, n):
            if x[j]:
                total += 2 * row[j] * xi * x[j]
    return total


def gram_of_basis(gram, rows):
    """Gram matrix B G B^T of lattice vectors given as integer rows, for a
    symmetric G.  Each row is read by its nonzero entries only, and only the
    upper triangle is summed."""
    n = len(rows)
    nonzero = [[(j, x) for j, x in enumerate(r) if x] for r in rows]
    gb = [[sum(x * gi[j] for j, x in nz) for gi in gram] for nz in nonzero]
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        ga, oa = gb[a], out[a]
        for b in range(a, n):
            oa[b] = out[b][a] = sum(ga[j] * x for j, x in nonzero[b])
    return tuple(map(tuple, out))
