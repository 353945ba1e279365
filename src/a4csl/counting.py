"""Counting CSLs: enumeration by index, the multiplicative counting function
f(n), and its Dirichlet series coefficients.

f is given at prime powers by a four-way case split on the splitting of p
in Q(sqrt5); dirichlet_coeffs recomputes the coefficient list a second way
from the Euler product (formal series division per prime) and insists both
routes agree.

enumerate_rotations(n) produces one icosian per right-ideal class q*I with
coincidence index n.  The strategy is exact and complete: list candidate
reduced norms m (totally positive, lcm(m, m') = n, one representative per
tau^2-scaling orbit) and build the classes of each m from the primes pi of
o that divide it.  The N(pi)+1 classes of norm pi (the generators) come
from one short-vector search each that stops as soon as they are complete
(prime_class_reps): the class of each new vector x brings those of u*x for
every norm-1 unit u, so only a few vectors are drawn and the node budget
pays for no more.  That unit orbit comes from a walk under two generating
units, two orbit minima per class, while at most 30 classes of the norm
are unfound (the orbit then holds at most 30), and from a sweep over 60
units, 60 orbit minima, otherwise.  The classes of norm pi^k are the
products q*g of a class q of norm pi^(k-1) with a generator g that pi does
not divide (non-backtracking walks on the Bruhat-Tits tree, so none
repeats).  That divisibility is one integer test per prime, set up once
(_multiple_test): p divides the 8 coordinates for pi = p inert, and
otherwise each a_i + r b_i, for the integer r = tau mod pi.  The classes
of m are the products of one walk per prime, split into a head and a tail
(_class_reps_by_products).  All products of m share one nr, so one power
of tau, found once per norm, scales them to reduced norm m; being
central, it is applied once to each entry of the first part, not to each
product.  Each product is then replaced by the least vector of its orbit
under the 120 norm-1 units, taken with its last nonzero coordinate positive
(_orbit_min's form): the first vector of its class that a full sorted
short-vector search meets.  Class counts are checked against the local
ideal counts N(pi)^k + N(pi)^(k-1), and the orbit minima against each
other: no two products may give one class.

census takes the classes of a tail-free norm (every prime at full depth
j = k) as the scaled products themselves, in walk order, with no orbit
minima.  There each product carries its own criterion key, its head walks,
so two products in one class would give one CSL HNF under two keys, which
the HNF -> key map of census refuses; distinctness is checked all the same.
Only where a norm has a tail do several classes share one head key, and
only there are the orbit minima computed and compared.

The packed kernel icosian._orbit_min computes the orbit minima for these
representatives and for the class keys of the generator search: 60 units,
one per +-pair, in signed 8-, 16- or 32-bit digits, with signs chosen by
bit masks and the minimum by comparing bytes.  Every product is x*g read
through the rows of I*g (_right_rows), taken once per generator or part.

census(n) takes each class q to its CSL, the phi_plus image of q_alpha =
alpha q, and keys it by its criterion ideal q I + beta I without building
it: that ideal is the product of the heads of q times I, since locally I is
a matrix ring and the ideals above q I form a chain (proof in _class_csls),
so the head walks name it.  alpha depends on nr(q) alone, which the
enumerator leaves with each class, so it is computed once per norm and
folded into that norm's table of the phi_plus images of the basis
products; primitivity is one integer content norm per class.  census
counts distinct CSL HNFs, checks the count against f(n) and the key
partition against the HNF partition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import isqrt

from .errors import BudgetError, DomainError
from .field import (
    INERT,
    ONE_O,
    OInt,
    RAMIFIED,
    SQRT5,
    TAU,
    factor_int,
    factor_o,
    is_prime,
    lcm_o,
    split_prime_above,
    sqrt_o,
    splitting_type,
    tau_pow,
    unit_normalize,
)
from .icosian import (
    Icosian,
    NORM_A_GRAM,
    TRACE_GRAM,
    _apply8,
    _combine,
    _content_norm,
    _left_rows,
    _orbit_min,
    _right_rows,
    _sparse,
    _split,
    _unit_matrices,
)
from .lattice import SublatticeL, _phi_plus_table
from .shortvec import NodeBudget, enumerate_two_forms

DEFAULT_NMAX = 30
DEFAULT_BUDGET = 200_000_000


def f_prime_power(p: int, r: int) -> int:
    """Number of CSLs of index p**r."""
    if r < 1:
        raise DomainError("exponent must be >= 1")
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p == 5:
        return 6 * 5 ** (2 * r - 2)
    if p % 5 in (2, 3):
        return (p * p + 1) * p ** (2 * r - 2)
    # (p+1)^2 / (p^3-1) * (p^(2r+1) + p^(2r-2) - c), c = 2 p^((r-1)/2) for
    # odd r and 2 (p^2+1)/(p+1) p^((r-2)/2) for even r
    num = (p + 1) ** 2 * (p ** (2 * r + 1) + p ** (2 * r - 2))
    if r % 2:
        num -= 2 * (p + 1) ** 2 * p ** ((r - 1) // 2)
    else:
        num -= 2 * (p + 1) * (p * p + 1) * p ** ((r - 2) // 2)
    val, rem = divmod(num, p**3 - 1)
    if rem:
        raise AssertionError(f"f({p}^{r}) must be an integer, got {num}/{p**3 - 1}")
    return val


def f(n: int) -> int:
    """Number of CSLs of index n (multiplicative; f(1) = 1)."""
    if n < 1:
        raise DomainError("index must be >= 1")
    out = 1
    for p, r in factor_int(n):
        out *= f_prime_power(p, r)
    return out


def _series_div(num, den, nterms: int) -> list[int]:
    if den[0] != 1:
        raise AssertionError(f"series divisor must have constant term 1, got {den[0]}")
    out = []
    for k in range(nterms + 1):
        c = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            c -= den[j] * out[k - j]
        out.append(c)
    return out


def _local_euler_series(p: int, nterms: int) -> list[int]:
    """Coefficients of the local Euler factor as a power series in p^-s."""
    if p == 5:
        num, den = [1, -19], [1, -25]
    elif p % 5 in (2, 3):
        num, den = [1, 1], [1, -p * p]
    else:
        num = [1, 1 + 2 * p, 2 + p, p]
        den = [1, -p * p, -p, p**3]  # (1 - p^2 x)(1 - p x^2)
    return _series_div(num, den, nterms)


def euler_product_coeffs(nmax: int) -> list[int]:
    """[f(1)..f(nmax)] read off the Euler product (independent route)."""
    series = {}
    out = []
    for n in range(1, nmax + 1):
        val = 1
        for p, r in factor_int(n):
            if p not in series:
                rmax = 1
                while p ** (rmax + 1) <= nmax:
                    rmax += 1
                series[p] = _local_euler_series(p, rmax)
            val *= series[p][r]
        out.append(val)
    return out


def dirichlet_coeffs(nmax: int) -> list[int]:
    """[f(1)..f(nmax)], cross-checked against the Euler-product expansion."""
    if nmax < 1:
        raise DomainError("need at least one coefficient")
    direct = [f(n) for n in range(1, nmax + 1)]
    via_euler = euler_product_coeffs(nmax)
    if direct != via_euler:
        raise AssertionError("Euler product disagrees with closed form")
    return direct


def _split_exponent_pairs(e: int) -> list[tuple[int, int]]:
    # max(a, b) = e with a + b even (admissibility), ordered deterministically
    out = [(e, b) for b in range(e % 2, e + 1, 2)]
    out += [(a, e) for a in range(e % 2, e, 2)]
    return out


def _norm_candidate(x: OInt) -> tuple[OInt, int]:
    """(y, j): y the member of the tau^2-scaling orbit of x that
    norm_candidates lists, and x = tau^(2j) * y when x is totally positive."""
    y, k, _sign = unit_normalize(x)
    if y.field_norm() < 0:
        return y * TAU, (k - 1) // 2
    return y, k // 2


def norm_candidates(n: int) -> list[OInt]:
    """Candidate reduced norms for coincidence index n.

    Totally positive m with lcm(m, m') = n, one per tau^2-scaling orbit
    (the orbit a right-ideal class sweeps out), sorted deterministically.
    """
    if n < 1:
        raise DomainError("index must be >= 1")
    if n == 1:
        return [OInt(1, 0)]
    parts = []
    for p, e in factor_int(n):
        tag = splitting_type(p)
        if tag in (RAMIFIED, INERT):
            parts.append([OInt(p, 0) ** e])
        else:
            pi = split_prime_above(p)
            pj = unit_normalize(pi.conj())[0]
            parts.append([pi**a * pj**b for a, b in _split_exponent_pairs(e)])
    out = []
    for combo in itertools.product(*parts):
        m = OInt(1, 0)
        for part in combo:
            m = m * part
        y = _norm_candidate(m)[0]
        if not y.is_totally_positive():
            raise AssertionError(f"candidate {y} is not totally positive")
        if lcm_o(y, y.conj()) != OInt(n, 0):
            raise AssertionError(f"candidate {y} has wrong lcm")
        out.append(y)
    out.sort(key=lambda v: (v.a, v.b))
    return out


# A walk costs two orbit minima per class of the orbit, a sweep 60.
_WALK_MAX = 30


def _unit_walk(zc: tuple[int, ...], key: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The keys of the classes u*x*I over the norm-1 units u, key that of x,
    reached by left multiplication with the two generating units."""
    orbit, frontier, gens = {key}, [zc], _unit_matrices().walk
    while frontier:
        y = frontier.pop()
        for rows in gens:
            z = _apply8(y, rows)
            k = _orbit_min(z)
            if k not in orbit:
                orbit.add(k)
                frontier.append(z)
    return orbit


def prime_class_reps(pi: OInt, budget: NodeBudget | None = None) -> list[tuple[int, ...]]:
    """One coordinate vector per right-ideal class with nr exactly pi, a
    totally positive prime of o or 1: the generators of the enumeration,
    sorted, each the least of its class (_orbit_min's form).

    The right ideals of norm pi are the N(pi)+1 lines of I/pi*I, a matrix
    ring over o/pi (1 ideal, I itself, for pi = 1), and each is principal,
    x*I with nr(x) = pi; its generators of nr exactly pi are the x*u over the
    norm-1 units u, so the key _orbit_min(x) names the ideal.  The search
    over the icosians of nr pi is consumed lazily: for each x with a new key
    the keys of u*x over the norm-1 units u join too, since nr(u*x) = pi and
    left multiplication by a unit permutes the right ideals of norm pi.
    While at most _WALK_MAX classes are unfound, so is that orbit, and a
    walk under two generating units finds it (_unit_walk); otherwise a sweep
    over 60 units u, one per +-pair (-u*x = -(u*x)), does.  Both give the
    whole orbit, so the search stops at the same vector either way.
    N(pi)+1 distinct keys are then every class, and the search stops there:
    the budget is charged only for the nodes before that point.  A search
    that ends short of them, or more keys than ideals, raises.
    """
    if not pi.is_totally_positive():
        raise DomainError("reduced norms are totally positive")
    if pi != ONE_O and [e for _p, e, _tag in factor_o(pi).factors] != [1]:
        raise DomainError(f"{pi} is not a prime of o")
    expected = 1 if pi == ONE_O else pi.abs_norm() + 1
    keys: set[tuple[int, ...]] = set()
    search = enumerate_two_forms(NORM_A_GRAM, 2 * pi.a, TRACE_GRAM, 2 * pi.trace(), budget=budget)
    try:
        for zc in search:
            key = _orbit_min(zc)
            if key in keys:
                continue
            if expected - len(keys) <= _WALK_MAX:
                keys |= _unit_walk(zc, key)
            else:
                keys.update(_orbit_min(_apply8(zc, mat)) for mat in _unit_matrices().lefts)
            if len(keys) >= expected:
                break
    finally:
        search.close()
    if len(keys) != expected:
        raise AssertionError(f"nr {pi}: {len(keys)} classes, the ideal count is {expected}")
    return sorted(keys)


def _totally_positive(pi: OInt) -> OInt:
    """The totally positive associate of a prime in unit-normal form."""
    return pi * TAU if pi.field_norm() < 0 else pi


def _prime_power_classes(
    pi: OInt, k: int, budget: NodeBudget | None, memo: dict
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The coordinates of one icosian g_1*...*g_k of nr pi^k per right-ideal
    class, pi totally positive prime, with its walk: the indices of the
    generators g_i.

    k = 1 is one stopped short-vector search; higher powers extend each
    class of pi^(k-1) by every generator and drop the one backtracking
    product, which pi divides.
    """
    key = (pi, k)
    if key not in memo:
        if k == 1:
            memo[key] = [(zc, (t,)) for t, zc in enumerate(prime_class_reps(pi, budget))]
        else:
            gens = [_right_rows(g) for g, _ in _prime_power_classes(pi, 1, budget, memo)]
            divides = _multiple_test(pi)
            memo[key] = [
                (x, walk + (t,))
                for q, walk in _prime_power_classes(pi, k - 1, budget, memo)
                for t, rows in enumerate(gens)
                if not divides(x := _apply8(q, rows))
            ]
    return memo[key]


def _multiple_test(pi: OInt):
    """The test that the prime pi of o divides the icosian of coordinates zc,
    i.e. each o-coordinate a_i + b_i tau: for pi = p inert, p | a_i, b_i;
    else o/pi = Z/p, p = N(pi), where tau = r = -a/b for pi = a + b tau."""
    n = pi.abs_norm()
    p = isqrt(n)
    if p * p == n:
        return lambda zc: not any(v % p for v in zc)
    r = -pi.a * pow(pi.b, -1, n) % n
    return lambda zc: not any((zc[i] + r * zc[i + 4]) % n for i in range(4))


def _class_reps_by_products(
    m: OInt, budget: NodeBudget | None, memo: dict, least: bool = True
) -> list[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """(rep, head walks) per right-ideal class with nr exactly m, sorted by
    rep, the least vector of the class.  With beta as in csl.criterion_ideal,
    pi^k in m has the depth j = min(k, v_pi(beta)) >= 1 (j < k only for
    sqrt5 and the larger power of a split p).  The classes are the products
    of one head per prime, a walk of depth j, and one tail per prime with
    j < k, a walk of depth k - j that continues the head (pi does not
    divide the product).

    With least False and no tail, rep is the scaled product itself, in walk
    order: each class has its own head walks, and census checks them
    against the CSL HNFs (module docstring)."""
    if m == ONE_O:
        # Searched like the generators, so that index 1 is charged to the
        # budget (a budget below 8 nodes truncates a census before n = 1).
        return [(zc, ()) for zc in prime_class_reps(m, budget)]
    d = isqrt(m.abs_norm())
    beta = OInt(d // 5, 0) * SQRT5 if SQRT5.divides(m) else OInt(d, 0)
    heads, tails, cut = [], [], []
    expected = 1
    nr = ONE_O
    for pi, k, _tag in factor_o(m).factors:
        pi = _totally_positive(pi)
        j = 0
        while j < k and pi.divides(beta):
            beta, j = beta.exact_div(pi), j + 1
        heads.append(_prime_power_classes(pi, j, budget, memo))
        if j < k:
            tails.append(_prime_power_classes(pi, k - j, budget, memo))
            cut.append(_multiple_test(pi))
        nr = nr * pi**k
        np = pi.abs_norm()
        expected *= np**k + np ** (k - 1)
    # Every product has nr = nr above, so one tau^2 scaling (a central
    # scalar, one integer matrix) of the first part takes them all to m.
    y, j = _norm_candidate(nr)
    if y != m:
        raise AssertionError(f"{m} is not the norm candidate {y} of its primes")
    products = [(zc, (walk,)) for zc, walk in heads[0]]
    if j:
        scale = _left_rows(Icosian.from_o(tau_pow(-j)).zc)
        products = [(_apply8(zc, scale), walks) for zc, walks in products]
    # One multiplication per part and product; a tail is checked once it is on.
    for part in heads[1:]:
        part = [(_right_rows(zc), walk) for zc, walk in part]
        products = [
            (_apply8(x, rows), walks + (walk,))
            for x, walks in products
            for rows, walk in part
        ]
    for divides, part in zip(cut, tails):
        part = [_right_rows(zc) for zc, _ in part]
        products = [
            (z, walks)
            for x, walks in products
            for rows in part
            if not divides(z := _apply8(x, rows))
        ]
    if (got := Icosian(products[0][0]).nr()) != m:
        raise AssertionError(f"nr {m}: a product has nr {got}, not {m}")
    if len(products) != expected:
        raise AssertionError(f"nr {m}: {len(products)} classes, the ideal count is {expected}")
    if not (least or cut):
        return products
    classes = sorted((_orbit_min(zc), walks) for zc, walks in products)
    if len({rep for rep, _key in classes}) != len(classes):
        raise AssertionError(f"nr {m}: two products give the same class")
    return classes


def enumerate_rotations(
    n: int,
    *,
    budget: NodeBudget | None = None,
    memo: dict | None = None,
    least: bool = True,
) -> list[Icosian]:
    """One primitive admissible icosian per coincidence rotation class
    (right-ideal class) with coincidence index n: the least vector of each
    class, sorted within each norm candidate.

    memo holds the generators and prime-power classes between calls that
    share it (census_table passes one per table); the budget is charged
    for the searches that fill it.  memo[n] is left holding, in order, the
    reduced norm m of each class with its head walks, for census.  census
    passes least=False: the classes of a tail-free norm are then the
    products as built, whose distinctness census checks by their CSLs.
    """
    if memo is None:
        memo = {}
    reps, norm_walks = [], []
    for m in norm_candidates(n):
        for zc, walks in _class_reps_by_products(m, budget, memo, least):
            reps.append(Icosian(zc))
            norm_walks.append((m, walks))
    memo[n] = norm_walks
    return reps


@dataclass(frozen=True)
class SigmaCensus:
    """Counts for one coincidence index."""

    n: int
    rotation_classes: int
    csl_count: int
    f_formula: int

    @property
    def match(self) -> bool:
        return self.csl_count == self.f_formula


def _norm_data(m: OInt, n: int):
    """What the CSL stage needs of a reduced norm m of index n: the table of
    q -> the rows of phi_plus(alpha q I) in L, nr(alpha q) = n (so m is
    admissible), and the unit-normal form of m."""
    if lcm_o(m, m.conj()) != OInt(n, 0):
        raise AssertionError(f"lcm of {m} and its conjugate is not {n}")
    alpha = sqrt_o(OInt(n, 0).exact_div(m))
    if alpha is None:
        raise AssertionError(f"{n}/{m} must be a square in o")
    table = _sparse(
        _combine(row, _phi_plus_table(), 32) for row in _left_rows(Icosian.from_o(alpha).zc)
    )
    return table, unit_normalize(m)[0]


def _class_csls(n: int, reps: list[Icosian], norm_walks):
    """Yield (CSL, key) for each class rep q of index n with (m, w), m = nr(q)
    as the enumerator built the class and w its head walks: the CSL
    phi_plus_image(alpha q), the key the unit-normal m with w.  Nothing of
    q but its coordinates is read: the per-norm data comes from m.

    w names qI + beta I = h_1*...*h_r*I, q = h_1*...*h_r*t_1*...*t_s.  At a
    prime pi^k of nr(q) (elsewhere both are I), I is M_2(o_pi) and xI, for
    x primitive of nr pi^k, is fixed by the lattice x o_pi^2 of cokernel
    o/pi^k, which has one lattice of each index above it: xI + pi^v I is the
    ideal of norm pi^min(k,v) above xI.  Write q = A h C t D, A, C, D units
    at pi, h and t its head and tail (t = 1 if j = k): hCtI lies in hI, of
    norm pi^j, so qI + beta I = A h I = h_1*...*h_r*I there (beta central).
    Conversely that ideal is h_1 I at the first prime, h_1 h_2 I at the
    second, and so on.  (Walk prefixes of q = w_1*...*w_r are no key: w_1
    enters the ideals at the later primes, and they split CSLs at n = 35.)
    q is primitive iff the norm of its content ideal is 1 (_content_norm,
    integer gcds of the coordinates).
    """
    per_norm = {}
    for q, (m, w) in zip(reps, norm_walks, strict=True):
        if m not in per_norm:
            per_norm[m] = _norm_data(m, n)
        table, key = per_norm[m]
        if _content_norm(q.zc) != 1:
            raise DomainError(f"class rep {q} is not primitive")
        lat = SublatticeL.from_integer_rows(_split(_combine(q.zc, table, 32), 4))
        if lat.index != n:
            raise DomainError(f"CSL index {lat.index} != {n} for {q}")
        yield lat, (key, w)


def census(n: int, *, budget: NodeBudget | None = None, memo: dict | None = None) -> SigmaCensus:
    """Enumerate index-n rotations, count distinct CSLs, compare with f(n)
    and the criterion partition with the CSL HNF partition.

    Raises on a count mismatch, since the counting theorem is exact; memo
    is passed on to enumerate_rotations.
    """
    memo = {} if memo is None else memo
    reps = enumerate_rotations(n, budget=budget, memo=memo, least=False)
    by_key, by_hnf = {}, {}
    for lat, key in _class_csls(n, reps, memo.pop(n)):
        if by_key.setdefault(key, lat.hnf) != lat.hnf or by_hnf.setdefault(lat.hnf, key) != key:
            raise AssertionError("criterion dedup disagrees with HNF dedup")
    result = SigmaCensus(n, rotation_classes=len(reps), csl_count=len(by_hnf), f_formula=f(n))
    if not result.match:
        raise AssertionError(
            f"census({n}): {result.csl_count} CSLs but f({n}) = {result.f_formula}"
        )
    return result


def census_table(nmax: int, *, budget: NodeBudget | None = None) -> tuple[list[SigmaCensus], bool]:
    """Censuses for n = 1..nmax.  Returns (rows, truncated); on budget
    exhaustion the table is cut short and truncated is True."""
    if nmax < 1:
        raise DomainError("nmax must be >= 1")
    rows = []
    truncated = False
    memo: dict = {}
    for n in range(1, nmax + 1):
        try:
            rows.append(census(n, budget=budget, memo=memo))
        except BudgetError:
            truncated = True
            break
    return rows, truncated


def census_csv(rows, truncated: bool = False) -> str:
    lines = ["n,rotation_classes,csl_count,f_formula,match"]
    for r in rows:
        lines.append(
            f"{r.n},{r.rotation_classes},{r.csl_count},{r.f_formula},{str(r.match).lower()}"
        )
    if truncated:
        lines.append("# truncated: enumeration budget exceeded")
    return "\n".join(lines) + "\n"
