import json
import random
import re
from collections import Counter
from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import a4csl.icosian as icosian
from a4csl.csl import rotation_of
from a4csl.errors import DomainError
from a4csl.counting import prime_class_reps
from a4csl.field import KNum, OInt, SQRT5, TAU, lcm_o, sqrt_o, tau_pow, unit_normalize
from a4csl.icosian import (
    NORM_A_GRAM,
    TRACE_GRAM,
    Icosian,
    Rank8Module,
    ZB_ICO,
    _CJ8,
    _E8_T,
    _E8_U,
    _MUL,
    _TR4,
    _TRG8,
    _TW8,
    _TWO_E,
    _apply8,
    _balance,
    _content_norm,
    _least_generator,
    _left_rows,
    _nearest_icosian,
    _orbit,
    _right_rows,
    den,
    extension,
    glcd,
    is_admissible,
    is_primitive,
    is_unit,
    left_divides,
    left_ideal_rows,
    right_ideal,
    same_right_ideal,
    sigma_index,
    to_icosian,
    unit_group,
    unit_right_mul_matrices,
)
from a4csl.quaternion import Quat, parse_quat
from a4csl.shortvec import enumerate_form, eval_form, gram_of_basis
from test_quaternion import add, conj, inverse, mul, nr, scale, tr, twist
from test_shortvec import gauss_jordan

rng = random.Random(31337)

R_ICO = to_icosian(parse_quat("(t,2*t,0,0)"))
S_ICO = to_icosian(parse_quat("(1+t,t,t,1)"))

# The o-basis e_1..e_4 of I over K, written out apart from icosian._TWO_E,
# and the Z-basis (e_1..e_4, tau e_1..tau e_4): the rational oracle's basis.
_H = Fraction(1, 2)
BASIS = (
    Quat.of(1, 0, 0, 0),
    Quat.of(0, 1, 0, 0),
    Quat.of(_H, _H, _H, _H),
    Quat(KNum(_H, -_H), KNum(0, _H), KNum(0, 0), KNum(_H, 0)),
)
ZBASIS_QUATS = BASIS + tuple(scale(b, KNum(0, 1)) for b in BASIS)


def rand_icosian(span=3):
    return Icosian(tuple(rng.randint(-span, span) for _ in range(8)))


def test_membership_examples():
    assert R_ICO is not None
    assert R_ICO.coords() == (OInt(0, 1), OInt(0, 2), OInt(0, 0), OInt(0, 0))
    half = to_icosian(parse_quat("(1/2,1/2,1/2,1/2)"))
    assert half is not None
    assert half.coords() == (OInt(0, 0), OInt(0, 0), OInt(1, 0), OInt(0, 0))
    assert to_icosian(parse_quat("(1/2,0,0,0)")) is None


def test_membership_matches_quat():
    for _ in range(200):
        x = rand_icosian()
        back = to_icosian(x.quat())
        assert back == x


def test_icosian_ring_closure_and_integrality():
    for i in range(8):
        for j in range(8):
            prod = ZB_ICO[i] * ZB_ICO[j]
            assert to_icosian(mul(ZB_ICO[i].quat(), ZB_ICO[j].quat())) == prod
    for _ in range(200):
        x, y = rand_icosian(), rand_icosian()
        assert (x * y).quat() == mul(x.quat(), y.quat())
        n = x.nr()
        assert n.to_knum() == nr(x.quat())  # nr lands in o
        assert x.tr_q().to_knum() == tr(x.quat())


def test_twist_stability():
    # twist maps the ring into itself (the basis images are integral)
    for zb in ZB_ICO:
        assert to_icosian(twist(zb.quat())) == zb.twist()
    for _ in range(200):
        x = rand_icosian()
        assert x.twist().quat() == twist(x.quat())
        assert x.twist().twist() == x


def test_primitivity_examples():
    assert is_primitive(R_ICO)
    # scaling by a unit of o (tau) keeps the content a unit; scaling by a
    # non-unit does not
    assert is_primitive(R_ICO.scale_o(TAU))
    assert not is_primitive(R_ICO.scale_o(OInt(2, 0)))
    assert not is_primitive(R_ICO.scale_o(OInt(-1, 2)))  # sqrt5 scaling
    assert is_primitive(Icosian.from_int(1))
    with pytest.raises(DomainError):
        Icosian.from_int(0).content()


def test_admissibility_and_den():
    assert is_admissible(R_ICO) and den(R_ICO) == 5
    one = Icosian.from_int(1)
    assert is_admissible(one) and den(one) == 1
    tau_scalar = Icosian.from_o(TAU)
    assert is_admissible(tau_scalar)
    assert den(tau_scalar.primitive_part()) == 1
    with pytest.raises(DomainError):
        den(R_ICO.scale_o(OInt(2, 0)))  # not primitive


def test_den_squared_is_norm_of_nr():
    for _ in range(300):
        x = rand_icosian()
        if x.is_zero() or not x.is_primitive():
            continue
        n = x.nr().abs_norm()
        if is_admissible(x):
            assert den(x) ** 2 == n
        else:
            assert isqrt(n) ** 2 != n


def test_extension_examples():
    q_alpha, alpha = extension(R_ICO)
    assert alpha == OInt(-1, 1)
    assert q_alpha == to_icosian(parse_quat("(1,2,0,0)"))
    one = Icosian.from_int(1)
    assert extension(one) == (one, OInt(1, 0))
    s_alpha, s_a = extension(S_ICO)
    assert s_a == OInt(-1, 1)
    assert s_alpha.nr() == OInt(5, 0)


def test_extension_pair_relations():
    wide = random.Random(2718)
    extra = [Icosian.from_int(1), Icosian.from_o(TAU), R_ICO.twist(), S_ICO.conj()] + [
        Icosian(tuple(wide.randint(-9, 9) for _ in range(8))) for _ in range(300)
    ]
    for q in [R_ICO, S_ICO] + [rand_icosian() for _ in range(200)] + extra:
        if q.is_zero() or not q.is_primitive():
            continue
        if not is_admissible(q):
            continue
        q_alpha, alpha = extension(q)
        m = q.nr()
        lam = lcm_o(m, m.conj())
        assert q_alpha.nr() == lam and lam.b == 0 and lam.a > 0
        assert q_alpha.nr() == OInt(sigma_index(q), 0)
        rot = rotation_of(q)
        assert (rot.den, rot.sigma, rot.alpha) == (den(q), sigma_index(q), alpha)
        # twisting the input conjugates alpha, up to the sign convention
        t_alpha, t_a = extension(q.twist())
        assert t_a in (alpha.conj(), -alpha.conj())
        assert q_alpha.twist().nr() == lam


def test_unit_group_structure():
    units = unit_group()
    assert len(units) == 120
    keys = {u.zc for u in units}
    sample = rng.sample(units, 20)
    for u in sample:
        assert u.nr() == OInt(1, 0)
        assert inverse(u.quat()) == to_icosian(inverse(u.quat())).quat()
        assert to_icosian(inverse(u.quat())).zc in keys
        for v in rng.sample(units, 10):
            assert (u * v).zc in keys


def test_is_unit_examples():
    assert is_unit(ZB_ICO[1])  # i
    assert is_unit(to_icosian(parse_quat("(1/2,1/2,1/2,1/2)")))
    assert not is_unit(R_ICO)
    assert is_unit(Icosian.from_o(TAU))  # unit of o, nr = tau^2


def test_same_right_ideal():
    for u in rng.sample(unit_group(), 10):
        assert same_right_ideal(R_ICO, R_ICO * u)
    assert not same_right_ideal(R_ICO, S_ICO)
    assert same_right_ideal(R_ICO, R_ICO.scale_o(TAU))
    with pytest.raises(DomainError):
        same_right_ideal(R_ICO, Icosian.from_int(0))


def test_right_ideal_examples():
    full = right_ideal([Icosian.from_int(1)])
    assert full.index() == 1
    rid = right_ideal([R_ICO])
    assert rid.index() == R_ICO.nr().abs_norm() ** 2 == 625
    again = right_ideal([R_ICO, Icosian.from_int(1)])
    assert again.index() == 1
    # closed under right multiplication by I
    for zb in ZB_ICO:
        for b in rid.basis():
            assert rid.contains(b * zb)


def test_glcd_examples():
    one = Icosian.from_int(1)
    d = glcd(R_ICO, OInt(1, 0))
    assert same_right_ideal(d, one)
    beta = OInt(3, 1)
    u = rng.choice(unit_group())
    d2 = glcd(Icosian.from_o(beta) * u, beta)
    assert same_right_ideal(d2, Icosian.from_o(beta))

    d3 = glcd(R_ICO, OInt(5, 0))
    mod = right_ideal([R_ICO, Icosian.from_o(OInt(5, 0))])
    assert right_ideal([d3]).rows == mod.rows
    assert left_divides(d3, R_ICO)
    assert left_divides(d3, Icosian.from_o(OInt(5, 0)))
    with pytest.raises(DomainError):
        glcd(R_ICO, OInt(0, 0))


def test_glcd_random_properties():
    for _ in range(25):
        p = rand_icosian(2)
        if p.is_zero():
            continue
        beta = OInt(rng.randint(1, 4), rng.randint(0, 2))
        if beta.is_zero():
            continue
        d = glcd(p, beta)
        mod = right_ideal([p, Icosian.from_o(beta)])
        assert right_ideal([d]).rows == mod.rows
        assert left_divides(d, p) and left_divides(d, Icosian.from_o(beta))
        # deterministic representative
        assert glcd(p, beta) == d


def test_glcd_equal_examples():
    """Equality of glcds as left divisors, d1 I == d2 I, is same_right_ideal."""
    d = glcd(R_ICO, OInt(5, 0))
    u = rng.choice(unit_group())
    assert same_right_ideal(d, d * u)
    assert not same_right_ideal(Icosian.from_int(1), R_ICO)
    assert same_right_ideal(Icosian.from_int(2), ZB_ICO[1].scale_o(OInt(2, 0)))


def test_rank8_module_sum():
    a = right_ideal([R_ICO])
    b = right_ideal([S_ICO])
    s = a.sum(b)
    assert s.index() <= min(a.index(), b.index())
    for row in a.rows:
        assert s.contains(Icosian(row))


def test_module_json():
    m = right_ideal([R_ICO])
    flat = m.to_json()
    assert len(flat) == 64
    assert Rank8Module.from_rows([flat[8 * i : 8 * i + 8] for i in range(8)]) == m


def _inverse_route(d, x):
    """d^-1 x through the rational quaternion inverse: the icosian, or None."""
    return to_icosian(mul(inverse(d.quat()), x.quat()))


def test_integer_left_division_matches_quaternion_inverse():
    units = unit_group()
    pair_rng = random.Random(2718)
    kinds = ("r*u", "u*r", "r*s", "unrelated", "c*r*s+r*b")
    seen = dict.fromkeys(kinds, 0)
    agree = {"divides": 0, "same": 0}
    for k in range(300):
        r = Icosian(tuple(pair_rng.randint(-3, 3) for _ in range(8)))
        s = Icosian(tuple(pair_rng.randint(-2, 2) for _ in range(8)))
        if r.is_zero() or s.is_zero():
            continue
        u = pair_rng.choice(units).scale_o(TAU ** pair_rng.randint(0, 2))
        kind = kinds[k % len(kinds)]
        seen[kind] += 1
        if kind == "c*r*s+r*b":
            # d = c*r with c not a unit: d^-1 x = s + b/c misses I in the
            # coordinates of the basis element b only
            d = r.scale_o(OInt(pair_rng.randint(2, 3), pair_rng.randint(0, 1)))
            x = d * s + r * pair_rng.choice(ZB_ICO)
        else:
            x, d = {"r*u": (r * u, r), "u*r": (u * r, r), "r*s": (r * s, r), "unrelated": (s, r)}[kind]
        for a, b in ((x, d), (d, x)):
            q = _inverse_route(b, a)
            assert left_divides(b, a) == (q is not None)
            assert same_right_ideal(a, b) == (q is not None and q.is_unit())
            agree["divides"] += q is not None
            agree["same"] += q is not None and q.is_unit()
    assert min(seen.values()) >= 50
    # both answers occur: r*u is always the same ideal as r, r divides r*s,
    # and u*r has the norm of r but (for these seeds) not its ideal
    assert 100 <= agree["same"] < agree["divides"] < 500


def test_left_division_refuses_zero_divisor():
    with pytest.raises(DomainError):
        left_divides(Icosian.from_int(0), R_ICO)
    assert left_divides(R_ICO, Icosian.from_int(0))
    with pytest.raises(DomainError):
        same_right_ideal(Icosian.from_int(0), R_ICO)


def _glcd_on_hnf_rows(p, beta):
    """The full ball search on the raw HNF rows of p I + beta I, glcd's
    oracle: the least (trace value, sign-canonical coordinates)
    over the members of the ball whose nr has the module's norm."""
    mod = right_ideal([p, Icosian.from_o(beta)])
    v = isqrt(mod.index())
    gram = gram_of_basis(TRACE_GRAM, mod.rows)
    cands = []
    for coeffs, val in enumerate_form(gram, 2 * (1 + isqrt(5 * v - 1)), equal=False):
        zc = tuple(sum(c * row[k] for c, row in zip(coeffs, mod.rows)) for k in range(8))
        assert val == eval_form(TRACE_GRAM, zc)
        if Icosian(zc).nr().abs_norm() == v:
            lead = next(x for x in zc if x)
            cands.append((val, zc if lead > 0 else tuple(-x for x in zc)))
    return Icosian(min(cands)[1])


def test_glcd_matches_the_unreduced_basis_route():
    """beta = den p: glcd gives the full ball search's representative."""
    glcd_rng = random.Random(1729)
    cases = [(q, OInt(den(q), 0)) for q in (R_ICO, S_ICO)]
    while len(cases) < 152:
        p = Icosian(tuple(glcd_rng.randint(-3, 3) for _ in range(8)))
        if not p.is_zero() and is_primitive(p) and is_admissible(p):
            cases.append((p, OInt(den(p), 0)))
    for p, beta in cases:
        assert glcd(p, beta) == _glcd_on_hnf_rows(p, beta)


def _least_trace_is_tied(d):
    """Whether nr(d) tau^2 or nr(d) tau^-2 has the trace of nr(d)."""
    m = d.nr()
    return any((m * tau_pow(j)).trace() == m.trace() for j in (-2, 2))


def test_glcd_matches_the_unreduced_basis_route_off_the_rationals():
    """beta in sqrt5*Z and beta = a + b tau with b != 0: the last remainder
    and its tau walk give the full ball search's representative, whether the
    least trace is taken at one power of tau or at two."""
    glcd_rng = random.Random(6174)
    tied = {SQRT5: [], TAU: []}
    while min(map(len, tied.values())) < 36:
        p = Icosian(tuple(glcd_rng.randint(-3, 3) for _ in range(8)))
        if p.is_zero():
            continue
        for kind, cases in tied.items():
            if kind == SQRT5:
                beta = SQRT5 * OInt(glcd_rng.randint(1, 3), 0)
            else:
                beta = OInt(glcd_rng.randint(-4, 4), glcd_rng.choice((-2, -1, 1, 2)))
            d = glcd(p, beta)
            assert d == _glcd_on_hnf_rows(p, beta)
            cases.append(_least_trace_is_tied(d))
    assert all(True in cases and False in cases for cases in tied.values())


def test_tau_walk_compares_both_orbits_of_a_tie():
    """nr 2 + tau and (2 + tau) tau^-2 = 3 - tau both have trace 5.  Over
    the 6 classes of that norm, from any starting power of tau, the walk
    returns the least member of the two orbits; the least of each class
    comes from either orbit."""
    m = OInt(2, 1)
    assert [(m * tau_pow(j)).trace() for j in (-4, -2, 0, 2)] == [10, 5, 5, 10]
    sources = set()
    for zc in prime_class_reps(m):
        x = Icosian(zc)
        orbits = [min(_orbit(x.scale_o(tau_pow(j)).zc, True)) for j in (0, -1)]
        for j in range(-3, 4):
            y = x.scale_o(tau_pow(j))
            assert _least_generator(y.zc, y.nr()).zc == min(orbits)
        sources.add(orbits.index(min(orbits)))
    assert sources == {0, 1}


def _glcd_route(p, beta):
    """The route glcd takes, read off the HNFs alone: "p" when p I is
    p I + beta I, else "euclid"."""
    mod = right_ideal([p, Icosian.from_o(beta)]).rows
    return "p" if right_ideal([p]).rows == mod else "euclid"


def test_glcd_routes_match_the_unreduced_basis_route(monkeypatch):
    """p generates p I + beta I (mostly beta = den p) or it does not (mostly
    a random beta): both routes give the full ball search's representative,
    and the remainder sequence takes one division on the first route and
    more on the second."""
    steps = []
    remainders = icosian._remainders
    monkeypatch.setattr(
        icosian, "_remainders", lambda *args: steps.append(len(seq := remainders(*args))) or seq
    )
    glcd_rng = random.Random(2024)

    def draw(admissible):
        while True:
            p = Icosian(tuple(glcd_rng.randint(-3, 3) for _ in range(8)))
            if not p.is_zero() and (not admissible or is_primitive(p) and is_admissible(p)):
                return p

    routes = Counter()
    for k in range(48):
        if k % 2:
            p = draw(True)
            beta = OInt(den(p), 0)
        else:
            p, beta = draw(False), OInt(glcd_rng.randint(1, 6), glcd_rng.randint(-2, 2))
        route = _glcd_route(p, beta)
        routes[route] += 1
        assert glcd(p, beta) == _glcd_on_hnf_rows(p, beta)
        assert (steps[-1] == 1) == (route == "p")
    assert len(steps) == 48
    assert min(routes["p"], routes["euclid"]) >= 12


GLCD_GOLDEN = json.loads((Path(__file__).parent / "golden" / "glcd.json").read_text())


@pytest.mark.parametrize("case", GLCD_GOLDEN, ids=[str(i) for i in range(len(GLCD_GOLDEN))])
def test_glcd_representative_is_pinned(case):
    """The chosen generator of p I + beta I, recorded from the full search that
    checked every candidate's right ideal."""
    p, beta = Icosian(tuple(case["p"])), OInt(*case["beta"])
    d = glcd(p, beta)
    assert d.zc == tuple(case["glcd"])
    assert right_ideal([d]).rows == right_ideal([p, Icosian.from_o(beta)]).rows


def test_glcd_goldens_cover_every_route():
    routes = Counter(_glcd_route(Icosian(tuple(c["p"])), OInt(*c["beta"])) for c in GLCD_GOLDEN)
    assert routes == {"p": 11, "euclid": 9}


# Small coordinates, and coordinates past 2**63.
_COORD = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))
_ZC = st.tuples(*[_COORD] * 8)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_ZC, _ZC)
def test_product_rows_match_per_basis_products(zc, xc):
    """The rows of q*I and I*q read from the structure tables, against
    Icosian.__mul__ on each basis element; x in the span of the rows is q*x
    (resp. x*q)."""
    q, x = Icosian(zc), Icosian(xc)
    left, right = _left_rows(zc), _right_rows(zc)
    assert left == [(q * zb).zc for zb in ZB_ICO]
    assert right == [(zb * q).zc for zb in ZB_ICO]
    assert _apply8(xc, left) == (q * x).zc
    assert _apply8(xc, right) == (x * q).zc
    if any(zc):
        assert left_ideal_rows(q) == right
        assert right_ideal([q]).rows == Rank8Module.from_rows([(q * zb).zc for zb in ZB_ICO]).rows


def _dense_product(xc, yc):
    """The coordinates of x*y by the dense triple loop over the product
    table _MUL: sum over i, j of x_i y_j (zb_i zb_j)."""
    out = [0] * 8
    for i, xi in enumerate(xc):
        if xi:
            for j, yj in enumerate(yc):
                if yj:
                    for k, t in enumerate(_MUL[i][j]):
                        out[k] += xi * yj * t
    return tuple(out)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ZC, _ZC)
def test_product_matches_dense_table_loop(zc, xc):
    assert (Icosian(zc) * Icosian(xc)).zc == _dense_product(zc, xc)


def _from_quat_by_inverse(q):
    """Icosian.from_quat the rational way: the o-coordinates of q through the
    inverse, over K by Gauss-Jordan, of the 4x4 matrix with columns e_1..e_4."""
    aug = [
        [BASIS[j].components()[i] for j in range(4)] + [KNum.of(int(i == j)) for j in range(4)]
        for i in range(4)
    ]
    gauss_jordan(aug, 4)
    comps = q.components()
    coords = [sum((aug[j][4 + i] * comps[i] for i in range(4)), KNum.of(0)) for j in range(4)]
    if not all(c.is_integral() for c in coords):
        return None
    return Icosian.from_coords(tuple(c.to_oint() for c in coords))


def test_from_quat_matches_the_rational_inverse():
    """The integer route (o-coordinates of 1, i, j, k on the cleared
    numerators) against the rational inverse, on quaternions with
    denominators 1..6: icosians divided by d, icosian multiples of d divided
    by d, and random (a + b tau) / d components."""
    found = 0
    for k in range(900):
        d = rng.randint(1, 6)
        if k % 3 == 2:
            q = Quat(*(KNum(Fraction(rng.randint(-9, 9), d), Fraction(rng.randint(-9, 9), d)) for _ in range(4)))
        else:
            x = rand_icosian()
            q = scale((x.scale_o(OInt(d, 0)) if k % 3 else x).quat(), Fraction(1, d))
        ico = Icosian.from_quat(q)
        assert ico == _from_quat_by_inverse(q)
        if ico is not None:
            found += 1
            assert ico.quat() == q
    assert 300 < found < 900


def test_structure_tables_match_the_rational_derivation():
    """The integer tables, derived from _TWO_E on integers, equal the change
    of basis of every zb_i zb_j, conj(zb_i) and twist(zb_i) in the rational
    algebra, _TWO_E is twice the rational basis, and the trace and doubled
    trace forms equal tr(e_i) and tr(zb_i conj(zb_j)) on quaternions."""

    def zc_of(q):
        ico = Icosian.from_quat(q)
        assert ico is not None
        return ico.zc

    zbs = ZBASIS_QUATS
    assert _TWO_E == tuple(tuple((2 * x.a, 2 * x.b) for x in e.components()) for e in BASIS)
    assert _MUL == tuple(tuple(zc_of(mul(x, y)) for y in zbs) for x in zbs)
    assert _CJ8 == tuple(zc_of(conj(x)) for x in zbs)
    assert _TW8 == tuple(zc_of(twist(x)) for x in zbs)
    assert _TR4 == tuple(tr(e).to_oint() for e in BASIS)
    assert _TRG8 == tuple(tuple(tr(mul(x, conj(y))).to_oint() for y in zbs) for x in zbs)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ZC)
def test_quat_matches_the_rational_basis_sum(zc):
    """Icosian.quat(), one integer pass over _TWO_E halved once, against
    sum zc_i zb_i in the rational algebra."""
    total = Quat.of(0)
    for x, zb in zip(zc, ZBASIS_QUATS):
        total = add(total, scale(zb, x))
    assert Icosian(zc).quat() == total


# The laws of the integer algebra on I, on its own terms.


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ZC, _ZC)
def test_twist_and_conj_are_involutive_anti_automorphisms(zc, yc):
    x, y = Icosian(zc), Icosian(yc)
    assert (x * y).twist() == y.twist() * x.twist()
    assert (x * y).conj() == y.conj() * x.conj()
    assert x.twist().twist() == x
    assert x.conj().conj() == x


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ZC, _ZC)
def test_reduced_norm_laws(zc, yc):
    x, y = Icosian(zc), Icosian(yc)
    assert x * x.conj() == Icosian.from_o(x.nr())
    assert (x * y).nr() == x.nr() * y.nr()
    assert x.twist().nr() == x.nr().conj()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ZC)
def test_phi_plus_is_twist_invariant(zc):
    y = Icosian(zc).phi_plus()
    assert y.twist() == y


def test_unit_right_mul_matrices_match_per_basis_products():
    assert unit_right_mul_matrices() == tuple(
        tuple((zb * u).zc for zb in ZB_ICO) for u in unit_group()
    )


# The routes that _content_norm and _balance replaced, kept as oracles: the
# content by Euclid in o, and sigma as the unit-normal lcm of nr p and nr p'.


def _balance_by_lcm(p):
    """(den, alpha, sigma) of a primitive p through lcm_o and sqrt_o."""
    m = p.nr()
    n = m.abs_norm()
    d = isqrt(n)
    if d * d != n:
        raise DomainError(f"not a coincidence isometry: the denominator sqrt({n}) is irrational")
    lam = lcm_o(m, m.conj())
    if lam.b != 0 or lam.a <= 0:
        raise AssertionError(f"lcm of admissible norms must be rational: {lam}")
    alpha = sqrt_o(lam.exact_div(m))
    if alpha is None:
        raise AssertionError("quotient of standardised lcm must be a square")
    return d, alpha, lam.a


# A nonzero a + b tau, small or past 2**63.
_SCALE = st.tuples(_COORD, _COORD).filter(any).map(lambda ab: OInt(*ab))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_ZC, _SCALE)
def test_content_norm_matches_euclid_content(zc, c):
    """The gcd of the minors is N(content), for q and for c q."""
    for q in (Icosian(zc), Icosian(zc).scale_o(c)):
        if q.is_zero():
            assert _content_norm(q.zc) == 0
            with pytest.raises(DomainError, match="zero icosian has no content"):
                q.is_primitive()
            continue
        g = q.content()
        assert _content_norm(q.zc) == g.abs_norm()
        assert q.is_primitive() == g.is_unit()
        p = q.primitive_part()
        assert p.is_primitive() and p.scale_o(g) == q


@st.composite
def _primitive_icosians(draw):
    """The primitive part of c q for a random nonzero c, where q is a random
    vector (rarely admissible), a box vector (admissible about one time in
    ten) or r twist(r) s, which is admissible whenever s is, since
    nr(r twist r) is the rational N(nr r)."""
    kind = draw(st.integers(0, 2))
    box = st.tuples(*[st.integers(-3, 3)] * 8)
    if kind == 0:
        q = Icosian(draw(_ZC))
    elif kind == 1:
        q = Icosian(draw(box))
    else:
        r = Icosian(draw(_ZC))
        s = draw(st.sampled_from([Icosian.from_int(1), R_ICO, S_ICO, Icosian(draw(box))]))
        q = r * r.twist() * s
    q = q.scale_o(draw(_SCALE))
    return None if q.is_zero() else q.primitive_part()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_primitive_icosians())
def test_balance_matches_lcm_route(p):
    if p is None:
        return
    try:
        expected = _balance_by_lcm(p)
    except DomainError as exc:
        with pytest.raises(DomainError, match=re.escape(str(exc))):
            _balance(p)
        return
    assert _balance(p) == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_ZC, _COORD, _COORD)
def test_scale_o_matches_the_coordinate_route(zc, a, b):
    """s x as a x + b (tau x) on the integer vector, against the product of
    each o-coordinate; for a scalar x = s, conj(d) x is conj(d) scaled by s,
    the shortcut of left division."""
    d, s = Icosian(zc), OInt(a, b)
    assert d.scale_o(s) == Icosian.from_coords(tuple(s * c for c in d.coords()))
    assert d.conj().scale_o(s) == d.conj() * Icosian.from_o(s)
    if any(zc):
        product = d.conj() * Icosian.from_o(s)
        assert left_divides(d, Icosian.from_o(s)) == all(d.nr().divides(c) for c in product.coords())


def _matrix_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def test_e8_coordinates_are_an_isometry():
    """Rows of _E8_T are 2 zb_i in the standard coordinates of E8: _E8_T
    _E8_T^T = 4 NORM_A_GRAM and |det _E8_T| = 2^8, so that the zb_i are a
    basis of E8 (det NORM_A_GRAM = 1), and _E8_U = 4 _E8_T^-1."""
    assert _matrix_product(_E8_T, list(zip(*_E8_T))) == [[4 * v for v in row] for row in NORM_A_GRAM]
    assert Rank8Module.from_rows(_E8_T).index() == 2**8
    assert Rank8Module.from_rows(NORM_A_GRAM).index() == 1
    assert _matrix_product(_E8_T, _E8_U) == [[4 * (i == j) for j in range(8)] for i in range(8)]
    for row in _E8_T:  # E8 = D8 u (D8 + 1/2), doubled
        assert len({v % 2 for v in row}) == 1 and sum(row) % 4 == 0


_ROOTS = [v for x, _ in enumerate_form(NORM_A_GRAM, 2) for v in (x, tuple(-c for c in x))]


def test_decoder_returns_a_nearest_point():
    """For seeded rational targets y/n (including points halfway between
    lattice points and coordinates past 2**63), the decoded q is no farther
    than q plus any of the 240 roots, and 2 a(nr(y/n - q)) <= 1, the
    covering radius of E8."""
    assert len(_ROOTS) == 240
    dec_rng = random.Random(8128)
    targets = [((1,) * 8, 2), ((1, 0, 0, 0, 0, 0, 0, 0), 2), ((0,) * 8, 7)]
    for k in range(400):
        n = dec_rng.choice((1, 2, 4, dec_rng.randint(1, 60), dec_rng.randint(1, 2**70)))
        span = n * dec_rng.choice((2, 50)) if k % 4 else 2**80
        targets.append((tuple(dec_rng.randint(-span, span) for _ in range(8)), n))
    for y, n in targets:
        q = _nearest_icosian(y, n)
        diff = tuple(a - n * b for a, b in zip(y, q))  # n (y/n - q)
        dist = eval_form(NORM_A_GRAM, diff)
        assert dist <= n * n
        for root in _ROOTS:
            assert dist <= eval_form(NORM_A_GRAM, tuple(a - n * r for a, r in zip(diff, root)))


def _seeded_pairs(seed, count):
    """(p, beta) with beta = den p, beta in sqrt5*Z and beta = a + b tau, b != 0."""
    pair_rng = random.Random(seed)
    pairs = []
    while len(pairs) < 3 * count:
        p = Icosian(tuple(pair_rng.randint(-3, 3) for _ in range(8)))
        if p.is_zero():
            continue
        kind = len(pairs) % 3
        if kind == 0 and not (is_primitive(p) and is_admissible(p)):
            continue
        if kind == 0:
            beta = OInt(den(p), 0)
        elif kind == 1:
            beta = SQRT5 * OInt(pair_rng.randint(1, 4), 0)
        else:
            beta = OInt(pair_rng.randint(-5, 5), pair_rng.choice((-3, -1, 1, 2)))
        pairs.append((p, beta))
    return pairs


def test_remainders_descend_and_keep_the_bezout_identity():
    """Every remainder r_i = p x_i + beta y_i with y_i in I, nr is stored
    right, N(nr) falls to at most 5/16 of itself at every step, and the last
    remainder generates p I + beta I; sequences of one, two and three
    divisions all occur."""
    lengths = Counter()
    for p, beta in _seeded_pairs(4096, 40):
        b = Icosian.from_o(beta)
        seq = icosian._remainders(p, p.nr(), beta)
        lengths[len(seq)] += 1
        assert seq[0][0] == p
        norms = [m.field_norm() for _, m, _ in seq]
        assert all(0 < 16 * c <= 5 * a for a, c in zip(norms, norms[1:]))  # the E8 bound
        for r, m, x in seq:
            assert r.nr() == m
            y = Icosian.from_coords(tuple(c.exact_div(beta) for c in (r - p * x).coords()))
            assert r == p * x + b * y
        assert right_ideal([seq[-1][0]]).rows == right_ideal([p, b]).rows
    assert {1, 2, 3} <= set(lengths)


def test_a_decoder_that_returns_zero_raises(monkeypatch):
    """With q_i = 0 the remainders alternate between beta and p, so N(nr)
    cannot fall at both steps: the descent check raises, where a sequence
    without it would not end (here: fail after 100 divisions)."""
    calls = []

    def zero(y, n):
        calls.append(n)
        if len(calls) > 100:
            raise RuntimeError("the remainder sequence does not end")
        return (0,) * 8

    monkeypatch.setattr(icosian, "_nearest_icosian", zero)
    cases = [(Icosian(tuple(c["p"])), OInt(*c["beta"])) for c in GLCD_GOLDEN]
    cases = [(p, beta) for p, beta in cases if _glcd_route(p, beta) == "euclid"]
    cases = [(p, beta) for p, beta in cases if not left_divides(Icosian.from_o(beta), p)]
    assert cases
    for p, beta in cases:
        calls.clear()
        with pytest.raises(AssertionError, match="did not lower N"):
            glcd(p, beta)
