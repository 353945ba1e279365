import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from a4csl.errors import DomainError, ParseError
from a4csl.field import (
    INERT,
    KNum,
    OInt,
    RAMIFIED,
    SPLIT,
    SQRT5,
    TAU,
    _round_nearest,
    abs_norm,
    conj_k,
    factor_int,
    factor_o,
    format_knum,
    gcd_o,
    lcm_o,
    parse_knum,
    parse_oint,
    sqrt_o,
    tau_pow,
    unit_normalize,
)

rng = random.Random(20260809)


def rand_oint(span=30):
    return OInt(rng.randint(-span, span), rng.randint(-span, span))


def rand_knum():
    return KNum(
        Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
        Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
    )


def test_conj_examples():
    assert TAU.to_knum().conj() == KNum(1, -1)  # tau -> 1 - tau
    assert conj_k(KNum.of(5)) == KNum.of(5)
    assert OInt(5, 5).conj() == OInt(10, -5)


def test_conj_is_ring_involution():
    for _ in range(500):
        x, y = rand_knum(), rand_knum()
        assert (x + y).conj() == x.conj() + y.conj()
        assert (x * y).conj() == x.conj() * y.conj()
        assert x.conj().conj() == x


def test_abs_norm_examples():
    assert abs_norm(TAU.to_knum()) == 1
    assert abs_norm(KNum.of(2)) == 4
    # (5+5t)(10-5t) = 25, by direct rational arithmetic
    x = OInt(5, 5).to_knum()
    prod = x * x.conj()
    assert prod == KNum.of(25)
    assert abs_norm(x) == 25


def test_norm_multiplicative():
    for _ in range(2000):
        x, y = rand_knum(), rand_knum()
        assert abs_norm(x * y) == abs_norm(x) * abs_norm(y)
    assert abs_norm(KNum.of(0)) == 0


def test_unit_normalize_examples():
    assert unit_normalize(OInt(5, 5)) == (OInt(5, 0), 2, 1)
    assert unit_normalize(OInt(-3, 0)) == (OInt(3, 0), 0, -1)
    assert unit_normalize(TAU) == (OInt(1, 0), 1, 1)


def test_unit_normalize_reconstructs_and_is_idempotent():
    for _ in range(300):
        x = rand_oint()
        if x.is_zero():
            continue
        y, k, sign = unit_normalize(x)
        assert tau_pow(k) * y * sign == x
        assert unit_normalize(y) == (y, 0, 1)


# Elements of o with small or huge (past 2**63) coefficients.
_OCOEF = st.one_of(st.integers(-30, 30), st.integers(-(2**70), 2**70))
_OINT = st.builds(OInt, _OCOEF, _OCOEF)
_NONZERO_OINT = _OINT.filter(lambda x: not x.is_zero())


def _window_oracle(x):
    """Scan k for associates in the balanced window.  sigma1(x)/|sigma2(x)|
    = sigma1(x)^2/|N(x)| < 2^(2 L + 3) for L-bit coefficients, and
    tau^(2k) scales it, so |k| < 1.5 L + 3 covers every candidate."""
    found = []
    reach = 25 + 2 * max(abs(x.a), abs(x.b)).bit_length()
    for k in range(-reach, reach + 1):
        for sign in (1, -1):
            y = tau_pow(-k) * x * sign
            # sigma1(y) > 0 and 1 <= sigma1(y)/|sigma2(y)| < tau^2, via squares
            if y.sign_embed() <= 0:
                continue
            y2 = y * y
            w2 = y.conj() * y.conj()
            lo = (y2 - w2).sign_embed() >= 0
            hi = (y2 - OInt(2, 3) * w2).sign_embed() < 0
            if lo and hi:
                found.append((y, k, sign))
    return found


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_NONZERO_OINT)
def test_unit_normalize_window_oracle(x):
    matches = _window_oracle(x)
    assert len(matches) == 1
    assert unit_normalize(x) == matches[0]


def test_gcd_examples():
    assert gcd_o(OInt(5, 5), OInt(5, 0)) == OInt(5, 0)  # 5+5t = 5*tau^2
    assert gcd_o(TAU, OInt(1, 0)) == OInt(1, 0)
    assert gcd_o(OInt(4, 0), OInt(6, 0)) == OInt(2, 0)
    with pytest.raises(DomainError):
        gcd_o(OInt(0, 0), OInt(0, 0))


def _associates(x, y):
    return unit_normalize(x)[0] == unit_normalize(y)[0]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_NONZERO_OINT, _NONZERO_OINT)
def test_gcd_divides_and_lcm_product(x, y):
    """gcd divides both arguments and is unit-normal; lcm is unit-normal, a
    common multiple, and gcd * lcm is an associate of x * y."""
    g, lc = gcd_o(x, y), lcm_o(x, y)
    assert g.divides(x) and g.divides(y)
    assert unit_normalize(g) == (g, 0, 1)
    assert x.divides(lc) and y.divides(lc)
    assert unit_normalize(lc) == (lc, 0, 1)
    assert _associates(g * lc, x * y)
    assert gcd_o(y, x) == g and lcm_o(y, x) == lc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_NONZERO_OINT, _OINT, _OINT)
def test_gcd_common_divisor_property(d, u, v):
    """Every common divisor d of d u and d v divides their gcd, and the gcd
    is d gcd(u, v) up to a unit."""
    if u.is_zero() and v.is_zero():
        return
    g = gcd_o(d * u, d * v)
    assert d.divides(g)
    assert _associates(g, d * gcd_o(u, v))


def test_lcm_examples():
    assert lcm_o(OInt(5, 5), OInt(10, -5)) == OInt(5, 0)
    x = OInt(3, 7)
    assert lcm_o(OInt(1, 0), x) == unit_normalize(x)[0]
    assert lcm_o(OInt(2, 0), OInt(3, 0)) == OInt(6, 0)
    with pytest.raises(DomainError):
        lcm_o(OInt(1, 0), OInt(0, 0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_NONZERO_OINT)
def test_lcm_of_conjugates_is_conjugation_fixed_up_to_tau_sign(x):
    lc = lcm_o(x, x.conj())
    y, _k, _s = unit_normalize(lc.conj())
    assert y == lc  # the balanced value is fixed by ' up to the unit part


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_OINT, _OINT, _OINT)
def test_o_is_a_commutative_ring_with_tau_squared_tau_plus_one(x, y, z):
    """The ring laws of Z[tau], its products against the rational KNum
    product, conjugation as a ring automorphism, the multiplicative norm and
    the additive trace, and exact division as the inverse of a product."""
    zero, one = OInt(0, 0), OInt(1, 0)
    assert TAU * TAU == TAU + one
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x and x - x == zero and -x + x == zero
    assert 3 * x == x * 3 == x + x + x and x**3 == x * x * x and x**0 == one
    assert (x * y).to_knum() == x.to_knum() * y.to_knum()
    assert (x + y).conj() == x.conj() + y.conj() and (x * y).conj() == x.conj() * y.conj()
    assert x.conj().conj() == x
    assert (x * y).field_norm() == x.field_norm() * y.field_norm()
    assert (x + y).trace() == x.trace() + y.trace()
    if not y.is_zero():
        assert y.divides(x * y) and (x * y).exact_div(y) == x


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_NONZERO_OINT, st.integers(-40, 40), st.sampled_from((1, -1)))
def test_unit_normalize_of_an_associate(x, j, s):
    """The associate s tau^j x of x = sign tau^k y normalizes to the same y,
    with k + j and sign s."""
    y, k, sign = unit_normalize(x)
    assert unit_normalize(tau_pow(j) * x * s) == (y, k + j, sign * s)


def test_factor_examples():
    fac = factor_o(OInt(5, 0))
    assert fac.unit == OInt(1, 0)
    assert fac.factors == ((SQRT5, 2, RAMIFIED),)

    fac11 = factor_o(OInt(11, 0))
    assert [tag for _, _, tag in fac11.factors] == [SPLIT, SPLIT]
    assert all(p.abs_norm() == 11 and e == 1 for p, e, _ in fac11.factors)

    fac2 = factor_o(OInt(2, 0))
    assert fac2.factors == ((OInt(2, 0), 1, INERT),)

    unit_only = factor_o(TAU)
    assert unit_only.factors == () and unit_only.unit == TAU


def test_factor_remultiplies_and_tags_consistent():
    for _ in range(150):
        x = rand_oint(12)
        if x.is_zero():
            continue
        fac = factor_o(x)
        assert fac.value() == x
        for prime, _e, tag in fac.factors:
            n = prime.abs_norm()
            if tag == RAMIFIED:
                assert n == 5
            elif tag == SPLIT:
                assert factor_int(n) == [(n, 1)] and n % 5 in (1, 4)
            else:
                assert n == prime.a * prime.a  # inert: N = p^2, prime rational
    with pytest.raises(DomainError):
        factor_o(OInt(0, 0))


def test_sqrt_examples():
    assert sqrt_o(OInt(2, 3)) == OInt(1, 1)  # tau^4 = 2+3t, root tau^2
    assert sqrt_o(OInt(4, 0)) == OInt(2, 0)
    assert sqrt_o(OInt(2, 0)) is None
    assert sqrt_o(OInt(0, 0)) == OInt(0, 0)


def test_sqrt_oracle_bounded_squares():
    # every square of small elements must round-trip
    seen = {}
    for a in range(-6, 7):
        for b in range(-6, 7):
            y = OInt(a, b)
            seen[y * y] = y
    for sq, y in seen.items():
        r = sqrt_o(sq)
        assert r is not None and r * r == sq
    # non-squares among small elements are rejected
    for a in range(-4, 5):
        for b in range(-4, 5):
            x = OInt(a, b)
            r = sqrt_o(x)
            if r is None:
                assert x not in seen
            else:
                assert r * r == x


def test_text_roundtrip():
    assert format_knum(KNum(Fraction(-1, 2), Fraction(3, 2))) == "-1/2+3/2*t"
    assert parse_knum("-1/2+3/2*t") == KNum(Fraction(-1, 2), Fraction(3, 2))
    assert parse_knum(" - 1/2 + 3/2 * t ") == KNum(Fraction(-1, 2), Fraction(3, 2))
    assert parse_knum("−1/2+3/2*t") == KNum(Fraction(-1, 2), Fraction(3, 2))
    assert parse_oint("t") == TAU
    assert parse_oint("-t") == -TAU
    assert format_knum(KNum.of(0)) == "0"
    assert parse_knum("0") == KNum.of(0)
    with pytest.raises(ParseError):
        parse_knum("bogus")
    with pytest.raises(ParseError):
        parse_oint("1/2")


@pytest.mark.parametrize("text", ["*t", "1+*t", "-*t", "2**t", "1+2**t", "*", "1_0", "1_0*t", "t_"])
def test_parse_knum_refuses_a_bare_star_and_underscores(text):
    """A "*" needs a nonempty coefficient before it, once per term, and "_"
    is no digit (Fraction would read "1_0" as 10)."""
    with pytest.raises(ParseError):
        parse_knum(text)


def test_parse_knum_keeps_decimals_exponents_and_repeated_signs():
    assert parse_knum("1.5") == KNum.of(Fraction(3, 2))
    assert parse_knum("1e3") == KNum.of(1000)
    assert parse_knum("1+-t") == KNum(Fraction(1), Fraction(-1))
    assert parse_knum("--1") == KNum.of(1)
    assert parse_knum("2t") == parse_knum("2*t") == KNum(Fraction(0), Fraction(2))
    assert parse_knum("1/2*t") == KNum(Fraction(0), Fraction(1, 2))


_NUM = st.one_of(st.integers(-50, 50), st.integers(-(2**80), 2**80))
_DEN = st.one_of(st.integers(-12, 12), st.integers(-(2**40), 2**40)).filter(bool)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_NUM, _DEN)
def test_round_nearest_matches_fraction_round(p, q):
    assert _round_nearest(p, q) == round(Fraction(p, q))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(-(10**30), 10**30), st.integers(1, 10**20), st.booleans())
def test_round_nearest_ties_go_to_even(m, h, negate):
    """p/q = m + 1/2 exactly, with the sign carried by p or by q."""
    p, q = 2 * h * m + h, 2 * h
    if negate:
        p, q = -p, -q
    assert _round_nearest(p, q) == round(Fraction(p, q)) == m + (m & 1)


# Reduced fractions with small or huge numerators and denominators.
_FRACTION = st.builds(
    Fraction,
    st.one_of(st.integers(-50, 50), st.integers(-(2**90), 2**90)),
    st.one_of(st.integers(1, 12), st.integers(1, 2**40)),
)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(_FRACTION, _FRACTION)
def test_parse_knum_inverts_format_knum(a, b):
    x = KNum(a, b)
    text = format_knum(x)
    assert parse_knum(text) == x
    assert format_knum(parse_knum(text)) == text
