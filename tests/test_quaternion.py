"""The rational quaternion algebra H(K), K = Q(sqrt5), as free functions over
the text form Quat in KNum arithmetic, and the tests of its laws.  Only mul
multiplies the Z[tau] numerators of its operands, with the explicit formula,
and divides once; the formula in KNum arithmetic is its own oracle.

It is the oracle of the integer algebra in a4csl.icosian: the structure
tables, the integer Hamilton product and Icosian.quat() are checked
against it in these tests and in test_icosian.  Besides the usual
conjugation the algebra carries the twist q -> (a', b', d', c'), algebraic
conjugation of the coefficients with a j/k swap, an involutive
anti-automorphism; phi_plus(x) = x + twist(x) projects onto its fixed space.
"""

import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from a4csl.errors import DomainError, ParseError
from a4csl.field import KNum, OInt
from a4csl.icosian import _hamilton
from a4csl.quaternion import Quat, _cleared, format_quat, parse_quat


def add(p, q):
    return Quat(*map(operator.add, p.components(), q.components()))


def neg(q):
    return Quat(*(-x for x in q.components()))


def _hamilton_formula(p, q):
    """Hamilton's product of two 4-tuples over a commutative ring."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def mul(p, q):
    """Hamilton's product: the formula on the numerators of p and q in Z[tau]
    (OInt) over their common denominators, then one division, which keeps
    Fraction arithmetic out of the 16 products."""
    dp, x = _cleared(p)
    dq, y = _cleared(q)
    prod = _hamilton_formula([OInt(*c) for c in x], [OInt(*c) for c in y])
    return Quat(*(KNum(Fraction(c.a, dp * dq), Fraction(c.b, dp * dq)) for c in prod))


def scale(q, s):
    s = KNum.of(s)
    return Quat(*(x * s for x in q.components()))


def conj(q):
    return Quat(q.a, -q.b, -q.c, -q.d)


def nr(q):
    """Reduced norm q * conj(q) = a^2 + b^2 + c^2 + d^2."""
    return sum((x * x for x in q.components()), KNum.of(0))


def tr(q):
    """Reduced trace q + conj(q) = 2a."""
    return q.a * 2


def twist(q):
    return Quat(q.a.conj(), q.b.conj(), q.d.conj(), q.c.conj())


def phi_plus(x):
    """x + twist(x); the image is pointwise twist-invariant."""
    return add(x, twist(x))


def is_zero(q):
    return all(x.is_zero() for x in q.components())


def inverse(q):
    n = nr(q)
    if n.is_zero():
        raise DomainError("zero quaternion has no inverse")
    return scale(conj(q), n.inverse())


rng = random.Random(97531)

I_Q = Quat.of(0, 1, 0, 0)
J_Q = Quat.of(0, 0, 1, 0)
K_Q = Quat.of(0, 0, 0, 1)
R_EXAMPLE = parse_quat("(t,2*t,0,0)")
S_EXAMPLE = parse_quat("(1+t,t,t,1)")


def rand_quat():
    def knum():
        return KNum(
            Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
            Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
        )

    return Quat(knum(), knum(), knum(), knum())


def test_conj_examples():
    assert conj(Quat.of(1)) == Quat.of(1)
    assert conj(I_Q) == neg(I_Q)
    assert conj(R_EXAMPLE) == parse_quat("(t,-2*t,0,0)")


def test_nr_tr_examples():
    assert nr(R_EXAMPLE) == KNum(5, 5)
    assert nr(S_EXAMPLE) == KNum(5, 5)
    assert tr(Quat.of(1, 1, 1, 1)) == KNum.of(2)


def test_nr_is_q_qbar():
    for _ in range(300):
        q = rand_quat()
        prod = mul(q, conj(q))
        assert prod.b.is_zero() and prod.c.is_zero() and prod.d.is_zero()
        assert prod.a == nr(q)
        assert tr(q) == add(q, conj(q)).a


def test_twist_examples():
    assert twist(R_EXAMPLE) == parse_quat("(1-t,2-2*t,0,0)")
    assert twist(J_Q) == K_Q
    for _ in range(300):
        q = rand_quat()
        assert twist(twist(q)) == q


def test_twist_antihomomorphism_and_norm():
    for _ in range(300):
        p, q = rand_quat(), rand_quat()
        assert twist(mul(p, q)) == mul(twist(q), twist(p))
        assert nr(twist(q)) == nr(q).conj()


def test_phi_plus_examples():
    assert phi_plus(Quat.of(1)) == Quat.of(2)
    assert phi_plus(Quat(KNum(0, 1), KNum.of(0), KNum.of(0), KNum.of(0))) == Quat.of(1)
    assert phi_plus(J_Q) == Quat.of(0, 0, 1, 1)
    for _ in range(300):
        x = rand_quat()
        y = phi_plus(x)
        assert twist(y) == y


def test_hamilton_products():
    assert mul(I_Q, J_Q) == K_Q
    assert mul(J_Q, I_Q) == neg(K_Q)
    assert mul(J_Q, K_Q) == I_Q
    assert mul(K_Q, I_Q) == J_Q
    assert mul(I_Q, I_Q) == Quat.of(-1)
    assert mul(J_Q, J_Q) == Quat.of(-1)
    assert mul(K_Q, K_Q) == Quat.of(-1)


# Numerators past 2^64 and denominators up to 2^64, so the common
# denominator of an operand is a product of large coprime parts.
_big_fraction = st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**64))
_big_quat = st.builds(
    Quat, *[st.builds(KNum, _big_fraction, _big_fraction) for _ in range(4)]
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_big_quat, _big_quat)
def test_mul_matches_knum_product(p, q):
    """The integer Hamilton product of icosian on o-pairs, applied to the
    operands cleared to one denominator each, and mul, against the formula
    in KNum arithmetic."""
    expected = Quat(*_hamilton_formula(p.components(), q.components()))
    den1, x = _cleared(p)
    den2, y = _cleared(q)
    den = den1 * den2
    assert Quat(*(KNum(Fraction(a, den), Fraction(b, den)) for a, b in _hamilton(x, y))) == expected
    assert mul(p, q) == expected


def test_mul_associative_nr_multiplicative():
    for _ in range(200):
        p, q, r = rand_quat(), rand_quat(), rand_quat()
        assert mul(mul(p, q), r) == mul(p, mul(q, r))
        assert nr(mul(p, q)) == nr(p) * nr(q)


def test_inverse():
    inv = inverse(R_EXAMPLE)
    assert inv == scale(conj(R_EXAMPLE), KNum(5, 5).inverse())
    assert mul(R_EXAMPLE, inv) == Quat.of(1)
    for _ in range(100):
        q = rand_quat()
        if is_zero(q):
            continue
        assert mul(q, inverse(q)) == Quat.of(1)
    with pytest.raises(DomainError):
        inverse(Quat.of(0))


def test_text_roundtrip():
    assert format_quat(R_EXAMPLE) == "(t, 2*t, 0, 0)"
    assert parse_quat("( t , 2*t , 0 , 0 )") == R_EXAMPLE
    for _ in range(100):
        q = rand_quat()
        assert parse_quat(format_quat(q)) == q
    with pytest.raises(ParseError):
        parse_quat("(1,2,3)")
    with pytest.raises(ParseError):
        parse_quat("1,2,3,4")


def test_scalar_coercions():
    q = Quat.of(1, 2, 3, 4)
    assert scale(q, OInt(0, 1)) == Quat(KNum(0, 1), KNum(0, 2), KNum(0, 3), KNum(0, 4))
    assert scale(q, Fraction(1, 2)) == Quat.of(
        Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)
    )
