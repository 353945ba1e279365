import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from a4csl.errors import DomainError, ParseError
from a4csl.field import KNum, OInt
from a4csl.quaternion import (
    Quat,
    conj_q,
    format_quat,
    inverse,
    nr,
    parse_quat,
    phi_plus,
    tr,
    twist,
)

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
    assert conj_q(Quat.of(1)) == Quat.of(1)
    assert conj_q(I_Q) == -I_Q
    assert conj_q(R_EXAMPLE) == parse_quat("(t,-2*t,0,0)")


def test_nr_tr_examples():
    assert nr(R_EXAMPLE) == KNum(5, 5)
    assert nr(S_EXAMPLE) == KNum(5, 5)
    assert tr(Quat.of(1, 1, 1, 1)) == KNum.of(2)


def test_nr_is_q_qbar():
    for _ in range(300):
        q = rand_quat()
        prod = q * q.conj()
        assert prod.b.is_zero() and prod.c.is_zero() and prod.d.is_zero()
        assert prod.a == nr(q)
        assert tr(q) == (q + q.conj()).a


def test_twist_examples():
    assert twist(R_EXAMPLE) == parse_quat("(1-t,2-2*t,0,0)")
    assert twist(J_Q) == K_Q
    for _ in range(300):
        q = rand_quat()
        assert twist(twist(q)) == q


def test_twist_antihomomorphism_and_norm():
    for _ in range(300):
        p, q = rand_quat(), rand_quat()
        assert twist(p * q) == twist(q) * twist(p)
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
    assert I_Q * J_Q == K_Q
    assert J_Q * I_Q == -K_Q
    assert J_Q * K_Q == I_Q
    assert K_Q * I_Q == J_Q
    assert I_Q * I_Q == Quat.of(-1)
    assert J_Q * J_Q == Quat.of(-1)
    assert K_Q * K_Q == Quat.of(-1)


def _hamilton_knum(p, q):
    """Hamilton's product in KNum arithmetic (the former Quat.__mul__)."""
    a1, b1, c1, d1 = p.components()
    a2, b2, c2, d2 = q.components()
    return Quat(
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


# Numerators past 2^64 and denominators up to 2^64, so the common
# denominator of an operand is a product of large coprime parts.
_big_fraction = st.builds(Fraction, st.integers(-(2**80), 2**80), st.integers(1, 2**64))
_big_quat = st.builds(
    Quat, *[st.builds(KNum, _big_fraction, _big_fraction) for _ in range(4)]
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_big_quat, _big_quat)
def test_mul_matches_knum_product(p, q):
    assert p * q == _hamilton_knum(p, q)


def test_mul_associative_nr_multiplicative():
    for _ in range(200):
        p, q, r = rand_quat(), rand_quat(), rand_quat()
        assert (p * q) * r == p * (q * r)
        assert nr(p * q) == nr(p) * nr(q)


def test_inverse():
    inv = inverse(R_EXAMPLE)
    assert inv == R_EXAMPLE.conj().scale(KNum(5, 5).inverse())
    assert R_EXAMPLE * inv == Quat.of(1)
    for _ in range(100):
        q = rand_quat()
        if q.is_zero():
            continue
        assert q * inverse(q) == Quat.of(1)
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
    assert q.scale(OInt(0, 1)) == Quat(KNum(0, 1), KNum(0, 2), KNum(0, 3), KNum(0, 4))
    assert q.scale(Fraction(1, 2)) == Quat.of(
        Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)
    )
