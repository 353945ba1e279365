"""The quaternion algebra H(K) over K = Q(sqrt5).

Quaternions q = (a, b, c, d) = a + ib + jc + kd with Hamilton's relations
i^2 = j^2 = k^2 = ijk = -1.  Besides the usual conjugation q -> q.conj()
the algebra carries the twist map q -> (a', b', d', c') (algebraic
conjugation of the coefficients combined with a j/k swap), an involutive
anti-automorphism.  phi_plus(x) = x + twist(x) projects onto the
twist-invariant subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DomainError, ParseError
from .field import KNum, format_knum, parse_knum


# Component r of p * q is the sum of sign * p_i * q_j over the terms of row r.
_HAMILTON = (
    ((0, 0, 1), (1, 1, -1), (2, 2, -1), (3, 3, -1)),
    ((0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, -1)),
    ((0, 2, 1), (1, 3, -1), (2, 0, 1), (3, 1, 1)),
    ((0, 3, 1), (1, 2, 1), (2, 1, -1), (3, 0, 1)),
)


def _cleared(q: "Quat") -> tuple[int, list[tuple[int, int]]]:
    """(den, [(a_i, b_i)]) with q_i = (a_i + b_i tau) / den, all integers."""
    parts = [(x.a, x.b) for x in q.components()]
    den = lcm(*(f.denominator for pair in parts for f in pair))
    return den, [
        (a.numerator * (den // a.denominator), b.numerator * (den // b.denominator))
        for a, b in parts
    ]


@dataclass(frozen=True, slots=True)
class Quat:
    """A quaternion with components in Q(sqrt5)."""

    a: KNum
    b: KNum
    c: KNum
    d: KNum

    @classmethod
    def of(cls, a, b=0, c=0, d=0) -> "Quat":
        return cls(KNum.of(a), KNum.of(b), KNum.of(c), KNum.of(d))

    def components(self) -> tuple[KNum, KNum, KNum, KNum]:
        return (self.a, self.b, self.c, self.d)

    def __add__(self, other: "Quat") -> "Quat":
        return Quat(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Quat") -> "Quat":
        return Quat(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __neg__(self) -> "Quat":
        return Quat(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other: "Quat") -> "Quat":
        """Hamilton's product on integers: each operand is cleared to one
        common denominator, and only the 8 result coefficients are Fractions."""
        if not isinstance(other, Quat):
            return NotImplemented
        den1, x = _cleared(self)
        den2, y = _cleared(other)
        den = den1 * den2
        out = []
        for terms in _HAMILTON:
            ra = rb = 0
            for i, j, sign in terms:
                (p, q), (r, s) = x[i], y[j]
                qs = q * s  # (p + q tau)(r + s tau), tau^2 = tau + 1
                ra += sign * (p * r + qs)
                rb += sign * (p * s + q * r + qs)
            out.append(KNum(Fraction(ra, den), Fraction(rb, den)))
        return Quat(*out)

    def scale(self, s) -> "Quat":
        s = KNum.of(s)
        return Quat(self.a * s, self.b * s, self.c * s, self.d * s)

    def conj(self) -> "Quat":
        return Quat(self.a, -self.b, -self.c, -self.d)

    def nr(self) -> KNum:
        """Reduced norm q * q.conj() = a^2 + b^2 + c^2 + d^2."""
        a, b, c, d = self.components()
        return a * a + b * b + c * c + d * d

    def tr(self) -> KNum:
        """Reduced trace q + q.conj() = 2a."""
        return self.a * 2

    def twist(self) -> "Quat":
        return Quat(self.a.conj(), self.b.conj(), self.d.conj(), self.c.conj())

    def inverse(self) -> "Quat":
        n = self.nr()
        if n.is_zero():
            raise DomainError("zero quaternion has no inverse")
        return self.conj().scale(n.inverse())

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.components())

    def __str__(self) -> str:
        return format_quat(self)


ZERO_Q = Quat.of(0)
ONE_Q = Quat.of(1)


def conj_q(q: Quat) -> Quat:
    return q.conj()


def nr(q: Quat) -> KNum:
    return q.nr()


def tr(q: Quat) -> KNum:
    return q.tr()


def twist(q: Quat) -> Quat:
    return q.twist()


def phi_plus(x: Quat) -> Quat:
    """x + twist(x); the image is pointwise twist-invariant."""
    return x + x.twist()


def mul(p: Quat, q: Quat) -> Quat:
    return p * q


def inverse(q: Quat) -> Quat:
    return q.inverse()


def format_quat(q: Quat) -> str:
    return "(" + ", ".join(format_knum(x) for x in q.components()) + ")"


def parse_quat(text: str) -> Quat:
    """Parse "(a, b, c, d)" with components in a+b*t form."""
    s = text.strip()
    if not (s.startswith("(") and s.endswith(")")):
        raise ParseError(f"quaternion must be parenthesised: {text!r}")
    parts = s[1:-1].split(",")
    if len(parts) != 4:
        raise ParseError(f"expected 4 components, got {len(parts)}: {text!r}")
    a, b, c, d = (parse_knum(p) for p in parts)
    return Quat(a, b, c, d)
