"""The text form of quaternions over K = Q(sqrt5).

A Quat (a, b, c, d) stands for a + ib + jc + kd with components in K.  It
is what the command line parses and prints, and nothing more: the algebra
runs on icosians, whose product, conjugation, twist, phi_plus and reduced
norm act through integer structure tables (see icosian).  A Quat enters
that algebra through Icosian.from_quat and _cleared, which writes its
components over one common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .errors import ParseError
from .field import KNum, format_knum, parse_knum


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

    def __str__(self) -> str:
        return format_quat(self)


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
