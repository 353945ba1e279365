"""The icosian ring I: a maximal order of H(Q(sqrt5)) of o-rank 4, Z-rank 8.

The o-module basis is the classical one:

    e1 = (1,0,0,0),  e2 = (0,1,0,0),
    e3 = (1,1,1,1)/2,  e4 = (1-tau, tau, 0, 1)/2,

and the fixed Z-basis zb_0..zb_7 = (e1..e4, tau*e1..tau*e4) in that order.
An Icosian stores its integer coordinate 8-vector with respect to that
Z-basis; the product, conjugation, twist, phi_plus and the reduced norm
act through integer structure tables, so the algebra never touches rationals.
Every table is derived on integers from one literal, _TWO_E (the
components of 2 e_i), by an integer Hamilton product on pairs (a, b) for
a + b tau, and each division in a derivation is checked.  quat() gives
the text form, half of an integer sum over _TWO_E.
A quaternion q enters through from_quat on integers: q = y/d with y in
o^4, an icosian since 1, i, j and k are, and q lies in I iff d divides the
coordinates of y.
The Z-basis rows of q*I and I*q (the products q*zb_j and zb_j*q) are read
straight from the product table _MUL, as one pass of _combine over the
coordinates of q, and Icosian.__mul__ applies those rows of its left
factor to its right one; a dense triple loop over _MUL is the test oracle.

The 120 icosians of reduced norm 1 form the binary icosahedral group; the
full unit group of I is {+-tau^k} times these.  Right ideals q*I are
handled as rank-8 Z-modules in Hermite normal form, which makes ideal
equality and sums canonical.  Left division is integer: d^-1 x
lies in I iff nr(d) divides every o-coordinate of conj(d) x.  glcd(p, beta)
is a generator of p*I + beta*I, found as the last remainder of a
right-Euclidean division in I, which is E8 under NORM_A_GRAM and hence
norm-Euclidean (_remainders); the least of trace and coordinates over its
associates comes from the unit orbits of its tau-scalings, through
_orbit_min.  The same remainder sequence, of y and a prime pi of o, gives
counting the generators of the lines y*I + pi*I of I/pi*I, the right
ideals of norm pi.

Validation and balancing live here once, as integer arithmetic on the
coordinate vector: _require_primitive rejects zero and imprimitive input
by the gcd of the 2x2 minors of the content ideal (_content_norm), and
_balance turns a primitive q into its balanced data (den, alpha, sigma)
from nr(q), which the caller reads once, and one gcd, rejecting q unless
it is admissible.  den, extension, sigma_index and the csl entry points
all go through them.  nr reads the two integer norm forms, halved, off
one table of 32 terms x_i x_j (a_ij, b_ij).  content() keeps the
Euclidean route in o for imprimitive input.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from operator import add, itemgetter, mul, sub
from struct import Struct
from types import SimpleNamespace

from .errors import DomainError
from .field import (
    KNum,
    OInt,
    ZERO_O,
    gcd_o,
    sqrt_o,
    tau_pow,
    unit_normalize,
)
from .hnf import hnf_square, contains as hnf_contains
from .quaternion import Quat, _cleared
from .value import Value, _set

# The quaternion components of 2 e_1..2 e_4 as (a, b) pairs for a + b tau:
# the one literal every structure table below is derived from.
_TWO_E = (
    ((2, 0), (0, 0), (0, 0), (0, 0)),
    ((0, 0), (2, 0), (0, 0), (0, 0)),
    ((1, 0), (1, 0), (1, 0), (1, 0)),
    ((1, -1), (0, 1), (0, 0), (1, 0)),
)

# Component r of p * q is the sum of sign * p_i * q_j over the terms of row r.
_HAMILTON = (
    ((0, 0, 1), (1, 1, -1), (2, 2, -1), (3, 3, -1)),
    ((0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, -1)),
    ((0, 2, 1), (1, 3, -1), (2, 0, 1), (3, 1, 1)),
    ((0, 3, 1), (1, 2, 1), (2, 1, -1), (3, 0, 1)),
)


def _omul(x, y) -> tuple[int, int]:
    """(p + q tau)(r + s tau) as an (a, b) pair, tau^2 = tau + 1."""
    (p, q), (r, s) = x, y
    qs = q * s
    return p * r + qs, p * s + q * r + qs


def _hamilton(x, y) -> list[tuple[int, int]]:
    """Hamilton's product of two quaternions with components in o, given
    and returned as four (a, b) pairs."""
    out = []
    for terms in _HAMILTON:
        ra = rb = 0
        for i, j, sign in terms:
            a, b = _omul(x[i], y[j])
            ra += sign * a
            rb += sign * b
        out.append((ra, rb))
    return out


class Icosian(Value):
    """An element of I by its integer coordinates over the fixed Z-basis."""

    __slots__ = _fields = ("zc",)

    def __init__(self, zc: tuple[int, int, int, int, int, int, int, int]):
        _set(self, "zc", zc)

    def __eq__(self, other):
        if other.__class__ is Icosian:
            return self.zc == other.zc
        return NotImplemented

    def __hash__(self):
        return hash((self.zc,))

    @classmethod
    def from_coords(cls, coords) -> "Icosian":
        c = tuple(coords)
        return cls((c[0].a, c[1].a, c[2].a, c[3].a, c[0].b, c[1].b, c[2].b, c[3].b))

    @classmethod
    def from_quat(cls, q: Quat) -> "Icosian | None":
        """q as an icosian, or None if q is not in I: q = d^-1 y with y in
        o^4, which lies in I, and q is in I iff d divides y's coordinates."""
        d, parts = _cleared(q)
        zc = _zc_over(parts, d)
        return None if zc is None else cls(zc)

    @classmethod
    def from_o(cls, x: OInt) -> "Icosian":
        return cls((x.a, 0, 0, 0, x.b, 0, 0, 0))

    @classmethod
    def from_int(cls, n: int) -> "Icosian":
        return cls((n, 0, 0, 0, 0, 0, 0, 0))

    def coords(self) -> tuple[OInt, OInt, OInt, OInt]:
        z = self.zc
        return (OInt(z[0], z[4]), OInt(z[1], z[5]), OInt(z[2], z[6]), OInt(z[3], z[7]))

    def quat(self) -> Quat:
        """sum c_i e_i over the o-coordinates c_i, as half of sum c_i (2 e_i)."""
        z, two = self.zc, [[0, 0] for _ in range(4)]
        for i, e in enumerate(_TWO_E):
            if z[i] or z[i + 4]:
                for part, x in zip(two, e):
                    a, b = _omul((z[i], z[i + 4]), x)
                    part[0] += a
                    part[1] += b
        return Quat(*(KNum(Fraction(a, 2), Fraction(b, 2)) for a, b in two))

    def __add__(self, other: "Icosian") -> "Icosian":
        return Icosian(tuple(a + b for a, b in zip(self.zc, other.zc)))

    def __sub__(self, other: "Icosian") -> "Icosian":
        return Icosian(tuple(a - b for a, b in zip(self.zc, other.zc)))

    def __mul__(self, other: "Icosian") -> "Icosian":
        if not isinstance(other, Icosian):
            return NotImplemented
        return Icosian(_apply8(other.zc, _left_rows(self.zc)))

    def scale_o(self, s: OInt) -> "Icosian":
        a, b = s.a, s.b  # (a + b tau) x = a x + b (tau x)
        return Icosian(tuple(a * u + b * v for u, v in zip(self.zc, _tau_times(self.zc))))

    def conj(self) -> "Icosian":
        return Icosian(_apply8(self.zc, _CJ8))

    def twist(self) -> "Icosian":
        return Icosian(_apply8(self.zc, _TW8))

    def phi_plus(self) -> "Icosian":
        return self + self.twist()

    def nr(self) -> OInt:
        z, a, b = self.zc, 0, 0
        for i, j, ta, tb in _NORM_TERMS:
            x = z[i] * z[j]
            a += ta * x
            b += tb * x
        return OInt(a, b)

    def tr_q(self) -> OInt:
        total = ZERO_O
        for ci, t in zip(self.coords(), _TR4):
            total = total + ci * t
        return total

    def is_zero(self) -> bool:
        return not any(self.zc)

    def content(self) -> OInt:
        if self.is_zero():
            raise DomainError("zero icosian has no content")
        g = None
        for c in self.coords():
            if c.is_zero():
                continue
            g = c if g is None else gcd_o(g, c)
        return unit_normalize(g)[0]

    def is_primitive(self) -> bool:
        n = _content_norm(self.zc)
        if n == 0:
            raise DomainError("zero icosian has no content")
        return n == 1

    def primitive_part(self) -> "Icosian":
        if _content_norm(self.zc) == 1:
            return self
        g = self.content()
        return Icosian.from_coords(tuple(c.exact_div(g) for c in self.coords()))

    def is_admissible(self) -> bool:
        if self.is_zero():
            raise DomainError("zero icosian is not admissible")
        n = self.nr().abs_norm()
        r = isqrt(n)
        return r * r == n

    def to_json(self) -> dict:
        from .quaternion import format_quat
        from .field import format_oint

        return {
            "quat": format_quat(self.quat()),
            "coords": [format_oint(c) for c in self.coords()],
        }

    def __str__(self) -> str:
        from .quaternion import format_quat

        return format_quat(self.quat())


def _content_norm(zc) -> int:
    """N(content(q)) from the coordinates, 0 for q = 0.

    The o-coordinates x_i = a_i + b_i tau generate the content ideal, whose
    Z-span {x_i, tau x_i} = {(a_i, b_i), (b_i, a_i + b_i)} has index
    N(content) in Z^2: the gcd of its 2x2 minors.  Up to sign and Z-linear
    combination these are a_i b_j - a_j b_i and a_i a_j + a_i b_j - b_i b_j
    for i <= j (the mixed minor with i, j swapped is their difference).
    """
    g = 0
    for i in range(4):
        ai, bi = zc[i], zc[i + 4]
        for j in range(i, 4):
            aj, bj = zc[j], zc[j + 4]
            g = gcd(g, ai * bj - aj * bi, ai * aj + ai * bj - bi * bj)
            if g == 1:
                return 1
    return g


def _apply8(x, mat) -> tuple[int, ...]:
    out = [0] * 8
    for xi, row in zip(x, mat):
        if xi:
            for k in range(8):
                if row[k]:
                    out[k] += xi * row[k]
    return tuple(out)


def _tau_times(zc) -> tuple[int, ...]:
    return zc[4:] + tuple(map(add, zc[:4], zc[4:]))  # tau (a + b tau) = b + (a + b) tau


# The coordinates of 1, i, j and k, from 2 e3 = 1 + i + j + k and
# 2 e4 = (1 - tau) + tau i + k, then those of tau, tau i, tau j and tau k.
_ZC_1IJK = ((1, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0),
            (0, -1, 2, -2, -1, 1, 0, 0), (-1, 0, 0, 2, 1, -1, 0, 0))
_ZC_1IJK += tuple(map(_tau_times, _ZC_1IJK))


def _zc_of_o4(parts) -> tuple[int, ...]:
    """The coordinates of sum (a_c + b_c tau) u_c, u = (1, i, j, k), for
    parts = [(a_c, b_c)] integers: an icosian, since 1, i, j and k are."""
    return _apply8([a for a, _ in parts] + [b for _, b in parts], _ZC_1IJK)


def _zc_over(parts, d: int) -> tuple[int, ...] | None:
    """The coordinates of _zc_of_o4(parts) / d, or None if they are not integers."""
    zc = _zc_of_o4(parts)
    return None if any(v % d for v in zc) else tuple(v // d for v in zc)


def _table_zc(parts, d: int) -> tuple[int, ...]:
    """_zc_over(parts, d) for a table entry, which must be an icosian."""
    zc = _zc_over(parts, d)
    if zc is None:
        raise AssertionError(f"{parts} / {d} is not an icosian")
    return zc


if any(_zc_of_o4(e) != tuple(2 * (k == i) for k in range(8)) for i, e in enumerate(_TWO_E)):
    raise AssertionError("the coordinates of 1, i, j and k must take 2 e_i to 2 zb_i")
if any(tuple(map(sum, zip(*(_omul(x, x) for x in e)))) != (4, 0) for e in _TWO_E):
    raise AssertionError("the o-basis of I must consist of units: nr(2 e_i) = 4")


# Structure tables (integer, built once) from 2e_i 2e_j = 4 e_i e_j, 2 conj(e_i)
# and 2 twist(e_i) = (a', b', d', c') with (x + y tau)' = (x + y) - y tau:
# zb_(i+4) = tau e_i, the product is o-linear and twist(tau x) = (1 - tau) twist(x).
_MUL = [[_table_zc(_hamilton(x, y), 4) for y in _TWO_E] for x in _TWO_E]
_MUL = [[*row, *map(_tau_times, row)] for row in _MUL]
_MUL = tuple(map(tuple, _MUL + [list(map(_tau_times, row)) for row in _MUL]))
_CJ8 = tuple(_table_zc([e[0]] + [(-a, -b) for a, b in e[1:]], 2) for e in _TWO_E)
_CJ8 += tuple(map(_tau_times, _CJ8))
_TW8 = tuple(_table_zc([(x + y, -y) for x, y in (e[0], e[1], e[3], e[2])], 2) for e in _TWO_E)
_TW8 += tuple(tuple(map(sub, zc, _tau_times(zc))) for zc in _TW8)


def _sparse(rows) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Each row of a dense integer table as its nonzero (position, entry) pairs."""
    return tuple(tuple((k, t) for k, t in enumerate(row) if t) for row in rows)


def _combine(coeffs, table, width: int) -> list[int]:
    """sum_i coeffs[i] * table[i] for a _sparse table of the given row width:
    the one kernel behind the product of icosians, the rows of q*I and I*q,
    the rotation image rows and phi_plus_image."""
    out = [0] * width
    for x, row in zip(coeffs, table):
        if x:
            for k, t in row:
                out[k] += x * t
    return out


def _split(flat, width: int) -> list[tuple[int, ...]]:
    return [tuple(flat[k : k + width]) for k in range(0, len(flat), width)]


# Row i: zb_i * zb_j (_LEFT) and zb_j * zb_i (_RIGHT) for j = 0..7, one after
# the other (64 integers), so that q * zb_j and zb_j * q are linear in q.
_LEFT = _sparse([v for j in range(8) for v in _MUL[i][j]] for i in range(8))
_RIGHT = _sparse([v for j in range(8) for v in _MUL[j][i]] for i in range(8))


def _left_rows(zc) -> list[tuple[int, ...]]:
    """The coordinates of q * zb_j, j = 0..7, for q with coordinates zc: the
    Z-basis rows of q*I."""
    return _split(_combine(zc, _LEFT, 64), 8)


def _right_rows(zc) -> list[tuple[int, ...]]:
    """The coordinates of zb_j * q, j = 0..7: the Z-basis rows of I*q."""
    return _split(_combine(zc, _RIGHT, 64), 8)


_TR4 = tuple(OInt(*e[0]) for e in _TWO_E)  # tr(e_i) = 2 Re(e_i)

ZB_ICO = tuple(Icosian(tuple(int(i == j) for j in range(8))) for i in range(8))
# Two norm-1 units that generate all 120 (unit_group checks it).
_UNIT_GENERATORS = (ZB_ICO[2], ZB_ICO[3])

# Doubled bilinear tables on the Z-basis: tr(zb_i * conj(zb_j)) in o, plus its
# a-part and b-part.  x^T NORM_A_GRAM x == 2 * (a of nr(x)).
_TRG8 = tuple(tuple(Icosian(_apply8(cj, row)).tr_q() for cj in _CJ8) for row in _MUL)
NORM_A_GRAM = tuple(tuple(w.a for w in row) for row in _TRG8)
NORM_B_GRAM = tuple(tuple(w.b for w in row) for row in _TRG8)
# nr(x) = sum over i <= j of x_i x_j (a_ij, b_ij), the two forms halved: their
# nonzero upper-triangle terms, the diagonal halved (it is even, as
# tr(x conj(x)) = 2 nr(x)).  One product x_i x_j feeds both parts: 32 terms in
# place of two dense 8x8 passes.
if any(g[i][i] % 2 for g in (NORM_A_GRAM, NORM_B_GRAM) for i in range(8)):
    raise AssertionError("the doubled norm forms must have an even diagonal")
_NORM_TERMS = tuple(
    (i, j, *(g[i][j] if i < j else g[i][i] // 2 for g in (NORM_A_GRAM, NORM_B_GRAM)))
    for i in range(8)
    for j in range(i, 8)
    if NORM_A_GRAM[i][j] or NORM_B_GRAM[i][j]
)

# (Z^8, NORM_A_GRAM) is even unimodular of rank 8, i.e. E8.  Row i of _E8_T is
# 2 zb_i in the standard coordinates of E8 = D8 u (D8 + 1/2), so that
# _E8_T _E8_T^T = 4 NORM_A_GRAM and det _E8_T = 2^8; _E8_U = 4 _E8_T^-1.
_E8_T = ((0, 2, 0, 0, 0, 2, 0, 0), (0, 0, 2, 2, 0, 0, 0, 0), (0, 2, 0, 2, 0, 0, 0, 0),
         (0, 2, 0, 0, 0, 0, 0, 2), (0, 0, 0, 0, 2, 0, 0, -2), (0, 0, 0, 0, 2, 0, 0, 2),
         (2, 0, 0, 0, 2, 0, 0, 0), (1, -1, 1, 1, 1, -1, 1, 1))
_E8_U = ((0, 0, 0, 0, -1, -1, 2, 0), (0, 0, 0, 2, 1, -1, 0, 0), (0, 2, -2, 2, 1, -1, 0, 0),
         (0, 0, 2, -2, -1, 1, 0, 0), (0, 0, 0, 0, 1, 1, 0, 0), (2, 0, 0, -2, -1, 1, 0, 0),
         (2, -2, 0, 0, 1, -1, -2, 4), (0, 0, 0, 0, -1, 1, 0, 0))


def _nearest_icosian(y, n: int) -> tuple[int, ...]:
    """The point of I nearest to y/n under NORM_A_GRAM, by the E8 decoder of
    Conway and Sloane (IEEE Trans. Inf. Theory 28, 1982).  In standard
    coordinates y/n is w/(2n); the nearer of its nearest points in D8 and in
    D8 + 1/2 wins.  The nearest point of D8 (even coordinate sum) rounds
    every coordinate and, on an odd sum, the worst-rounded one the other way."""
    w, den, cands = _apply8(y, _E8_T), 2 * n, []
    for half in (0, 1):  # D8 + half/2, as the nearest point z of D8 to w/den - half/2
        num = [v - half * n for v in w]
        z = [(2 * v + den) // (2 * den) for v in num]
        err = [v - den * k for v, k in zip(num, z)]
        if sum(z) % 2:
            k = max(range(8), key=lambda i: abs(err[i]))
            step = 1 if err[k] > 0 else -1
            z[k] += step
            err[k] -= step * den
        cands.append((sum(e * e for e in err), [2 * k + half for k in z]))
    return tuple(v // 4 for v in _apply8(min(cands)[1], _E8_U))


def to_icosian(q: Quat) -> Icosian | None:
    """Membership test: the o-coordinates of q if q is an icosian, else None."""
    return Icosian.from_quat(q)


def _require_primitive(q: Icosian) -> None:
    """Raise DomainError unless q is nonzero and primitive."""
    if q.is_zero():
        raise DomainError("zero icosian defines no coincidence isometry")
    if _content_norm(q.zc) != 1:
        raise DomainError(f"{q} is not primitive")


def _balance(p: Icosian, m: OInt) -> tuple[int, OInt, int]:
    """(den, alpha, sigma) of a primitive icosian p, m = nr p: den = sqrt N(m),
    sigma = lcm(m, m') and alpha = sqrt(sigma / m), so that nr(alpha p) =
    sigma.  DomainError unless p is admissible.

    With m = nr p = A + B tau, N = N(m) and g = gcd(A, B): sigma = N / g and
    alpha = sqrt(m' / g).  N is a square, so sqrt5 divides m to an even
    power, a power of 5 that lies in g.  So m / g is prime to its conjugate:
    a common prime would be sqrt5, or put a rational prime into m / g,
    whose coefficients are coprime.  Hence gcd(m, m') = g up to a unit,
    lcm(m, m') = N / g and sigma / m = m' / g.
    """
    n = m.abs_norm()
    d = isqrt(n)
    if d * d != n:
        raise DomainError(f"not a coincidence isometry: the denominator sqrt({n}) is irrational")
    g = gcd(m.a, m.b)
    sig = n // g
    alpha = sqrt_o(OInt((m.a + m.b) // g, -m.b // g))
    if alpha is None:
        raise AssertionError("quotient of standardised lcm must be a square")
    if alpha * alpha * m != OInt(sig, 0):
        raise AssertionError(f"alpha^2 nr(p) must be the rational lcm {sig}")
    return d, alpha, sig


def den(q: Icosian) -> int:
    """The denominator |q q~| of a primitive admissible icosian."""
    _require_primitive(q)
    return _balance(q, q.nr())[0]


def extension(q: Icosian) -> tuple[Icosian, OInt]:
    """The extension (alpha_q * q, alpha_q) of a primitive admissible icosian.

    alpha_q = sqrt(lcm(nr q, nr q') / nr q); the lcm standardisation makes
    the quotient an exact square in o and nr(alpha_q * q) a positive
    rational integer.
    """
    _require_primitive(q)
    alpha = _balance(q, q.nr())[1]
    return q.scale_o(alpha), alpha


def sigma_index(q: Icosian) -> int:
    """The coincidence index lcm(nr q, nr q') of a primitive admissible q."""
    _require_primitive(q)
    return _balance(q, q.nr())[2]


@lru_cache(maxsize=1)
def unit_group() -> tuple[Icosian, ...]:
    """The 120 icosians of reduced norm 1 (binary icosahedral group)."""
    seen = {ZB_ICO[0].zc}
    frontier = [ZB_ICO[0]]
    while frontier:
        fresh = []
        for x in frontier:
            for g in _UNIT_GENERATORS:
                y = x * g
                if y.zc not in seen:
                    seen.add(y.zc)
                    fresh.append(y)
        frontier = fresh
    if len(seen) != 120:
        raise AssertionError(f"unit closure has {len(seen)} elements")
    return tuple(Icosian(z) for z in sorted(seen))


@lru_cache(maxsize=1)
def unit_right_mul_matrices() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """8x8 integer matrices of right multiplication by each norm-1 unit."""
    return tuple(tuple(_right_rows(u.zc)) for u in unit_group())


# One kernel computes the least member of the unit orbit of x, each member
# taken with its last nonzero coordinate positive (counting's class reps and
# generator keys) or its first (glcd).  x*(-u) = -(x*u), so 60 units, one per
# +-pair, give every sign-normalised member.  For y = x*u_t and B = 2^b, unit
# t owns two signed base-B numbers of W = 8b bits: F_t = sum y_k B^(7-k),
# ordered as y is lexicographically, and R_t, of the sign of the normalising
# coordinate: sum y_k B^k for the last, F_t again for the first.  Both are
# exact while every |y_k| < B/2 (|x_i| <= limit).  sum(x_i * packs[i]) + bias
# holds all 120 fields, each non-negative: R_t biased by 2^(W-1), so that its
# top bit is its sign, and F_t by B/2 in each digit.  Those bits choose F_t or
# 2 bias - F_t; as big-endian bytes the least of the 60 blocks is the orbit
# minimum, and only it is decoded.  x takes the least of 8, 16 and 32 bits
# that holds it, and past 32 bits the plain _apply8 route.
@lru_cache(maxsize=1)
def _unit_matrices() -> SimpleNamespace:
    """The matrices of x -> x*u (units), u over 60 norm-1 units, one per
    +-pair, and of x -> u*x (lefts, for the generator search) over the 59 of
    them other than +-1, those of x -> g*x over the two generators g (walk),
    and each digit width with its limit."""
    units, lefts, negated = [], [], set()
    for u in unit_group():
        if u.zc not in negated:
            units.append(tuple(_right_rows(u.zc)))
            if any(u.zc[1:]):  # not +-1
                lefts.append(tuple(_left_rows(u.zc)))
            negated.add(tuple(-v for v in u.zc))
    widest = max(sum(abs(row[k]) for row in mat) for mat in units for k in range(8))
    limits = tuple((b, ((1 << (b - 1)) - 1) // widest) for b in (8, 16, 32))
    walk = tuple(tuple(_left_rows(g.zc)) for g in _UNIT_GENERATORS)
    return SimpleNamespace(units=tuple(units), lefts=tuple(lefts), walk=walk, limits=limits)


@lru_cache(maxsize=6)
def _orbit_packing(bits: int, first: bool = False) -> SimpleNamespace:
    """The packing of the 60 unit matrices in digits of the given bits, for
    the first (or last) nonzero coordinate positive, and the constants and
    readers of _orbit_blocks and _orbit_min."""
    units = _unit_matrices().units
    n, width, base = len(units), 8 * bits, 1 << bits

    def place(f):  # R_t is field t, F_t field n + t, from the top
        return 1 << (width * (2 * n - 1 - f))

    packs = [0] * 8
    for (t, mat), i, k in itertools.product(enumerate(units), range(8), range(8)):
        sign = base ** (7 - k) if first else base**k
        packs[i] += mat[i][k] * (sign * place(t) + base ** (7 - k) * place(n + t))
    ones = sum(map(place, range(n, 2 * n)))
    digits = (base // 2) * (base**8 - 1) // (base - 1) * ones
    return SimpleNamespace(
        packs=packs,
        bias=digits + (1 << (width - 1)) * sum(map(place, range(n))),
        sign_shift=width * (n + 1) - 1,
        ones=ones,
        field=(1 << width) - 1,
        low=(1 << (width * n)) - 1,
        negate=2 * digits,
        nbytes=bits * n,
        blocks=itemgetter(*(slice(bits * t, bits * (t + 1)) for t in range(n))),
        unpack=Struct(">8" + {8: "B", 16: "H", 32: "I"}[bits]).unpack,
        half=base // 2,
    )


def _orbit_bits(zc: tuple[int, ...]) -> int | None:
    """The least digit width that holds the orbit of x, None past 32 bits."""
    top = max(map(abs, zc))
    for bits, limit in _unit_matrices().limits:
        if top <= limit:
            return bits
    return None


def _sign_normal(o, first: bool) -> tuple[int, ...]:
    """o, or -o, with its first (or last) nonzero coordinate positive."""
    lead = next((v for v in (o if first else reversed(o)) if v), 0)
    return tuple(o) if lead >= 0 else tuple(-v for v in o)


def _orbit_blocks(zc: tuple[int, ...], pk: SimpleNamespace) -> tuple[bytes, ...]:
    """The 60 sign-normalised x*u as biased big-endian digit blocks, for x
    within the limit of pk's width."""
    a = sum(map(mul, zc, pk.packs), pk.bias)
    fwd = a & pk.low
    keep = ((a >> pk.sign_shift) & pk.ones) * pk.field
    chosen = (fwd & keep) | ((pk.negate - fwd) & (pk.low ^ keep))
    return pk.blocks(chosen.to_bytes(pk.nbytes, "big"))


def _orbit(zc: tuple[int, ...], first: bool = False) -> list[tuple[int, ...]]:
    """The 60 sign-normalised x*u, one per +-pair of norm-1 units u, by the
    plain apply loop."""
    return [_sign_normal(_apply8(zc, mat), first) for mat in _unit_matrices().units]


def _orbit_min(zc: tuple[int, ...], first: bool = False) -> tuple[int, ...]:
    """The least x*u over the 120 norm-1 units u, each taken with the sign
    that makes its last (or first) nonzero coordinate positive."""
    bits = _orbit_bits(zc)
    if bits is None:
        return min(_orbit(zc, first))
    pk = _orbit_packing(bits, first)
    return tuple(v - pk.half for v in pk.unpack(min(_orbit_blocks(zc, pk))))


def same_right_ideal(r: Icosian, s: Icosian) -> bool:
    """rI == sI, i.e. s^-1 r lies in I and its reduced norm is a unit."""
    if r.is_zero() or s.is_zero():
        raise DomainError("right ideals need nonzero generators")
    m = s.nr()
    return r.nr().abs_norm() == m.abs_norm() and _left_divides(s, m, r)


class Rank8Module(Value):
    """A full rank-8 Z-submodule of I as a canonical 8x8 HNF."""

    __slots__ = _fields = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        _set(self, "rows", rows)

    @classmethod
    def from_rows(cls, rows) -> "Rank8Module":
        return cls(hnf_square(rows, 8))

    def contains(self, x: Icosian) -> bool:
        return hnf_contains(self.rows, x.zc)


def right_ideal(generators) -> Rank8Module:
    """HNF of sum g*I over the generators."""
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise DomainError("right ideal needs a nonzero generator")
    return Rank8Module.from_rows([row for g in gens for row in _left_rows(g.zc)])


def _left_divides(d: Icosian, m: OInt, x: Icosian) -> bool:
    """d^-1 x in I for a nonzero d with m = nr(d): N(m) divides every
    coordinate of N(m) d^-1 x."""
    n = m.field_norm()
    return not any(v % n for v in _scaled_quotient(d, m, x))


def _scaled_quotient(d: Icosian, m: OInt, x: Icosian) -> tuple[int, ...]:
    """N(m) d^-1 x = conj(d) x m' for m = nr(d); a scalar x of o is taken by
    scale_o, not by the product."""
    z = x.zc
    if any(z[1:4]) or any(z[5:]):
        return (d.conj() * x).scale_o(m.conj()).zc
    return d.conj().scale_o(m.conj() * OInt(z[0], z[4])).zc


def glcd(p: Icosian, beta: OInt) -> Icosian:
    """Greatest left common divisor: a generator d with d*I = p*I + beta*I.

    Unique up to right units; the returned representative is deterministic:
    among generators of minimal trace norm, the one whose coordinate vector
    is lexicographically smallest with first nonzero coordinate positive.
    It is read off the unit orbits of d*tau^k for the one or two k of least
    trace (_least_generator), d the last remainder of _remainders: p when p
    left-divides beta, and otherwise checked to be p x + beta y and a left
    divisor of p and beta.  The order is defined on I-coordinates, so it
    depends on neither the route nor d.
    """
    if p.is_zero() or beta.is_zero():
        raise DomainError("glcd requires nonzero arguments")
    seq = _remainders(p, p.nr(), beta)
    d, m, x = seq[-1]
    if len(seq) > 1 and not (
        all(beta.divides(c) for c in (d - p * x).coords())
        and _left_divides(d, m, p)
        and _left_divides(d, m, Icosian.from_o(beta))
    ):
        raise AssertionError(f"the last remainder {d} must generate p I + beta I")
    best = _least_generator(d.zc, m)
    if not (best.nr().abs_norm() == m.abs_norm() and _left_divides(d, m, best)):
        raise AssertionError("principal generator must exist (class number one)")
    return best


def _remainders(p: Icosian, m: OInt, beta: OInt) -> list[tuple[Icosian, OInt, Icosian]]:
    """The right-Euclidean remainders r_1 = p, r_2, ... of r_0 = beta, as
    (r_i, nr r_i, x_i) with r_i - p x_i in beta I, up to the first r_i that
    left-divides r_(i-1): a generator of p I + beta I (m = nr p).

    r_(i+1) = r_(i-1) - r_i q_i for q_i the nearest point of I to r_i^-1
    r_(i-1), so that 2 a(nr(r_i^-1 r_(i+1))) <= 1 (E8 has covering radius 1)
    and, nr being totally positive, N(nr(r_i^-1 r_(i+1))) <= 5 a^2/4 <= 5/16.
    AssertionError if N(nr) does not fall.
    """
    prev, prev_x = Icosian.from_o(beta), Icosian.from_int(0)
    seq = [(p, m, Icosian.from_int(1))]
    while True:
        r, m, x = seq[-1]
        n, y = m.field_norm(), _scaled_quotient(r, m, prev)
        if not any(v % n for v in y):
            return seq
        q = Icosian(_nearest_icosian(y, n))
        rem = prev - r * q
        rm = rem.nr()
        if not 0 < rm.field_norm() < n:
            raise AssertionError(f"dividing {prev} by {r} in I did not lower N(nr)")
        seq.append((rem, rm, prev_x - x * q))
        prev, prev_x = r, x


def _least_generator(zc, m: OInt) -> Icosian:
    """The least (Tr(nr), first-nonzero-positive coordinates) over the
    generators x*tau^k*u of x*I, x with coordinates zc and nr(x) = m, u over
    the 120 norm-1 units.  t_k = Tr(m tau^(2k)) = m tau^(2k) + m' tau^(-2k)
    is strictly convex in k, and t_(k-1) + t_(k+1) = 3 t_k (tau^2 + tau^-2 =
    3), so an integer walk finds the one k, or two adjacent ones (e.g. m =
    2 + tau and 3 - tau), of least trace."""
    k, (lo, mid, hi) = 0, ((m * tau_pow(j)).trace() for j in (-2, 0, 2))
    while min(lo, hi) < mid:
        if hi < mid:
            k, lo, mid, hi = k + 1, mid, hi, 3 * hi - mid
        else:
            k, lo, mid, hi = k - 1, 3 * lo - mid, lo, mid
    ties = [j for j, t in zip((k - 1, k, k + 1), (lo, mid, hi)) if t == mid]
    scaled = (Icosian(zc).scale_o(tau_pow(j)).zc if j else zc for j in ties)
    return Icosian(min(_orbit_min(y, True) for y in scaled))

