"""Exact arithmetic in the golden-ratio field K = Q(sqrt5) and its integers Z[tau].

Numbers are stored as coefficient pairs (a, b) meaning a + b*tau, where
tau = (1+sqrt5)/2 satisfies tau**2 = tau + 1.  OInt holds integer pairs
(the ring of integers o = Z[tau]), KNum holds Fraction pairs (the field).
All comparisons against the two real embeddings are done exactly with
integer arithmetic; no floating point is used anywhere.

The units of o are +-tau**k.  Several operations need a canonical
associate ("unit-normal form"): the representative y of the class
{+-tau**k x} with sigma1(y) > 0 and 1 <= sigma1(y)/|sigma2(y)| < tau**2,
where sigma1, sigma2 are the real embeddings.  This makes gcd/lcm
deterministic and gives lcm(m, m') a conjugation-symmetric value whenever
one exists (in particular a plain positive integer for the norms handled
by the coincidence machinery).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .errors import DomainError, ParseError
from .value import Value, _set


def _sign_root5(p, q) -> int:
    """Exact sign of p + q*sqrt(5) for rational/integer p, q."""
    sp = (p > 0) - (p < 0)
    sq = (q > 0) - (q < 0)
    if sq == 0:
        return sp
    if sp == 0 or sp == sq:
        return sq if sp == 0 else sp
    # Opposite signs: |p| vs |q|*sqrt5 decides (never equal, sqrt5 irrational).
    return sp if p * p - 5 * q * q > 0 else sq


class OInt(Value):
    """An element a + b*tau of o = Z[tau]."""

    __slots__ = _fields = ("a", "b")

    def __init__(self, a: int, b: int):
        _set(self, "a", a)
        _set(self, "b", b)

    def __eq__(self, other):
        if other.__class__ is OInt:
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b))

    def __add__(self, other: "OInt") -> "OInt":
        return OInt(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "OInt") -> "OInt":
        return OInt(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "OInt":
        return OInt(-self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, int):
            return OInt(self.a * other, self.b * other)
        if isinstance(other, OInt):
            # (a+bt)(c+dt) = (ac+bd) + (ad+bc+bd)t
            return OInt(
                self.a * other.a + self.b * other.b,
                self.a * other.b + self.b * other.a + self.b * other.b,
            )
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "OInt":
        if k < 0:
            raise DomainError("negative powers leave Z[tau]; use tau_pow for units")
        r, base = ONE_O, self
        while k:
            if k & 1:
                r = r * base
            base = base * base
            k >>= 1
        return r

    def conj(self) -> "OInt":
        """Algebraic conjugation sqrt5 -> -sqrt5, i.e. tau -> 1 - tau."""
        return OInt(self.a + self.b, -self.b)

    def field_norm(self) -> int:
        """Signed norm x * x' = a^2 + ab - b^2."""
        return self.a * self.a + self.a * self.b - self.b * self.b

    def abs_norm(self) -> int:
        return abs(self.field_norm())

    def trace(self) -> int:
        """Tr(x) = x + x' = 2a + b."""
        return 2 * self.a + self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_unit(self) -> bool:
        return self.abs_norm() == 1

    def sign_embed(self, conjugate: bool = False) -> int:
        """Exact sign of sigma1(x) (or sigma2(x) if conjugate)."""
        b = -self.b if conjugate else self.b
        return _sign_root5(2 * self.a + self.b, b)

    def is_totally_positive(self) -> bool:
        return self.sign_embed() > 0 and self.sign_embed(conjugate=True) > 0

    def divides(self, other: "OInt") -> bool:
        if self.is_zero():
            return other.is_zero()
        num = other * self.conj()
        n = self.field_norm()
        return num.a % n == 0 and num.b % n == 0

    def exact_div(self, other: "OInt") -> "OInt":
        """Quotient self/other, which must be exact in o."""
        if other.is_zero():
            raise DomainError("division by zero in Z[tau]")
        num = self * other.conj()
        n = other.field_norm()
        qa, ra = divmod(num.a, n)
        qb, rb = divmod(num.b, n)
        if ra or rb:
            raise DomainError(f"{other} does not divide {self} in Z[tau]")
        return OInt(qa, qb)

    def to_knum(self) -> "KNum":
        return KNum(Fraction(self.a), Fraction(self.b))

    def __str__(self) -> str:
        return format_knum(self.to_knum())


ZERO_O = OInt(0, 0)
ONE_O = OInt(1, 0)
TAU = OInt(0, 1)
TAU_INV = OInt(-1, 1)  # 1/tau = tau - 1
TAU4 = OInt(2, 3)
SQRT5 = OInt(-1, 2)  # 2*tau - 1, the ramified prime; SQRT5**2 == 5


def tau_pow(k: int) -> OInt:
    """tau**k for any integer k (units of o)."""
    return TAU**k if k >= 0 else TAU_INV ** (-k)


class KNum(Value):
    """An element a + b*tau of K = Q(sqrt5), coefficients reduced Fractions."""

    __slots__ = _fields = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction):
        _set(self, "a", a if isinstance(a, Fraction) else Fraction(a))
        _set(self, "b", b if isinstance(b, Fraction) else Fraction(b))

    def __eq__(self, other):
        if other.__class__ is KNum:
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b))

    @classmethod
    def of(cls, x) -> "KNum":
        if isinstance(x, KNum):
            return x
        if isinstance(x, OInt):
            return x.to_knum()
        if isinstance(x, (int, Fraction)):
            return cls(Fraction(x), Fraction(0))
        raise TypeError(f"cannot coerce {x!r} to KNum")

    def __add__(self, other: "KNum") -> "KNum":
        return KNum(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "KNum") -> "KNum":
        return KNum(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "KNum":
        return KNum(-self.a, -self.b)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return KNum(self.a * other, self.b * other)
        if isinstance(other, KNum):
            bb = self.b * other.b
            return KNum(self.a * other.a + bb, self.a * other.b + self.b * other.a + bb)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: "KNum") -> "KNum":
        return self * other.inverse()

    def conj(self) -> "KNum":
        return KNum(self.a + self.b, -self.b)

    def field_norm(self) -> Fraction:
        return self.a * self.a + self.a * self.b - self.b * self.b

    def norm(self) -> Fraction:
        """Absolute norm N(x) = |x x'|."""
        return abs(self.field_norm())

    def trace(self) -> Fraction:
        return 2 * self.a + self.b

    def inverse(self) -> "KNum":
        n = self.field_norm()
        if n == 0:
            raise DomainError("division by zero in Q(sqrt5)")
        return KNum(self.conj().a / n, self.conj().b / n)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_integral(self) -> bool:
        return self.a.denominator == 1 and self.b.denominator == 1

    def to_oint(self) -> OInt:
        if not self.is_integral():
            raise DomainError(f"{self} is not in Z[tau]")
        return OInt(int(self.a), int(self.b))

    def sign_embed(self, conjugate: bool = False) -> int:
        b = -self.b if conjugate else self.b
        return _sign_root5(2 * self.a + self.b, b)

    def __str__(self) -> str:
        return format_knum(self)


ZERO_K = KNum(Fraction(0), Fraction(0))


def _ratio_ge_tau2(y: OInt) -> bool:
    # sigma1(y)/|sigma2(y)| >= tau^2  <=>  sigma1(y^2 - tau^4 * (y')^2) >= 0
    w = y.conj()
    return (y * y - TAU4 * (w * w)).sign_embed() >= 0


def _ratio_lt_one(y: OInt) -> bool:
    w = y.conj()
    return (y * y - w * w).sign_embed() < 0


def unit_normalize(x: OInt) -> tuple[OInt, int, int]:
    """Write x = sign * tau**k * y with y the canonical associate.

    y satisfies sigma1(y) > 0 and 1 <= sigma1(y)/|sigma2(y)| < tau**2.  The
    half-open window resolves boundary cases toward ratio exponent 0, so
    plain positive integers are fixed points.  Returns (y, k, sign).
    """
    if x.is_zero():
        raise DomainError("cannot unit-normalize zero")
    y, k = x, 0
    while _ratio_ge_tau2(y):
        y = y * TAU_INV
        k += 1
    while _ratio_lt_one(y):
        y = y * TAU
        k -= 1
    sign = y.sign_embed()
    if sign < 0:
        y = -y
    return y, k, sign


def _round_nearest(p: int, q: int) -> int:
    """Round p/q to the nearest integer (ties to even, q may be negative)."""
    if q < 0:
        p, q = -p, -q
    r, m = divmod(p, q)
    if 2 * m > q or (2 * m == q and r & 1):
        r += 1
    return r


def _nearest_quotient(x: OInt, y: OInt) -> OInt:
    num = x * y.conj()
    n = y.field_norm()
    return OInt(_round_nearest(num.a, n), _round_nearest(num.b, n))


def gcd_o(x: OInt, y: OInt) -> OInt:
    """Greatest common divisor in o, in unit-normal form.

    o is norm-Euclidean; nearest-integer rounding of the exact quotient
    coefficients guarantees strict norm decrease.
    """
    if x.is_zero() and y.is_zero():
        raise DomainError("gcd(0, 0) is undefined")
    while not y.is_zero():
        x, y = y, x - _nearest_quotient(x, y) * y
    return unit_normalize(x)[0]


def lcm_o(x: OInt, y: OInt) -> OInt:
    """Least common multiple in o, in unit-normal form."""
    if x.is_zero() or y.is_zero():
        raise DomainError("lcm requires nonzero arguments")
    g = gcd_o(x, y)
    return unit_normalize((x * y).exact_div(g))[0]


RAMIFIED = "ramified"
SPLIT = "split"
INERT = "inert"


class OFactorization(Value):
    """Factorization x = unit * prod(prime**exponent) over o.

    factors holds (prime, exponent, splitting) triples with primes in
    unit-normal form; splitting is "ramified" (p=5), "split" (p = +-1 mod 5)
    or "inert" (p = +-2 mod 5).
    """

    __slots__ = _fields = ("unit", "factors")

    def __init__(self, unit: OInt, factors: tuple[tuple[OInt, int, str], ...]):
        _set(self, "unit", unit)
        _set(self, "factors", factors)


def factor_int(n: int) -> list[tuple[int, int]]:
    """Trial-division factorization of a positive integer, ascending primes."""
    if n < 1:
        raise DomainError("factor_int needs a positive integer")
    out = []
    for p in (2, 3, 5):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
    d = 7
    step = (4, 2, 4, 2, 4, 6, 2, 6)  # wheel mod 30 starting at 7
    i = 0
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += step[i]
        i = (i + 1) % 8
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factor_int(n) == [(n, 1)]


@lru_cache(maxsize=None)
def split_prime_above(p: int) -> OInt:
    """A canonical prime of o above a split rational prime p (= +-1 mod 5)."""
    if p % 5 not in (1, 4) or not is_prime(p):
        raise DomainError(f"{p} is not a split prime")
    # Solve (2a+b)^2 - 5 b^2 = +-4p for the norm form a^2+ab-b^2 = +-p.
    for b in range(1, isqrt(4 * p) + 2):
        for d in (5 * b * b + 4 * p, 5 * b * b - 4 * p):
            if d < 0:
                continue
            s = isqrt(d)
            if s * s != d:
                continue
            if (s - b) % 2:
                continue
            cand = OInt((s - b) // 2, b)
            if cand.abs_norm() == p:
                return unit_normalize(cand)[0]
    raise AssertionError(f"no prime of norm {p} found")  # unreachable for split p


def splitting_type(p: int) -> str:
    if p == 5:
        return RAMIFIED
    return SPLIT if p % 5 in (1, 4) else INERT


def factor_o(x: OInt) -> OFactorization:
    """Factor a nonzero x over o by lifting the rational primes of N(x)."""
    if x.is_zero():
        raise DomainError("cannot factor zero")
    rem = x
    factors = []
    for p, _e in factor_int(x.abs_norm()) if x.abs_norm() > 1 else []:
        tag = splitting_type(p)
        if tag == RAMIFIED:
            primes = [SQRT5]
        elif tag == SPLIT:
            pi = split_prime_above(p)
            primes = [pi, unit_normalize(pi.conj())[0]]
        else:
            primes = [OInt(p, 0)]
        for pi in primes:
            e = 0
            while pi.divides(rem):
                rem = rem.exact_div(pi)
                e += 1
            if e:
                factors.append((pi, e, tag))
    if not rem.is_unit():
        raise AssertionError(f"factoring {x} left the non-unit remainder {rem}")
    return OFactorization(unit=rem, factors=tuple(factors))


def sqrt_o(x: OInt) -> OInt | None:
    """A square root of x in o if one exists, else None.

    Canonical sign: sigma1 > 0 (zero maps to zero).  Derivation: if y^2 = x
    then Tr(y)^2 = Tr(x) + 2n and (y-y')^2 = Tr(y)^2 - 4n = 5b^2, where
    n = y y' satisfies n^2 = N(x); all candidates are checked exactly.
    """
    if x.is_zero():
        return ZERO_O
    nx = x.abs_norm()
    s = isqrt(nx)
    if s * s != nx:
        return None
    tx = x.trace()
    for n in (s, -s) if s else (0,):
        tt = tx + 2 * n
        if tt < 0:
            continue
        t = isqrt(tt)
        if t * t != tt:
            continue
        vv = tt - 4 * n
        if vv < 0 or vv % 5:
            continue
        v2 = vv // 5
        v = isqrt(v2)
        if v * v != v2:
            continue
        for tc in {t, -t}:
            for vc in {v, -v}:
                if (tc - vc) % 2:
                    continue
                y = OInt((tc - vc) // 2, vc)
                if y * y == x:
                    return y if y.sign_embed() > 0 else -y
    return None


# -- text form -------------------------------------------------------------
#
# Canonical form "a+b*t" with reduced fractions, e.g. "-1/2+3/2*t", "t", "2".
# The parser also accepts whitespace, unicode minus and an omitted "*"; a "*"
# needs a coefficient before it, and "_" (which Fraction would skip) is refused.


def format_knum(x: KNum) -> str:
    if x.a == 0 and x.b == 0:
        return "0"
    parts = []
    if x.a != 0:
        parts.append(str(x.a))
    if x.b != 0:
        if x.b == 1:
            t = "t"
        elif x.b == -1:
            t = "-t"
        else:
            t = f"{x.b}*t"
        if parts and x.b > 0:
            parts.append("+")
        parts.append(t)
    return "".join(parts)


def format_oint(x: OInt) -> str:
    return format_knum(x.to_knum())


def _parse_term(term: str) -> KNum:
    neg = False
    while term and term[0] in "+-":
        if term[0] == "-":
            neg = not neg
        term = term[1:]
    if not term:
        raise ParseError("empty term")
    if term.endswith("t"):
        coeff = term[:-1]
        if coeff.endswith("*"):
            coeff = coeff[:-1]
            if not coeff:
                raise ParseError("'*' needs a coefficient before it")
        value = KNum(Fraction(0), Fraction(coeff) if coeff else Fraction(1))
    else:
        value = KNum(Fraction(term), Fraction(0))
    return -value if neg else value


def parse_knum(text: str) -> KNum:
    """Parse the "a+b*t" text form of an element of Q(sqrt5)."""
    s = "".join(text.split()).replace("−", "-").replace("–", "-")
    if not s:
        raise ParseError("empty number")
    if "_" in s:
        raise ParseError(f"cannot parse {text!r} as a+b*t: '_' is not a digit")
    if "e" in s or "E" in s:
        # Fraction reads exponents, so a few characters could ask for a
        # number of any length: 1e20000 has 20001 digits.
        raise ParseError(f"cannot parse {text!r} as a+b*t: numbers take no exponent")
    terms = []
    start = 0
    for i in range(1, len(s)):
        if s[i] in "+-" and s[i - 1] not in "+-/*":
            terms.append(s[start:i])
            start = i
    terms.append(s[start:])
    total = ZERO_K
    try:
        for term in terms:
            total = total + _parse_term(term)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot parse {text!r} as a+b*t") from exc
    return total


def parse_oint(text: str) -> OInt:
    x = parse_knum(text)
    if not x.is_integral():
        raise ParseError(f"{text!r} is not integral in Z[tau]")
    return x.to_oint()
