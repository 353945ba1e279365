"""Expected answers computed without the program under test.

Elements a + b*tau of Z[tau] are (a, b) integer pairs, tau**2 = tau + 1.
An icosian is given by its integer 8-vector zc over the Z-basis
(e1..e4, tau*e1..tau*e4) of the icosian ring, with

    e1 = (1,0,0,0), e2 = (0,1,0,0), e3 = (1,1,1,1)/2, e4 = (1-tau, tau, 0, 1)/2.
"""

from __future__ import annotations

from math import gcd, isqrt

# Quaternion components of 2*e_i as Z[tau] pairs.
_TWO_E = (
    ((2, 0), (0, 0), (0, 0), (0, 0)),
    ((0, 0), (2, 0), (0, 0), (0, 0)),
    ((1, 0), (1, 0), (1, 0), (1, 0)),
    ((1, -1), (0, 1), (0, 0), (1, 0)),
)


def _omul(x, y):
    a, b = x
    c, d = y
    return a * c + b * d, a * d + b * c + b * d


def reduced_norm(zc) -> tuple[int, int]:
    """nr(q) = sum of the squared quaternion components, as (a, b)."""
    comps = [[0, 0] for _ in range(4)]
    for i in range(4):
        c = (zc[i], zc[i + 4])
        if c == (0, 0):
            continue
        for k, e in enumerate(_TWO_E[i]):
            pa, pb = _omul(c, e)
            comps[k][0] += pa
            comps[k][1] += pb
    a = b = 0
    for x in comps:
        sa, sb = _omul(x, x)
        a += sa
        b += sb
    if a % 4 or b % 4:
        raise ValueError(f"{zc} is not an icosian coordinate vector")
    return a // 4, b // 4


def field_norm(a: int, b: int) -> int:
    """N(a + b*tau) = (a + b*tau)(a + b*tau')."""
    return a * a + a * b - b * b


def admissible_data(zc) -> tuple[int, int] | None:
    """(sigma, den) of a primitive icosian if it is admissible, else None.

    den = sqrt(N(nr q)); sigma = lcm(nr q, nr q') is the least positive
    integer n with nr(q) | n in Z[tau], which is N / gcd(N, a, b).
    """
    a, b = reduced_norm(zc)
    n = abs(field_norm(a, b))
    if n == 0:
        return None
    d = isqrt(n)
    if d * d != n:
        return None
    return n // gcd(n, a, b), d


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % k for k in range(2, isqrt(p) + 1))


def _local_ideals(norm: int, k: int) -> int:
    """Primitive right ideals of reduced norm P**k for a prime P of norm `norm`."""
    return 1 if k == 0 else norm**k + norm ** (k - 1)


def rotation_class_count(n: int) -> int:
    """Rotation classes of coincidence index n from the ideal zeta function:
    the product over P**k || m of N(P)**k + N(P)**(k-1), summed over the
    reduced norms m with lcm(m, m') = n."""
    total = 1
    for p in range(2, n + 1):
        if not _is_prime(p) or n % p:
            continue
        e = 0
        while n % p**(e + 1) == 0:
            e += 1
        if p == 5:
            local = _local_ideals(5, 2 * e)
        elif p % 5 in (2, 3):
            local = _local_ideals(p * p, e)
        else:
            # split: norms pi**x * pi'**y with max(x, y) = e and x = y mod 2
            local = sum(
                _local_ideals(p, x) * _local_ideals(p, y)
                for x in range(e + 1)
                for y in range(e + 1)
                if max(x, y) == e and (x - y) % 2 == 0
            )
        total *= local
    return total
