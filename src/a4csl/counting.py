"""Counting CSLs: enumeration by index, the multiplicative counting function
f(n), and its Dirichlet series coefficients.

f is given at prime powers by a four-way case split on the splitting of p
in Q(sqrt5); dirichlet_coeffs recomputes the coefficient list a second way
from the Euler product (formal series division per prime) and insists both
routes agree.

enumerate_rotations(n) produces one icosian per right-ideal class q*I with
coincidence index n.  The strategy is exact and complete: list candidate
reduced norms m (totally positive, lcm(m, m') = n, one representative per
tau^2-scaling orbit), exhaust the positive definite coordinate form for
each m by short-vector enumeration, filter primitive representatives, and
collapse the right action of the 120 norm-1 units.  census(n) then counts
distinct CSL HNFs and checks them against f(n).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetError, DomainError
from .field import (
    INERT,
    OInt,
    RAMIFIED,
    TAU,
    factor_int,
    factor_o,
    is_prime,
    lcm_o,
    split_prime_above,
    splitting_type,
    unit_normalize,
)
from .icosian import (
    Icosian,
    NORM_A_GRAM,
    TRACE_GRAM,
    _apply8,
    extension,
    unit_right_mul_matrices,
)
from .lattice import phi_plus_image
from .csl import criterion_ideal
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
    pre = Fraction((p + 1) ** 2, p**3 - 1)
    if r % 2:
        val = pre * (p ** (2 * r + 1) + p ** (2 * r - 2) - 2 * p ** ((r - 1) // 2))
    else:
        val = pre * (
            p ** (2 * r + 1)
            + p ** (2 * r - 2)
            - 2 * Fraction(p * p + 1, p + 1) * p ** ((r - 2) // 2)
        )
    assert val.denominator == 1, f"f({p}^{r}) must be an integer, got {val}"
    return int(val)


def f(n: int) -> int:
    """Number of CSLs of index n (multiplicative; f(1) = 1)."""
    if n < 1:
        raise DomainError("index must be >= 1")
    out = 1
    for p, r in factor_int(n):
        out *= f_prime_power(p, r)
    return out


def _series_div(num, den, nterms: int) -> list[int]:
    assert den[0] == 1
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
    assert direct == via_euler, "Euler product disagrees with closed form"
    return direct


def _split_exponent_pairs(e: int) -> list[tuple[int, int]]:
    # max(a, b) = e with a + b even (admissibility), ordered deterministically
    out = [(e, b) for b in range(e % 2, e + 1, 2)]
    out += [(a, e) for a in range(e % 2, e, 2)]
    return out


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
        y = unit_normalize(m)[0]
        if y.field_norm() < 0:
            y = y * TAU
        assert y.is_totally_positive()
        assert lcm_o(y, y.conj()) == OInt(n, 0), f"candidate {y} has wrong lcm"
        out.append(y)
    out.sort(key=lambda v: (v.a, v.b))
    return out


def icosians_with_norm(m: OInt, budget: NodeBudget | None = None) -> list[tuple[int, ...]]:
    """Coordinate vectors of all icosians with nr exactly m (one per +-pair).

    nr(x) = m pins both coordinates of the norm, i.e. two positive definite
    quadric equalities (the a-part form and the trace form); the enumerator
    prunes on both simultaneously.
    """
    if not m.is_totally_positive():
        raise DomainError("reduced norms are totally positive")
    out = list(
        enumerate_two_forms(
            NORM_A_GRAM, 2 * m.a, TRACE_GRAM, 2 * m.trace(), budget=budget
        )
    )
    out.sort()
    return out


def _neg(zc):
    return tuple(-v for v in zc)


def class_reps_for_norm(m: OInt, budget: NodeBudget | None = None) -> list[tuple[int, ...]]:
    """One coordinate vector per right-ideal class with nr exactly m."""
    vecs = icosians_with_norm(m, budget)
    repeated = [pi for pi, e, _tag in factor_o(m).factors if e >= 2]
    if repeated:
        kept = []
        for zc in vecs:
            coords = Icosian(zc).coords()
            if any(all(pi.divides(c) for c in coords) for pi in repeated):
                continue  # imprimitive
            kept.append(zc)
        vecs = kept
    mats = unit_right_mul_matrices()
    seen: set[tuple[int, ...]] = set()
    reps = []
    for zc in vecs:
        if zc in seen:
            continue
        reps.append(zc)
        for mat in mats:
            o = _apply8(zc, mat)
            seen.add(o)
            seen.add(_neg(o))
    return reps


def enumerate_rotations(n: int, *, budget: NodeBudget | None = None) -> list[Icosian]:
    """One primitive admissible icosian per coincidence rotation class
    (right-ideal class) with coincidence index n."""
    reps: list[Icosian] = []
    for m in norm_candidates(n):
        reps.extend(Icosian(zc) for zc in class_reps_for_norm(m, budget))
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


def census(
    n: int,
    *,
    budget: NodeBudget | None = None,
    strict: bool = True,
    details: dict | None = None,
) -> SigmaCensus:
    """Enumerate index-n rotations, count distinct CSLs, compare with f(n).

    strict=True raises on a count mismatch (the counting theorem is exact);
    details, when given a dict, receives the representatives and HNFs.
    """
    reps = enumerate_rotations(n, budget=budget)
    hnfs = set()
    crit_keys = set()
    rep_info = []
    for q in reps:
        q_alpha, _alpha = extension(q)
        lat = phi_plus_image(q_alpha)
        if lat.index != n:
            raise DomainError(f"CSL index {lat.index} != {n} for {q}")
        hnfs.add(lat.hnf)
        key = (unit_normalize(q.nr())[0], criterion_ideal(q).rows)
        crit_keys.add(key)
        rep_info.append((q, lat))
    assert len(crit_keys) == len(hnfs), "criterion dedup disagrees with HNF dedup"
    result = SigmaCensus(
        n=n, rotation_classes=len(reps), csl_count=len(hnfs), f_formula=f(n)
    )
    if strict and not result.match:
        raise AssertionError(
            f"census({n}): {result.csl_count} CSLs but f({n}) = {result.f_formula}"
        )
    if details is not None:
        details["representatives"] = [q for q, _ in rep_info]
        details["csls"] = sorted(hnfs)
    return result


def census_table(
    nmax: int,
    *,
    budget: NodeBudget | None = None,
    strict: bool = True,
) -> tuple[list[SigmaCensus], bool]:
    """Censuses for n = 1..nmax.  Returns (rows, truncated); on budget
    exhaustion the table is cut short and truncated is True."""
    rows = []
    truncated = False
    for n in range(1, nmax + 1):
        try:
            rows.append(census(n, budget=budget, strict=strict))
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
