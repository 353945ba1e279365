"""Coincidence rotations and coincidence site lattices of L.

Every similarity rotation of L is x -> q x twist(q) / |q twist(q)| for an
icosian q; it is a coincidence rotation iff q (taken primitive) is
admissible, i.e. |q twist(q)| is a positive integer.  The CSL L n R(q)L
can be produced three ways -- direct intersection, the phi_plus image of
the extension q_alpha, and (q_alpha I + I twist(q_alpha)) n L -- which
must agree; the coincidence index is lcm(nr q, nr q').  The direct
intersection and the ideal form each read L-coordinates off one left kernel.

equal_csl implements the arithmetic criterion for two rotations to share
one CSL: equal balanced norms plus equality of the right ideals
p I + (den/c) I, where c divides out one ramified prime when 5 | Sigma.
symmetry_related tests rI == sI by integer left division in I.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import DomainError
from .field import OInt, SQRT5, unit_normalize
from .hnf import left_kernel
from .icosian import (
    Icosian,
    Rank8Module,
    extension,
    left_ideal_rows,
    right_ideal,
    same_right_ideal,
    sigma_index,
)
from .lattice import (
    B_ICO,
    SublatticeL,
    int_L_coords,
    module_to_L,
    phi_plus_image,
    rows_preserve_gram,
)

log = logging.getLogger("a4csl")


@dataclass(frozen=True)
class CoincidenceRotation:
    """A coincidence rotation R(q) with its exact data.

    matrix acts on L-coordinate column vectors; column j holds the
    coordinates of the image of the j-th basis vector.  It is built from
    the extension q_alpha (denominator sigma), which makes it invariant
    under unit rescalings of q; R(tau * q) = -R(q) as raw maps, and the
    extension fixes that sign canonically.
    """

    q: Icosian
    q_alpha: Icosian
    alpha: OInt
    matrix: tuple[tuple[Fraction, ...], ...]
    sigma: int
    den: int

    def to_json(self) -> dict:
        return {
            "q": self.q.to_json(),
            "q_alpha": self.q_alpha.to_json(),
            "alpha": str(self.alpha),
            "sigma": self.sigma,
            "den": self.den,
            "matrix": [[str(v) for v in row] for row in self.matrix],
        }


def _image_rows(q: Icosian, conjugate_argument: bool = False) -> list[tuple[int, ...]]:
    """Integer L-coordinates of q * b_j * twist(q) (or q * conj(b_j) * twist(q))."""
    tw = q.twist()
    rows = []
    for b in B_ICO:
        arg = b.conj() if conjugate_argument else b
        coords = int_L_coords(q * arg * tw)
        if coords is None:
            raise AssertionError("conjugated image must stay in L")
        rows.append(coords)
    return rows


def rotation_of(q: Icosian) -> CoincidenceRotation:
    """The coincidence rotation defined by q (reduced to its primitive part).

    Raises DomainError when the primitive part is not admissible, i.e. the
    denominator is not a positive integer.
    """
    if q.is_zero():
        raise DomainError("zero defines no rotation")
    p = q.primitive_part()
    n = p.nr().abs_norm()
    d = isqrt(n)
    if d * d != n:
        raise DomainError("not a coincidence rotation: denominator is irrational")
    q_alpha, alpha = extension(p)
    sigma = sigma_index(p)
    rows = _image_rows(q_alpha)
    if not rows_preserve_gram(rows, sigma):
        raise AssertionError("rotation matrix must preserve the Gram form")
    matrix = tuple(
        tuple(Fraction(rows[j][i], sigma) for j in range(4)) for i in range(4)
    )
    return CoincidenceRotation(q=p, q_alpha=q_alpha, alpha=alpha, matrix=matrix, sigma=sigma, den=d)


def _intersection_from_rows(rows, d: int, expected_index: int) -> SublatticeL:
    """L n (1/d) span(rows): a kernel vector c of d*I_4 + rows has
    d * c[:4] in the span of the rows, so c[:4] runs over the meet."""
    scaled_l = [[d * int(i == j) for j in range(4)] for i in range(4)]
    gens = [c[:4] for c in left_kernel(scaled_l + list(rows))]
    lat = SublatticeL.from_integer_rows(gens)
    if lat.index != expected_index:
        raise DomainError(
            f"intersection index {lat.index} != coincidence index {expected_index}"
        )
    return lat


def csl_intersection(rot: CoincidenceRotation) -> SublatticeL:
    """L n R L by direct exact lattice intersection."""
    return _intersection_from_rows(_image_rows(rot.q_alpha), rot.sigma, rot.sigma)


def csl_Lq(rot: CoincidenceRotation) -> SublatticeL:
    """The CSL as the phi_plus image of the extension q_alpha."""
    lat = phi_plus_image(rot.q_alpha)
    if lat.index != rot.sigma:
        raise DomainError(f"phi_plus image index {lat.index} != sigma {rot.sigma}")
    return lat


def csl_ideal_form(rot: CoincidenceRotation) -> SublatticeL:
    """The CSL as (q_alpha I + I twist(q_alpha)) n L."""
    rows = list(right_ideal([rot.q_alpha]).rows) + left_ideal_rows(rot.q_alpha.twist())
    lat = module_to_L(Rank8Module.from_rows(rows))
    if lat.index != rot.sigma:
        raise DomainError(f"ideal-form index {lat.index} != sigma {rot.sigma}")
    return lat


def sigma(q: Icosian) -> int:
    """Coincidence index of the rotation of a primitive admissible q."""
    return sigma_index(q)


def _require_primitive_admissible(p: Icosian, name: str) -> None:
    if p.is_zero():
        raise DomainError(f"{name} is zero")
    if not p.is_primitive():
        raise DomainError(f"{name} must be primitive")
    if not p.is_admissible():
        raise DomainError(f"{name} must be admissible")


def criterion_ideal(p: Icosian) -> Rank8Module:
    """The right ideal p I + (den/c) I used by the CSL equality criterion;
    c = sqrt5 when the coincidence index is divisible by 5, else c = 1."""
    d = isqrt(p.nr().abs_norm())
    sig = sigma_index(p)
    if sig % 5 == 0:
        if d % 5:
            raise AssertionError("5 | sigma forces 5 | den")
        beta = OInt(d // 5, 0) * SQRT5
    else:
        beta = OInt(d, 0)
    return right_ideal([p, Icosian.from_o(beta)])


def equal_csl(p1: Icosian, p2: Icosian) -> bool:
    """Criterion for R(p1) and R(p2) to generate the same CSL.

    True iff the balanced unit-normal forms of nr(p1), nr(p2) agree and the
    criterion ideals coincide.  Pairs where the two readings of the norm
    condition (literal equality vs equality up to units) would differ are
    logged at DEBUG level.
    """
    _require_primitive_admissible(p1, "p1")
    _require_primitive_admissible(p2, "p2")
    n1, n2 = p1.nr(), p2.nr()
    b1 = unit_normalize(n1)[0]
    b2 = unit_normalize(n2)[0]
    if b1 != b2:
        return False
    ideals_equal = criterion_ideal(p1).rows == criterion_ideal(p2).rows
    if n1 != n2 and ideals_equal:
        log.debug(
            "norm readings differ: nr(p1)=%s, nr(p2)=%s are associates, not equal",
            n1,
            n2,
        )
    return ideals_equal


def sufficient_equal_lemma(p1: Icosian, p2: Icosian) -> bool:
    """The simpler sufficient condition with c = 1 (always implies equal_csl)."""
    _require_primitive_admissible(p1, "p1")
    _require_primitive_admissible(p2, "p2")
    if unit_normalize(p1.nr())[0] != unit_normalize(p2.nr())[0]:
        return False
    d1 = isqrt(p1.nr().abs_norm())
    d2 = isqrt(p2.nr().abs_norm())
    i1 = right_ideal([p1, Icosian.from_int(d1)])
    i2 = right_ideal([p2, Icosian.from_int(d2)])
    return i1.rows == i2.rows


def symmetry_related(r: Icosian, s: Icosian) -> bool:
    """Whether the rotations differ by a rotation symmetry of L (rI == sI)."""
    if r.is_zero() or s.is_zero():
        raise DomainError("symmetry test needs nonzero icosians")
    if not (r.is_primitive() and s.is_primitive()):
        raise DomainError("symmetry test needs primitive icosians")
    return same_right_ideal(r, s)


def reflection_matrix(q: Icosian) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of the orientation-reversing map x -> q conj(x) twist(q) / den,
    canonicalised through the extension like rotation_of."""
    p = q.primitive_part()
    n = p.nr().abs_norm()
    d = isqrt(n)
    if d * d != n:
        raise DomainError("not a coincidence isometry: denominator is irrational")
    q_alpha, _alpha = extension(p)
    sig = sigma_index(p)
    rows = _image_rows(q_alpha, conjugate_argument=True)
    return tuple(tuple(Fraction(rows[j][i], sig) for j in range(4)) for i in range(4))


def reflection_csl(q: Icosian) -> SublatticeL:
    """CSL of the orientation-reversing isometry x -> q conj(x) twist(q)/den."""
    p = q.primitive_part()
    _require_primitive_admissible(p, "q")
    q_alpha, _alpha = extension(p)
    sig = sigma_index(p)
    return _intersection_from_rows(
        _image_rows(q_alpha, conjugate_argument=True), sig, sig
    )


@dataclass(frozen=True)
class CslRecord:
    """A coincidence rotation together with its CSL."""

    rotation: CoincidenceRotation
    csl: SublatticeL

    def __post_init__(self):
        if self.csl.index != self.rotation.sigma:
            raise DomainError(
                f"CSL index {self.csl.index} != sigma {self.rotation.sigma}"
            )

    def to_json(self) -> dict:
        return {
            "q": self.rotation.q.to_json(),
            "q_alpha": self.rotation.q_alpha.to_json(),
            "sigma": self.rotation.sigma,
            "den": self.rotation.den,
            "hnf": [v for row in self.csl.hnf for v in row],
        }


def csl_record(q: Icosian) -> CslRecord:
    rot = rotation_of(q)
    return CslRecord(rotation=rot, csl=csl_Lq(rot))
