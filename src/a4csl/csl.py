"""Coincidence rotations and coincidence site lattices of L.

Every similarity rotation of L is x -> q x twist(q) / |q twist(q)| for an
icosian q; it is a coincidence rotation iff q (taken primitive) is
admissible, i.e. |q twist(q)| is a positive integer.  The CSL L n R(q)L
can be produced three ways -- direct intersection, the phi_plus image of
the extension q_alpha, and (q_alpha I + I twist(q_alpha)) n L -- which
must agree; the coincidence index is lcm(nr q, nr q').  The direct
intersection and the ideal form each read the CSL's HNF off one echelon form.
The image rows q b_j twist(q) are a quadratic form in the coordinates of q:
they are read from a table of the 36 pair terms zb_i b_j twist(zb_k) +
zb_k b_j twist(zb_i), built once and checked to lie in L, with no icosian
products per rotation.

equal_csl implements the arithmetic criterion for two rotations to share
one CSL: equal balanced norms plus equality of the right ideals
p I + (den/c) I, where c divides out one ramified prime when 5 | Sigma.
When den/c lies in p I for both rotations, those ideals are p I and the
comparison is one integer left division; otherwise two HNFs are compared.
symmetry_related tests rI == sI by integer left division in I.

Nothing here re-derives den, alpha or Sigma: the entry points take them
from icosian._balance, after icosian._require_primitive or after reducing
q to its primitive part (_balanced_part).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .field import OInt, SQRT5, unit_normalize
from .icosian import (
    ZB_ICO,
    Icosian,
    Rank8Module,
    _balance,
    _combine,
    _left_rows,
    _require_primitive,
    _sparse,
    _split,
    den,
    left_divides,
    left_ideal_rows,
    right_ideal,
    same_right_ideal,
    sigma_index,
)
from .lattice import (
    B_ICO,
    SublatticeL,
    _meet_from_block,
    int_L_coords,
    module_to_L,
    phi_plus_image,
    rows_preserve_gram,
)


@dataclass(frozen=True)
class CoincidenceRotation:
    """A coincidence rotation R(q) with its exact data.

    image_rows holds the integer L-coordinates of the images
    q_alpha b_j twist(q_alpha), checked to preserve the Gram form up to
    sigma^2; csl_intersection reuses them, and to_json leaves them out.
    They come from the extension q_alpha (denominator sigma), which makes
    them invariant under unit rescalings of q; R(tau * q) = -R(q) as raw
    maps, and the extension fixes that sign canonically.
    """

    q: Icosian
    q_alpha: Icosian
    alpha: OInt
    sigma: int
    den: int
    image_rows: tuple[tuple[int, ...], ...] = field(repr=False, compare=False)

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rational matrix acting on L-coordinate column vectors: column
        j, the coordinates of the image of the j-th basis vector, is
        image_rows[j] / sigma."""
        return _matrix(self.image_rows, self.sigma)

    def to_json(self) -> dict:
        return {
            "q": self.q.to_json(),
            "q_alpha": self.q_alpha.to_json(),
            "alpha": str(self.alpha),
            "sigma": self.sigma,
            "den": self.den,
            "matrix": [[str(v) for v in row] for row in self.matrix],
        }


# The coordinate pairs i <= k: q b twist(q) is sum_{i <= k} q_i q_k T_ik.
_PAIRS = tuple((i, k) for i in range(8) for k in range(i, 8))


@lru_cache(maxsize=2)
def _image_table(conjugate_argument: bool):
    """Row p, for (i, k) = _PAIRS[p]: the L-coordinates of
    T_ik = zb_i b_j twist(zb_k) + zb_k b_j twist(zb_i) (the first term alone
    when i == k), j = 0..3, one after the other (16 integers); b_j is
    replaced by conj(b_j) when conjugate_argument.

    All 288 terms lying in L proves that every image q b_j twist(q) does:
    it is an integer combination of them.
    """
    args = [b.conj() if conjugate_argument else b for b in B_ICO]
    table = []
    for i, k in _PAIRS:
        row = []
        for b in args:
            term = ZB_ICO[i] * b * ZB_ICO[k].twist()
            if i != k:
                term = term + ZB_ICO[k] * b * ZB_ICO[i].twist()
            coords = int_L_coords(term)
            if coords is None:
                raise AssertionError("conjugated image must stay in L")
            row.extend(coords)
        table.append(row)
    return _sparse(table)


def _image_rows(q: Icosian, conjugate_argument: bool = False) -> list[tuple[int, ...]]:
    """Integer L-coordinates of q * b_j * twist(q) (or q * conj(b_j) * twist(q))."""
    z = q.zc
    quad = [z[i] * z[k] for i, k in _PAIRS]
    return _split(_combine(quad, _image_table(conjugate_argument), 16), 4)


def _balanced_part(q: Icosian) -> tuple[Icosian, Icosian, OInt, int, int]:
    """(p, alpha p, alpha, sigma, den) for the primitive part p of q."""
    if q.is_zero():
        raise DomainError("zero defines no coincidence isometry")
    p = q.primitive_part()
    d, alpha, sig = _balance(p)
    return p, p.scale_o(alpha), alpha, sig, d


def _isometry_rows(rows, s: int):
    """rows, checked to preserve the Gram form up to s^2."""
    if not rows_preserve_gram(rows, s):
        raise AssertionError("isometry matrix must preserve the Gram form")
    return rows


def _matrix(rows, s: int) -> tuple[tuple[Fraction, ...], ...]:
    """The isometry matrix (1/s) rows^T."""
    return tuple(tuple(Fraction(rows[j][i], s) for j in range(4)) for i in range(4))


def rotation_of(q: Icosian) -> CoincidenceRotation:
    """The coincidence rotation defined by q (reduced to its primitive part).

    Raises DomainError when the primitive part is not admissible, i.e. the
    denominator is not a positive integer.
    """
    p, q_alpha, alpha, sig, d = _balanced_part(q)
    rows = _isometry_rows(tuple(_image_rows(q_alpha)), sig)
    return CoincidenceRotation(q=p, q_alpha=q_alpha, alpha=alpha, sigma=sig, den=d, image_rows=rows)


def _intersection_from_rows(rows, d: int, expected_index: int) -> SublatticeL:
    """L n (1/d) span(rows), from the rows [d e_i | e_i] and [r | 0]: those
    combinations that vanish on the first 4 columns carry a vector v with
    d v in the span of the rows in their last 4."""
    lat = _meet_from_block(
        [[d * int(i == j) for j in range(4)] + [int(i == j) for j in range(4)] for i in range(4)]
        + [list(r) + [0, 0, 0, 0] for r in rows]
    )
    if lat.index != expected_index:
        raise DomainError(
            f"intersection index {lat.index} != coincidence index {expected_index}"
        )
    return lat


def csl_intersection(rot: CoincidenceRotation) -> SublatticeL:
    """L n R L by direct exact lattice intersection."""
    return _intersection_from_rows(rot.image_rows, rot.sigma, rot.sigma)


def csl_Lq(rot: CoincidenceRotation) -> SublatticeL:
    """The CSL as the phi_plus image of the extension q_alpha."""
    lat = phi_plus_image(rot.q_alpha)
    if lat.index != rot.sigma:
        raise DomainError(f"phi_plus image index {lat.index} != sigma {rot.sigma}")
    return lat


def csl_ideal_form(rot: CoincidenceRotation) -> SublatticeL:
    """The CSL as (q_alpha I + I twist(q_alpha)) n L."""
    lat = module_to_L(_left_rows(rot.q_alpha.zc) + left_ideal_rows(rot.q_alpha.twist()))
    if lat.index != rot.sigma:
        raise DomainError(f"ideal-form index {lat.index} != sigma {rot.sigma}")
    return lat


def sigma(q: Icosian) -> int:
    """Coincidence index of the rotation of a primitive admissible q."""
    return sigma_index(q)


def _criterion_beta(p: Icosian) -> OInt:
    """den/c for p, which must be primitive and admissible (DomainError
    otherwise); c = sqrt5 iff 5 | sigma."""
    _require_primitive(p)
    d, _alpha, sig = _balance(p)
    if sig % 5:
        return OInt(d, 0)
    if d % 5:
        raise AssertionError("5 | sigma forces 5 | den")
    return OInt(d // 5, 0) * SQRT5


def criterion_ideal(p: Icosian) -> Rank8Module:
    """The right ideal p I + (den/c) I used by the CSL equality criterion;
    c = sqrt5 when the coincidence index is divisible by 5, else c = 1."""
    return right_ideal([p, Icosian.from_o(_criterion_beta(p))])


def equal_csl(p1: Icosian, p2: Icosian) -> bool:
    """Criterion for R(p1) and R(p2) to generate the same CSL.

    True iff the balanced unit-normal forms of nr(p1), nr(p2) agree and the
    criterion ideals p_i I + beta_i I coincide.  When each beta_i lies in
    p_i I (integer left division), those ideals are p_i I and are compared
    by left division as well; otherwise their HNFs are compared.  Pairs
    where the two readings of the norm condition (literal equality vs
    equality up to units) would differ are logged at DEBUG level.
    """
    b1 = Icosian.from_o(_criterion_beta(p1))
    b2 = Icosian.from_o(_criterion_beta(p2))
    n1, n2 = p1.nr(), p2.nr()
    if unit_normalize(n1)[0] != unit_normalize(n2)[0]:
        return False
    if left_divides(p1, b1) and left_divides(p2, b2):
        ideals_equal = same_right_ideal(p1, p2)
    else:
        ideals_equal = right_ideal([p1, b1]).rows == right_ideal([p2, b2]).rows
    if n1 != n2 and ideals_equal:
        import logging  # only here: importing it costs every start of the program

        logging.getLogger("a4csl").debug(
            "norm readings differ: nr(p1)=%s, nr(p2)=%s are associates, not equal",
            n1,
            n2,
        )
    return ideals_equal


def sufficient_equal_lemma(p1: Icosian, p2: Icosian) -> bool:
    """The simpler sufficient condition with c = 1 (always implies equal_csl)."""
    d1, d2 = den(p1), den(p2)
    if unit_normalize(p1.nr())[0] != unit_normalize(p2.nr())[0]:
        return False
    i1 = right_ideal([p1, Icosian.from_int(d1)])
    i2 = right_ideal([p2, Icosian.from_int(d2)])
    return i1.rows == i2.rows


def symmetry_related(r: Icosian, s: Icosian) -> bool:
    """Whether the rotations differ by a rotation symmetry of L (rI == sI)."""
    _require_primitive(r)
    _require_primitive(s)
    return same_right_ideal(r, s)


def reflection_matrix(q: Icosian) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of the orientation-reversing map x -> q conj(x) twist(q) / den,
    canonicalised through the extension like rotation_of."""
    _p, q_alpha, _alpha, sig, _d = _balanced_part(q)
    return _matrix(_isometry_rows(_image_rows(q_alpha, conjugate_argument=True), sig), sig)


def reflection_csl(q: Icosian) -> SublatticeL:
    """CSL of the orientation-reversing isometry x -> q conj(x) twist(q)/den."""
    _p, q_alpha, _alpha, sig, _d = _balanced_part(q)
    return _intersection_from_rows(_image_rows(q_alpha, conjugate_argument=True), sig, sig)


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
