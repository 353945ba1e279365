"""The lattice L (the A4 root lattice scaled by 1/sqrt2) and its sublattices.

L is spanned by four fixed twist-invariant icosians b1..b4; its Gram matrix
is exactly half the A4 Cartan matrix.  All sublattices are stored in
L-coordinates as canonical 4x4 integer HNFs, so lattice equality is HNF
equality and every index is a diagonal product.  Intersections are
computed by one integer-kernel code path that also serves the rank-8
module case (module intersected with the rational span of L).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .field import KNum, gauss_jordan
from .hnf import hnf_square, diagonal_product, intersect_rows, left_kernel, contains as hnf_contains
from .icosian import Icosian, Rank8Module, _apply8
from .quaternion import Quat

L_BASIS = (
    Quat.of(1, 0, 0, 0),
    Quat(KNum(Fraction(-1, 2), 0), KNum(Fraction(1, 2), 0), KNum(Fraction(1, 2), 0), KNum(Fraction(1, 2), 0)),
    Quat.of(0, -1, 0, 0),
    Quat(
        KNum(0, 0),
        KNum(Fraction(1, 2), 0),
        KNum(Fraction(-1, 2), Fraction(1, 2)),
        KNum(0, Fraction(-1, 2)),
    ),
)

B_ICO = tuple(Icosian.from_quat(b) for b in L_BASIS)
assert all(b is not None for b in B_ICO), "L basis must lie in I"
B_ZC = tuple(b.zc for b in B_ICO)


def inner_product_k(x: Quat, y: Quat) -> KNum:
    """Componentwise bilinear form sum x_i y_i in K."""
    out = KNum.of(0)
    for xc, yc in zip(x.components(), y.components()):
        out = out + xc * yc
    return out


def inner_product(x: Quat, y: Quat) -> Fraction:
    """Euclidean inner product; requires the K-value to be rational."""
    v = inner_product_k(x, y)
    if v.b != 0:
        raise DomainError(f"inner product {v} is not rational")
    return v.a


GRAM = tuple(tuple(inner_product(bi, bj) for bj in L_BASIS) for bi in L_BASIS)


def _inverse_and_det(mat):
    n = len(mat)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    det = gauss_jordan(aug, n)
    return tuple(tuple(row[n:]) for row in aug), det


GRAM_INV, GRAM_DET = _inverse_and_det(GRAM)

# Integer inverse of the leading 4x4 block of B_ZC (unimodular by choice of
# basis order), used for the fast integer coordinate path.
_LEAD = [[B_ZC[i][j] for j in range(4)] for i in range(4)]
_lead_inv, _lead_det = _inverse_and_det(_LEAD)
assert abs(_lead_det) == 1, "leading block of the L basis must be unimodular"
_LEAD_INV = tuple(tuple(int(v) for v in row) for row in _lead_inv)


def int_L_coords(x: Icosian) -> tuple[int, int, int, int] | None:
    """L-coordinates of an icosian lying in L, else None."""
    zc = x.zc
    v = [0, 0, 0, 0]
    for c in range(4):
        zcc = zc[c]
        if zcc:
            for i in range(4):
                v[i] += zcc * _LEAD_INV[c][i]
    for j in range(8):
        if sum(v[i] * B_ZC[i][j] for i in range(4)) != zc[j]:
            return None
    return tuple(v)


def _rational_parts(x: Quat) -> list[Fraction]:
    """The eight rational coordinates (a- and b-parts of each component) of x."""
    return [v for comp in x.components() for v in (comp.a, comp.b)]


_MB = [_rational_parts(b) for b in L_BASIS]  # column j of the 8x4 system is b_j


def to_L_coords(x: Quat) -> tuple[Fraction, Fraction, Fraction, Fraction] | None:
    """Exact coordinates of x in the L basis, or None if x is outside the
    rational span of L (equivalently, not twist-invariant)."""
    a = [[col[r] for col in _MB] + [v] for r, v in enumerate(_rational_parts(x))]
    if not gauss_jordan(a, 4) or any(a[r][4] for r in range(4, 8)):
        return None
    return tuple(a[r][4] for r in range(4))


@dataclass(frozen=True, slots=True)
class SublatticeL:
    """A finite-index sublattice of L as a canonical 4x4 HNF in L-coordinates."""

    hnf: tuple[tuple[int, ...], ...]

    @classmethod
    def from_integer_rows(cls, rows) -> "SublatticeL":
        return cls(hnf_square(rows, 4))

    @classmethod
    def from_rational_rows(cls, rows) -> "SublatticeL":
        out = []
        for r in rows:
            row = []
            for v in r:
                fv = Fraction(v)
                if fv.denominator != 1:
                    raise DomainError(f"non-integer L-coordinate {fv}")
                row.append(int(fv))
            out.append(row)
        return cls.from_integer_rows(out)

    @classmethod
    def full(cls) -> "SublatticeL":
        return cls(tuple(tuple(int(i == j) for j in range(4)) for i in range(4)))

    @property
    def index(self) -> int:
        return diagonal_product(self.hnf)

    def scaled(self, k: int) -> "SublatticeL":
        if k <= 0:
            raise DomainError("scale factor must be positive")
        return SublatticeL(tuple(tuple(k * v for v in row) for row in self.hnf))

    def contains_vector(self, vec) -> bool:
        return hnf_contains(self.hnf, vec)

    def contains(self, other: "SublatticeL") -> bool:
        return all(self.contains_vector(r) for r in other.hnf)

    def to_json(self) -> dict:
        return {"hnf": [v for row in self.hnf for v in row], "index": self.index}

    @classmethod
    def from_json(cls, data) -> "SublatticeL":
        flat = data["hnf"]
        if len(flat) != 16:
            raise DomainError("sublattice HNF must have 16 entries")
        rows = [flat[4 * i : 4 * i + 4] for i in range(4)]
        lat = cls.from_integer_rows(rows)
        if lat.index != data["index"]:
            raise DomainError(
                f"declared index {data['index']} does not match HNF index {lat.index}"
            )
        return lat


def hnf4(rows) -> SublatticeL:
    return SublatticeL.from_rational_rows(rows)


def intersect(a: SublatticeL, b: SublatticeL) -> SublatticeL:
    return SublatticeL.from_integer_rows(intersect_rows(a.hnf, b.hnf))


def lattice_sum(a: SublatticeL, b: SublatticeL) -> SublatticeL:
    return SublatticeL.from_integer_rows(list(a.hnf) + list(b.hnf))


def dual_L() -> tuple[tuple[Fraction, ...], ...]:
    """The dual basis of L in L-coordinates (rows of the inverse Gram)."""
    return GRAM_INV


def module_to_L(mod: Rank8Module) -> SublatticeL:
    """Intersection of a full rank-8 submodule of I with L, in L-coordinates."""
    rows = list(mod.rows) + [list(r) for r in B_ZC]
    kernel = left_kernel(rows)
    gens = []
    for c in kernel:
        coords = int_L_coords(Icosian(_apply8(c[:8], mod.rows)))
        assert coords is not None, "kernel vector must land in L"
        gens.append(coords)
    if len(gens) < 4:
        raise DomainError("module meets L in rank < 4")
    return SublatticeL.from_integer_rows(gens)


def phi_plus_image(q: Icosian) -> SublatticeL:
    """The lattice phi_plus(q I) = {q x + twist(q x)}, as a sublattice of L."""
    if q.is_zero():
        raise DomainError("phi_plus image of zero is not a lattice")
    from .icosian import ZB_ICO

    rows = []
    for zb in ZB_ICO:
        y = (q * zb).phi_plus()
        coords = int_L_coords(y)
        if coords is None:
            raise DomainError("phi_plus image escaped L; input was not an icosian")
        rows.append(coords)
    return SublatticeL.from_integer_rows(rows)


def conjugation_matrix_L() -> tuple[tuple[int, ...], ...]:
    """Matrix of quaternion conjugation restricted to L (column convention)."""
    cols = []
    for b in B_ICO:
        coords = int_L_coords(b.conj())
        assert coords is not None, "conjugation must preserve L"
        cols.append(coords)
    return tuple(tuple(cols[j][i] for j in range(4)) for i in range(4))


def is_g_orthogonal(mat) -> bool:
    """M^T G M == G, exactly."""
    n = 4
    mt_g = [[sum(Fraction(mat[k][i]) * GRAM[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            v = sum(mt_g[i][k] * Fraction(mat[k][j]) for k in range(n))
            if v != GRAM[i][j]:
                return False
    return True
