"""The lattice L (the A4 root lattice scaled by 1/sqrt2) and its sublattices.

L is spanned by four fixed twist-invariant icosians b1..b4; its Gram matrix
is exactly half the A4 Cartan matrix, read off the integer norm forms of I.
All sublattices are stored in L-coordinates as canonical 4x4 integer HNFs,
so lattice equality is HNF equality and every index is a diagonal product.
Every L-coordinate comes from one integer change of coordinates _TO_L,
unimodular on I, taking L to 0 x Z^4 (so I n QL = L); a rational
quaternion is cleared of its denominator first.  Each meet with L is read
off one echelon form under the same change of coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul

from .errors import DomainError
from .hnf import _lower_block, hnf, hnf_square, diagonal_product, intersect_rows, contains as hnf_contains
from .icosian import NORM_A_GRAM, NORM_B_GRAM, ZB_ICO, Icosian, _combine, _sparse, _split, _table_zc, _zc_of_o4
from .quaternion import Quat, _cleared
from .shortvec import gram_of_basis

# The quaternion components of 2 b_1..2 b_4 as (a, b) pairs for a + b tau:
# b1 = 1, b2 = (-1 + i + j + k)/2, b3 = -i, b4 = (i + (tau - 1) j - tau k)/2.
_TWO_B = (
    ((2, 0), (0, 0), (0, 0), (0, 0)),
    ((-1, 0), (1, 0), (1, 0), (1, 0)),
    ((0, 0), (-2, 0), (0, 0), (0, 0)),
    ((0, 0), (1, 0), (-1, 1), (0, -1)),
)
B_ZC = tuple(_table_zc(b, 2) for b in _TWO_B)
B_ICO = tuple(map(Icosian, B_ZC))
L_BASIS = tuple(b.quat() for b in B_ICO)


# NORM_A_GRAM and NORM_B_GRAM give the a- and b-parts of tr(x conj(y)),
# twice the Euclidean inner product.  It is rational on L: the b-part vanishes.
GRAM2 = gram_of_basis(NORM_A_GRAM, B_ZC)  # the A4 Cartan matrix
if any(map(any, gram_of_basis(NORM_B_GRAM, B_ZC))):
    raise AssertionError("inner products on L must be rational")
GRAM = tuple(tuple(Fraction(v, 2) for v in row) for row in GRAM2)
_GRAM2_COLS = tuple(zip(*GRAM2))

# The integer inverse of the leading 4x4 block of B_ZC (unimodular by choice
# of basis order): the right block of the HNF of [LEAD | 1].
_LEAD_HNF = hnf([list(B_ZC[i][:4]) + [int(i == j) for j in range(4)] for i in range(4)])
if [row[:4] for row in _LEAD_HNF] != [[int(i == j) for j in range(4)] for i in range(4)]:
    raise AssertionError("leading block of the L basis must be unimodular")
_LEAD_INV = tuple(tuple(row[4:]) for row in _LEAD_HNF)

# x -> (x[4:] - x[:4] C, x[:4] LEAD^-1) with C = LEAD^-1 B_ZC[:, 4:]: a change of
# coordinates of determinant +-det LEAD^-1 = +-1 that takes v B_ZC to (0, v).
# So x lies in QL iff its first four images vanish, and I n QL = L.
_C = [[sum(_LEAD_INV[c][i] * B_ZC[i][4 + j] for i in range(4)) for j in range(4)] for c in range(4)]
_TO_L = _sparse([[-v for v in _C[c]] + list(_LEAD_INV[c]) for c in range(4)] + [z.zc for z in ZB_ICO[:4]])


def int_L_coords(x: Icosian) -> tuple[int, int, int, int] | None:
    """L-coordinates of an icosian lying in L, else None."""
    y = _combine(x.zc, _TO_L, 8)
    return None if any(y[:4]) else tuple(y[4:])


def to_L_coords(x: Quat) -> tuple[Fraction, Fraction, Fraction, Fraction] | None:
    """Exact coordinates of x in the L basis, or None if x is outside the
    rational span of L (equivalently, not twist-invariant).  With d the
    common denominator of x, d x lies in o^4, hence in I, and in L iff x is
    in QL."""
    d, parts = _cleared(x)
    v = int_L_coords(Icosian(_zc_of_o4(parts)))
    return None if v is None else tuple(Fraction(c, d) for c in v)


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


def intersect(a: SublatticeL, b: SublatticeL) -> SublatticeL:
    return SublatticeL.from_integer_rows(intersect_rows(a.hnf, b.hnf))


def lattice_sum(a: SublatticeL, b: SublatticeL) -> SublatticeL:
    return SublatticeL.from_integer_rows(list(a.hnf) + list(b.hnf))


def _meet_from_block(rows) -> SublatticeL:
    """The sublattice of L with the HNF _lower_block(rows, 4): the meet, when
    the rows with 4 leading zeros span it in L-coordinates.  Rank 4 or raise."""
    block = _lower_block(rows, 4)
    if len(block) != 4:
        raise DomainError(f"the meet with L has rank {len(block)} < 4")
    return SublatticeL(tuple(map(tuple, block)))


def module_to_L(rows) -> SublatticeL:
    """M n L in L-coordinates, for M the Z-span of integer generator rows
    (coordinates in I): the meet read off one HNF of the rows under the
    change of coordinates _TO_L."""
    return _meet_from_block([_combine(r, _TO_L, 8) for r in rows])


@lru_cache(maxsize=1)
def _phi_plus_table():
    """Row i: the L-coordinates of phi_plus(zb_i * zb_j), j = 0..7, one
    after the other (32 integers), as a _sparse table.

    phi_plus and the product are Z-linear, so the L-coordinates of
    phi_plus(q * zb_j) are sum_i q_i * (entries 4j..4j+3 of row i).  All 64
    products landing in L proves that phi_plus maps every icosian into L.
    """
    table = []
    for zi in ZB_ICO:
        row = []
        for zj in ZB_ICO:
            coords = int_L_coords((zi * zj).phi_plus())
            if coords is None:
                raise AssertionError("phi_plus of a basis product escaped L")
            row.extend(coords)
        table.append(row)
    return _sparse(table)


def phi_plus_image(q: Icosian) -> SublatticeL:
    """The lattice phi_plus(q I) = {q x + twist(q x)}, as a sublattice of L."""
    if q.is_zero():
        raise DomainError("phi_plus image of zero is not a lattice")
    return SublatticeL.from_integer_rows(_split(_combine(q.zc, _phi_plus_table(), 32), 4))


def conjugation_matrix_L() -> tuple[tuple[int, ...], ...]:
    """Matrix of quaternion conjugation restricted to L (column convention)."""
    cols = []
    for b in B_ICO:
        coords = int_L_coords(b.conj())
        if coords is None:
            raise AssertionError("conjugation must preserve L")
        cols.append(coords)
    return tuple(tuple(cols[j][i] for j in range(4)) for i in range(4))


def rows_preserve_gram(rows, s: int) -> bool:
    """R (2G) R^T == s^2 (2G) for the integer 4x4 matrix R = rows: the map
    with column j = rows[j] / s preserves the Gram form.  Both sides are
    symmetric, so the entries with i <= j decide."""
    rg = [[sum(map(mul, r, col)) for col in _GRAM2_COLS] for r in rows]
    s2 = s * s
    return all(
        sum(map(mul, rg[i], rows[j])) == s2 * GRAM2[i][j] for i in range(4) for j in range(i, 4)
    )


def is_g_orthogonal(mat) -> bool:
    """M^T G M == G, exactly: rows_preserve_gram on s M^T, with s the least
    common denominator of the entries of M."""
    fr = [[Fraction(v) for v in row] for row in mat]
    s = lcm(*(v.denominator for row in fr for v in row))
    return rows_preserve_gram([[int(fr[k][j] * s) for k in range(4)] for j in range(4)], s)
