import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from a4csl.errors import DomainError
from a4csl.field import KNum, OInt
from a4csl.hnf import contains, hnf, hnf_square
from a4csl.icosian import (
    ZB_ICO,
    Icosian,
    _combine,
    _left_rows,
    _right_rows,
    _split,
    extension,
    right_ideal,
    to_icosian,
)
from a4csl.lattice import (
    _TO_L,
    _ideal_form_tables,
    B_ICO,
    B_ZC,
    GRAM,
    GRAM2,
    L_BASIS,
    SublatticeL,
    int_L_coords,
    module_to_L,
    phi_plus_image,
    to_L_coords,
)
from a4csl.quaternion import Quat, parse_quat
from test_hnf import intersect_rows, left_kernel
from test_quaternion import phi_plus, twist
from test_shortvec import gauss_jordan

rng = random.Random(271828)

HALF = Fraction(1, 2)
CARTAN_A4 = (
    (2, -1, 0, 0),
    (-1, 2, -1, 0),
    (0, -1, 2, -1),
    (0, 0, -1, 2),
)

# The HNF of L itself, and of k L.
FULL = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))


def scaled(k):
    return tuple(tuple(k * v for v in row) for row in FULL)


def conjugation_matrix_L():
    """Matrix of quaternion conjugation restricted to L (column convention)."""
    cols = [int_L_coords(b.conj()) for b in B_ICO]
    assert None not in cols, "conjugation must preserve L"
    return tuple(tuple(cols[j][i] for j in range(4)) for i in range(4))


def meet(a, b):
    return SublatticeL.from_integer_rows(intersect_rows(a.hnf, b.hnf))


def join(a, b):
    return SublatticeL.from_integer_rows(a.hnf + b.hnf)


def includes(a, b):
    """b is a sublattice of a."""
    return all(contains(a.hnf, row) for row in b.hnf)


def test_gram_is_half_cartan():
    for i in range(4):
        for j in range(4):
            assert GRAM[i][j] == Fraction(CARTAN_A4[i][j], 2)
    assert GRAM2 == CARTAN_A4


def test_basis_is_twist_invariant():
    texts = ("(1,0,0,0)", "(-1/2,1/2,1/2,1/2)", "(0,-1,0,0)", "(0,1/2,-1/2+1/2*t,-1/2*t)")
    assert L_BASIS == tuple(map(parse_quat, texts))
    for b in L_BASIS:
        assert twist(b) == b


def test_to_L_coords_examples():
    assert to_L_coords(L_BASIS[1]) == (0, 1, 0, 0)
    v = to_L_coords(parse_quat("(1,2,0,0)"))
    assert v is not None and all(c.denominator == 1 for c in v)
    assert to_L_coords(parse_quat("(0,0,1,0)")) is None  # twist moves it


def _rational_parts(x):
    """The eight rational coordinates (a- and b-parts of each component) of x."""
    return [v for comp in x.components() for v in (comp.a, comp.b)]


def _to_L_coords_by_elimination(x):
    """The coordinates of x in the L basis by Gauss-Jordan on the 8x5
    rational system [b_1 .. b_4 | x], or None if it has no solution."""
    cols = [_rational_parts(b) for b in L_BASIS]
    a = [[col[r] for col in cols] + [v] for r, v in enumerate(_rational_parts(x))]
    if not gauss_jordan(a, 4) or any(a[r][4] for r in range(4, 8)):
        return None
    return tuple(a[r][4] for r in range(4))


def _random_quat(den):
    """A quaternion with components (a + b tau) / den, or, half the time, a
    twist-invariant one: phi_plus of such a quaternion."""
    q = Quat(*(KNum(Fraction(rng.randint(-6, 6), den), Fraction(rng.randint(-6, 6), den)) for _ in range(4)))
    return phi_plus(q) if rng.random() < 0.5 else q


def test_to_L_coords_matches_the_rational_elimination():
    """The route through _TO_L on d x against the 8x5 rational solve, on
    quaternions with denominators 1..6, in QL and outside it."""
    outcomes = set()
    for _ in range(600):
        x = _random_quat(rng.randint(1, 6))
        coords = to_L_coords(x)
        assert coords == _to_L_coords_by_elimination(x)
        outcomes.add(coords is None)
    assert outcomes == {True, False}


def test_int_L_coords_matches_rational_path():
    """int_L_coords against the rational solve of the icosian's quaternion,
    on icosians and their phi_plus: None exactly when x is outside QL, since
    an icosian in QL lies in L (I n QL = L)."""
    found = 0
    for _ in range(600):
        x = Icosian(tuple(rng.randint(-4, 4) for _ in range(8)))
        if rng.random() < 0.5:
            x = x.phi_plus()
        fast = int_L_coords(x)
        slow = _to_L_coords_by_elimination(x.quat())
        if fast is None:
            assert slow is None
        else:
            found += 1
            assert slow == tuple(Fraction(c) for c in fast)
    assert 0 < found < 600


def test_hnf4_examples():
    """The square HNF of rational rows with integer entries
    (SublatticeL.from_rational_rows); rank < 4 and fractions raise."""
    ident = SublatticeL.from_rational_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert ident.index == 1
    twice = SublatticeL.from_rational_rows([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
    assert twice.index == 16
    with pytest.raises(DomainError):
        SublatticeL.from_rational_rows([[1, 0, 0, 0], [2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]])
    with pytest.raises(DomainError):
        SublatticeL.from_rational_rows([[Fraction(1, 2), 0, 0, 0]] * 4)


def test_printed_basis_has_index_5():
    printed = [
        "(1,2,0,0)",
        "(2,-1,0,0)",
        "(3/2,1/2,1/2,1/2)",
        "(-1,1/2,-1/2+1/2*t,-1/2*t)",
    ]
    rows = []
    for text in printed:
        q = parse_quat(text)
        assert twist(q) == q  # each printed vector must lie in L
        coords = to_L_coords(q)
        assert coords is not None and all(c.denominator == 1 for c in coords)
        rows.append(coords)
    lat = SublatticeL.from_rational_rows(rows)
    assert lat.index == 5


def test_hnf_canonicity_under_remixing():
    for _ in range(50):
        rows = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
        h = hnf(rows)
        if len(h) < 4:
            continue
        lat = SublatticeL.from_integer_rows(rows)
        mixed = [list(r) for r in rows]
        for _ in range(12):
            i, j = rng.randrange(4), rng.randrange(4)
            if i != j:
                c = rng.randint(-2, 2)
                mixed[i] = [a + c * b for a, b in zip(mixed[i], mixed[j])]
        if len(hnf(mixed)) == 4:
            assert SublatticeL.from_integer_rows(mixed).hnf == lat.hnf


def test_intersect_and_sum_examples():
    full, two, three = SublatticeL(FULL), SublatticeL(scaled(2)), SublatticeL(scaled(3))
    assert meet(two, full).hnf == two.hnf
    assert meet(two, three).hnf == scaled(6)
    assert join(two, three).hnf == FULL


def rand_sublattice():
    while True:
        rows = [[rng.randint(-4, 4) for _ in range(4)] for _ in range(4)]
        if len(hnf(rows)) == 4:
            return SublatticeL.from_integer_rows(rows)


def test_meet_join_containments_and_index_identity():
    for _ in range(40):
        a, b = rand_sublattice(), rand_sublattice()
        m, j = meet(a, b), join(a, b)
        assert includes(a, m) and includes(b, m)
        assert includes(j, a) and includes(j, b)
        # [A : A^B] = [A+B : B] (second isomorphism theorem)
        assert m.index * j.index == a.index * b.index


def test_module_to_L_examples():
    ident = right_ideal([Icosian.from_int(1)])
    assert module_to_L(ident.rows).hnf == FULL
    doubled = right_ideal([Icosian.from_int(2)])
    assert module_to_L(doubled.rows).hnf == scaled(2)


def _module_to_L_by_kernel(rows):
    """M n L the old way: c[:4] over the left kernel c of B_ZC + rows, which
    says sum c_i b_i lies in M, then the square HNF."""
    return hnf_square([c[:4] for c in left_kernel(list(B_ZC) + [list(r) for r in rows])], 4)


def test_to_L_is_unimodular_and_takes_L_to_its_coordinates():
    dense = [[0] * 8 for _ in range(8)]
    for i, row in enumerate(_TO_L):
        for k, t in row:
            dense[i][k] = t
    assert hnf(dense) == [[int(i == j) for j in range(8)] for i in range(8)]
    for i, b in enumerate(B_ZC):
        assert _combine(b, _TO_L, 8) == [0] * 4 + [int(i == j) for j in range(4)]


def _random_icosian():
    while True:
        q = Icosian(tuple(rng.randint(-3, 3) for _ in range(8)))
        if not q.is_zero():
            return q


def test_module_to_L_matches_the_kernel_route():
    """On right ideals qI (as HNF rows and as their generator rows), on
    the two-sided modules q I + I twist(q), for q random and for the
    extensions q_alpha of the csl_ideal_form, and on random full-rank 8-row
    modules, the meet read off one echelon form is the kernel route's."""
    two_sided_generators = []
    for _ in range(40):
        q = _random_icosian()
        ideal = right_ideal([q])
        assert module_to_L(ideal.rows).hnf == _module_to_L_by_kernel(ideal.rows)
        assert module_to_L(_left_rows(q.zc)).hnf == _module_to_L_by_kernel(ideal.rows)
        two_sided_generators.append(q)
    while len(two_sided_generators) < 50:
        p = _random_icosian().primitive_part()
        if p.is_admissible():
            two_sided_generators.append(extension(p)[0])
    for g in two_sided_generators:
        two_sided = _left_rows(g.zc) + _right_rows(g.twist().zc)
        assert module_to_L(two_sided).hnf == _module_to_L_by_kernel(two_sided)
    full_rank = 0
    while full_rank < 40:
        rows = [[rng.randint(-5, 5) for _ in range(8)] for _ in range(8)]
        if len(hnf(rows)) == 8:
            full_rank += 1
            assert module_to_L(rows).hnf == _module_to_L_by_kernel(rows)


def test_ideal_form_tables_compose_the_rows_and_to_L():
    """The rows csl_ideal_form reads off the composed tables are the
    generator rows of q I and I twist(q) mapped through _TO_L one at a
    time, on a seeded pool of random icosians and admissible extensions."""
    left, twist_right = _ideal_form_tables()
    pool = [_random_icosian() for _ in range(60)]
    while len(pool) < 100:
        p = _random_icosian().primitive_part()
        if p.is_admissible():
            pool.append(extension(p)[0])
    for q in pool:
        composed = _split(_combine(q.zc, left, 64), 8) + _split(_combine(q.zc, twist_right, 64), 8)
        rows = _left_rows(q.zc) + _right_rows(q.twist().zc)
        assert [tuple(_combine(r, _TO_L, 8)) for r in rows] == composed


def test_module_to_L_refuses_a_meet_of_rank_below_4():
    cases = [[list(B_ZC[0]), list(B_ZC[1])], [list(ZB_ICO[1].zc)]]
    cases += [[[rng.randint(-5, 5) for _ in range(8)] for _ in range(7)] for _ in range(20)]
    for rows in cases:
        with pytest.raises(DomainError):
            _module_to_L_by_kernel(rows)
        with pytest.raises(DomainError, match="rank"):
            module_to_L(rows)


def test_phi_plus_image_examples():
    assert phi_plus_image(Icosian.from_int(1)).hnf == FULL
    assert phi_plus_image(Icosian.from_int(2)).hnf == scaled(2)
    q = to_icosian(parse_quat("(1,2,0,0)"))
    lat = phi_plus_image(q)
    assert lat.index == 5
    printed = SublatticeL.from_rational_rows(
        [
            to_L_coords(parse_quat(t))
            for t in (
                "(1,2,0,0)",
                "(2,-1,0,0)",
                "(3/2,1/2,1/2,1/2)",
                "(-1,1/2,-1/2+1/2*t,-1/2*t)",
            )
        ]
    )
    assert lat.hnf == printed.hnf


def test_phi_plus_image_is_twist_invariant_lattice():
    # L(q) = twist(L(q)): twisting the generators leaves the HNF unchanged
    for _ in range(30):
        q = Icosian(tuple(rng.randint(-2, 2) for _ in range(8)))
        if q.is_zero():
            continue
        lat = phi_plus_image(q)
        twisted_rows = []
        for zb in ZB_ICO:
            y = (q * zb).phi_plus().twist()
            coords = int_L_coords(y)
            assert coords is not None
            twisted_rows.append(coords)
        assert SublatticeL.from_integer_rows(twisted_rows).hnf == lat.hnf


_COORD = st.one_of(st.integers(-3, 3), st.integers(-(10**6), 10**6))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.tuples(*[_COORD] * 8).filter(any),
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any),
)
def test_phi_plus_table_matches_products(zc, scale):
    """The table route of phi_plus_image against the per-product route:
    phi_plus(q * zb) in L-coordinates for each of the 8 basis icosians.
    Scaling by a non-unit of o makes q imprimitive."""
    q = Icosian(zc).scale_o(OInt(*scale))
    rows = []
    for zb in ZB_ICO:
        coords = int_L_coords((q * zb).phi_plus())
        assert coords is not None
        rows.append(coords)
    assert phi_plus_image(q).hnf == SublatticeL.from_integer_rows(rows).hnf


def test_phi_plus_image_refuses_zero():
    with pytest.raises(DomainError):
        phi_plus_image(Icosian.from_int(0))


def test_conjugation_matrix():
    c = conjugation_matrix_L()
    # involution with integer entries
    prod = [[sum(c[i][k] * c[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
    assert prod == [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    # conjugation preserves every b_i's membership of L
    for b in B_ICO:
        assert int_L_coords(b.conj()) is not None
