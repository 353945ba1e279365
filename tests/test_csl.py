import logging
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import a4csl.csl as csl
from a4csl.errors import DomainError
from a4csl.field import OInt, TAU, lcm_o, unit_normalize
from a4csl.hnf import diagonal_product, hnf
from a4csl.icosian import Icosian, den, extension, sigma_index, to_icosian, unit_group
from a4csl.lattice import (
    B_ICO,
    GRAM,
    SublatticeL,
    int_L_coords,
    rows_preserve_gram,
)
from a4csl.csl import (
    CslRecord,
    _image_rows,
    _intersection_from_rows,
    criterion_ideal,
    csl_Lq,
    csl_ideal_form,
    csl_intersection,
    csl_record,
    equal_csl,
    rotation_of,
    sufficient_equal_lemma,
    symmetry_related,
)
from a4csl.quaternion import parse_quat
from test_hnf import intersect_rows
from test_lattice import FULL, conjugation_matrix_L

rng = random.Random(5551212)

R_ICO = to_icosian(parse_quat("(t,2*t,0,0)"))
S_ICO = to_icosian(parse_quat("(1+t,t,t,1)"))
UNIT_HALF = to_icosian(parse_quat("(1/2,1/2,1/2,1/2)"))


def g_orthogonal(m):
    """M^T GRAM M == GRAM for a rational 4x4 matrix M, entry by entry in
    Fractions: the dense oracle of the integer check rows_preserve_gram."""
    return all(
        sum(m[k][i] * GRAM[k][l] * m[l][j] for k in range(4) for l in range(4)) == GRAM[i][j]
        for i in range(4)
        for j in range(4)
    )


def reflection_rows(q_alpha):
    """The integer image rows of x -> q_alpha conj(x) twist(q_alpha):
    int_L_coords(q_alpha conj(b_j) twist(q_alpha)), j = 0..3."""
    rows = [int_L_coords(q_alpha * b.conj() * q_alpha.twist()) for b in B_ICO]
    assert None not in rows
    return rows


def reflection_matrix(rot):
    """The matrix of x -> q_alpha conj(x) twist(q_alpha) / sigma, column j
    the image of b_j, as rotation_of builds it from its image rows."""
    rows = reflection_rows(rot.q_alpha)
    return tuple(tuple(Fraction(rows[j][i], rot.sigma) for j in range(4)) for i in range(4))


def rand_admissible(max_sigma=60, tries=500):
    out = []
    for _ in range(tries):
        q = Icosian(tuple(rng.randint(-2, 2) for _ in range(8)))
        if q.is_zero():
            continue
        p = q.primitive_part()
        if not p.is_admissible():
            continue
        if sigma_index(p) <= max_sigma:
            out.append(p)
    return out


def test_rotation_examples():
    ident = rotation_of(Icosian.from_int(1))
    assert ident.sigma == 1 and ident.den == 1
    assert ident.matrix == tuple(
        tuple(Fraction(int(i == j)) for j in range(4)) for i in range(4)
    )
    rot = rotation_of(R_ICO)
    assert rot.sigma == 5 and rot.den == 5
    u = rotation_of(UNIT_HALF)
    assert u.sigma == 1 and u.den == 1


def test_rotation_matrix_is_g_orthogonal():
    for q in [R_ICO, S_ICO, UNIT_HALF] + rand_admissible(100, 200):
        m = rotation_of(q).matrix
        assert g_orthogonal(m)


def test_integer_gram_check_catches_one_entry_changes():
    """rotation_of checks R (2G) R^T == sigma^2 (2G) on the integer image
    rows R, which holds for the rotation and reflection rows alike; changing
    any one entry by +-1 breaks it, and the dense rational check on the
    matrix says the same.  (Always: a
    change in column k could survive only if column k of R (2G) were -+e_j,
    but every column c of R (2G) has c^T (2G)^-1 c = 2 sigma^2, and e_j has
    at most 6/5.)"""
    for q in [R_ICO, S_ICO, UNIT_HALF] + rand_admissible(100, 100):
        rot = rotation_of(q)
        for rows in (rot.image_rows, reflection_rows(rot.q_alpha)):
            assert rows_preserve_gram(rows, rot.sigma)
            for j in range(4):
                for k in range(4):
                    for delta in (1, -1):
                        bad = [list(r) for r in rows]
                        bad[j][k] += delta
                        assert not rows_preserve_gram(bad, rot.sigma)
                        mat = [[Fraction(bad[c][i], rot.sigma) for c in range(4)] for i in range(4)]
                        assert not g_orthogonal(mat)


BAD_INPUTS = {
    "zero": Icosian.from_int(0),
    "2R": R_ICO.scale_o(OInt(2, 0)),
    "(1,t,0,0)": to_icosian(parse_quat("(1,t,0,0)")),
}

# The routes that reduce their argument to its primitive part first;
# "sigma" is the coincidence index as the rotation record reports it.
PRIMITIVE_PART_ROUTES = {
    "rotation_of": rotation_of,
    "csl_record": csl_record,
    "sigma": lambda q: rotation_of(q).sigma,
}
VALIDATING_ROUTES = {
    "den": den,
    "extension": extension,
    "sigma_index": sigma_index,
    "criterion_ideal": criterion_ideal,
    "equal_csl(q, R)": lambda q: equal_csl(q, R_ICO),
    "equal_csl(R, q)": lambda q: equal_csl(R_ICO, q),
    "sufficient_equal_lemma(q, R)": lambda q: sufficient_equal_lemma(q, R_ICO),
    "sufficient_equal_lemma(R, q)": lambda q: sufficient_equal_lemma(R_ICO, q),
}


@pytest.mark.parametrize("route", list(VALIDATING_ROUTES) + list(PRIMITIVE_PART_ROUTES))
@pytest.mark.parametrize("bad", list(BAD_INPUTS))
def test_bad_input_raises_domain_error(route, bad):
    """Zero, imprimitive and non-admissible input raise DomainError (never
    AssertionError or ZeroDivisionError), except that the primitive-part
    routes answer for 2R exactly what they answer for R."""
    q = BAD_INPUTS[bad]
    fn = VALIDATING_ROUTES.get(route) or PRIMITIVE_PART_ROUTES[route]
    if bad == "2R" and route in PRIMITIVE_PART_ROUTES:
        assert fn(q) == fn(R_ICO)
        return
    with pytest.raises(DomainError):
        fn(q)


def test_rotation_rejects_bad_input():
    with pytest.raises(DomainError):
        rotation_of(Icosian.from_int(0))
    nonadm = to_icosian(parse_quat("(1,t,0,0)"))
    assert nonadm is not None
    with pytest.raises(DomainError):
        rotation_of(nonadm)


def test_rotation_normalizes_imprimitive_input():
    scaled = R_ICO.scale_o(OInt(0, 2))  # 2*tau times the primitive element
    rot = rotation_of(scaled)
    assert rot.matrix == rotation_of(R_ICO).matrix
    assert rot.sigma == 5


def test_extension_does_not_change_rotation():
    rot = rotation_of(R_ICO)
    assert rotation_of(rot.q_alpha).matrix == rot.matrix


def test_csl_intersection_examples():
    ident = rotation_of(Icosian.from_int(1))
    assert csl_intersection(ident).hnf == FULL
    rot = rotation_of(R_ICO)
    lat = csl_intersection(rot)
    assert lat.index == 5
    for u in rng.sample(unit_group(), 5):
        assert csl_intersection(rotation_of(u)).hnf == FULL


def test_triple_construction_agreement():
    for q in [R_ICO, S_ICO] + rand_admissible(50, 300):
        rot = rotation_of(q)
        a = csl_intersection(rot)
        b = csl_Lq(rot)
        c = csl_ideal_form(rot)
        assert a.hnf == b.hnf == c.hnf
        m = rot.q.nr()
        assert a.index == rot.sigma == lcm_o(m, m.conj()).a


def _meet_by_intersect_rows(rows, d):
    """L n (1/d) span(rows) as intersect_rows(d L, rows) divided by d."""
    scaled_l = [[d * int(i == j) for j in range(4)] for i in range(4)]
    return tuple(tuple(v // d for v in row) for row in intersect_rows(scaled_l, rows))


def test_intersection_from_rows_matches_intersect_rows():
    """On rotation and reflection image rows, and on random full-rank rows
    with a random denominator, the meet read off one echelon form is
    intersect_rows(d L, rows) / d; a meet of rank below 4 raises."""
    cases = []
    for q in [R_ICO, S_ICO] + rand_admissible(400, 200):
        rot = rotation_of(q)
        cases.append((rot.image_rows, rot.sigma))
        cases.append((reflection_rows(rot.q_alpha), rot.sigma))
    while len(cases) < 160:
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        if len(hnf(rows)) == 4:
            cases.append((rows, rng.randint(1, 30)))
    for rows, d in cases:
        want = _meet_by_intersect_rows(rows, d)
        assert _intersection_from_rows(rows, d, diagonal_product(want)).hnf == want
    for rows in ([[1, 2, 3, 4], [0, 5, 1, 1]], [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0]]):
        with pytest.raises(DomainError, match="rank"):
            _intersection_from_rows(rows, 3, 27)


def test_sigma_examples():
    assert sigma_index(Icosian.from_int(1)) == 1
    assert sigma_index(R_ICO) == 5
    assert sigma_index(to_icosian(parse_quat("(1,2,0,0)"))) == 5


def test_worked_example_pair():
    rot_r, rot_s = rotation_of(R_ICO), rotation_of(S_ICO)
    assert csl_Lq(rot_r).hnf == csl_Lq(rot_s).hnf
    assert equal_csl(R_ICO, S_ICO)
    assert not symmetry_related(R_ICO, S_ICO)


def test_equal_csl_units_and_distinct_sigma():
    for u in rng.sample(unit_group(), 8):
        assert equal_csl(R_ICO, R_ICO * u)
        assert symmetry_related(R_ICO, R_ICO * u)
    two = to_icosian(parse_quat("(1,1,0,0)"))
    assert sigma_index(two) == 2
    assert not equal_csl(R_ICO, two)
    with pytest.raises(DomainError):
        equal_csl(R_ICO, R_ICO.scale_o(OInt(2, 0)))


def test_equal_csl_agrees_with_hnf_on_random_pairs():
    pool = [R_ICO, S_ICO] + rand_admissible(40, 300)
    for _ in range(60):
        p1, p2 = rng.choice(pool), rng.choice(pool)
        crit = equal_csl(p1, p2)
        hnf_eq = csl_Lq(rotation_of(p1)).hnf == csl_Lq(rotation_of(p2)).hnf
        assert crit == hnf_eq


def test_equal_csl_diagnostic_on_associate_norms(caplog):
    # same class, literally different (associate) norms: 5*tau^2 vs 5
    q_alpha = to_icosian(parse_quat("(1,2,0,0)"))
    with caplog.at_level(logging.DEBUG, logger="a4csl"):
        assert equal_csl(R_ICO, q_alpha)
    assert any("norm readings differ" in m for m in caplog.messages)


def _loaded_by_a_fresh_import(*modules: str) -> list[str]:
    """Which of the modules a fresh interpreter has loaded after importing
    the package and its command line."""
    src = str(Path(csl.__file__).resolve().parents[1])
    code = f"import sys, a4csl, a4csl.cli; print(*[m for m in {modules!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_import_leaves_logging_unloaded():
    """equal_csl imports logging only when it logs: a fresh start of the
    package and its command line does not load it."""
    assert _loaded_by_a_fresh_import("logging") == []


def test_import_leaves_dataclasses_and_inspect_unloaded():
    """The value classes are plain slotted classes: a fresh start loads
    neither dataclasses nor what it pulls in (about 11 ms of every CLI
    call when it did)."""
    assert _loaded_by_a_fresh_import("dataclasses", "inspect", "ast", "dis") == []


def test_sufficient_condition():
    assert sufficient_equal_lemma(R_ICO, R_ICO)
    # the worked pair needs c = sqrt5: the plain condition misses it
    assert not sufficient_equal_lemma(R_ICO, S_ICO)
    assert equal_csl(R_ICO, S_ICO)
    two = to_icosian(parse_quat("(1,1,0,0)"))
    assert not sufficient_equal_lemma(R_ICO, two)


def test_sufficient_implies_equal():
    pool = [R_ICO, S_ICO] + rand_admissible(40, 300)
    for _ in range(60):
        p1, p2 = rng.choice(pool), rng.choice(pool)
        if sufficient_equal_lemma(p1, p2):
            assert equal_csl(p1, p2)


def test_symmetry_related_implies_equal_csl():
    pool = [R_ICO, S_ICO] + rand_admissible(40, 200)
    for p in pool[:20]:
        u = rng.choice(unit_group())
        assert symmetry_related(p, p * u)
        assert equal_csl(p, p * u)
        assert csl_Lq(rotation_of(p)).hnf == csl_Lq(rotation_of(p * u)).hnf


def test_reflection_examples():
    """Conjugation maps L onto L, so the orientation-reversing isometry
    x -> q_alpha conj(x) twist(q_alpha) / sigma (determinant -1) has the
    CSL of the rotation R(q): the meet of its image rows with L is
    csl_Lq(rotation_of(q)).  This is why there is no reflection path."""
    for q in [Icosian.from_int(1), R_ICO, S_ICO] + rand_admissible(400, 200):
        rot = rotation_of(q)
        lat = _intersection_from_rows(reflection_rows(rot.q_alpha), rot.sigma, rot.sigma)
        assert lat.hnf == csl_Lq(rot).hnf
        assert _det4(reflection_matrix(rot)) == -1


def test_reflection_matrix_is_rotation_composed_with_conjugation():
    conj_mat = conjugation_matrix_L()
    for q in [R_ICO, S_ICO] + rand_admissible(30, 100):
        rot = rotation_of(q)
        refl = reflection_matrix(rot)
        composed = tuple(
            tuple(
                sum(rot.matrix[i][k] * conj_mat[k][j] for k in range(4))
                for j in range(4)
            )
            for i in range(4)
        )
        assert refl == composed
        # orientation reversing G-isometry
        assert g_orthogonal(refl)


def _det4(m):
    import itertools

    total = Fraction(0)
    for perm in itertools.permutations(range(4)):
        sign = 1
        seen = [False] * 4
        p = list(perm)
        for i in range(4):
            while p[i] != i:
                j = p[i]
                p[i], p[j] = p[j], p[i]
                sign = -sign
        prod = Fraction(1)
        for i, j in enumerate(perm):
            prod *= m[i][j]
        total += sign * prod
    return total


def test_rotation_and_reflection_determinants():
    rot = rotation_of(R_ICO)
    assert _det4(rot.matrix) == 1
    assert _det4(reflection_matrix(rot)) == -1


def test_rotation_products_are_coincidence_rotations():
    # OC is a group: the composed matrix is rational and L n RL has finite index
    from math import lcm as int_lcm

    pool = [R_ICO, S_ICO] + rand_admissible(30, 100)
    for _ in range(20):
        m1 = rotation_of(rng.choice(pool)).matrix
        m2 = rotation_of(rng.choice(pool)).matrix
        prod = [
            [sum(m1[i][k] * m2[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]
        assert g_orthogonal(prod)
        d = int_lcm(*[v.denominator for row in prod for v in row])
        rows = [[int(prod[i][j] * d) for i in range(4)] for j in range(4)]
        scaled_l = [[d * int(i == j) for j in range(4)] for i in range(4)]
        meet = intersect_rows(scaled_l, rows)
        assert len(meet) == 4  # finite index


def test_csl_record():
    rec = csl_record(R_ICO)
    assert rec.csl.index == rec.rotation.sigma == 5
    data = rec.to_json()
    assert data["sigma"] == 5 and data["den"] == 5 and len(data["hnf"]) == 16
    with pytest.raises(DomainError):
        CslRecord(rotation=rec.rotation, csl=SublatticeL(FULL))


# Small coordinates, and coordinates past 2**63.
_COORD = st.one_of(st.integers(-3, 3), st.integers(-(2**70), 2**70))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.tuples(*[_COORD] * 8))
def test_image_rows_match_per_basis_products(zc):
    """The quadratic table route of the rotation image rows against
    q * b_j * twist(q) by Icosian.__mul__ and int_L_coords, for any
    icosian q."""
    q = Icosian(zc)
    want = []
    for b in B_ICO:
        coords = int_L_coords(q * b * q.twist())
        assert coords is not None
        want.append(coords)
    assert _image_rows(q) == want


def test_rotation_keeps_its_image_rows():
    """The integer image rows kept on the rotation are those of q_alpha,
    sigma times the columns of the matrix, which is built from them when
    read; they stay out of to_json and equality."""
    for q in [R_ICO, S_ICO, Icosian.from_int(1)] + rand_admissible(max_sigma=400, tries=300):
        rot = rotation_of(q)
        assert rot.image_rows == tuple(_image_rows(rot.q_alpha))
        assert rot.image_rows == tuple(
            tuple(int(rot.matrix[i][j] * rot.sigma) for i in range(4)) for j in range(4)
        )
        # matrix is read from the image rows; the eager construction it replaced
        assert rot.matrix == tuple(
            tuple(Fraction(rot.image_rows[j][i], rot.sigma) for j in range(4)) for i in range(4)
        )
        assert "image_rows" not in rot.to_json()
        assert rot == rotation_of(q.scale_o(OInt(2, 0)))


def test_equal_csl_routes_match_the_hnf_oracles(monkeypatch):
    """On p*u, u*p and unrelated partners, and on the sigma = 5 witness,
    equal_csl agrees with equality of the criterion ideals' HNFs (after the
    norm check) and with equality of the CSLs' HNFs.  It decides by left
    division when each beta_i lies in p_i I, and by the HNFs otherwise; the
    witness takes the HNF route."""
    calls = Counter()
    for name in ("same_right_ideal", "right_ideal"):
        fn = getattr(csl, name)
        monkeypatch.setattr(csl, name, lambda *a, fn=fn, name=name: calls.update([name]) or fn(*a))

    def route(p1, p2):
        calls.clear()
        answer = equal_csl(p1, p2)
        if calls["right_ideal"]:
            return answer, "hnf"
        return answer, "division" if calls["same_right_ideal"] else "norm"

    assert route(R_ICO, S_ICO) == (True, "hnf")
    units = unit_group()
    pool = [R_ICO, S_ICO] + rand_admissible(400, 600)
    seen = Counter()
    for p in pool:
        u = rng.choice(units)
        for partner in (p * u, u * p, rng.choice(pool)):
            answer, how = route(p, partner)
            seen[how, answer] += 1
            norms = unit_normalize(p.nr())[0] == unit_normalize(partner.nr())[0]
            ideals = criterion_ideal(p).rows == criterion_ideal(partner).rows
            assert answer == (norms and ideals)
            assert answer == (csl_Lq(rotation_of(p)).hnf == csl_Lq(rotation_of(partner)).hnf)
    assert all(seen[how, answer] for how in ("hnf", "division") for answer in (True, False))
    assert seen["norm", False]


def test_equal_csl_hnf_route_takes_one_hnf_and_reads_each_norm_once(monkeypatch):
    """On the HNF route equal_csl reduces one generator matrix, that of
    p_2 I + beta I, tests p_1 for membership, and reads nr(p1) and nr(p2)
    once each: on the sigma = 5 witness (equal CSLs) and on R and u R for a
    unit u (same norm, different CSLs)."""
    calls = Counter()
    nr_fn = Icosian.nr
    monkeypatch.setattr("a4csl.hnf.hnf", lambda rows: calls.update(["hnf"]) or hnf(rows))
    monkeypatch.setattr(Icosian, "nr", lambda self: calls.update(["nr"]) or nr_fn(self))
    turned = Icosian((0, 2, -1, -2, -2, 1, 1, -3))
    for p2, answer in ((S_ICO, True), (turned, False)):
        calls.clear()
        assert equal_csl(R_ICO, p2) == answer
        assert calls == {"hnf": 1, "nr": 2}
    monkeypatch.undo()
    assert any(u * R_ICO == turned for u in unit_group())
    assert csl_Lq(rotation_of(turned)).hnf != csl_Lq(rotation_of(R_ICO)).hnf
    assert criterion_ideal(turned).rows != criterion_ideal(R_ICO).rows


def test_equal_csl_refuses_two_betas_for_associate_norms(monkeypatch):
    """Associate norms give both rotations one beta = den/c; a beta off by a
    unit, forced through _criterion_beta, raises (an explicit raise, so it
    holds under python -O)."""
    beta = csl._criterion_beta
    monkeypatch.setattr(
        csl, "_criterion_beta", lambda p, m: beta(p, m) * TAU if p == S_ICO else beta(p, m)
    )
    with pytest.raises(AssertionError, match="one beta"):
        equal_csl(R_ICO, S_ICO)
