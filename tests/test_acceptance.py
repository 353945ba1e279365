"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The heavy enumeration (all rotation classes with index <= 25) is
done once and shared.
"""

import random
import time
from fractions import Fraction

import pytest

from a4csl.cli import main
from a4csl.counting import census_csv, enumerate_rotations, euler_product_coeffs, f
from a4csl.csl import (
    criterion_ideal,
    csl_Lq,
    csl_ideal_form,
    csl_intersection,
    equal_csl,
    rotation_of,
    symmetry_related,
)
from a4csl.field import KNum, OInt, abs_norm, lcm_o, unit_normalize
from a4csl.icosian import Icosian, ZB_ICO, to_icosian, unit_group
from a4csl.lattice import GRAM, SublatticeL, to_L_coords
from a4csl.quaternion import Quat, parse_quat
from test_quaternion import mul, phi_plus, twist

NMAX_CENSUS = 20
NMAX_TRIPLE = 25

R_ICO = to_icosian(parse_quat("(t,2*t,0,0)"))
S_ICO = to_icosian(parse_quat("(1+t,t,t,1)"))

_passed = {}


def report(criterion: int, ok: bool, detail: str) -> None:
    _passed[criterion] = ok
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def classes_by_index():
    out = {}
    for n in range(1, NMAX_TRIPLE + 1):
        out[n] = enumerate_rotations(n)
    return out


def test_criterion_1_dirichlet_series(capsys):
    t0 = time.time()
    code = main(["dirichlet", "11"])
    out = capsys.readouterr().out
    elapsed = time.time() - t0
    with capsys.disabled():
        ok = code == 0 and out.strip() == "1,5,10,20,6,50,50,80,90,30,144" and elapsed < 1.0
        report(1, ok, f"dirichlet(11) = {out.strip()} in {elapsed:.3f}s")


def test_criterion_2_euler_product_consistency():
    t0 = time.time()
    direct = [f(n) for n in range(1, 51)]
    expanded = euler_product_coeffs(50)
    elapsed = time.time() - t0
    ok = direct == expanded and elapsed < 5.0
    report(2, ok, f"f(1..50) matches Euler product expansion in {elapsed:.3f}s")


def test_criterion_3_census(classes_by_index):
    t0 = time.time()
    mismatches = []
    for n in range(1, NMAX_CENSUS + 1):
        hnfs = set()
        for q in classes_by_index[n]:
            rot = rotation_of(q)
            hnfs.add(csl_Lq(rot).hnf)
        if len(hnfs) != f(n):
            mismatches.append((n, len(hnfs), f(n)))
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 600.0
    report(
        3,
        ok,
        f"enumerated CSL counts equal f(n) for n <= {NMAX_CENSUS} in {elapsed:.1f}s"
        + (f"; mismatches: {mismatches}" if mismatches else ""),
    )


def test_criterion_4_worked_example():
    t0 = time.time()
    rot_r = rotation_of(R_ICO)
    rot_s = rotation_of(S_ICO)
    h_r = csl_Lq(rot_r)
    h_s = csl_Lq(rot_s)
    printed = [
        "(1,2,0,0)",
        "(2,-1,0,0)",
        "(3/2,1/2,1/2,1/2)",
        "(-1,1/2,-1/2+1/2*t,-1/2*t)",
    ]
    rows = [to_L_coords(parse_quat(v)) for v in printed]
    printed_lat = SublatticeL.from_rational_rows(rows)
    elapsed = time.time() - t0
    ok = (
        h_r.hnf == h_s.hnf
        and not symmetry_related(R_ICO, S_ICO)
        and printed_lat.hnf == h_r.hnf
        and h_r.index == 5
        and elapsed < 1.0
    )
    report(4, ok, f"worked pair shares the printed index-5 CSL in {elapsed:.3f}s")


def test_criterion_5_triple_agreement(classes_by_index):
    t0 = time.time()
    checked = 0
    for n in range(1, NMAX_TRIPLE + 1):
        for q in classes_by_index[n]:
            rot = rotation_of(q)
            a = csl_intersection(rot)
            b = csl_Lq(rot)
            c = csl_ideal_form(rot)
            m = rot.q.nr()
            lam = lcm_o(m, m.conj())
            assert a.hnf == b.hnf == c.hnf, f"triple mismatch at {q}"
            assert a.index == lam.a == rot.sigma, f"index mismatch at {q}"
            checked += 1
    elapsed = time.time() - t0
    report(
        5,
        True,
        f"3 constructions and the index law agree on {checked} classes with sigma <= {NMAX_TRIPLE} in {elapsed:.1f}s",
    )


def test_criterion_6_criterion_soundness(classes_by_index):
    t0 = time.time()
    for n in range(1, NMAX_TRIPLE + 1):
        keys = {}
        hnfs = {}
        for i, q in enumerate(classes_by_index[n]):
            keys[i] = (unit_normalize(q.nr())[0], criterion_ideal(q).rows)
            hnfs[i] = csl_Lq(rotation_of(q)).hnf
        # the two equivalence relations must be identical partition-wise
        by_key = {}
        for i, k in keys.items():
            by_key.setdefault(k, set()).add(i)
        by_hnf = {}
        for i, h in hnfs.items():
            by_hnf.setdefault(h, set()).add(i)
        assert sorted(map(sorted, by_key.values())) == sorted(
            map(sorted, by_hnf.values())
        ), f"criterion partition differs from HNF partition at n={n}"
        if n % 5 != 0:
            # rigidity: rational norms and 5 not dividing sigma force each
            # CSL to come from a single symmetry class
            rational_norms = all(
                classes_by_index[n][i].nr().b == 0 for i in keys
            )
            if rational_norms:
                assert all(len(block) == 1 for block in by_hnf.values()), (
                    f"rigidity fails at n={n}"
                )
    # explicit sigma = 5 witness: equal CSL without symmetry relation
    witness = equal_csl(R_ICO, S_ICO) and not symmetry_related(R_ICO, S_ICO)
    elapsed = time.time() - t0
    report(
        6,
        witness,
        f"criterion == HNF equality on all classes with sigma <= {NMAX_TRIPLE}, "
        f"rigidity holds off 5|sigma, and the sigma=5 witness pair exists ({elapsed:.1f}s)",
    )


def test_criterion_7_structural_invariants():
    t0 = time.time()
    rng = random.Random(424242)

    half_cartan = (
        (2, -1, 0, 0),
        (-1, 2, -1, 0),
        (0, -1, 2, -1),
        (0, 0, -1, 2),
    )
    gram_ok = all(
        GRAM[i][j] == Fraction(half_cartan[i][j], 2) for i in range(4) for j in range(4)
    )

    def rand_quat():
        return Quat(
            *(
                KNum(
                    Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                    Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                )
                for _ in range(4)
            )
        )

    twist_ok = True
    for _ in range(10_000):
        p, q = rand_quat(), rand_quat()
        if twist(twist(p)) != p or twist(mul(p, q)) != mul(twist(q), twist(p)):
            twist_ok = False
            break
        y = phi_plus(p)
        if twist(y) != y:
            twist_ok = False
            break

    def rand_icosian():
        return Icosian(tuple(rng.randint(-9, 9) for _ in range(8)))

    icosian_ok = True
    for _ in range(10_000):
        x, y = rand_icosian(), rand_icosian()
        xy, xt, xc, n, f = x * y, x.twist(), x.conj(), x.nr(), x.phi_plus()
        if not (
            xy.twist() == y.twist() * xt
            and xy.conj() == y.conj() * xc
            and xt.twist() == x
            and xc.conj() == x
            and x * xc == Icosian.from_o(n)
            and xy.nr() == n * y.nr()
            and xt.nr() == n.conj()
            and f.twist() == f
        ):
            icosian_ok = False
            break

    basis_twist_ok = all(zb.twist().quat() == twist(zb.quat()) for zb in ZB_ICO)

    units = unit_group()
    unit_keys = {u.zc for u in units}
    units_ok = len(units) == 120 and all(u.nr() == OInt(1, 0) for u in units)
    for u in units:
        for v in units:
            if (u * v).zc not in unit_keys:
                units_ok = False
                break
        if not units_ok:
            break

    elapsed = time.time() - t0
    ok = gram_ok and twist_ok and icosian_ok and basis_twist_ok and units_ok and elapsed < 10.0
    report(
        7,
        ok,
        f"Gram = Cartan(A4)/2, twist laws on 10^4 rational samples and the "
        f"integer algebra laws on 10^4 icosian pairs, stable basis twist, "
        f"120 closed units ({elapsed:.1f}s)",
    )


def test_criterion_8_census_determinism(capsys):
    code1 = main(["census", "--nmax", "8"])
    out1 = capsys.readouterr().out
    code2 = main(["--threads", "4", "census", "--nmax", "8"])
    out2 = capsys.readouterr().out
    with capsys.disabled():
        ok = code1 == code2 == 0 and out1 == out2 and "true" in out1
        report(8, ok, "census byte-identical for 1-thread and 4-thread runs")
