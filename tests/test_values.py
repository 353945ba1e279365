"""Value semantics of the ten immutable classes: equality and hash by the
fields, only within one class; no assignment; keyword construction; the
fields CoincidenceRotation leaves out; copies and pickles."""

import copy
import pickle
from fractions import Fraction

import pytest

from a4csl import (
    CoincidenceRotation,
    CslRecord,
    Icosian,
    KNum,
    OFactorization,
    OInt,
    Quat,
    Rank8Module,
    SigmaCensus,
    SublatticeL,
    csl_record,
    factor_o,
    right_ideal,
    rotation_of,
)
from a4csl.quaternion import parse_quat
from a4csl.icosian import to_icosian

R_ICO = to_icosian(parse_quat("(t,2*t,0,0)"))
FULL = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))

# Each builds a fresh instance; two calls give equal, distinct objects.
MAKERS = {
    "OInt": lambda: OInt(1, 0),
    "KNum": lambda: KNum(1, 0),
    "OFactorization": lambda: factor_o(OInt(6, 0)),
    "Quat": lambda: parse_quat("(t,2*t,0,1/2)"),
    "Icosian": lambda: Icosian((1, 0, 0, 0, 0, 0, 0, 0)),
    "Rank8Module": lambda: right_ideal([R_ICO]),
    "SublatticeL": lambda: SublatticeL(FULL),
    "CoincidenceRotation": lambda: rotation_of(R_ICO),
    "CslRecord": lambda: csl_record(R_ICO),
    "SigmaCensus": lambda: SigmaCensus(5, 6, 6, 6),
}


@pytest.mark.parametrize("name", list(MAKERS))
def test_equal_fields_give_equal_objects_and_hashes(name):
    a, b = MAKERS[name](), MAKERS[name]()
    assert a is not b
    assert a == b and not (a != b)
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", list(MAKERS))
def test_an_instance_equals_no_other_class(name):
    x = MAKERS[name]()
    fields = tuple(getattr(x, f) for f in x.__slots__)
    assert x != fields and x != fields[0] and x != list(fields)
    for other, make in MAKERS.items():
        if other != name:
            assert x != make()


def test_oint_is_neither_a_knum_nor_a_tuple():
    assert OInt(1, 0) != KNum(1, 0) and KNum(1, 0) != OInt(1, 0)
    assert OInt(1, 0) != (1, 0) and (1, 0) != OInt(1, 0)


def test_hot_hashes_are_those_of_the_field_tuple():
    """The hash the dataclasses had, so that set and dict orders stay."""
    assert hash(OInt(3, -4)) == hash((3, -4))
    assert hash(KNum(1, 2)) == hash((Fraction(1), Fraction(2)))
    assert hash(Icosian((1, 2, 3, 4, 5, 6, 7, 8))) == hash(((1, 2, 3, 4, 5, 6, 7, 8),))
    assert hash(SublatticeL(FULL)) == hash((FULL,))


@pytest.mark.parametrize("name", list(MAKERS))
def test_fields_cannot_be_assigned_or_deleted(name):
    x = MAKERS[name]()
    for field in x.__slots__:
        before = getattr(x, field)
        with pytest.raises(AttributeError):
            setattr(x, field, before)
        with pytest.raises(AttributeError):
            delattr(x, field)
        assert getattr(x, field) is before
    with pytest.raises(AttributeError):
        x.extra = 1
    assert not hasattr(x, "__dict__")


@pytest.mark.parametrize("name", list(MAKERS))
def test_copies_and_pickles_are_equal(name):
    x = MAKERS[name]()
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert y == x and hash(y) == hash(x)
        assert all(getattr(y, f) == getattr(x, f) for f in x.__slots__)


def test_knum_parts_are_fractions():
    x = KNum(1, 2)
    assert type(x.a) is Fraction and type(x.b) is Fraction
    assert x == KNum(Fraction(1), Fraction(2))


def test_keyword_construction_and_repr():
    assert OInt(a=1, b=0) == OInt(1, 0)
    assert repr(OInt(1, 0)) == "OInt(a=1, b=0)"
    assert repr(KNum(1, 2)) == "KNum(a=Fraction(1, 1), b=Fraction(2, 1))"
    assert repr(Icosian(zc=(1, 0, 0, 0, 0, 0, 0, 0))) == "Icosian(zc=(1, 0, 0, 0, 0, 0, 0, 0))"
    assert repr(SigmaCensus(n=5, rotation_classes=6, csl_count=6, f_formula=6)) == (
        "SigmaCensus(n=5, rotation_classes=6, csl_count=6, f_formula=6)"
    )
    fac = OFactorization(unit=OInt(1, 0), factors=((OInt(2, 0), 1, "inert"),))
    assert fac == OFactorization(OInt(1, 0), ((OInt(2, 0), 1, "inert"),))
    assert Quat(a=KNum(1, 0), b=KNum(0, 0), c=KNum(0, 0), d=KNum(0, 0)) == Quat.of(1)
    assert Rank8Module(rows=((1,),)).rows == ((1,),)
    rec = csl_record(R_ICO)
    assert CslRecord(rotation=rec.rotation, csl=rec.csl) == rec


def test_coincidence_rotation_leaves_image_rows_out():
    rot = rotation_of(R_ICO)
    other = CoincidenceRotation(
        q=rot.q, q_alpha=rot.q_alpha, alpha=rot.alpha, sigma=rot.sigma, den=rot.den, image_rows=()
    )
    assert other == rot and hash(other) == hash(rot)
    assert repr(other) == repr(rot)
    assert "image_rows" not in repr(rot)
    assert repr(rot).startswith(f"CoincidenceRotation(q={rot.q!r}, q_alpha={rot.q_alpha!r}, ")
    assert other.image_rows == () and rot.image_rows != ()
