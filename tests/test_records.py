"""Record semantics of the package's value classes, and what importing it costs.

Each record class is checked for the behaviour callers rely on: equal
fields give equal objects (and equal hashes where the class is hashable),
an object of another class holding the same fields is unequal, fields
cannot be reassigned, keyword construction and defaults work, and every
validation in construction raises its typed error.
"""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from weylpoly import (
    CoeffProps,
    CPairResult,
    DomainError,
    HBSplit,
    InterlacingVerdict,
    InvSeq,
    InvStatRecord,
    NXEntry,
    NXMatrix,
    PreconditionError,
    QPoly,
    QXPoly,
    RefinedFamily,
    ReportEntry,
    RootInterval,
    RootIsolation,
    SignedPerm,
    StabilityReport,
    StatRecord,
    TransformSpec,
    UsageError,
    VerificationReport,
    WeightedComboSpec,
    XPoly,
)
from weylpoly.realroots import _Rec
from weylpoly.record import Record

Q1 = QPoly((1, 1))
X1 = XPoly((Fraction(-1), Fraction(1)))
RI = RootInterval(Fraction(0), Fraction(1), 1)
ONE = NXEntry(False, Fraction(1))
POLY_KINDS = (QPoly, XPoly, QXPoly)  # their one field defaults to the zero polynomial

# class, positional arguments (in field order), how many trailing arguments
# equal their defaults, whether instances are hashable.
CASES = [
    (QPoly, ((1, 2),), 0, True),
    (XPoly, ((Fraction(1), Fraction(2)),), 0, True),
    (QXPoly, ((Q1, QPoly((2,))),), 0, True),
    (CoeffProps, (True, False, True, False), 0, True),
    (RootInterval, (Fraction(0), Fraction(1, 2), 2), 0, True),
    (RootIsolation, ((RI,), 3), 0, True),
    (InterlacingVerdict, ("strict", None), 1, True),
    (_Rec, (5, 1, -1, 1), 1, False),
    (RefinedFamily, (1, (X1, X1)), 0, True),
    (TransformSpec, ((1, 2, 2),), 0, True),
    (WeightedComboSpec, ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1))), 0, True),
    (NXEntry, (True, Fraction(3)), 0, True),
    (NXMatrix, (((ONE, ONE),),), 0, True),
    (ReportEntry, ("check", {"n": 3}, "pass", None, 0.0), 2, False),
    (VerificationReport, ((),), 1, True),
    (HBSplit, (X1, X1), 0, True),
    (StabilityReport, ((Fraction(1), Fraction(2)), "hurwitz_stable"), 0, True),
    (CPairResult, (0, 1, 2, QXPoly((Q1,))), 0, True),
    (SignedPerm, ((2, -1, 3),), 0, True),
    (InvSeq, ((1, 3, 5),), 0, True),
    (StatRecord, (1, 0, 2, 1, 2, 1, False), 0, True),
    (InvStatRecord, (1, 2, 3), 0, True),
]

FIELDS = {
    QPoly: ("coeffs",),
    XPoly: ("coeffs",),
    QXPoly: ("coeffs",),
    CoeffProps: ("nonnegative", "symmetric", "unimodal", "log_concave"),
    RootInterval: ("lo", "hi", "multiplicity"),
    RootIsolation: ("intervals", "degree_covered"),
    InterlacingVerdict: ("relation", "witness"),
    _Rec: ("i", "w", "s_hi", "mult"),
    RefinedFamily: ("n", "polys"),
    TransformSpec: ("thresholds",),
    WeightedComboSpec: ("a", "b"),
    NXEntry: ("is_x", "value"),
    NXMatrix: ("rows",),
    ReportEntry: ("check_id", "parameters", "verdict", "witness", "elapsed_ms"),
    VerificationReport: ("entries",),
    HBSplit: ("even_part", "odd_part"),
    StabilityReport: ("determinants", "verdict"),
    CPairResult: ("i", "j", "m", "poly"),
    SignedPerm: ("entries",),
    InvSeq: ("entries",),
    StatRecord: ("neg", "neg_D", "des_B", "des_D", "affine_des_B", "affine_des_D", "parity_even"),
    InvStatRecord: ("exc", "asc_D", "affine_asc_D"),
}

IDS = [case[0].__name__ for case in CASES]


def values(obj):
    return tuple(getattr(obj, name) for name in FIELDS[type(obj)])


@pytest.mark.parametrize("cls, args, n_defaults, hashable", CASES, ids=IDS)
class TestRecordSemantics:
    def test_equal_fields_give_equal_objects(self, cls, args, n_defaults, hashable):
        a, b = cls(*args), cls(*args)
        assert a == b and not a != b
        assert values(a) == args
        if hashable:
            assert hash(a) == hash(b)
            assert len({a, b}) == 1
        else:
            with pytest.raises(TypeError):
                hash(a)

    def test_other_class_with_equal_fields_is_unequal(self, cls, args, n_defaults, hashable):
        twin = type(cls.__name__, (cls,), {})
        assert cls(*args) != twin(*args)
        assert twin(*args) != cls(*args)
        assert cls(*args) != args
        assert cls(*args) != None  # noqa: E711

    def test_fields_cannot_be_reassigned(self, cls, args, n_defaults, hashable):
        obj = cls(*args)
        for name, value in zip(FIELDS[cls], args):
            if cls is _Rec:  # the bisection cell is refined in place
                setattr(obj, name, value)
                continue
            with pytest.raises(AttributeError):
                setattr(obj, name, value)
            with pytest.raises(AttributeError):
                delattr(obj, name)
        if cls is not _Rec and cls not in POLY_KINDS:  # a poly kind is checked on its field only
            with pytest.raises(AttributeError):
                obj.not_a_field = 1
        assert values(obj) == args

    def test_keyword_construction_and_defaults(self, cls, args, n_defaults, hashable):
        names = FIELDS[cls]
        obj = cls(*args)
        assert cls(**dict(zip(names, args))) == obj
        assert cls(*args[:1], **dict(zip(names[1:], args[1:]))) == obj
        assert cls(*args[: len(args) - n_defaults]) == obj
        with pytest.raises(TypeError):
            cls(*args, args[0])
        with pytest.raises(TypeError):
            cls(*args, not_a_field=1)
        with pytest.raises(TypeError):
            cls(*args[:1], **{names[0]: args[0]})
        if n_defaults < len(args) and cls not in POLY_KINDS:
            with pytest.raises(TypeError):
                cls(*args[: len(args) - n_defaults - 1])

    def test_copy_and_pickle_give_equal_objects(self, cls, args, n_defaults, hashable):
        obj = cls(*args)
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is cls and twin == obj and values(twin) == args

    def test_repr_names_the_class(self, cls, args, n_defaults, hashable):
        assert repr(cls(*args)).startswith(cls.__name__ + "(")


# (class, positional arguments, the error construction raises)
INVALID = [
    (QPoly, ((1.5,),), UsageError),
    (XPoly, (("1",),), UsageError),
    (QXPoly, ((1.0,),), UsageError),
    (RefinedFamily, (2, (X1, X1)), UsageError),
    (TransformSpec, ((1.0, 2),), UsageError),
    (TransformSpec, ((0, 1),), UsageError),
    (TransformSpec, ((2, 1),), UsageError),
    (WeightedComboSpec, ((1,), (1, 1)), UsageError),
    (WeightedComboSpec, ((0.5,), (1,)), UsageError),
    (WeightedComboSpec, ((-1,), (1,)), PreconditionError),
    (WeightedComboSpec, ((1, 2), (1, 1)), PreconditionError),
    (NXEntry, (True, 0), UsageError),
    (NXEntry, (False, -1), UsageError),
    (NXEntry, (False, 0.5), UsageError),
    (NXMatrix, ((),), UsageError),
    (NXMatrix, (((ONE,), (ONE, ONE)),), UsageError),
    (NXMatrix, (((1, 2),),), UsageError),
    (NXMatrix, (5,), UsageError),
    (ReportEntry, ("c", {}, "maybe"), UsageError),
    (ReportEntry, ("c", {}, "fail"), UsageError),
    (SignedPerm, ((1, 1),), DomainError),
    (SignedPerm, ((1.0, 2),), DomainError),
    (InvSeq, ((2, 0),), DomainError),
    (InvSeq, (("0",),), DomainError),
]


@pytest.mark.parametrize("cls, args, error", INVALID, ids=[c[0].__name__ for c in INVALID])
def test_construction_validates(cls, args, error):
    with pytest.raises(error):
        cls(*args)


# (object built from loose input, the same object from normalised input)
NORMALISED = [
    (lambda: QPoly([1, 2, 0, 0]), lambda: QPoly((1, 2))),
    (lambda: XPoly((1, 0)), lambda: XPoly((Fraction(1),))),
    (lambda: QXPoly((1, Q1)), lambda: QXPoly((QPoly((1,)), Q1))),
    (lambda: TransformSpec([1, True, 2]), lambda: TransformSpec((1, 1, 2))),
    (lambda: WeightedComboSpec([2, 1], [1, 1]), lambda: WeightedComboSpec((Fraction(2), Fraction(1)), (Fraction(1),) * 2)),
    (lambda: NXEntry(True, 3), lambda: NXEntry(True, Fraction(3))),
    (lambda: SignedPerm([2, -1]), lambda: SignedPerm((2, -1))),
    (lambda: InvSeq([True, 3]), lambda: InvSeq((1, 3))),
]


@pytest.mark.parametrize("loose, exact", NORMALISED, ids=[str(k) for k in range(len(NORMALISED))])
def test_construction_normalises_fields(loose, exact):
    got, want = loose(), exact()
    assert got == want and hash(got) == hash(want)
    assert repr(values(got)) == repr(values(want))  # the same element types too


def test_poly_kinds_are_distinct_and_default_to_zero():
    assert QPoly((1, 2)) != XPoly((1, 2))
    for cls in POLY_KINDS:
        assert cls() == cls(()) == cls(coeffs=[0]) and not cls()
    assert SignedPerm((1,)) != InvSeq((1,))


def test_rec_copy_is_independent():
    rec = _Rec(5, 1, -1, 2)
    cell = rec.copy()
    assert cell == rec and cell is not rec
    cell.i = 9
    assert rec.i == 5


def test_fields_are_the_own_annotations_without_the_future_import():
    """This module does not import annotations from __future__, so its annotations are evaluated."""

    class Point(Record):
        x: int
        y: int = 0

    class Named(Point):
        label = "p"

    assert Point._fields == Named._fields == ("x", "y")
    assert Point(1) == Point(x=1, y=0) != Named(1)
    assert Named(1, 2).label == "p"
    with pytest.raises(TypeError):
        Point()


def test_trusted_skips_the_checks():
    assert SignedPerm._trusted((1, -2)) == SignedPerm((1, -2))
    assert XPoly._trusted((Fraction(1),)) == XPoly((1,))
    with pytest.raises(DomainError):
        SignedPerm((1, 1))
    assert SignedPerm._trusted((1, 1)).entries == (1, 1)


def test_import_loads_no_code_generation_modules():
    """Importing the package and its command line loads neither dataclasses nor inspect."""
    code = "import sys, weylpoly, weylpoly.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
