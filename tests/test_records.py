"""The record contract: every value record is frozen, compares, hashes and
prints as a record of its fields would, sets every slot once through the
slot's own setter, and refuses a wrong argument count.  Cyclotomic keeps
its own equality across levels, so it is frozen and unhashable."""

import pytest

from xpq.checks import CheckResult, run_checks
from xpq.dynamics import (
    Character,
    FixedPoints,
    OrbitData,
    SolenoidPoint,
    StabilizerLattice,
    SystemParams,
    orbit_of,
)
from xpq.exact import Cyclotomic, PqRational, QmodZ, Record
from xpq.groupalg import GroupAlgebraElement, GroupElement
from xpq.ktheory import FgAbGroup, FgAbMap, KTheoryResult, SNFResult, k_theory_of_group, smith_normal_form
from xpq.primspace import (
    ALL,
    ESCAPING,
    FULL,
    INFINITY,
    AllClosedSet,
    EscapingTail,
    FinitePoints,
    FiniteUnion,
    FullTorus,
    InfinityPoint,
    OrbitCharPoint,
    SequenceDesc,
)
from xpq.traces import CanonicalTrace, FiniteOrbitTrace, MomentSequence, OrbitMeasureTrace

P23 = SystemParams(2, 3)
ORBIT5 = orbit_of(P23, SolenoidPoint.of(1, 5))
ORBIT7 = orbit_of(P23, SolenoidPoint.of(1, 7))
LAT5 = ORBIT5.stabilizer
CHI = Character(LAT5, QmodZ(1, 4), QmodZ(0, 1))
CHI0 = Character.trivial(LAT5)
G = GroupElement(PqRational(1, 1, 0), 1, -1)
Z = FgAbGroup(1)
SNF = smith_normal_form([[2, 4], [6, 8]])
KT = k_theory_of_group(2, 3)

# class, constructor arguments, arguments of an unequal instance (None for a
# class with no fields), the compared fields in repr order, the number of
# required arguments, and whether the record is hashable
CASES = [
    (QmodZ, (2, 5), (3, 5), ("num", "den"), 2, True),
    (PqRational, (6, 2, 0), (6, 2, 1), ("num", "a", "b"), 3, True),
    (SystemParams, (2, 3), (2, 5), ("p", "q", "mult_indep"), 2, True),
    (SolenoidPoint, (QmodZ(1, 5),), (QmodZ(2, 5),), ("coord",), 1, True),
    (StabilizerLattice, (((1, 1), (0, 4)),), (((2, 1), (0, 4)),), ("basis",), 1, True),
    (Character, (LAT5, QmodZ(1, 4), QmodZ(0, 1)), (LAT5, QmodZ(1, 4), QmodZ(1, 2)),
     ("lattice", "t1", "t2"), 3, True),
    (OrbitData, (P23, 5, ORBIT5.numerators, LAT5), (P23, 5, (1, 2), LAT5),
     ("params", "denominator", "numerators", "stabilizer"), 4, True),
    (FixedPoints, (5, (SolenoidPoint.of(1, 5),)), (5, ()), ("count", "sample"), 2, True),
    (GroupElement, (PqRational(1, 1, 0), 1, -1), (PqRational(2, 1, 0), 1, -1), ("row",), 3, True),
    (GroupAlgebraElement, (P23, 2, ((G, 1),)), (P23, 3, ((G, 1),)), ("params", "den", "nums"), 3, True),
    (FiniteOrbitTrace, (ORBIT5, CHI), (ORBIT5, CHI0), ("orbit", "chi"), 2, True),
    (CanonicalTrace, (P23,), (SystemParams(2, 5),), ("params",), 1, True),
    (OrbitMeasureTrace, (ORBIT5,), (ORBIT7,), ("orbit",), 1, True),
    (MomentSequence, (CanonicalTrace(P23), 0, (Cyclotomic.one(),)), (CanonicalTrace(P23), 0, ()),
     ("spec", "n_max", "values"), 3, False),
    (SNFResult, (SNF.U, SNF.D, SNF.V), (SNF.U, SNF.D, SNF.U), ("U", "D", "V"), 3, True),
    (FgAbGroup, (1, (2,)), (1, ()), ("rank", "torsion"), 1, True),
    (FgAbMap, (Z, Z, ((1,),)), (Z, Z, ((2,),)), ("source", "target", "matrix"), 3, True),
    (KTheoryResult, (KT.K0, KT.K1, KT.closed_form, KT.torsion_gcd, KT.matches),
     (KT.K0, KT.K1, KT.closed_form, KT.torsion_gcd, False),
     ("K0", "K1", "closed_form", "torsion_gcd", "matches"), 5, True),
    (InfinityPoint, (), None, (), 0, True),
    (OrbitCharPoint, (ORBIT5, CHI), (ORBIT5, CHI0), ("orbit", "chi"), 2, True),
    (AllClosedSet, (), None, (), 0, True),
    (FullTorus, (), None, (), 0, True),
    (FinitePoints, ((CHI,),), ((CHI0,),), ("points",), 1, True),
    (FiniteUnion, (((ORBIT5, FULL),),), (((ORBIT7, FULL),),), ("parts",), 1, True),
    (EscapingTail, (), None, (), 0, True),
    (SequenceDesc, (ESCAPING, (INFINITY,)), (ESCAPING, ()), ("tail", "prefix"), 1, True),
    (CheckResult, ("exact", 1, 2, ("a",)), ("exact", 1, 3, ("a",)), ("suite", "passed", "failed", "failures"),
     4, True),
    (Cyclotomic, (5, (1, 2), 3), (5, (1, 3), 3), ("level", "coeffs"), 2, False),
]


@pytest.mark.parametrize("cls, args, other, fields, required, hashable", CASES, ids=[c[0].__name__ for c in CASES])
class TestRecordContract:
    def test_eq_and_hash_follow_the_field_tuple(self, cls, args, other, fields, required, hashable):
        x, y = cls(*args), cls(*args)
        key = tuple(getattr(x, f) for f in fields)
        assert x == y and not x != y
        assert x.__eq__(key) is NotImplemented  # another class never compares equal
        if other is not None:
            assert x != cls(*other)
        if hashable:
            assert hash(x) == hash(y) == hash(key)
        else:  # a field is unhashable, or equal values may differ in fields
            with pytest.raises(TypeError):
                hash(x)

    def test_repr_names_the_compared_fields(self, cls, args, other, fields, required, hashable):
        x = cls(*args)
        body = ", ".join(f"{f}={getattr(x, f)!r}" for f in fields)
        assert repr(x) == f"{cls.__name__}({body})"

    def test_setters_cover_the_slots_in_order(self, cls, args, other, fields, required, hashable):
        assert [(s.__self__.__objclass__, s.__self__.__name__) for s in cls._setters] == [
            (cls, name) for name in cls.__slots__
        ]
        x = cls(*args)
        if len(args) == len(fields):  # each field reads back as given
            assert tuple(getattr(x, f) for f in fields) == args

    def test_fields_are_frozen(self, cls, args, other, fields, required, hashable):
        x = cls(*args)
        assert not hasattr(x, "__dict__")
        for name in cls.__slots__:
            value = getattr(x, name)  # every slot is set by __init__
            with pytest.raises(AttributeError):
                setattr(x, name, value)
            with pytest.raises(AttributeError):
                delattr(x, name)
            assert getattr(x, name) is value

    def test_wrong_argument_count(self, cls, args, other, fields, required, hashable):
        with pytest.raises(TypeError):
            cls(*args, None)
        if required:
            with pytest.raises(TypeError):
                cls(*args[: required - 1])


def test_every_record_class_has_a_case():
    assert {case[0] for case in CASES} == set(Record.__subclasses__())


def test_the_compared_fields_are_the_slots():
    # equality, hash and repr read __slots__, so no record keeps a slot they skip
    for cls, _, _, fields, _, _ in CASES:
        assert not hasattr(cls, "_fields"), cls.__name__
        if cls is not Cyclotomic:  # its own repr shows coeffs, read off den and vec
            assert fields == cls.__slots__, cls.__name__


def test_field_free_records_differ_by_class():
    assert INFINITY != ALL and ALL != FULL and FULL != ESCAPING
    assert INFINITY == InfinityPoint() and hash(INFINITY) == hash(())


def test_keyword_construction_and_defaults():
    assert SolenoidPoint(coord=QmodZ(1, 5)) == SolenoidPoint.of(1, 5)
    assert FixedPoints(5, sample=()) == FixedPoints(sample=(), count=5)
    for bad in ({"count": 5}, {"count": 5, "sample": (), "extra": 1}):
        with pytest.raises(TypeError):
            FixedPoints(**bad)
    with pytest.raises(TypeError):
        FixedPoints(5, count=5)
    assert SequenceDesc(ESCAPING) == SequenceDesc(ESCAPING, ())
    assert FgAbGroup(2) == FgAbGroup(2, ())
    # a tally has no defaults, and run_checks lists its failures in a tuple
    assert CheckResult("exact", 0, failed=0, failures=()) == CheckResult("exact", 0, 0, ())
    with pytest.raises(TypeError):
        CheckResult("exact")
    (result,) = run_checks("ktheory", P23, trials=1)
    assert result.failures == () and type(result.failures) is tuple
