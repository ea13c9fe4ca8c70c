import itertools
import random

import pytest

from xpq import (
    ALL,
    EMPTY,
    ESCAPING,
    FULL,
    INFINITY,
    ConstantOrbitTail,
    FinitePoints,
    FiniteUnion,
    OrbitCharPoint,
    ParamsMismatch,
    QmodZ,
    SequenceDesc,
    SolenoidPoint,
    SystemParams,
    closed_intersection,
    closed_union,
    closure,
    contains_point,
    enumerate_minimal_sets,
    limit_set,
    orbit_of,
    specializes,
)

P23 = SystemParams(2, 3)
ORBIT1 = orbit_of(P23, SolenoidPoint.of(0, 1))
ORBIT5 = orbit_of(P23, SolenoidPoint.of(1, 5))
ORBIT7 = orbit_of(P23, SolenoidPoint.of(1, 7))


def chi(a, b, c, d):
    return (QmodZ(a, b), QmodZ(c, d))


CHI0 = chi(0, 1, 0, 1)
CHI_I = chi(1, 4, 0, 1)


def pt(orbit, character=CHI0):
    return OrbitCharPoint(orbit, character)


def sample_sets():
    return [
        ALL,
        EMPTY,
        closure([pt(ORBIT5)]),
        closure([pt(ORBIT5, CHI_I), pt(ORBIT7)]),
        closure([pt(ORBIT1), pt(ORBIT5), pt(ORBIT5, CHI_I)]),
        FiniteUnion(((ORBIT5, FULL),)),
        FiniteUnion(((ORBIT5, FULL), (ORBIT7, FinitePoints((CHI0,))))),
    ]


class TestClosure:
    def test_infinity_is_dense(self):
        assert closure([INFINITY]) == ALL
        assert closure([pt(ORBIT5), INFINITY]) == ALL

    def test_empty(self):
        assert closure([]) == EMPTY
        assert EMPTY.is_empty()
        assert not closure([pt(ORBIT5)]).is_empty()

    def test_points_are_closed(self):
        x = pt(ORBIT5, CHI_I)
        c = closure([x])
        assert contains_point(c, x)
        assert not contains_point(c, pt(ORBIT5))
        assert not contains_point(c, INFINITY)
        assert c == FiniteUnion(((ORBIT5, FinitePoints((CHI_I,))),))

    def test_groups_by_orbit(self):
        c = closure([pt(ORBIT5), pt(ORBIT7), pt(ORBIT5, CHI_I)])
        assert isinstance(c, FiniteUnion)
        assert [orbit.denominator for orbit, _ in c.parts] == [5, 7]
        five_part = dict(c.parts)[ORBIT5]
        assert set(five_part.points) == {CHI0, CHI_I}

    def test_idempotent_extensive_monotone(self):
        pts = [pt(ORBIT5), pt(ORBIT7, CHI_I), pt(ORBIT1)]
        for k in range(len(pts) + 1):
            for sub in itertools.combinations(pts, k):
                c = closure(sub)
                for x in sub:
                    assert contains_point(c, x)  # extensive
                for more in pts:
                    bigger = closure(list(sub) + [more])
                    assert closed_union(c, bigger) == bigger  # monotone


class TestSpecialization:
    def test_infinity_specializes_to_everything(self):
        assert specializes(INFINITY, pt(ORBIT5))
        assert specializes(INFINITY, pt(ORBIT7, CHI_I))
        assert specializes(INFINITY, INFINITY)

    def test_closed_points_only_specialize_to_themselves(self):
        x = pt(ORBIT5)
        assert specializes(x, x)
        assert not specializes(x, pt(ORBIT5, CHI_I))
        assert not specializes(x, pt(ORBIT7))
        assert not specializes(x, INFINITY)

    def test_t0_but_not_t1(self):
        # T0: distinct points are topologically distinguishable; not T1:
        # infinity is in every nonempty open set, i.e. closure({inf}) is not
        # {inf} alone
        for orbit in enumerate_minimal_sets(P23, 20):
            x = pt(orbit)
            assert specializes(INFINITY, x) and not specializes(x, INFINITY)
        assert contains_point(closure([INFINITY]), pt(ORBIT5))


class TestSequences:
    def test_escaping(self):
        seq = SequenceDesc(ESCAPING)
        assert limit_set(seq) == ALL
        # every point is a limit of an escaping sequence
        for target in (INFINITY, pt(ORBIT5), pt(ORBIT7, CHI_I)):
            assert contains_point(limit_set(seq), target)

    def test_constant_orbit(self):
        seq = SequenceDesc(ConstantOrbitTail(ORBIT5, CHI_I))
        got = limit_set(seq)
        assert got == FiniteUnion(((ORBIT5, FinitePoints((CHI_I,))),))
        assert contains_point(got, pt(ORBIT5, CHI_I))
        assert not contains_point(got, INFINITY)

    def test_prefix_ignored(self):
        bare = SequenceDesc(ConstantOrbitTail(ORBIT5, CHI0))
        decorated = SequenceDesc(
            ConstantOrbitTail(ORBIT5, CHI0), prefix=(INFINITY, pt(ORBIT7))
        )
        assert limit_set(bare) == limit_set(decorated)

    def test_limit_set_is_closure_of_limit_points(self):
        seq = SequenceDesc(ConstantOrbitTail(ORBIT7, CHI0))
        assert limit_set(seq) == closure([pt(ORBIT7, CHI0)])


class TestFiniteUnionValidation:
    def test_sorted_and_canonical(self):
        a = FiniteUnion(((ORBIT7, FULL), (ORBIT5, FULL)))
        b = FiniteUnion(((ORBIT5, FULL), (ORBIT7, FULL)))
        assert a == b
        assert [orbit.denominator for orbit, _ in a.parts] == [5, 7]

    def test_duplicate_orbit_rejected(self):
        with pytest.raises(ValueError):
            FiniteUnion(((ORBIT5, FULL), (ORBIT5, FinitePoints((CHI0,)))))

    def test_empty_part_rejected(self):
        with pytest.raises(ValueError):
            FiniteUnion(((ORBIT5, FinitePoints(())),))

    def test_params_mismatch(self):
        other = orbit_of(SystemParams(2, 5), SolenoidPoint.of(1, 3))
        with pytest.raises(ParamsMismatch):
            FiniteUnion(((ORBIT5, FULL), (other, FULL)))

    def test_finite_points_dedup_and_sort(self):
        fp = FinitePoints((CHI_I, CHI0, CHI_I))
        assert fp.points == (CHI0, CHI_I)


class TestLatticeOperations:
    def test_union_basics(self):
        a = closure([pt(ORBIT5)])
        b = closure([pt(ORBIT5, CHI_I)])
        u = closed_union(a, b)
        assert u == closure([pt(ORBIT5), pt(ORBIT5, CHI_I)])
        assert closed_union(a, ALL) == ALL
        assert closed_union(ALL, a) == ALL
        assert closed_union(a, EMPTY) == a

    def test_full_torus_absorbs_points(self):
        a = FiniteUnion(((ORBIT5, FULL),))
        b = closure([pt(ORBIT5, CHI_I)])
        assert closed_union(a, b) == a
        assert closed_intersection(a, b) == b

    def test_intersection_basics(self):
        a = closure([pt(ORBIT5), pt(ORBIT7)])
        b = closure([pt(ORBIT5), pt(ORBIT7, CHI_I)])
        assert closed_intersection(a, b) == closure([pt(ORBIT5)])
        assert closed_intersection(a, ALL) == a
        assert closed_intersection(ALL, a) == a
        assert closed_intersection(a, EMPTY) == EMPTY
        disjoint = closed_intersection(closure([pt(ORBIT5)]), closure([pt(ORBIT7)]))
        assert disjoint == EMPTY

    def test_lattice_laws_sampled(self):
        sets = sample_sets()
        for a in sets:
            assert closed_union(a, a) == a
            assert closed_intersection(a, a) == a
            for b in sets:
                assert closed_union(a, b) == closed_union(b, a)
                assert closed_intersection(a, b) == closed_intersection(b, a)
                assert closed_union(a, closed_intersection(a, b)) == a  # absorption
                assert closed_intersection(a, closed_union(a, b)) == a
                for c in sets:
                    assert closed_union(closed_union(a, b), c) == closed_union(
                        a, closed_union(b, c)
                    )
                    assert closed_intersection(
                        closed_intersection(a, b), c
                    ) == closed_intersection(a, closed_intersection(b, c))

    def test_union_matches_membership(self):
        sets = sample_sets()
        probes = [
            INFINITY,
            pt(ORBIT1),
            pt(ORBIT5),
            pt(ORBIT5, CHI_I),
            pt(ORBIT7),
            pt(ORBIT7, CHI_I),
        ]
        for a in sets:
            for b in sets:
                u = closed_union(a, b)
                i = closed_intersection(a, b)
                for x in probes:
                    assert contains_point(u, x) == (
                        contains_point(a, x) or contains_point(b, x)
                    )
                    assert contains_point(i, x) == (
                        contains_point(a, x) and contains_point(b, x)
                    )

    def test_closure_is_additive(self):
        pts1 = [pt(ORBIT5), pt(ORBIT7, CHI_I)]
        pts2 = [pt(ORBIT5, CHI_I), pt(ORBIT1)]
        assert closure(pts1 + pts2) == closed_union(closure(pts1), closure(pts2))


class TestStabilizersHaveFullRank:
    def test_rank_two(self):
        # every character pair (t1, t2) is a genuine point: the stabilizer
        # of a finite orbit always has two independent directions
        rng = random.Random(61)
        for orbit in enumerate_minimal_sets(P23, 30):
            (a, b), (z, c) = orbit.stabilizer.basis
            assert a > 0 and c > 0 and z == 0
            x = pt(orbit, chi(rng.randrange(4), 4, rng.randrange(4), 4))
            assert contains_point(closure([x]), x)
