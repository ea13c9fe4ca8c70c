import cmath
import random
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest

from helpers import (
    orbit_mean_mismatches,
    orbit_specs,
    random_algebra_element,
    random_group_element,
    reference_orbit_mean,
    reference_trace_eval,
    trace_mismatches,
    unit_moment_mismatches,
)
from xpq import (
    CanonicalTrace,
    Character,
    Cyclotomic,
    FiniteOrbitTrace,
    GroupAlgebraElement,
    GroupElement,
    MomentSequence,
    OrbitMeasureTrace,
    OutOfRange,
    ParamsMismatch,
    PqRational,
    QmodZ,
    RangeTooSmall,
    SolenoidPoint,
    SystemParams,
    average_over_character_level,
    check_pq_invariance,
    moments,
    nonfaithful_witness,
    orbit_of,
    root_of_unity,
    trace_eval,
)
from xpq import traces
from xpq.exact import MAX_CYCLOTOMIC_LEVEL
from xpq.traces import MAX_MOMENT_COEFFICIENTS, MAX_MOMENT_RANGE, _pair_mult

P23 = SystemParams(2, 3)
ORBIT5 = orbit_of(P23, SolenoidPoint.of(1, 5))
ORBIT7 = orbit_of(P23, SolenoidPoint.of(1, 7))
ORBIT1 = orbit_of(P23, SolenoidPoint.of(0, 1))
ORBIT23 = orbit_of(P23, SolenoidPoint.of(1, 23))


def unit(g: GroupElement, params=P23) -> GroupAlgebraElement:
    return GroupAlgebraElement.unit(params, g)


def translation(num, a=0, b=0) -> GroupElement:
    return GroupElement(PqRational(num, a, b), 0, 0)


def all_specs(orbit):
    chi0 = Character.trivial(orbit.stabilizer)
    return [
        FiniteOrbitTrace(orbit, chi0),
        OrbitMeasureTrace(orbit),
        CanonicalTrace(orbit.params),
    ]


class TestCharacter:
    def test_trivial(self):
        chi = Character.trivial(ORBIT5.stabilizer)
        assert (chi.t1, chi.t2) == (QmodZ(0, 1), QmodZ(0, 1))
        assert chi.exponent(1, 1) == QmodZ(0, 1)
        assert chi.value(2, 2) == Cyclotomic.one()

    def test_exponent_linear_on_lattice(self):
        lat = ORBIT5.stabilizer  # basis (1,1), (0,4)
        chi = Character(lat, QmodZ(1, 3), QmodZ(1, 4))
        assert chi.exponent(1, 1) == QmodZ(1, 3)
        assert chi.exponent(0, 4) == QmodZ(1, 4)
        assert chi.exponent(1, 5) == QmodZ(1, 3) + QmodZ(1, 4)
        assert chi.exponent(2, 2) == QmodZ(2, 3)
        assert chi.value(1, 5) == root_of_unity(QmodZ(7, 12))

    def test_off_lattice_rejected(self):
        chi = Character.trivial(ORBIT5.stabilizer)
        with pytest.raises(OutOfRange):
            chi.exponent(1, 0)


class TestPairing:
    # <a/r, y> = a*w/r with w = _pair_mult(params, r, y), the factor trace_eval pairs by

    def test_worked(self):
        # inverse of 6 mod 5 is 1, so 1/6 pairs 1/5 to 1/5; 1/2 pairs via inv(2)=3
        # y = num / p^a q^b passes as its integers (num, a, b)
        assert _pair_mult(P23, 5, 1, 1, 1) == 1
        assert _pair_mult(P23, 5, 1, 1, 0) == 3
        assert _pair_mult(P23, 5, 0, 0, 0) == 0

    def test_bilinear_in_y(self):
        rng = random.Random(41)
        for _ in range(200):
            r = rng.choice((1, 5, 7, 11, 13))
            a = rng.randrange(r)
            y1 = random_group_element(rng, P23).x
            y2 = random_group_element(rng, P23).x
            s = PqRational.from_fraction(
                y1.to_fraction(2, 3) + y2.to_fraction(2, 3), 2, 3
            )
            w = [_pair_mult(P23, r, y.num, y.a, y.b) for y in (s, y1, y2)]
            assert a * w[0] % r == a * (w[1] + w[2]) % r


class TestWorkedValues:
    def test_orbit_five_trivial_character(self):
        spec = FiniteOrbitTrace(ORBIT5, Character.trivial(ORBIT5.stabilizer))
        val = trace_eval(spec, unit(translation(1)))
        assert val == Cyclotomic.from_fraction(Fraction(-1, 4))

    def test_orbit_five_twisted(self):
        chi = Character(ORBIT5.stabilizer, QmodZ(0, 1), QmodZ(1, 4))
        spec = FiniteOrbitTrace(ORBIT5, chi)
        val = trace_eval(spec, unit(GroupElement(PqRational(0, 0, 0), 0, 4)))
        assert val == root_of_unity(QmodZ(1, 4))

    def test_composite_level(self):
        # level lcm(10007, 12) = 120084 = 2^2 3 10007; the value is zeta_12
        # times the mean of zeta_10007^a over the orbit
        orbit = orbit_of(P23, SolenoidPoint.of(1, 10007))
        chi = Character(orbit.stabilizer, QmodZ(1, 12), QmodZ(0, 1))
        m, n = orbit.stabilizer.basis[0]
        val = trace_eval(FiniteOrbitTrace(orbit, chi), unit(GroupElement(PqRational(1, 0, 0), m, n)))
        assert val.level == 120084
        mean = sum(cmath.exp(2j * cmath.pi * a / 10007) for a in orbit.numerators) / orbit.size
        assert abs(val.approx() - cmath.exp(2j * cmath.pi / 12) * mean) < 1e-9

    def test_canonical_is_point_mass_at_identity(self):
        spec = CanonicalTrace(P23)
        assert trace_eval(spec, unit(GroupElement.identity())) == Cyclotomic.one()
        assert trace_eval(spec, unit(translation(1))).is_zero()
        assert trace_eval(spec, unit(GroupElement(PqRational(0, 0, 0), 1, 0))).is_zero()

    def test_orbit_measure_kills_scalings(self):
        spec = OrbitMeasureTrace(ORBIT5)
        assert trace_eval(spec, unit(translation(1))) == Cyclotomic.from_fraction(
            Fraction(-1, 4)
        )
        assert trace_eval(spec, unit(GroupElement(PqRational(0, 0, 0), 1, 1))).is_zero()

    def test_cached_value_refuses_assignment(self):
        # a value that trace_eval hands out is frozen; when orbit means were
        # kept in a cache, an assignment to one changed every later evaluation
        # of that mean, and a later shared value must not reopen that
        spec = OrbitMeasureTrace(ORBIT5)
        val = trace_eval(spec, unit(translation(1)))
        with pytest.raises(AttributeError):
            val.vec = (7, 0, 0, 0)
        with pytest.raises(AttributeError):
            del val.den
        quarter = Cyclotomic.from_fraction(Fraction(-1, 4))
        assert val == quarter and trace_eval(spec, unit(translation(1))) == quarter
        assert moments(spec, 2).values == (quarter, quarter, Cyclotomic.one(), quarter, quarter)

    def test_all_terms_vanish(self):
        # off the stabilizer lattice and off the identity every term is zero
        off = unit(GroupElement(PqRational(1, 0, 0), 1, 0)) + unit(
            GroupElement(PqRational(3, 1, 0), 0, 1)
        ).scaled(Fraction(-2, 3))
        for spec in all_specs(ORBIT5):
            val = trace_eval(spec, off)
            assert val == Cyclotomic.zero() and val.level == 1
        assert trace_eval(CanonicalTrace(P23), GroupAlgebraElement.zero(P23)).level == 1

    def test_orbit_one_is_canonical_on_translations(self):
        # the single-point orbit at 0 pairs trivially with every translation
        spec = FiniteOrbitTrace(ORBIT1, Character.trivial(ORBIT1.stabilizer))
        assert trace_eval(spec, unit(translation(1))) == Cyclotomic.one()
        assert trace_eval(spec, unit(translation(7, 2, 1))) == Cyclotomic.one()


def same_representation(x: Cyclotomic, y: Cyclotomic) -> bool:
    # == lifts both sides to a common level; this also compares the levels
    return (x.level, x.den, x.vec) == (y.level, y.den, y.vec)


class TestTraceEvalAgainstReference:
    """trace_eval against the per-term sum, by level, denominator and vector."""

    def specs(self):
        out = [CanonicalTrace(P23)]
        for orbit in (ORBIT1, ORBIT5, ORBIT7, ORBIT23):
            out.append(OrbitMeasureTrace(orbit))
            for t1, t2 in ((QmodZ(0, 1), QmodZ(0, 1)), (QmodZ(1, 2), QmodZ(0, 1)),
                           (QmodZ(1, 3), QmodZ(3, 4)), (QmodZ(0, 1), QmodZ(1, 2))):
                out.append(FiniteOrbitTrace(orbit, Character(orbit.stabilizer, t1, t2)))
        return out

    def test_seeded_elements(self):
        rng = random.Random(800)
        specs = self.specs()
        for _ in range(40):
            a = random_algebra_element(rng, P23, support=5)
            for x in (a, a.star() * a):
                for spec in specs:
                    assert same_representation(trace_eval(spec, x), reference_trace_eval(spec, x))

    def test_levels_of_rational_twists_and_means(self):
        # the orbit of 1/23 is the 11 squares mod 23, so its mean at w = 1 is
        # (-1 + sqrt(-23))/2, not rational
        orbit = ORBIT23
        chi_half = Character(orbit.stabilizer, QmodZ(1, 2), QmodZ(0, 1))
        chi_third = Character(orbit.stabilizer, QmodZ(1, 3), QmodZ(0, 1))
        m, n = orbit.stabilizer.basis[0]  # coordinates (1, 0): the twist is t1
        at_v = lambda num: unit(GroupElement(PqRational(num, 0, 0), m, n))  # noqa: E731
        cases = [
            # the twist -1 is rational, so the value stays at level 23
            (FiniteOrbitTrace(orbit, chi_half), at_v(1), 23),
            # the rational mean 1 times the rational twist -1 takes the twist's level
            (FiniteOrbitTrace(orbit, chi_half), at_v(0), 2),
            # <z, 0> = 0 makes the orbit mean 1, so the value is zeta_3 at level 3
            (FiniteOrbitTrace(orbit, chi_third), at_v(0), 3),
            # u_(0, v) and u_(23, v) cancel at level 3; the level-3 zero still
            # lifts the level-23 mean of u_(1, 0, 0)
            (FiniteOrbitTrace(orbit, chi_third), at_v(0) - at_v(23) + unit(translation(1)), 69),
            # the orbit measure of u_e is the rational mean 1, at level 23
            (OrbitMeasureTrace(orbit), unit(GroupElement.identity()), 23),
        ]
        for spec, a, level in cases:
            got = trace_eval(spec, a)
            assert got.level == level
            assert same_representation(got, reference_trace_eval(spec, a))
        assert not trace_eval(OrbitMeasureTrace(orbit), unit(translation(1))).is_rational()

    def test_seeded_sums_on_the_lattice(self):
        # every (m, n) is an integer combination of the stabilizer basis of
        # the orbit of 1/23, whose mean is not rational at w != 0, so each
        # term is twisted; the ring parts 0, 23 and -46 give the rational
        # mean 1.  Characters of level 2, 3, 4, 6 and 12 mix keys of levels
        # 2, 3, 4, 6, 12, 23 and their lcms, odd ones such as 69 included, where
        # the twist -1 is a sign and not a shift by half the level.  Each
        # element also holds pairs of terms with one key and opposite
        # coefficients: u_(y, v) and u_(y + 23, v + 12 v0) pair alike and
        # have the same twist, so their key sums to 0.
        orbit = ORBIT23
        (a0, b0), (_, c0) = orbit.stabilizer.basis
        chars = [(QmodZ(1, 2), QmodZ(0, 1)), (QmodZ(0, 1), QmodZ(1, 2)), (QmodZ(1, 2), QmodZ(1, 3)),
                 (QmodZ(2, 3), QmodZ(1, 3)), (QmodZ(1, 4), QmodZ(1, 2)), (QmodZ(1, 6), QmodZ(0, 1)),
                 (QmodZ(5, 6), QmodZ(1, 4)), (QmodZ(5, 12), QmodZ(7, 12))]
        specs = [FiniteOrbitTrace(orbit, Character(orbit.stabilizer, t1, t2)) for t1, t2 in chars]
        rng = random.Random(2302)
        levels = set()
        for _ in range(40):
            terms = []
            for _ in range(rng.randint(2, 6)):
                i, j = rng.randint(-3, 3), rng.randint(-3, 3)
                m, n = i * a0, i * b0 + j * c0
                num = rng.choice((0, 23, -46)) if rng.random() < 0.3 else rng.randint(-12, 12)
                y = Fraction(num, 2 ** rng.randint(0, 2) * 3 ** rng.randint(0, 2))
                c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
                terms.append((GroupElement(PqRational.from_fraction(y, 2, 3), m, n), c))
                if rng.random() < 0.5:
                    y2, m2, n2 = y + 23, m + 12 * a0, n + 12 * b0
                    terms.append((GroupElement(PqRational.from_fraction(y2, 2, 3), m2, n2), -c))
            x = GroupAlgebraElement.from_terms(P23, terms)
            for el in (x, x.star() * x):
                for spec in specs:
                    got = trace_eval(spec, el)
                    levels.add(got.level)
                    assert same_representation(got, reference_trace_eval(spec, el))
        assert {23, 46, 69, 92, 138, 276} <= levels

    @pytest.mark.parametrize("pq", [(2, 3), (5, 7), (2, 5), (4, 6)])
    def test_single_orbit_means_match_the_point_loop(self, pq):
        # every w on every census orbit r <= 150: where the units form one
        # orbit, the Ramanujan sum mu(s) / phi(s), and on any orbit the mean
        # at w's period, against the mean summed point by point at w; and
        # the period against the least member of w's orbit found by BFS
        assert orbit_mean_mismatches(SystemParams(*pq), 150) == []

    @pytest.mark.parametrize("pq", [(2, 3), (5, 7), (2, 5), (4, 6)])
    def test_sums_by_period_match_the_reference(self, pq):
        # orbits of several cosets and composite r <= 40, with keys that sum
        # to 0 under twists of order 1, 2 and 12
        assert trace_mismatches(SystemParams(*pq), 40, 3) == []

    def test_many_keys_do_not_hold_a_dense_mean_each(self):
        # the orbit of 1/20011 is all 20010 units; 100 untwisted keys, each
        # held as its dense mean of 20010 slots, would take 16 MB at once
        orbit = orbit_of(P23, SolenoidPoint.of(1, 20011))
        assert orbit.size == 20010
        a = GroupAlgebraElement.from_terms(P23, [(translation(w), 1) for w in range(1, 101)])
        tracemalloc.start()
        try:
            value = trace_eval(OrbitMeasureTrace(orbit), a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value.level == 20011 and value.to_fraction() == Fraction(-100, 20010)
        assert peak < 4_000_000

    def test_twisted_dense_means_add_without_a_pair_per_coordinate(self):
        # the orbit of 1/10007 at (2, 3) has two cosets, so every mean is a
        # dense Gaussian period; 40 untwisted keys and 40 twisted by 1/3 sum
        # at level 30021 and wrap past it.  One (index, value) pair per
        # coordinate of each mean peaked at 39.5 MB.
        orbit = orbit_of(P23, SolenoidPoint.of(1, 10007))
        assert orbit.size == 5003
        (m, n), _ = orbit.stabilizer.basis
        spec = FiniteOrbitTrace(orbit, Character(orbit.stabilizer, QmodZ(1, 3), QmodZ(0, 1)))
        a = GroupAlgebraElement.from_terms(
            P23,
            [(translation(w), 1) for w in range(1, 41)]
            + [(GroupElement(PqRational(w, 0, 0), m, n), 1) for w in range(1, 41)],
        )
        tracemalloc.start()
        try:
            value = trace_eval(spec, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value.level == 30021
        assert same_representation(value, reference_trace_eval(spec, a))
        assert peak < 15_000_000

    def test_rational_moments_hold_one_coordinate_each(self):
        # the orbit of 1/10007 at (2, 5) is all 10006 units, so each of the 99
        # values is a Ramanujan sum; 99 values of phi(r) slots held 7.9 MB
        orbit = orbit_of(SystemParams(2, 5), SolenoidPoint.of(1, 10007))
        assert orbit.size == 10006
        spec = OrbitMeasureTrace(orbit)
        moments(spec, 1)  # fills the factorization cache, which outlives the sequence
        tracemalloc.start()
        try:
            seq = moments(spec, 49)  # the largest n_max the limit admits at r = 10007
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert [v.to_fraction() for _, v in seq.items()][48:51] == [Fraction(-1, 10006), 1, Fraction(-1, 10006)]
        assert held < 1_000_000

    def test_character_level_beyond_limit_is_named(self):
        big = MAX_CYCLOTOMIC_LEVEL + 1
        chi = Character(ORBIT7.stabilizer, QmodZ(1, big), QmodZ(0, 1))
        m, n = ORBIT7.stabilizer.basis[0]
        a = unit(GroupElement.identity()) + unit(GroupElement(PqRational(1, 0, 0), m, n))
        with pytest.raises(OutOfRange, match=f"cyclotomic level = {big} out of range") as err:
            trace_eval(FiniteOrbitTrace(ORBIT7, chi), a)
        assert str(7 * big) not in str(err.value)


class TestMeansByPeriod:
    """The work trace_eval and moments do, counted as calls of _orbit_mean:
    one per period, none for a key whose numerators sum to 0."""

    @staticmethod
    def counted():
        return mock.patch.object(traces, "_orbit_mean", wraps=traces._orbit_mean)

    def test_units_on_two_cosets_build_two_means(self):
        # the orbit of 1/10007 at (2, 3) is one of two cosets of <2, 3>, so the
        # 1000 units give two periods; a mean per unit took 2.4 s
        orbit = orbit_of(P23, SolenoidPoint.of(1, 10007))
        spec = OrbitMeasureTrace(orbit)
        a = GroupAlgebraElement.from_terms(P23, [(translation(w), 1) for w in range(1, 1001)])
        with self.counted() as mean:
            value = trace_eval(spec, a)
        assert mean.call_count <= 2
        # the orbit is the subgroup H itself; w in H has the mean at 1, any
        # other w the mean at the least non-member
        inside = set(orbit.numerators)
        n_in = sum(w in inside for w in range(1, 1001))
        other = next(w for w in range(2, 10007) if w not in inside)
        want = (reference_orbit_mean(orbit, 1).scaled(n_in)
                + reference_orbit_mean(orbit, other).scaled(1000 - n_in))
        assert 0 < n_in < 1000 and same_representation(value, want)

    def test_witness_builds_no_mean(self):
        # w* w = 2 u_e - u_(r,0,0) - u_(-r,0,0): its one key sums to 0
        for orbit in (ORBIT5, ORBIT23, orbit_of(P23, SolenoidPoint.of(7, 95))):
            w = nonfaithful_witness(orbit)
            ww = w.star() * w
            for spec in orbit_specs(orbit):
                with self.counted() as mean:
                    value = trace_eval(spec, ww)
                assert mean.call_count == 0
                assert value.is_zero() and value.level == orbit.denominator

    def test_moments_on_two_cosets_build_three_means(self):
        # n = 0 and the two cosets of <2, 3> mod 10007; equal values are one object
        orbit = orbit_of(P23, SolenoidPoint.of(1, 10007))
        spec = OrbitMeasureTrace(orbit)
        with self.counted() as mean:
            seq = moments(spec, 49)
        assert mean.call_count == 3
        assert len({id(v) for v in seq.values}) == 3
        assert unit_moment_mismatches(spec, 49) == []


class TestTraceLaws:
    @pytest.mark.parametrize("spec_index", [0, 1, 2])
    def test_seeded_laws(self, spec_index):
        rng = random.Random(100 + spec_index)
        for orbit in (ORBIT1, ORBIT5, ORBIT7):
            spec = all_specs(orbit)[spec_index]
            e = unit(GroupElement.identity())
            assert trace_eval(spec, e) == Cyclotomic.one()
            for _ in range(60):
                a = random_algebra_element(rng, P23)
                b = random_algebra_element(rng, P23)
                assert trace_eval(spec, a * b) == trace_eval(spec, b * a)
                assert trace_eval(spec, a.star()) == trace_eval(spec, a).conj()
                assert trace_eval(spec, a + b) == trace_eval(spec, a) + trace_eval(
                    spec, b
                )

    def test_positivity_numerically(self):
        rng = random.Random(200)
        for orbit in (ORBIT5, ORBIT7):
            for spec in all_specs(orbit):
                for _ in range(40):
                    a = random_algebra_element(rng, P23)
                    v = trace_eval(spec, a.star() * a).approx()
                    assert v.real >= -1e-9
                    assert abs(v.imag) <= 1e-9

    def test_twisted_character_laws(self):
        rng = random.Random(300)
        chi = Character(ORBIT7.stabilizer, QmodZ(1, 3), QmodZ(1, 2))
        spec = FiniteOrbitTrace(ORBIT7, chi)
        for _ in range(60):
            a = random_algebra_element(rng, P23)
            b = random_algebra_element(rng, P23)
            assert trace_eval(spec, a * b) == trace_eval(spec, b * a)
            assert trace_eval(spec, a.star()) == trace_eval(spec, a).conj()

    def test_params_mismatch(self):
        a = GroupAlgebraElement.unit(SystemParams(2, 5), GroupElement.identity())
        with pytest.raises(ParamsMismatch):
            trace_eval(CanonicalTrace(P23), a)

    def test_chi_lattice_must_match_orbit(self):
        with pytest.raises(ParamsMismatch, match="stabilizer mod 5"):
            FiniteOrbitTrace(ORBIT5, Character.trivial(ORBIT7.stabilizer))


class TestMoments:
    def test_orbit_five_values(self):
        seq = moments(FiniteOrbitTrace(ORBIT5, Character.trivial(ORBIT5.stabilizer)), 12)
        for n in range(-12, 13):
            want = Fraction(1) if n % 5 == 0 else Fraction(-1, 4)
            assert seq.value(n) == Cyclotomic.from_fraction(want), n

    def test_canonical_values(self):
        seq = moments(CanonicalTrace(P23), 8)
        for n, v in seq.items():
            if n == 0:
                assert v == Cyclotomic.one()
            else:
                assert v.is_zero()

    @pytest.mark.parametrize("pq, a0, r, n_max", [
        ((2, 3), 0, 1, 6),  # r = 1
        ((2, 3), 1, 5, 12),  # a single-orbit prime
        ((2, 3), 1, 35, 20),  # a composite r whose units form one orbit
        ((2, 3), 7, 95, 50),  # a composite r with two orbits
        ((2, 3), 1, 10007, 12),  # two cosets: dense Gaussian periods
        ((4, 6), 1, 35, 20),  # the shared prime 2
    ])
    def test_values_are_unit_evaluations(self, pq, a0, r, n_max):
        # moments reads the orbit means directly; each value must still be
        # the trace of u_(n,0,0), by level, denominator and vector
        params = SystemParams(*pq)
        orbit = orbit_of(params, SolenoidPoint.of(a0, r))
        for spec in [CanonicalTrace(params), *orbit_specs(orbit)]:
            assert unit_moment_mismatches(spec, n_max) == []

    def test_out_of_range(self):
        seq = moments(CanonicalTrace(P23), 5)
        with pytest.raises(OutOfRange):
            seq.value(6)

    def test_range_limit(self):
        assert moments(CanonicalTrace(P23), MAX_MOMENT_RANGE).n_max == MAX_MOMENT_RANGE
        for bad in (-1, MAX_MOMENT_RANGE + 1):
            with pytest.raises(OutOfRange, match=f"n_max = {bad} .* {MAX_MOMENT_RANGE}"):
                moments(CanonicalTrace(P23), bad)

    def test_coefficient_limit(self):
        # (2 n_max + 1) phi(r) coefficients: 25 * 10006 passes, 2001 * 10006 does not
        orbit = orbit_of(P23, SolenoidPoint.of(1, 10007))
        assert moments(OrbitMeasureTrace(orbit), 12).n_max == 12
        for spec in (OrbitMeasureTrace(orbit), FiniteOrbitTrace(orbit, Character.trivial(orbit.stabilizer))):
            for n_max in (1000, 50):  # 101 * 10006 is just past the limit
                with pytest.raises(OutOfRange, match=f"n_max = {n_max} at r = 10007 .* {MAX_MOMENT_COEFFICIENTS}"):
                    moments(spec, n_max)

    def test_conjugate_symmetry(self):
        chi = Character(ORBIT7.stabilizer, QmodZ(1, 6), QmodZ(0, 1))
        seq = moments(FiniteOrbitTrace(ORBIT7, chi), 10)
        for n in range(11):
            assert seq.value(-n) == seq.value(n).conj()

    def test_invariance_holds(self):
        for orbit in (ORBIT1, ORBIT5, ORBIT7):
            for spec in all_specs(orbit):
                seq = moments(spec, 24)
                assert check_pq_invariance(seq, P23)

    def test_invariance_detects_violation(self):
        # hand-built moment data of a non-invariant measure: mass at 1/2
        spec = CanonicalTrace(P23)
        vals = tuple(
            Cyclotomic.from_fraction(1)
            if n % 2 == 0
            else Cyclotomic.from_fraction(-1)
            for n in range(0, 7)
        )
        seq = MomentSequence(spec, 6, vals)
        assert not check_pq_invariance(seq, P23)

    def test_range_too_small(self):
        seq = moments(CanonicalTrace(P23), 2)
        with pytest.raises(RangeTooSmall):
            check_pq_invariance(seq, P23)


class TestCharacterAverage:
    def test_level_one_is_trivial_character(self):
        rng = random.Random(400)
        spec = FiniteOrbitTrace(ORBIT5, Character.trivial(ORBIT5.stabilizer))
        for _ in range(30):
            a = random_algebra_element(rng, P23)
            assert average_over_character_level(ORBIT5, 1, a) == trace_eval(spec, a)

    def test_kill_keep_rule_on_units(self):
        # averaging over the level-k character grid keeps a group unitary
        # exactly when its lattice coordinates are divisible by k
        rng = random.Random(500)
        trivial = FiniteOrbitTrace(ORBIT7, Character.trivial(ORBIT7.stabilizer))
        lat = ORBIT7.stabilizer
        for k in (1, 2, 3, 4):
            for _ in range(80):
                g = random_group_element(rng, P23)
                avg = average_over_character_level(ORBIT7, k, unit(g))
                coords = lat.coords(g.m, g.n)
                if coords is None or any(c % k for c in coords):
                    assert avg.is_zero()
                else:
                    assert avg == trace_eval(trivial, unit(g))

    def test_linear(self):
        rng = random.Random(600)
        for _ in range(20):
            a = random_algebra_element(rng, P23)
            b = random_algebra_element(rng, P23)
            assert average_over_character_level(ORBIT5, 3, a + b) == (
                average_over_character_level(ORBIT5, 3, a)
                + average_over_character_level(ORBIT5, 3, b)
            )

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            average_over_character_level(ORBIT5, 0, unit(GroupElement.identity()))


class TestNonfaithfulWitness:
    def test_witness_annihilated_by_orbit_traces(self):
        for orbit in (ORBIT5, ORBIT7):
            w = nonfaithful_witness(orbit)
            assert w.support_size() > 0
            ww = w.star() * w
            for t1 in range(4):
                for t2 in range(4):
                    chi = Character(orbit.stabilizer, QmodZ(t1, 4), QmodZ(t2, 4))
                    assert trace_eval(FiniteOrbitTrace(orbit, chi), ww).is_zero()
            assert trace_eval(OrbitMeasureTrace(orbit), ww).is_zero()

    def test_canonical_sees_witness(self):
        for orbit in (ORBIT5, ORBIT7):
            w = nonfaithful_witness(orbit)
            val = trace_eval(CanonicalTrace(P23), w.star() * w)
            assert val == Cyclotomic.from_fraction(2)

    def test_canonical_faithful_exactly(self):
        # tau(a* a) = sum of squared coefficients, a rational that vanishes
        # only at a = 0
        rng = random.Random(700)
        for _ in range(100):
            a = random_algebra_element(rng, P23)
            want = sum(
                (c * c for _, c in a.terms), start=Fraction(0)
            )
            assert trace_eval(CanonicalTrace(P23), a.star() * a) == Cyclotomic.from_fraction(want)
            if a.support_size() > 0:
                assert want > 0
