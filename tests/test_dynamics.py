import random
from fractions import Fraction
from math import gcd

import pytest

from helpers import (
    census_mismatches, naive_orbit, naive_partition, reference_meet, reference_stabilizer_lattice, sympy_stabilizer_lattice,
)
from xpq import (
    IdentityElement,
    NotCoprime,
    OutOfRange,
    QmodZ,
    SolenoidPoint,
    SystemParams,
    beta_apply,
    census,
    enumerate_minimal_sets,
    euler_phi,
    fixed_points,
    lift_sequence,
    multiplicative_order,
    orbit_of,
    stabilizer_lattice,
)
from xpq.dynamics import (
    MAX_DENOMINATOR_SCAN,
    MAX_EXPONENT,
    MAX_FIXED_LISTING,
    MAX_LIFT_DEPTH,
    MAX_ORBIT_DENOMINATOR,
    MAX_POWER_BITS,
    MAX_STABILIZER_ORDER,
    StabilizerLattice,
)
from xpq import dynamics
from xpq.exact import factorize


class TestSystemParams:
    def test_validation(self):
        with pytest.raises(OutOfRange):
            SystemParams(1, 3)
        with pytest.raises(OutOfRange):
            SystemParams(2, 0)

    def test_independence_detection(self):
        assert SystemParams(2, 3).mult_indep is True
        assert SystemParams(4, 8).mult_indep is False
        assert SystemParams(12, 18).mult_indep is True

    def test_require_coprime(self):
        params = SystemParams(2, 3)
        params.require_coprime(5)
        with pytest.raises(NotCoprime):
            params.require_coprime(4)
        with pytest.raises(NotCoprime):
            params.require_coprime(0)  # gcd(0, pq) = pq


class TestAction:
    def test_worked(self):
        params = SystemParams(2, 3)
        x = SolenoidPoint.of(1, 5)
        assert beta_apply(params, (1, 0), x).coord == QmodZ(3, 5)
        assert beta_apply(params, (0, 1), x).coord == QmodZ(2, 5)
        assert beta_apply(params, (1, 1), x).coord == QmodZ(1, 5)  # 6 = 1 mod 5

    def test_action_law(self):
        params = SystemParams(2, 3)
        rng = random.Random(2)
        for _ in range(200):
            r = rng.choice([d for d in range(1, 60) if gcd(d, 6) == 1])
            x = SolenoidPoint.of(rng.randrange(r), r)
            m1, n1, m2, n2 = (rng.randint(-4, 4) for _ in range(4))
            one_step = beta_apply(params, (m1 + m2, n1 + n2), x)
            two_step = beta_apply(params, (m1, n1), beta_apply(params, (m2, n2), x))
            assert one_step == two_step

    def test_inverse(self):
        params = SystemParams(2, 3)
        x = SolenoidPoint.of(3, 7)
        y = beta_apply(params, (2, -1), x)
        assert beta_apply(params, (-2, 1), y) == x

    def test_rejects_bad_denominator(self):
        with pytest.raises(NotCoprime):
            beta_apply(SystemParams(2, 3), (1, 0), SolenoidPoint.of(1, 6))


class TestStabilizer:
    def test_worked_examples(self):
        params = SystemParams(2, 3)
        lat5 = stabilizer_lattice(params, 5)
        assert lat5.basis == ((1, 1), (0, 4)) and lat5.index == 4
        lat7 = stabilizer_lattice(params, 7)
        assert lat7.basis == ((1, 4), (0, 6)) and lat7.index == 6
        lat1 = stabilizer_lattice(params, 1)
        assert lat1.basis == ((1, 0), (0, 1)) and lat1.index == 1

    def test_membership_matches_congruence(self):
        params = SystemParams(2, 3)
        for r in (5, 7, 11, 25, 49, 55):
            lat = stabilizer_lattice(params, r)
            for m in range(-8, 9):
                for n in range(-8, 9):
                    in_lat = lat.coords(m, n) is not None
                    cong = (pow(2, m, r) * pow(3, n, r)) % r == 1
                    assert in_lat == cong, (r, m, n)

    def test_hnf_shape_and_index(self):
        for p, q in ((2, 3), (3, 5), (2, 5)):
            params = SystemParams(p, q)
            for r in range(1, 200):
                if gcd(r, p * q) != 1:
                    continue
                lat = stabilizer_lattice(params, r)
                (a, b), (z, c) = lat.basis
                assert z == 0 and a > 0 and c > 0 and 0 <= b < c
                assert lat.index == a * c
                if r > 1:
                    assert pow(p, a, r) * pow(q, b, r) % r == 1
                    assert pow(q, c, r) == 1 % r
                    assert c == multiplicative_order(q, r)
                # index is the size of the subgroup generated by p and q
                assert lat.index == len(naive_orbit(p, q, r, 1))

    def test_order_limit(self, monkeypatch):
        # r = 10000000019 is prime with ord_r(3) = (r - 1) / 2: refused
        # before the table of q-powers is built
        with pytest.raises(OutOfRange, match=f"10000000019: ord_r\\(q\\) = 5000000009 .*{MAX_STABILIZER_ORDER}"):
            stabilizer_lattice(SystemParams(2, 3), 10000000019)
        # q = -1 mod r has order 2, so the scan for p^m in <q> is what is long
        with pytest.raises(OutOfRange, match=f"10000000019: no p\\^m with m <= {MAX_STABILIZER_ORDER}"):
            stabilizer_lattice(SystemParams(2, 10000000018), 10000000019)
        # each limit admits its own value: ord_7(3) = 6, and at r = 11,
        # q = 10 = -1 and 2^5 = -1 give m = 5
        monkeypatch.setattr(dynamics, "MAX_STABILIZER_ORDER", 6)
        assert stabilizer_lattice(SystemParams(2, 3), 7).basis == ((1, 4), (0, 6))
        with pytest.raises(OutOfRange, match="ord_r"):
            stabilizer_lattice(SystemParams(2, 3), 49)
        monkeypatch.setattr(dynamics, "MAX_STABILIZER_ORDER", 5)
        assert stabilizer_lattice(SystemParams(2, 10), 11).basis == ((5, 1), (0, 2))
        monkeypatch.setattr(dynamics, "MAX_STABILIZER_ORDER", 4)
        with pytest.raises(OutOfRange, match="no p\\^m with m <= 4"):
            stabilizer_lattice(SystemParams(2, 10), 11)

    def test_matches_reference(self):
        # the q-power dict and p-scan of the reference against order descent
        # and baby-step giant-step; (4, 6), (6, 10) share a prime and (4, 8)
        # is dependent
        for p, q in ((2, 3), (5, 7), (4, 6), (6, 10), (4, 8)):
            params = SystemParams(p, q)
            for r in range(1, 3001):
                if gcd(r, p * q) == 1:
                    assert stabilizer_lattice(params, r) == reference_stabilizer_lattice(params, r), (p, q, r)
        # primes with ord_r(3) = (r - 1) / 3 and (r - 1) / 2
        params = SystemParams(2, 3)
        assert stabilizer_lattice(params, 1000003).basis == ((3, 293991), (0, 333334))
        assert stabilizer_lattice(params, 999983).basis == ((1, 228506), (0, 499991))

    def test_matches_sympy(self):
        # sympy's n_order and discrete_log as a second oracle on every odd
        # prime power and every power of 2 up to 3000 coprime to pq, so both
        # the order descent of a cyclic (Z/sZ)^* and the log descent of
        # s = 2^k run ((2, 3) has no power of 2)
        for p, q in ((2, 3), (5, 7), (3, 5)):
            params = SystemParams(p, q)
            for s in range(2, 3001):
                if gcd(s, p * q) == 1 and len(factorize(s)) == 1:
                    assert stabilizer_lattice(params, s) == sympy_stabilizer_lattice(params, s), (p, q, s)

    def test_discrete_log_matches_brute_force(self):
        # every x mod s for every s <= 200, powers of 2 among them, to the
        # bases 2, 3, 5, 7 and s - 1 where they are units: the least j with
        # g^j = x, or None when x is not a power of g
        for s in range(1, 201):
            for g in {2 % s, 3 % s, 5 % s, 7 % s, s - 1}:
                if gcd(g, s) != 1:
                    continue
                c = multiplicative_order(g, s)
                logs = {}
                for j in range(c):
                    logs.setdefault(pow(g, j, s), j)
                log = dynamics._discrete_log(g, c, s)
                assert [log(x) for x in range(s)] == [logs.get(x) for x in range(s)], (g, s)

    def test_one_carmichael_per_lattice(self, monkeypatch):
        # census builds L_1 and each prime power's lattice from one lambda;
        # every other r is the meet of two lattices built before it
        calls = []
        carmichael = dynamics.carmichael

        def counted(r):
            calls.append(r)
            return carmichael(r)

        monkeypatch.setattr(dynamics, "carmichael", counted)
        for p, q in ((2, 3), (5, 7)):
            census(SystemParams(p, q), 1500)  # builds every lattice before returning
            lattices = [r for r in range(1, 1501)
                        if gcd(r, p * q) == 1 and (r == 1 or len(factorize(r)) == 1)]
            assert calls == lattices, (p, q)
            calls.clear()

    def test_meet_matches_membership(self):
        # random Hermite pairs with a, c <= 12: the meet holds exactly the
        # points of a box that lie in both, and is the reference's basis
        rng = random.Random(18)
        for _ in range(300):
            lat1, lat2 = (StabilizerLattice(((a, rng.randrange(c)), (0, c)))
                          for a, c in [(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(2)])
            meet = dynamics._meet(lat1, lat2)
            assert meet == reference_meet(lat1, lat2), (lat1, lat2)
            for m in range(-15, 16):
                for n in range(-15, 16):
                    assert (meet.coords(m, n) is not None) == (
                        lat1.coords(m, n) is not None and lat2.coords(m, n) is not None
                    )

    def test_census_matches_reference(self):
        # census folds L_r from prime powers over a sieve; the reference
        # builds every r on its own.  The CI workflow runs this at N = 5000.
        for p, q in ((2, 3), (5, 7), (4, 6), (6, 10), (4, 8)):
            assert census_mismatches(SystemParams(p, q), 1500) == [], (p, q)

    def test_coords(self):
        params = SystemParams(2, 3)
        lat = stabilizer_lattice(params, 5)
        assert lat.coords(1, 1) == (1, 0)
        assert lat.coords(0, 4) == (0, 1)
        assert lat.coords(2, 2) == (2, 0)
        assert lat.coords(1, 0) is None
        c1, c2 = lat.coords(3, -5)  # (3,-5): 2^3 3^-5 = 8/243 = 8*2 = 16 = 1 mod 5
        assert c1 * lat.basis[0][0] + c2 * lat.basis[1][0] == 3
        assert c1 * lat.basis[0][1] + c2 * lat.basis[1][1] == -5

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            stabilizer_lattice(SystemParams(2, 3), 9)


class TestOrbits:
    def test_matches_naive(self):
        # every unit start below r = 60, starts 1 and r - 1 above; (2, 4) is
        # dependent.  Where <p, q> is all of (Z/rZ)^* the orbit is read off
        # the units, whatever the start.
        single = 0
        for p, q in ((2, 3), (3, 5), (2, 4), (5, 7)):
            params = SystemParams(p, q)
            for r in range(1, 120):
                if gcd(r, p * q) != 1:
                    continue
                starts = [a for a in range(r) if gcd(a, r) == 1] if r < 60 else [1, r - 1]
                for a0 in starts:
                    orbit = orbit_of(params, SolenoidPoint.of(a0, r))
                    assert orbit.denominator == r
                    assert set(orbit.numerators) == naive_orbit(p, q, r, a0)
                    assert orbit.size == orbit.stabilizer.index
                    single += a0 > 1 and orbit.size == euler_phi(r)
        assert single > 0

    def test_points_sorted_and_base_point_free(self):
        params = SystemParams(2, 3)
        orbit = orbit_of(params, SolenoidPoint.of(1, 7))
        nums = orbit.numerators
        assert list(nums) == sorted(nums)
        for a in nums:
            assert orbit_of(params, SolenoidPoint.of(a, 7)) == orbit

    def test_non_unit_numerator(self):
        # 5/25 is not in lowest terms; the orbit lives at denominator 5
        params = SystemParams(2, 3)
        orbit = orbit_of(params, SolenoidPoint.of(5, 25))
        assert orbit.denominator == 5

    def test_enumerate(self):
        params = SystemParams(2, 3)
        orbits = enumerate_minimal_sets(params, 7)
        assert [o.denominator for o in orbits] == [1, 5, 7]
        assert [o.size for o in orbits] == [1, 4, 6]

    def test_enumerate_partitions_units(self):
        for p, q in ((2, 3), (2, 5)):
            params = SystemParams(p, q)
            orbits = enumerate_minimal_sets(params, 40)
            by_r: dict[int, list] = {}
            for o in orbits:
                by_r.setdefault(o.denominator, []).append(o)
            for r in range(1, 41):
                if gcd(r, p * q) != 1:
                    continue
                units = {a for a in range(r) if gcd(a, r) == 1} if r > 1 else {0}
                seen: set[int] = set()
                for o in by_r[r]:
                    nums = set(o.numerators)
                    assert not (nums & seen)  # orbits are disjoint
                    seen |= nums
                assert seen == units

    def test_enumerate_matches_naive_partition(self):
        # the cosets of <p, q> split the units mod r as the BFS closure does;
        # (2, 4) is dependent and (4, 6), (6, 10) share a prime.  The range
        # holds the prime powers 9, 25, 27, 49, 121, 125, 243 and 343, and
        # composite r such as 35 at (2, 3) and 12 at (5, 7), where <p, q> is
        # the whole unit group; at (12, 23), p = q = 1 mod 11, so every orbit
        # mod 11 is one point.  Each r's orbits come in increasing order of
        # least numerator.  The BFS closures partition the units, so one BFS
        # per orbit, from the least unit not yet covered, gives the partition.
        for p, q in ((2, 3), (5, 7), (6, 10), (4, 6), (2, 4), (12, 23)):
            by_r: dict[int, set] = {}
            least: dict[int, list] = {}
            for o in enumerate_minimal_sets(SystemParams(p, q), 349):
                assert list(o.numerators) == sorted(set(o.numerators))
                by_r.setdefault(o.denominator, set()).add(frozenset(o.numerators))
                least.setdefault(o.denominator, []).append(o.numerators[0])
            for r in range(1, 350):
                if gcd(r, p * q) != 1:
                    assert r not in by_r
                    continue
                partition, covered = set(), set()
                for a in range(r):
                    if gcd(a, r) == 1 and a not in covered:
                        orbit = naive_orbit(p, q, r, a)
                        covered |= orbit
                        partition.add(orbit)
                assert by_r[r] == partition
                assert least[r] == sorted(least[r]), (p, q, r)

    def test_enumerate_bound(self, monkeypatch):
        # refused before any stabilizer lattice is built
        def no_lattice(params, r):
            raise AssertionError(f"lattice built for r = {r}")

        monkeypatch.setattr(dynamics, "stabilizer_lattice", no_lattice)
        params = SystemParams(2, 3)
        for bad in (0, MAX_ORBIT_DENOMINATOR + 1, 10**30):
            for enumerate_ in (enumerate_minimal_sets, census):
                with pytest.raises(OutOfRange, match=f"max_denominator = {bad} .*{MAX_ORBIT_DENOMINATOR}"):
                    enumerate_(params, bad)

    def test_minimality(self):
        # from any point, the two maps reach the whole orbit
        params = SystemParams(2, 3)
        for orbit in enumerate_minimal_sets(params, 25):
            r = orbit.denominator
            for a in orbit.numerators:
                assert naive_orbit(2, 3, r, a) == set(orbit.numerators)

    def test_census_count_and_order(self):
        # count is sum phi(r) / index over the lattices, before any orbit is
        # built; it must match the orbits the iterator then yields
        for p, q in ((2, 3), (5, 7), (6, 10), (4, 6), (2, 4)):
            params = SystemParams(p, q)
            for bound in (1, 2, 7, 30, 97, 299, 300):
                count, orbits = census(params, bound)
                listed = list(orbits)
                assert count == len(listed), (p, q, bound)
                assert listed == enumerate_minimal_sets(params, bound)
                assert [(o.denominator, o.numerators[0]) for o in listed] == sorted(
                    (o.denominator, o.numerators[0]) for o in listed
                )

    # (p, q, r): the number of orbits mod r
    ORBIT_COUNTS = {(3, 7, MAX_ORBIT_DENOMINATOR): 2, (2, 3, 4999): 1, (5, 7, 109): 4, (2, 3, 5): 1, (2, 3, 1): 1,
                    (9, 25, 4096): 4, (2, 4, 4095): 144, (2, 3, 23): 2}

    @pytest.mark.parametrize("p, q, r", list(ORBIT_COUNTS))
    def test_orbits_mod_matches_the_naive_partition(self, p, q, r):
        # 5000 and 4999 are the top r of the census table at their pairs, so
        # the last orbit is read up to the last numerator; at r = 109 and 5
        # the lattice has a = 1, so the subgroup is the powers of q alone.
        # 4096 splits into 4 orbits in the non-cyclic unit group mod 2^12,
        # 4095 into 144 middle cosets, and the prime 23 into the subgroup
        # and the units left
        params = SystemParams(p, q)
        stab = stabilizer_lattice(params, r)
        orbits = list(dynamics._orbits_mod(params, r, stab, euler_phi(r) // stab.index,
                                              tuple(ell for ell, _ in factorize(r))))
        assert len(orbits) == self.ORBIT_COUNTS[p, q, r]
        assert [o.numerators for o in orbits] == naive_partition(params, r)
        assert all((o.params, o.denominator, o.stabilizer) == (params, r, stab) for o in orbits)

    def test_orbit_of_any_numerator_matches_the_naive_partition(self):
        # orbit_of from the largest point of each orbit, on r split into
        # several orbits, so each coset is labelled in a dict and sorted
        for p, q, r in ((9, 25, 4096), (2, 4, 4095), (2, 3, 23), (5, 7, 109)):
            params = SystemParams(p, q)
            for part in naive_partition(params, r):
                assert orbit_of(params, SolenoidPoint.of(part[-1], r)).numerators == part, (p, q, r, part[-1])

    def test_orbit_of_far_below_its_denominator(self):
        # at (2, 4) the orbit of 1/(2^61 - 1) is the 61 powers of 2, built
        # with no table of r entries
        r = 2**61 - 1
        orbit = orbit_of(SystemParams(2, 4), SolenoidPoint.of(3, r))
        assert orbit.numerators == tuple(sorted(3 * 2**i % r for i in range(61)))

    def test_is_invariant_set(self):
        # multiplication by p and by q permutes an orbit's numerators mod r,
        # as check dynamics tests it, and no proper part of them
        orbit = orbit_of(SystemParams(2, 3), SolenoidPoint.of(1, 7))

        def invariant(numerators):
            s = set(numerators)
            return {a * 2 % 7 for a in s} == s and {a * 3 % 7 for a in s} == s

        assert invariant(orbit.numerators)
        assert not invariant(orbit.numerators[:3])
        assert invariant(())


class TestFixedPoints:
    def test_worked(self):
        params = SystemParams(2, 3)
        fp = fixed_points(params, (1, 1))
        assert fp.count == 5
        assert [pt.coord for pt in fp.sample] == [
            QmodZ(0, 1),
            QmodZ(1, 5),
            QmodZ(2, 5),
            QmodZ(3, 5),
            QmodZ(4, 5),
        ]
        assert fixed_points(params, (2, 1)).count == 11
        assert fixed_points(params, (2, 0)).count == 1
        assert fixed_points(params, (-1, -1)).count == 5

    def test_sample_is_fixed(self):
        params = SystemParams(2, 3)
        for mn in ((1, 1), (2, 1), (1, 2), (-1, 2), (3, -1), (5, 3)):
            fp = fixed_points(params, mn)
            for pt in fp.sample:
                assert beta_apply(params, mn, pt) == pt
            # the unbounded listing is the bounded scan run to count
            for bound in (fp.count, 10**12):
                assert fixed_points(params, mn, max_denominator=bound).sample == fp.sample

    def test_count_vs_brute_force(self):
        # on the sector with denominator d the pair (m, n) acts as the unit
        # p^-m q^-n mod d, so a/d is fixed iff d divides U*a, where U is the
        # numerator of p^m q^n - 1 (the denominator is a unit mod d)
        params = SystemParams(2, 3)
        for m in range(-3, 4):
            for n in range(-3, 4):
                if (m, n) == (0, 0):
                    continue
                t = fixed_points(params, (m, n)).count
                u = (Fraction(2) ** m * Fraction(3) ** n - 1).numerator
                brute = 0
                for d in range(1, 251):
                    if gcd(d, 6) != 1:
                        continue
                    brute += sum(
                        1 for a in range(d) if gcd(a, d) == 1 and u * a % d == 0
                    )
                assert t <= 250  # the brute-force window sees every divisor
                assert t == brute, (m, n)

    def test_bounded_sample(self):
        params = SystemParams(2, 3)
        fp = fixed_points(params, (1, 1), max_denominator=1)
        assert fp.count == 5
        assert [pt.coord for pt in fp.sample] == [QmodZ(0, 1)]

    def test_identity_rejected(self):
        with pytest.raises(IdentityElement):
            fixed_points(SystemParams(2, 3), (0, 0))
        # dependent parameters can make a nonzero pair act trivially
        with pytest.raises(IdentityElement):
            fixed_points(SystemParams(4, 8), (3, -2))

    def test_limits(self):
        params = SystemParams(2, 3)
        # exponents are refused before any power is computed
        for g in ((10**9, 0), (0, -(10**9)), (MAX_EXPONENT + 1, 1)):
            with pytest.raises(OutOfRange, match=str(MAX_EXPONENT)):
                fixed_points(params, g)
        assert fixed_points(params, (MAX_EXPONENT, 0), max_denominator=1).count > 1
        # an unbounded listing beyond the limit is refused; a bound still
        # gives the exact count
        with pytest.raises(OutOfRange, match=str(MAX_FIXED_LISTING)):
            fixed_points(params, (40, 40))
        fp = fixed_points(params, (40, 40), max_denominator=5)
        assert fp.count == 6**40 - 1
        assert [pt.coord for pt in fp.sample] == [QmodZ(0, 1)] + [QmodZ(a, 5) for a in range(1, 5)]

    def test_denominator_scan_limit(self):
        params = SystemParams(2, 3)
        # count = 2^31 - 1 is prime, so the scan finds only d = 1
        fp = fixed_points(params, (31, 0), max_denominator=MAX_DENOMINATOR_SCAN)
        assert fp.count == 2**31 - 1
        assert [pt.coord for pt in fp.sample] == [QmodZ(0, 1)]
        with pytest.raises(OutOfRange, match=f"max_denominator .* {MAX_DENOMINATOR_SCAN}"):
            fixed_points(params, (31, 0), max_denominator=MAX_DENOMINATOR_SCAN + 1)
        # the scan stops at count, so any bound above a small count is fine
        fp = fixed_points(params, (1, 1), max_denominator=10**12)
        assert [pt.coord for pt in fp.sample] == [QmodZ(0, 1)] + [QmodZ(a, 5) for a in range(1, 5)]
        # a bounded listing beyond the limit is refused too
        with pytest.raises(OutOfRange, match=str(MAX_FIXED_LISTING)):
            fixed_points(params, (40, 40), max_denominator=MAX_DENOMINATOR_SCAN)

    def test_power_bits_limit(self):
        # |m| bit_length(p) + |n| bit_length(q) is checked before p^m q^n is
        # built: 10^4299 has 14281 bits, so m = 10000 asks for 1.4 * 10^8
        for p, q, g in ((10**4299, 3, (MAX_EXPONENT, 0)), (2**64, 3, (MAX_EXPONENT, 7)),
                        (3, 2**20, (2, -MAX_EXPONENT))):
            bits = abs(g[0]) * p.bit_length() + abs(g[1]) * q.bit_length()
            with pytest.raises(OutOfRange, match=f"^.* = {bits} exceeds MAX_POWER_BITS = {MAX_POWER_BITS}$"):
                fixed_points(SystemParams(p, q), g, max_denominator=2)
        # the limit itself is accepted, and so are both exponents at their limit over (2, 3)
        assert fixed_points(SystemParams(2**16 - 1, 3), (4096, 0), max_denominator=1).count > 1
        assert fixed_points(SystemParams(2, 3), (MAX_EXPONENT, MAX_EXPONENT), max_denominator=1).count > 1


class TestLift:
    def test_shift_relation(self):
        params = SystemParams(2, 3)
        seq = lift_sequence(params, SolenoidPoint.of(3, 7), 6)
        assert len(seq) == 7
        assert seq[0] == SolenoidPoint.of(3, 7)
        for i in range(6):
            assert seq[i + 1].coord.mul_int(6) == seq[i].coord
            assert beta_apply(params, (1, 1), seq[i]) == seq[i + 1]

    def test_depth_zero(self):
        params = SystemParams(2, 3)
        x = SolenoidPoint.of(2, 5)
        assert lift_sequence(params, x, 0) == (x,)
        with pytest.raises(OutOfRange):
            lift_sequence(params, x, -1)
        with pytest.raises(OutOfRange, match=f"depth = {MAX_LIFT_DEPTH + 1} .*{MAX_LIFT_DEPTH}"):
            lift_sequence(params, x, MAX_LIFT_DEPTH + 1)

    def test_rejects_bad_denominator(self):
        with pytest.raises(NotCoprime):
            lift_sequence(SystemParams(2, 3), SolenoidPoint.of(1, 4), 3)
