import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    cyclotomic_mismatches,
    dense_cyclotomic_polynomial,
    dense_reducer_mod_cyclotomic,
    naive_order,
    reference_pq_rational,
)
from xpq import (
    Cyclotomic,
    FactorizationTooHard,
    NonInvertible,
    NotCoprime,
    OutOfRange,
    PqRational,
    QmodZ,
    SolenoidPoint,
    SystemParams,
    carmichael,
    cyclotomic_polynomial,
    euler_phi,
    factorize,
    lift_sequence,
    multiplicative_dependence_witness,
    multiplicative_order,
    root_of_unity,
)

from xpq.exact import MAX_CYCLOTOMIC_LEVEL, check_level, twisted_level

qmodz = st.builds(QmodZ, st.integers(-300, 300), st.integers(1, 120))


class TestQmodZ:
    def test_canonical(self):
        assert QmodZ(7, 5) == QmodZ(2, 5)
        assert QmodZ(-1, 5) == QmodZ(4, 5)
        assert QmodZ(2, 4) == QmodZ(1, 2)
        assert QmodZ(5, 5) == QmodZ(0, 1)

    def test_bad_denominator(self):
        with pytest.raises(OutOfRange):
            QmodZ(1, 0)
        with pytest.raises(OutOfRange):
            QmodZ(1, -3)

    def test_parse_and_str(self):
        assert QmodZ.parse("3/7") == QmodZ(3, 7)
        assert QmodZ.parse("5") == QmodZ(0, 1)
        assert str(QmodZ(3, 7)) == "3/7"
        assert QmodZ.parse(str(QmodZ(9, 12))) == QmodZ(9, 12)
        assert QmodZ.parse("-4/5") == QmodZ.parse("6/5") == QmodZ(1, 5)
        # ASCII digits after an optional "-" only; int() alone takes the last five
        for bad in ("x/y", "1/", "--1/5", "1/2/3", "/5", "", "+1/5", "1_0/5", " 1/5", "1/5 ", "١/٥"):
            with pytest.raises(ValueError, match="bad rational"):
                QmodZ.parse(bad)
        for bad in ("1/0", "1/-5"):
            with pytest.raises(OutOfRange):
                QmodZ.parse(bad)

    @given(qmodz, qmodz, qmodz)
    @settings(max_examples=200)
    def test_group_laws(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x + QmodZ(0, 1) == x
        assert x + (-x) == QmodZ(0, 1)
        assert x - y == x + (-y)

    def test_mul(self):
        assert QmodZ(1, 7).mul_int(3) == QmodZ(3, 7)
        # division by pq = 6 on R/Z, as lift_sequence runs it: the class y
        # with 6*y = x, for 6 invertible mod the denominator
        _, y = lift_sequence(SystemParams(2, 3), SolenoidPoint.of(1, 7), 1)
        assert y.coord == QmodZ(6, 7)
        assert y.coord.mul_int(6) == QmodZ(1, 7)
        with pytest.raises(NotCoprime):
            lift_sequence(SystemParams(2, 3), SolenoidPoint.of(1, 4), 1)

    def test_from_fraction(self):
        # a Fraction's class is QmodZ of its numerator and denominator
        for x, want in ((Fraction(7, 3), QmodZ(1, 3)), (Fraction(-1, 4), QmodZ(3, 4))):
            assert QmodZ(x.numerator, x.denominator) == want
            assert want.to_fraction() == x % 1


class TestPqRational:
    def test_canonical_form(self):
        x = PqRational.from_fraction(Fraction(5, 6), 2, 3)
        assert (x.num, x.a, x.b) == (5, 1, 1)
        y = PqRational.from_fraction(Fraction(7, 4), 2, 3)
        assert (y.num, y.a, y.b) == (7, 2, 0)
        z = PqRational(-3, 0, 0)
        assert (z.num, z.a, z.b) == (-3, 0, 0)
        zero = PqRational.from_fraction(0, 2, 3)
        assert zero.num == 0 and (zero.a, zero.b) == (0, 0)
        # a base whose cofactor after trial division passes 2^64
        big = 3**200 + 2
        x = PqRational.canonical(10, big * big * 25, big, 5)
        assert (x.num, x.a, x.b) == (2, 2, 1)

    def test_not_representable(self):
        with pytest.raises(OutOfRange):
            PqRational.from_fraction(Fraction(1, 5), 2, 3)
        with pytest.raises(OutOfRange):
            PqRational.from_fraction(Fraction(1, 3), 2, 5)
        # num/den is reduced first, and the message names the reduced pair
        cases = [
            (3, 14, 4, 6, "3/14 is not an element of Z[1/24]"),
            (6, 28, 4, 6, "3/14 is not an element of Z[1/24]"),
            (1, 9, 4, 8, "1/9 is not an element of Z[1/32]"),
            (1, 5, 2, 3, "1/5 is not an element of Z[1/6]"),
            (7, 98, 12, 18, "1/14 is not an element of Z[1/216]"),
            (-9, 84, 6, 10, "-3/28 is not an element of Z[1/60]"),
        ]
        for num, den, p, q, text in cases:
            assert reference_pq_rational(Fraction(num, den), p, q) is None
            with pytest.raises(OutOfRange) as err:
                PqRational.canonical(num, den, p, q)
            assert str(err.value) == text

    def test_shared_base_factor(self):
        # p = 4 and q = 8 overlap in the prime 2; q-powers are only spent
        # on primes p does not cover, so here b stays 0 and a does the work
        x = PqRational.from_fraction(Fraction(1, 32), 4, 8)
        assert (x.num, x.a, x.b) == (2, 3, 0)
        y = PqRational.from_fraction(Fraction(1, 8), 4, 8)
        assert (y.num, y.a, y.b) == (2, 2, 0)
        z = PqRational.from_fraction(Fraction(1, 4), 4, 8)
        assert (z.num, z.a, z.b) == (1, 1, 0)
        w = PqRational.from_fraction(Fraction(1, 6), 6, 10)
        assert (w.num, w.a, w.b) == (1, 1, 0)
        v = PqRational.from_fraction(Fraction(1, 5), 6, 10)
        assert (v.num, v.a, v.b) == (2, 0, 1)
        with pytest.raises(OutOfRange):
            PqRational.from_fraction(Fraction(1, 7), 4, 8)

    def test_round_trip(self):
        rng = random.Random(7)
        for p, q in ((2, 3), (3, 5), (4, 8), (6, 10)):
            for _ in range(200):
                f = Fraction(rng.randint(-500, 500), p ** rng.randint(0, 4) * q ** rng.randint(0, 4))
                x = PqRational.from_fraction(f, p, q)
                assert x.to_fraction(p, q) == f
                # numerator keeps no removable p- or q-factor
                if x.num and (x.a or x.b):
                    re_reduced = PqRational.from_fraction(x.to_fraction(p, q), p, q)
                    assert (re_reduced.num, re_reduced.a, re_reduced.b) == (x.num, x.a, x.b)

    @pytest.mark.parametrize("p, q", [(2, 3), (3, 5), (6, 10), (4, 6), (12, 18), (10, 15), (2, 4)])
    def test_canonical_against_valuations(self, p, q):
        rng = random.Random(f"canonical:{p}:{q}")
        for _ in range(400):
            num = rng.randint(-500, 500)
            den = p ** rng.randint(0, 4) * q ** rng.randint(0, 4)
            x = PqRational.canonical(num, den, p, q)
            assert (x.num, x.a, x.b) == reference_pq_rational(Fraction(num, den), p, q), (num, den)
            assert PqRational.from_fraction(Fraction(num, den), p, q) == x


class TestFactorization:
    def test_small_vs_trial_division(self):
        for n in range(1, 2000):
            pairs = dict(factorize(n))
            m, want = n, {}
            f = 2
            while f * f <= m:
                while m % f == 0:
                    want[f] = want.get(f, 0) + 1
                    m //= f
                f += 1
            if m > 1:
                want[m] = want.get(m, 0) + 1
            assert pairs == want, n

    def test_reassembles(self):
        for n in (2**40, 3**5 * 7**3 * 11, 999983, 2**31 - 1):
            prod = 1
            for p, e in factorize(n):
                prod *= p**e
            assert prod == n

    def test_large_semiprime(self):
        p1, p2 = 2147483647, 2147483659  # both prime, product near 2^62
        assert [p for p, _ in factorize(p1 * p2)] == [p1, p2]

    def test_too_hard(self):
        with pytest.raises(FactorizationTooHard):
            factorize(2**89 - 1)  # prime, but beyond the certified range
        with pytest.raises(FactorizationTooHard):
            factorize(2**67 - 1)
        with pytest.raises(FactorizationTooHard):  # a refusal is not cached
            factorize(2**67 - 1)

    def test_cached_pairs(self):
        # one shared tuple of (prime, exponent) pairs per n, in a bounded cache
        pairs = factorize(2**3 * 3**2 * 5 * 65537)
        assert pairs == ((2, 3), (3, 2), (5, 1), (65537, 1)) and type(pairs) is tuple
        assert factorize(2**3 * 3**2 * 5 * 65537) is pairs
        assert factorize.cache_info().maxsize == 4096

    def test_divisors_phi(self):
        # the divisors of n are the products of p^k, k <= e, over the pairs
        # (p, e) of its factorization
        for n in range(1, 300):
            ds = [1]
            for p, e in factorize(n):
                ds = [d * p**k for d in ds for k in range(e + 1)]
            assert sorted(ds) == [d for d in range(1, n + 1) if n % d == 0]
            assert euler_phi(n) == sum(1 for a in range(n) if gcd(a, n) == 1)

    def test_carmichael(self):
        for n in range(1, 150):
            units = [a for a in range(1, n + 1) if gcd(a, n) == 1]
            lam = 1
            for a in units:
                if n > 1:
                    lam = lam * naive_order(a, n) // gcd(lam, naive_order(a, n))
            assert carmichael(n) == (lam if n > 1 else 1)


class TestMultiplicativeOrder:
    def test_vs_naive(self):
        rng = random.Random(5)
        for _ in range(300):
            r = rng.randint(2, 1000)
            base = rng.randint(2, 50)
            if gcd(base, r) != 1:
                continue
            assert multiplicative_order(base, r) == naive_order(base, r)

    def test_worked(self):
        assert multiplicative_order(2, 5) == 4
        assert multiplicative_order(3, 7) == 6
        assert multiplicative_order(10, 7) == 6

    def test_not_coprime(self):
        with pytest.raises(NonInvertible):
            multiplicative_order(2, 6)


class TestDependence:
    def test_exhaustive_small(self):
        # oracle: p^r = q^s for some 1 <= r <= 40 iff a power collision
        for p in range(2, 65):
            for q in range(2, 65):
                qpowers = {}
                v = q
                for s in range(1, 241):
                    qpowers[v] = s
                    v *= q
                hit = None
                v = p
                for r in range(1, 41):
                    if v in qpowers:
                        hit = (r, qpowers[v])
                        break
                    v *= p
                witness = multiplicative_dependence_witness(p, q)
                assert SystemParams(p, q).mult_indep == (witness is None)
                if hit is None:
                    assert witness is None, (p, q)
                else:
                    assert witness is not None, (p, q)
                    r, s = witness
                    assert p**r == q**s
                    assert (r, s) == hit  # minimal exponents

    def test_worked(self):
        assert multiplicative_dependence_witness(4, 8) == (3, 2)
        assert multiplicative_dependence_witness(8, 4) == (2, 3)
        assert multiplicative_dependence_witness(2, 2) == (1, 1)
        assert multiplicative_dependence_witness(27, 9) == (2, 3)
        assert multiplicative_dependence_witness(2, 3) is None
        assert multiplicative_dependence_witness(12, 18) is None
        assert multiplicative_dependence_witness(6**35, 6**21) == (3, 5)
        assert multiplicative_dependence_witness(10**50, 10**75) == (3, 2)
        # trial division leaves a cofactor past 2^64 here
        assert multiplicative_dependence_witness(3**200 + 2, 5) is None
        assert multiplicative_dependence_witness((3**200 + 2) ** 2, (3**200 + 2) ** 3) == (3, 2)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            multiplicative_dependence_witness(1, 8)


class TestCyclotomicPolynomials:
    def test_known(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)

    def test_product_identity(self):
        # prod over d | N of Phi_d(x) = x^N - 1
        for n in range(1, 101):
            prod = [1]
            for d in [k for k in range(1, n + 1) if n % k == 0]:
                phi = cyclotomic_polynomial(d)
                nxt = [0] * (len(prod) + len(phi) - 1)
                for i, ci in enumerate(prod):
                    for j, cj in enumerate(phi):
                        nxt[i + j] += ci * cj
                prod = nxt
            want = [-1] + [0] * (n - 1) + [1]
            assert prod == want, n

    def test_dense_reference(self):
        for n in list(range(1, 301)) + [360, 420, 840, 1155, 2310]:
            assert cyclotomic_polynomial(n) == dense_cyclotomic_polynomial(n), n

    def test_sympy_reference(self):
        sympy = pytest.importorskip("sympy")
        # sympy takes about 30 s for every n up to 3000, so above 500 a
        # seeded sample and the levels with the most prime factors
        rng = random.Random(3000)
        levels = list(range(1, 501)) + rng.sample(range(501, 3001), 40) + [840, 1155, 2310, 2520, 2730]
        for n in levels:
            want = sympy.cyclotomic_poly(n, polys=True).all_coeffs()[::-1]
            assert cyclotomic_polynomial(n) == tuple(int(c) for c in want), n

    def test_reduction_vs_dense(self):
        # every length from 1 to 2 phi(n) + 1, at a prime, a prime power and
        # composite levels with up to five primes
        rng = random.Random(60)
        for n in (1, 2, 97, 243, 60, 840, 1155, 2310):
            reduce = dense_reducer_mod_cyclotomic(n, 2 * euler_phi(n) + 1)
            for length in range(1, 2 * euler_phi(n) + 2):
                vec = [rng.randint(-9, 9) for _ in range(length)]
                got = Cyclotomic(n, vec)  # den 1 leaves the remainder as it is
                assert [c.numerator for c in got.coeffs] == reduce(vec), (n, length)
                assert not got.vec or got.vec[-1], (n, length)

    def test_level_limit(self):
        check_level(MAX_CYCLOTOMIC_LEVEL)
        for bad in (0, MAX_CYCLOTOMIC_LEVEL + 1):
            with pytest.raises(OutOfRange, match=f"cyclotomic level = {bad} .* {MAX_CYCLOTOMIC_LEVEL}"):
                cyclotomic_polynomial(bad)

    def test_degree_and_large_coefficient(self):
        for n in (12, 36, 100):
            assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1
        # first index with a coefficient of magnitude 2
        assert min(cyclotomic_polynomial(105)) == -2


class TestCyclotomic:
    def test_level_limit(self):
        # each is refused before a vector of the level's length is built:
        # without the check the first three would allocate 80 MB and the
        # sum, whose lcm level 1009 * 1013 is above the limit, 8 MB
        for build in (
            lambda: root_of_unity(QmodZ(10**7, 10**7 + 19)),
            lambda: Cyclotomic(10**9 + 7, [1]),
            lambda: root_of_unity(QmodZ(1, 3)).lifted(3 * 10**7),
            lambda: root_of_unity(QmodZ(1, 1009)) + root_of_unity(QmodZ(1, 1013)),
        ):
            tracemalloc.start()
            try:
                with pytest.raises(OutOfRange, match=rf"cyclotomic level = \d+ out of range; expected 1 <= "
                                                     rf"cyclotomic level <= {MAX_CYCLOTOMIC_LEVEL}$"):
                    build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 10**6

    def test_against_dense_reference(self):
        # zero, rational, random and top-cancelling values at every level up
        # to 60 and at a prime, a prime power and a level with four primes
        assert cyclotomic_mismatches(sorted({*range(1, 61), 97, 243, 840})) == []

    def test_roots_of_unity(self):
        assert root_of_unity(QmodZ(0, 1)) == Cyclotomic.one()
        assert root_of_unity(QmodZ(1, 2)) == Cyclotomic.from_fraction(-1)
        z6 = root_of_unity(QmodZ(1, 6))
        z3 = root_of_unity(QmodZ(1, 3))
        assert z6 * z6 == z3  # equality across levels
        assert z6**6 == Cyclotomic.one()
        z2 = root_of_unity(QmodZ(1, 2))
        assert z2 * z3 == root_of_unity(QmodZ(5, 6))

    def test_twisted_level_is_the_product_level(self):
        # rational values at levels 1 and 23, irrational ones at 4, 23 and 46
        values = [Cyclotomic.from_fraction(Fraction(-2, 3)), Cyclotomic(23, [5]), root_of_unity(QmodZ(1, 4)),
                  root_of_unity(QmodZ(3, 23)), Cyclotomic(46, [1, 0, 2], 7)]
        levels = set()
        for d in (2, 3, 4, 6, 12, 23):
            for t in (QmodZ(i, d) for i in range(1, d) if gcd(i, d) == 1):
                for c in values:
                    level = twisted_level(d, c)
                    assert level == (root_of_unity(t) * c).level
                    levels.add(level)
        assert {2, 3, 4, 12, 23, 46, 69, 92, 138} <= levels

    def test_vanishing_sums(self):
        for n in (2, 3, 5, 6, 12):
            total = Cyclotomic.zero()
            for j in range(n):
                total = total + root_of_unity(QmodZ(j, n))
            assert total.is_zero(), n

    def test_rational_detection(self):
        s = Cyclotomic.zero()
        for j in range(1, 5):
            s = s + root_of_unity(QmodZ(j, 5))
        assert s.is_rational()
        assert s.to_fraction() == Fraction(-1)
        assert s == Cyclotomic.from_fraction(-1)
        z5 = root_of_unity(QmodZ(1, 5))
        assert not z5.is_rational()
        with pytest.raises(ValueError):
            z5.to_fraction()

    def test_conjugation(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.choice((3, 4, 5, 6, 8, 12))
            x = Cyclotomic.zero()
            for _ in range(3):
                x = x + root_of_unity(QmodZ(rng.randrange(n), n)).scaled(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                )
            y = x.conj()
            assert y.conj() == x
            norm = (x * y).approx()
            assert norm.imag == pytest.approx(0, abs=1e-12)
            assert norm.real >= -1e-12

    def test_approx(self):
        import cmath

        for n in (3, 7, 12):
            for j in range(n):
                want = cmath.exp(2j * cmath.pi * j / n)
                assert abs(root_of_unity(QmodZ(j, n)).approx() - want) < 1e-12

    def test_approx_past_the_float_range_of_den(self):
        # den or a coordinate beyond 2^1024 while the value is a float: each
        # coordinate is divided by den exactly; a nonzero value that rounds
        # to 0.0, or a quotient past the range, still raises OverflowError
        assert Cyclotomic.from_fraction(Fraction(1, 10**310)).approx() == 1e-310
        assert Cyclotomic.from_fraction(1 + Fraction(1, 10**400)).approx() == 1.0
        z = root_of_unity(QmodZ(1, 4)).scaled(Fraction(10**400 - 1, 10**400))
        assert abs(z.approx() - 1j) < 1e-12
        for value in (Fraction(1, 10**400), Fraction(10**400, 3)):
            with pytest.raises(OverflowError):
                Cyclotomic.from_fraction(value).approx()

    def test_ring_laws(self):
        rng = random.Random(3)

        def rand_cyclo():
            n = rng.choice((2, 3, 4, 6, 8, 12))
            x = Cyclotomic.zero()
            for _ in range(2):
                x = x + root_of_unity(QmodZ(rng.randrange(n), n)).scaled(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                )
            return x

        for _ in range(120):
            x, y, z = rand_cyclo(), rand_cyclo(), rand_cyclo()
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert (x - x).is_zero()
            assert x * Cyclotomic.one() == x

    def test_powers_and_scaling(self):
        z = root_of_unity(QmodZ(1, 7))
        acc = Cyclotomic.one()
        for k in range(10):
            assert z**k == acc
            acc = acc * z
        assert (z.scaled(2) - z.scaled(2)).is_zero()
        v = Cyclotomic(12, [3, -1, 0, 5], 7)
        for one in (1, Fraction(1), Fraction(2, 2)):
            assert v.scaled(one) == v
            assert v.scaled(one).level == 12
        assert v.scaled(Fraction(-7, 3)) == Cyclotomic(12, [-3, 1, 0, -5], 3)
        with pytest.raises(ValueError):
            z ** (-1)

    def test_unhashable(self):
        z = root_of_unity(QmodZ(1, 5))
        with pytest.raises(TypeError):
            hash(z)
        with pytest.raises(TypeError):
            {z}

    def test_float_refused(self):
        with pytest.raises(TypeError, match="0.1"):
            Cyclotomic.from_fraction(0.1)
        with pytest.raises(TypeError, match="0.5"):
            Cyclotomic.one().scaled(0.5)
        with pytest.raises(TypeError, match="1.0"):
            Cyclotomic.one().scaled(1.0)
        assert Cyclotomic.from_fraction(Fraction(1, 10)).to_fraction() == Fraction(1, 10)
