import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from helpers import (
    algebra_mismatches,
    random_algebra_element,
    random_group_element,
    reference_pq_rational,
    reference_product,
    reference_scaled,
    reference_star,
    reference_sum,
)
from xpq import (
    DependentParams,
    GroupAlgebraElement,
    GroupElement,
    IdentityElement,
    ParamsMismatch,
    PqRational,
    SystemParams,
    alpha_apply,
    group_inv,
    group_mul,
    icc_witness,
)

from xpq.errors import OutOfRange
from xpq.groupalg import MAX_CONJUGATES

P23 = SystemParams(2, 3)


def elem(num, a, b, m, n) -> GroupElement:
    return GroupElement(PqRational(num, a, b), m, n)


class TestGroupLaw:
    def test_identity(self):
        e = GroupElement.identity()
        assert e.is_identity()
        assert (e.x.num, e.x.a, e.x.b, e.m, e.n) == (0, 0, 0, 0, 0)
        assert not elem(1, 0, 0, 0, 0).is_identity()

    def test_noncommutative_worked(self):
        g = elem(1, 0, 0, 0, 0)  # pure translation by 1
        h = elem(0, 0, 0, 1, 0)  # pure (1, 0) scaling
        gh = group_mul(P23, g, h)
        hg = group_mul(P23, h, g)
        assert gh == elem(1, 0, 0, 1, 0)
        assert hg == elem(2, 0, 0, 1, 0)  # h scales the translation by p
        assert gh != hg

    def test_axioms_seeded(self):
        rng = random.Random(17)
        for _ in range(2000):
            g = random_group_element(rng, P23)
            h = random_group_element(rng, P23)
            k = random_group_element(rng, P23)
            assert group_mul(P23, group_mul(P23, g, h), k) == group_mul(
                P23, g, group_mul(P23, h, k)
            )
            e = GroupElement.identity()
            assert group_mul(P23, g, e) == g
            assert group_mul(P23, e, g) == g
            assert group_mul(P23, g, group_inv(P23, g)) == e
            assert group_mul(P23, group_inv(P23, g), g) == e
            assert group_inv(P23, group_mul(P23, g, h)) == group_mul(
                P23, group_inv(P23, h), group_inv(P23, g)
            )

    def test_alpha_matches_semidirect_structure(self):
        rng = random.Random(18)
        for _ in range(300):
            x = random_group_element(rng, P23).x
            m, n = rng.randint(-3, 3), rng.randint(-3, 3)
            y = alpha_apply(P23, (m, n), x)
            assert y.to_fraction(2, 3) == x.to_fraction(2, 3) * Fraction(
                2
            ) ** m * Fraction(3) ** n

    @pytest.mark.parametrize("p, q", [(2, 3), (3, 5), (6, 10), (4, 6), (12, 18), (10, 15), (2, 4)])
    def test_against_fraction_formula(self, p, q):
        params = SystemParams(p, q)
        rng = random.Random(f"group:{p}:{q}")

        def value(x):
            return Fraction(x.num, p**x.a * q**x.b)

        def scale(m, n):
            return Fraction(p) ** m * Fraction(q) ** n

        e = GroupElement.identity()
        for _ in range(300):
            g = random_group_element(rng, params)
            h = random_group_element(rng, params)
            gh = group_mul(params, g, h)
            want = reference_pq_rational(value(g.x) + scale(g.m, g.n) * value(h.x), p, q)
            assert ((gh.x.num, gh.x.a, gh.x.b), gh.m, gh.n) == (want, g.m + h.m, g.n + h.n)
            inv = group_inv(params, g)
            want = reference_pq_rational(-value(g.x) * scale(-g.m, -g.n), p, q)
            assert ((inv.x.num, inv.x.a, inv.x.b), inv.m, inv.n) == (want, -g.m, -g.n)
            assert group_mul(params, g, inv) == e
            assert group_mul(params, inv, g) == e
            y = alpha_apply(params, (h.m, h.n), g.x)
            assert (y.num, y.a, y.b) == reference_pq_rational(value(g.x) * scale(h.m, h.n), p, q)

    def test_conjugation_closed_forms(self):
        # conjugating a translation by a scaling multiplies the offset
        g = elem(1, 0, 0, 0, 0)
        for k in range(-3, 4):
            h = elem(0, 0, 0, k, 0)
            got = group_mul(P23, group_mul(P23, h, g), group_inv(P23, h))
            want_x = PqRational.from_fraction(Fraction(2) ** k, 2, 3)
            assert got == GroupElement(want_x, 0, 0)
        # conjugating a scaling by a translation shears the offset
        g = elem(0, 0, 0, 1, 1)
        for k in range(-3, 4):
            h = elem(k, 0, 0, 0, 0)
            got = group_mul(P23, group_mul(P23, h, g), group_inv(P23, h))
            want_x = PqRational.from_fraction(k * (1 - Fraction(6)), 2, 3)
            assert got == GroupElement(want_x, 1, 1)

    def test_conjugated_is_group_sandwich(self):
        rng = random.Random(19)
        for _ in range(500):
            g = random_group_element(rng, P23)
            h = random_group_element(rng, P23)
            sandwich = group_mul(P23, group_mul(P23, h, g), group_inv(P23, h))
            assert group_mul(P23, sandwich, h) == group_mul(P23, h, g)


class TestIccWitness:
    def test_distinct_conjugates(self):
        rng = random.Random(23)
        for _ in range(60):
            g = random_group_element(rng, P23)
            if g.is_identity():
                continue
            conjs = icc_witness(P23, g, 25)
            assert len(conjs) == 25
            assert GroupElement.identity() not in conjs
            assert len(set(conjs)) == 25
            # every listed element really is a conjugate of g
            assert all(c.m == g.m and c.n == g.n for c in conjs)

    def test_count_limit(self):
        g = elem(1, 0, 0, 1, 0)
        assert len(set(icc_witness(P23, g, MAX_CONJUGATES))) == MAX_CONJUGATES
        for bad in (-1, MAX_CONJUGATES + 1):
            with pytest.raises(OutOfRange, match=f"count = {bad} .* {MAX_CONJUGATES}"):
                icc_witness(P23, g, bad)

    def test_unprintable_count_refused(self):
        # conjugate k of x = 1 has 100 k + 1 digits for p = 10^100 + 1, so
        # 43 is the first past the 4300 Python prints; x = 0 with p^-44 is
        # past it at k = 1
        params = SystemParams(10**100 + 1, 3)
        digits = sys.get_int_max_str_digits()
        for g, count in ((elem(1, 0, 0, 1, 0), 43), (elem(0, 0, 0, -44, 0), 1)):
            with pytest.raises(OutOfRange, match=f"count = {count}: .* {digits} .*get_int_max_str_digits"):
                icc_witness(params, g, count)
        found = icc_witness(params, elem(1, 0, 0, 1, 0), 42)
        assert len(str(found[-1].x.num)) == 4201

    def test_identity_rejected(self):
        with pytest.raises(IdentityElement):
            icc_witness(P23, GroupElement.identity(), 5)

    def test_dependent_params_rejected(self):
        params = SystemParams(4, 8)
        # 4^3 = 8^2, so (3, -2) scales trivially and commutes with everything
        with pytest.raises(DependentParams):
            icc_witness(params, elem(0, 0, 0, 3, -2), 5)

    def test_dependent_params_translation_still_works(self):
        # translations have infinite conjugacy classes even for dependent p, q
        params = SystemParams(4, 8)
        conjs = icc_witness(params, elem(1, 0, 0, 0, 0), 10)
        assert len(set(conjs)) == 10


class TestAlgebra:
    def test_from_terms_merges_and_sorts(self):
        g = elem(1, 0, 0, 0, 0)
        h = elem(0, 0, 0, 1, 0)
        a = GroupAlgebraElement.from_terms(
            P23, [(h, Fraction(1)), (g, Fraction(1, 2)), (h, Fraction(-1))]
        )
        assert a.support_size() == 1
        assert a.coefficient(g) == Fraction(1, 2)
        assert a.coefficient(h) == 0

    @pytest.mark.parametrize("where", ["absent", "first", "last"])
    def test_coefficient_matches_a_linear_scan(self, where):
        # the identity, sort key (0, 0, 0, 0, 0), absent between terms below
        # and above it, or first or last with every other key above or below
        e = GroupElement.identity()
        below = [elem(-3, 0, 0, 0, 0), elem(0, 0, 0, 0, -1), elem(-1, 2, 0, 1, 1)]
        above = [elem(1, 0, 0, 0, 0), elem(0, 0, 0, 2, 0), elem(5, 1, 1, -1, 2)]
        others = {"absent": below + above, "first": above, "last": below}[where]
        terms = [(g, Fraction(k, 3)) for k, g in enumerate(others, 1)]
        if where != "absent":
            terms.append((e, Fraction(-7, 2)))
        a = GroupAlgebraElement.from_terms(P23, terms)
        row = e.row  # nums holds each element as its row
        assert (a.nums[0][0] == row, a.nums[-1][0] == row) == (where == "first", where == "last")
        probes = [e, *others, elem(2, 0, 0, 0, 0), elem(-5, 0, 0, 0, 0), elem(0, 0, 0, 0, 1)]
        for g in probes:
            assert a.coefficient(g) == next((c for h, c in a.terms if h == g), 0)
        assert GroupAlgebraElement.zero(P23).coefficient(e) == 0

    def test_unit_and_zero(self):
        e = GroupAlgebraElement.unit(P23, GroupElement.identity())
        z = GroupAlgebraElement.zero(P23)
        assert e.support_size() == 1 and z.support_size() == 0
        assert e * e == e
        assert e + z == e
        assert z * e == z

    def test_ring_laws_seeded(self):
        rng = random.Random(29)
        for _ in range(120):
            a = random_algebra_element(rng, P23)
            b = random_algebra_element(rng, P23)
            c = random_algebra_element(rng, P23)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert (a + b) * c == a * c + b * c
            assert a - a == GroupAlgebraElement.zero(P23)
            assert a.scaled(Fraction(2, 3)).scaled(Fraction(3, 2)) == a

    def test_product_against_naive_terms(self):
        # supports from three translations, which commute, and one scaling,
        # with coefficients +-1, so some products cancel to zero
        rng = random.Random(41)
        pool = [elem(k, 0, 0, 0, 0) for k in (-1, 0, 1)] + [elem(0, 0, 0, 1, 0)]
        cancelled = 0
        for _ in range(300):
            a, b = (
                GroupAlgebraElement.from_terms(
                    P23, [(rng.choice(pool), rng.choice((-1, 1))) for _ in range(rng.randint(0, 4))]
                )
                for _ in range(2)
            )
            naive = [(group_mul(P23, g, h), c * d) for g, c in a.terms for h, d in b.terms]
            prod = a * b
            assert prod == GroupAlgebraElement.from_terms(P23, naive)
            keys = [g.row for g, _ in prod.terms]
            assert keys == sorted(keys) and len(set(keys)) == len(keys)
            assert all(isinstance(c, Fraction) and c != 0 for _, c in prod.terms)
            cancelled += len({g for g, _ in naive}) > prod.support_size()
        assert cancelled > 0
        # (1 + u_g)(1 - u_g) = 1 - u_g^2: the u_g terms cancel
        g = elem(1, 1, 0, 0, -1)
        one = GroupAlgebraElement.unit(P23, GroupElement.identity())
        ug = GroupAlgebraElement.unit(P23, g)
        assert (one + ug) * (one - ug) == one - GroupAlgebraElement.unit(P23, group_mul(P23, g, g))

    def test_unit_multiplication_is_group_law(self):
        rng = random.Random(31)
        for _ in range(200):
            g = random_group_element(rng, P23)
            h = random_group_element(rng, P23)
            ug = GroupAlgebraElement.unit(P23, g)
            uh = GroupAlgebraElement.unit(P23, h)
            assert ug * uh == GroupAlgebraElement.unit(P23, group_mul(P23, g, h))

    def test_star(self):
        rng = random.Random(37)
        for _ in range(150):
            a = random_algebra_element(rng, P23)
            b = random_algebra_element(rng, P23)
            assert a.star().star() == a
            assert (a * b).star() == b.star() * a.star()
            assert (a + b).star() == a.star() + b.star()
        g = elem(1, 1, 0, 2, -1)
        assert GroupAlgebraElement.unit(P23, g).star() == GroupAlgebraElement.unit(
            P23, group_inv(P23, g)
        )

    def test_scalar_multiplication(self):
        a = GroupAlgebraElement.unit(P23, elem(1, 0, 0, 0, 0))
        assert a.scaled(0) == GroupAlgebraElement.zero(P23)
        assert (a.scaled(Fraction(1, 2)) + a.scaled(Fraction(1, 2))) == a

    def test_params_mismatch(self):
        a = GroupAlgebraElement.unit(P23, GroupElement.identity())
        b = GroupAlgebraElement.unit(SystemParams(2, 5), GroupElement.identity())
        with pytest.raises(ParamsMismatch):
            a + b
        with pytest.raises(ParamsMismatch):
            a * b


class TestProductAgainstReference:
    """The integer product loop against the Fraction loop over group_mul,
    compared term by term (same elements, same coefficients, same order)."""

    @pytest.mark.parametrize("p, q", [(2, 3), (5, 7), (4, 6)])
    def test_seeded_products(self, p, q):
        params = SystemParams(p, q)
        rng = random.Random(1000 * p + q)
        negative = 0
        for _ in range(120):
            a = random_algebra_element(rng, params, support=6)
            b = random_algebra_element(rng, params, support=6)
            for x, y in ((a, b), (b, a), (a.star(), a)):
                assert (x * y).terms == reference_product(x, y).terms
            negative += any(g.m < 0 or g.n < 0 for g, _ in a.terms)
        assert negative > 0

    @pytest.mark.parametrize("p, q", [(2, 3), (5, 7), (4, 6)])
    def test_cancelling_products(self, p, q):
        # translations by -1, 0, 1, 1/p, a scaling and its inverse, with
        # coefficients +-1 and +-1/2, so many pair sums cancel to zero
        params = SystemParams(p, q)
        xs = [PqRational.from_fraction(Fraction(k), p, q) for k in (-1, 0, 1)]
        pool = [GroupElement(x, 0, 0) for x in xs]
        pool += [GroupElement(PqRational.from_fraction(Fraction(1, p), p, q), 0, 0)]
        pool += [GroupElement(xs[1], 1, -1), GroupElement(xs[2], -1, 1)]
        rng = random.Random(7 * p + q)
        cancelled = 0
        for _ in range(300):
            a, b = (
                GroupAlgebraElement.from_terms(params, [
                    (rng.choice(pool), rng.choice((-1, 1, Fraction(1, 2), Fraction(-1, 2))))
                    for _ in range(rng.randint(0, 5))
                ])
                for _ in range(2)
            )
            prod = a * b
            assert prod.terms == reference_product(a, b).terms
            products = {group_mul(params, g, h) for g, _ in a.terms for h, _ in b.terms}
            cancelled += len(products) > prod.support_size()
        assert cancelled > 0


def assert_normal_form(a: GroupAlgebraElement) -> None:
    # the stored form: den >= 1, numerators nonzero and coprime to den as a
    # whole, rows (num, a, b, m, n) of ints, strictly increasing, each the
    # row of its group element
    assert a.den >= 1 and gcd(a.den, *(k for _, k in a.nums)) == 1
    assert all(isinstance(k, int) and k for _, k in a.nums)
    rows = [row for row, _ in a.nums]
    assert all(s < t for s, t in zip(rows, rows[1:]))
    assert all(len(row) == 5 and all(type(v) is int for v in row) for row in rows)
    assert rows == [g.row for g, _ in a.terms]


PAIRS = [(2, 3), (5, 7), (4, 6), (6, 10), (2, 4)]


def wide_element(rng: random.Random, params: SystemParams, support: int) -> GroupAlgebraElement:
    # ring parts over p^a q^b with a up to 5 (more for shared primes once
    # canonical), m and n of both signs
    p, q = params.p, params.q
    terms = []
    for _ in range(rng.randint(1, support)):
        den = p ** rng.randint(0, 5) * q ** rng.randint(0, 2)
        x = PqRational.canonical(rng.randint(-40, 40), den, p, q)
        g = GroupElement(x, rng.randint(-3, 3), rng.randint(-3, 3))
        terms.append((g, Fraction(rng.randint(-6, 6), rng.randint(1, 6))))
    return GroupAlgebraElement.from_terms(params, terms)


def with_overlap(rng: random.Random, a: GroupAlgebraElement, b: GroupAlgebraElement):
    # b plus, for a random half of a's terms, a multiple of -c_g u_g, so
    # that a + b cancels some terms and shifts others
    extra = [(g, -c * rng.choice((1, 1, 2, Fraction(1, 3)))) for g, c in a.terms if rng.random() < 0.5]
    return b + GroupAlgebraElement.from_terms(a.params, extra)


class TestAlgebraAgainstReference:
    """+, -, scaled, star and negation against the Fraction loops in
    helpers, compared term by term, with the stored form checked."""

    @pytest.mark.parametrize("p, q", PAIRS)
    def test_sum_difference_negation(self, p, q):
        params = SystemParams(p, q)
        rng = random.Random(100 * p + q)
        cancelled = widest = negative = 0
        for _ in range(150):
            a = wide_element(rng, params, 6)
            b = with_overlap(rng, a, wide_element(rng, params, 6))
            total = a + b
            assert total.terms == reference_sum(a, b).terms
            assert (a - b).terms == reference_sum(a, reference_scaled(b, -1)).terms
            assert (-a).terms == reference_scaled(a, -1).terms
            for x in (total, a - b, -a, b):
                assert_normal_form(x)
            back = total - b
            assert back == a and hash(back) == hash(a)
            assert (a - a) == GroupAlgebraElement.zero(params)
            cancelled += total.support_size() < len({g for g, _ in a.terms + b.terms})
            widest = max([widest] + [g.x.a for g, _ in a.terms])
            negative += any(g.m < 0 and g.n < 0 for g, _ in a.terms)
        assert cancelled > 0 and negative > 0
        assert widest >= 5

    @pytest.mark.parametrize("p, q", PAIRS)
    def test_scaled(self, p, q):
        params = SystemParams(p, q)
        rng = random.Random(200 * p + q)
        for _ in range(150):
            a = wide_element(rng, params, 6)
            for c in (0, 1, -1, 3, Fraction(-2, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9))):
                s = a.scaled(c)
                assert s.terms == reference_scaled(a, c).terms
                assert_normal_form(s)
                assert (a * c).terms == (c * a).terms == s.terms
            back = a.scaled(3).scaled(Fraction(1, 3))
            assert back == a and hash(back) == hash(a)

    @pytest.mark.parametrize("p, q", PAIRS)
    def test_star(self, p, q):
        params = SystemParams(p, q)
        rng = random.Random(300 * p + q)
        for _ in range(150):
            a = wide_element(rng, params, 6)
            s = a.star()
            assert s.terms == reference_star(a).terms
            assert_normal_form(s)
            back = s.star()
            assert back == a and hash(back) == hash(a)

    @pytest.mark.parametrize("p, q", PAIRS)
    def test_products_in_normal_form(self, p, q):
        params = SystemParams(p, q)
        rng = random.Random(400 * p + q)
        for _ in range(60):
            a = wide_element(rng, params, 5)
            b = with_overlap(rng, a, wide_element(rng, params, 5))
            prod = a.star() * b
            assert prod.terms == reference_product(a.star(), b).terms
            assert_normal_form(prod)


class TestRowForm:
    """The stored rows (num, a, b, m, n) against the GroupElement and
    Fraction objects that from_terms takes in and terms hands out."""

    @pytest.mark.parametrize("p, q", PAIRS)
    def test_rows_round_trip_through_terms(self, p, q):
        params = SystemParams(p, q)
        rng = random.Random(500 * p + q)
        for _ in range(60):
            a = wide_element(rng, params, 6)
            b = with_overlap(rng, a, wide_element(rng, params, 6))
            for x in (a, a.star(), a * b):
                assert GroupAlgebraElement.from_terms(params, x.terms) == x
                terms = x.terms
                assert all(type(g) is GroupElement and type(g.x) is PqRational for g, _ in terms)
                assert all(type(c) is Fraction and c != 0 for _, c in terms)
                keys = [g.row for g, _ in terms]
                assert keys == sorted(keys) == [row for row, _ in x.nums]
                assert [c for _, c in terms] == [Fraction(k, x.den) for _, k in x.nums]

    def test_group_element_is_its_row(self):
        # the record holds one field, the row; x, m and n read back as given
        # and keyword construction builds the same row
        x = PqRational(-5, 2, 1)
        g = GroupElement(x, 3, -2)
        assert (g.x, g.m, g.n) == (x, 3, -2) and type(g.x) is PqRational
        assert g.row == (-5, 2, 1, 3, -2)
        assert GroupElement(x=x, n=-2, m=3) == GroupElement(x, m=3, n=-2) == g
        assert hash(GroupElement(x, 3, -2)) == hash(g) == hash((g.row,))
        assert g != GroupElement(x, -2, 3) and g.__eq__(g.row) is NotImplemented
        assert GroupElement.identity() == GroupElement(PqRational(0, 0, 0), 0, 0)
        for name in ("x", "m", "n"):  # read-only views of the row
            with pytest.raises(AttributeError):
                setattr(g, name, 0)
        a = GroupAlgebraElement.from_terms(P23, [(g, 2), (GroupElement.identity(), Fraction(-1, 3))])
        assert GroupAlgebraElement.from_terms(P23, a.terms) == a

    @pytest.mark.parametrize("p, q", PAIRS)
    def test_terms_wrap_the_stored_rows(self, p, q):
        # terms hands out each stored row tuple itself, and the wrapped
        # elements equal those built through the constructor
        params = SystemParams(p, q)
        rng = random.Random(800 * p + q)
        for _ in range(30):
            a = wide_element(rng, params, 6)
            for x in (a, a.star() * a):
                for (g, _), (row, _) in zip(x.terms, x.nums):
                    assert g.row is row
                    assert g == GroupElement(g.x, g.m, g.n) and hash(g) == hash(GroupElement(g.x, g.m, g.n))

    @pytest.mark.parametrize("p, q", PAIRS)
    def test_one_element_three_ways_hashes_equal(self, p, q):
        # a product, the same element rebuilt from its terms through
        # from_terms, and its double adjoint
        params = SystemParams(p, q)
        rng = random.Random(600 * p + q)
        for _ in range(60):
            a = wide_element(rng, params, 5)
            prod = a.star() * wide_element(rng, params, 5)
            rebuilt = GroupAlgebraElement.from_terms(params, reference_product(a.star(), prod).terms)
            built = (a.star() * prod, rebuilt, (a.star() * prod).star().star())
            assert built[0] == built[1] == built[2]
            assert len({hash(x) for x in built}) == 1

    @pytest.mark.parametrize("p, q", PAIRS)
    def test_coefficient_on_every_row_and_absent_keys(self, p, q):
        params = SystemParams(p, q)
        rng = random.Random(700 * p + q)
        for _ in range(60):
            a = wide_element(rng, params, 6)
            prod = a.star() * a
            scan = dict(prod.terms)
            probes = [g for g, _ in prod.terms] + [random_group_element(rng, params) for _ in range(10)]
            probes += [group_mul(params, g, elem(1, 0, 0, 0, 0)) for g, _ in a.terms]
            probes += [GroupElement.identity()]
            for g in probes:
                assert prod.coefficient(g) == scan.get(g, 0)
            assert any(g not in scan for g in probes)


    @pytest.mark.parametrize("p, q", PAIRS)
    def test_operations_match_the_references(self, p, q):
        # the sweep a CI step runs at 2000 pairs per (p, q), here at 150
        assert algebra_mismatches(SystemParams(p, q), 150, seed=p * q) == []


class TestExactCoefficients:
    def test_from_terms_refuses_float(self):
        g = GroupElement.identity()
        with pytest.raises(TypeError, match="0.1"):
            GroupAlgebraElement.from_terms(P23, [(g, 0.1)])
        a = GroupAlgebraElement.from_terms(P23, [(g, 1), (g, Fraction(1, 10))])
        assert a.terms == ((g, Fraction(11, 10)),)

    def test_scaled_refuses_float(self):
        a = GroupAlgebraElement.unit(P23, GroupElement.identity())
        with pytest.raises(TypeError, match="0.5"):
            a.scaled(0.5)
        with pytest.raises(TypeError):
            a * 0.5
        assert a.scaled(True) == a
