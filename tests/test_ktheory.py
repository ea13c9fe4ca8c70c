import itertools
import random
import re
from fractions import Fraction
from math import gcd

import pytest

from helpers import (
    int_det,
    mat_mul,
    product_group,
    quotient_type,
    subgroup_type,
)
from xpq import (
    FgAbGroup,
    FgAbMap,
    IncompatibleMap,
    OutOfRange,
    k_theory_of_group,
    map_cokernel,
    map_kernel,
    mult_map_ker_coker,
    multiplicative_dependence_witness,
    pv_assemble,
    smith_normal_form,
)

Z = FgAbGroup(1)
Z2 = FgAbGroup(2)


def cyc(n):
    return FgAbGroup.cyclic(n)


def prod_cap(rest, nxt):
    out = nxt
    for v in rest:
        out *= v
    return out


class TestSmithNormalForm:
    def test_worked(self):
        res = smith_normal_form(((2, 4), (6, 8)))
        assert res.diagonal() == (2, 4)
        res = smith_normal_form(((1, 0), (0, 1)))
        assert res.diagonal() == (1, 1)
        assert smith_normal_form(((0, 0), (0, 0))).diagonal() == (0, 0)
        assert smith_normal_form(((6,),)).diagonal() == (6,)
        assert smith_normal_form(()).diagonal() == ()
        # [matrix | target relations] of a map into Z^2 (+) Z/6 (+) Z/36 (+)
        # Z/108: small entries that a remainder-and-swap elimination grows
        # past 10^30 within three pivots
        P = (
            (5, -6, 9, 0, 0, 0, 0),
            (-9, -8, -11, 0, 0, 0, 0),
            (2, 8, 11, -30, 6, 0, 0),
            (-11, -11, -12, 216, 0, 36, 0),
            (10, -7, 9, 324, 0, 0, 108),
        )
        assert smith_normal_form(P).diagonal() == (1, 1, 1, 12, 72)

    def test_random_factorization(self):
        rng = random.Random(43)
        for _ in range(250):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            a = tuple(
                tuple(rng.randint(-20, 20) for _ in range(cols)) for _ in range(rows)
            )
            res = smith_normal_form(a)
            uav = tuple(tuple(row) for row in mat_mul(mat_mul(res.U, a), res.V))
            assert uav == res.D
            assert abs(int_det(res.U)) == 1
            assert abs(int_det(res.V)) == 1
            diag = res.diagonal()
            assert all(d >= 0 for d in diag)
            for d1, d2 in itertools.pairwise(diag):
                if d1 == 0:
                    assert d2 == 0
                else:
                    assert d2 % d1 == 0

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form(((1, 2), (3,)))

    def test_non_integer_rejected(self):
        for bad in (1.5, Fraction(3, 2), "6"):
            with pytest.raises(ValueError, match=re.escape(repr(bad))):
                smith_normal_form(((bad, 0), (0, 2)))

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random(61)
        for _ in range(300):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            a = [
                [rng.randint(-20, 20) if rng.random() < 0.7 else 0 for _ in range(cols)]
                for _ in range(rows)
            ]
            want = invariant_factors(sympy.Matrix(a), domain=sympy.ZZ)
            assert smith_normal_form(a).diagonal() == tuple(int(d) for d in want), a


class TestFgAbGroup:
    def test_validation(self):
        with pytest.raises(ValueError):
            FgAbGroup(0, (1,))  # torsion entries must be >= 2
        with pytest.raises(ValueError):
            FgAbGroup(0, (4, 2))  # chain must divide left to right
        with pytest.raises(ValueError):
            FgAbGroup(-1, ())

    def test_cyclic(self):
        assert cyc(0) == Z
        assert cyc(1) == FgAbGroup(0)
        assert cyc(6) == FgAbGroup(0, (6,))

    def test_direct_sum_normalizes(self):
        assert cyc(2).direct_sum(cyc(4)) == FgAbGroup(0, (2, 4))
        assert cyc(2).direct_sum(cyc(3)) == cyc(6)
        assert cyc(6).direct_sum(cyc(4)) == FgAbGroup(0, (2, 12))
        assert Z.direct_sum(cyc(5)) == FgAbGroup(1, (5,))
        got = Z2.direct_sum(FgAbGroup(0, (2, 2))).direct_sum(cyc(9))
        assert got == FgAbGroup(2, (2, 18))

    def test_direct_sum_commutative_associative(self):
        rng = random.Random(47)

        def rand_group():
            rank = rng.randint(0, 2)
            tors = []
            d = 1
            for _ in range(rng.randint(0, 2)):
                d *= rng.randint(2, 5)
                tors.append(d)
            return FgAbGroup(rank, tuple(tors))

        for _ in range(100):
            a, b, c = rand_group(), rand_group(), rand_group()
            assert a.direct_sum(b) == b.direct_sum(a)
            assert a.direct_sum(b.direct_sum(c)) == a.direct_sum(b).direct_sum(c)

    def test_str_and_gen_orders(self):
        assert str(FgAbGroup(2, (2,))) == "Z^2 + Z/2"
        assert str(FgAbGroup(0)) == "0"
        assert str(Z) == "Z"
        assert FgAbGroup(1, (3,)).gen_orders() == (0, 3)


class TestFgAbMap:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FgAbMap(Z2, Z, ((1,),))  # wrong number of columns

    def test_torsion_compatibility(self):
        # Z/2 -> Z cannot send the generator to 1
        with pytest.raises(IncompatibleMap):
            FgAbMap(cyc(2), Z, ((1,),))
        # Z/2 -> Z/4 must land in the 2-torsion
        with pytest.raises(IncompatibleMap):
            FgAbMap(cyc(2), cyc(4), ((1,),))
        FgAbMap(cyc(2), cyc(4), ((2,),))  # fine
        FgAbMap(cyc(2), cyc(2), ((1,),))  # fine
        FgAbMap(cyc(4), cyc(2), ((1,),))  # fine: 4 kills 2

    def test_identity_and_id_minus(self):
        g = FgAbGroup(1, (6,))
        ident = FgAbMap.identity(g)
        assert map_kernel(ident) == FgAbGroup(0)
        assert map_cokernel(ident) == FgAbGroup(0)
        d = ident.id_minus()
        assert map_kernel(d) == g  # id - id = 0, kernel is everything
        assert map_cokernel(d) == g

    def test_id_minus_needs_endomorphism(self):
        with pytest.raises(ValueError):
            FgAbMap(Z, Z2, ((1,), (0,))).id_minus()


class TestKernelCokernelFree:
    def test_zero_map(self):
        f = FgAbMap(Z, Z, ((0,),))
        assert map_kernel(f) == Z
        assert map_cokernel(f) == Z
        # from and to the trivial group
        T = FgAbGroup(0)
        g = FgAbGroup(1, (2, 6))
        assert map_kernel(FgAbMap(g, T, ())) == g
        assert map_cokernel(FgAbMap(g, T, ())) == T
        h = FgAbMap(T, FgAbGroup(2, (4,)), ((), (), ()))
        assert map_kernel(h) == T
        assert map_cokernel(h) == FgAbGroup(2, (4,))
        assert map_kernel(FgAbMap(T, T, ())) == T

    def test_multiplication_on_z(self):
        f = FgAbMap(Z, Z, ((6,),))
        assert map_kernel(f) == FgAbGroup(0)
        assert map_cokernel(f) == cyc(6)

    def test_projection_and_inclusion(self):
        proj = FgAbMap(Z2, Z, ((1, 0),))
        assert map_kernel(proj) == Z
        assert map_cokernel(proj) == FgAbGroup(0)
        incl = FgAbMap(Z, Z2, ((1,), (2,)))
        assert map_kernel(incl) == FgAbGroup(0)
        assert map_cokernel(incl) == Z

    def test_diagonal(self):
        f = FgAbMap(Z2, Z2, ((2, 0), (0, 3)))
        assert map_kernel(f) == FgAbGroup(0)
        assert map_cokernel(f) == cyc(6)


class TestKernelCokernelFinite:
    def _random_finite_group(self, rng):
        # an ascending divisibility chain, so the generators of the
        # FgAbGroup are exactly these cyclic factors
        chain = [rng.choice((2, 3, 4, 5, 6))]
        while rng.random() < 0.5 and len(chain) < 3:
            nxt = chain[-1] * rng.choice((1, 2, 3))
            if chain[0] * prod_cap(chain[1:], nxt) > 400:
                break
            chain.append(nxt)
        return tuple(chain)

    def _random_valid_matrix(self, rng, src_orders, tgt_orders):
        # column j sends the order-d generator to an element killed by d
        cols = []
        for d in src_orders:
            col = []
            for e in tgt_orders:
                step = e // gcd(d, e)
                col.append(step * rng.randrange(e // step))
            cols.append(col)
        rows = tuple(
            tuple(cols[j][i] for j in range(len(src_orders)))
            for i in range(len(tgt_orders))
        )
        return rows

    def test_against_enumeration(self):
        rng = random.Random(53)
        for _ in range(60):
            src_orders = self._random_finite_group(rng)
            tgt_orders = self._random_finite_group(rng)
            matrix = self._random_valid_matrix(rng, src_orders, tgt_orders)
            f = FgAbMap(FgAbGroup(0, src_orders), FgAbGroup(0, tgt_orders), matrix)

            kernel_elems = []
            image_elems = set()
            for h in product_group(src_orders):
                img = tuple(
                    sum(matrix[i][j] * h[j] for j in range(len(src_orders))) % e
                    for i, e in enumerate(tgt_orders)
                )
                image_elems.add(img)
                if all(v == 0 for v in img):
                    kernel_elems.append(h)

            want_ker = subgroup_type(kernel_elems, src_orders)
            assert map_kernel(f) == FgAbGroup(0, want_ker)

            want_coker = quotient_type(tgt_orders, image_elems)
            assert map_cokernel(f) == FgAbGroup(0, want_coker)

    def test_mixed_free_and_torsion(self):
        # Z (+) Z/4 --(1,0; 0,2)--> Z (+) Z/4
        g = FgAbGroup(1, (4,))
        f = FgAbMap(g, g, ((1, 0), (0, 2)))
        # kernel: x = 0 and 2t = 0 mod 4, so t in {0, 2}: cyclic of order 2
        assert map_kernel(f) == cyc(2)
        # cokernel: Z dies, Z/4 / <2> survives
        assert map_cokernel(f) == cyc(2)
        # doubling the torsion part only
        f2 = FgAbMap(g, g, ((0, 0), (0, 2)))
        assert map_kernel(f2) == FgAbGroup(1, (2,))
        assert map_cokernel(f2) == FgAbGroup(1, (2,))
        # Z^2 (+) Z/2 (+) Z/10 --> Z (+) Z/2 (+) Z/6 (+) Z/30, generators
        # x1..x4 and y1..y4.  Kernel: the y1 row forces (x1, x2) = k(6, 5);
        # then y4 gives 16k + 9*x4 = 0 mod 30, so x4 is even, k = 0 mod 3 and
        # x4 = k mod 5; y2 gives x4 = k mod 2, so k = 0 mod 6; y3 gives
        # x3 = 0.  Each k in 6Z fixes (x3, x4), so the kernel is Z, spanned by
        # (36, 30, 0, 6).  Cokernel: x1 + x2 hits y1 + y2 + 13*y4, which
        # eliminates y1; 6*x1 + 5*x2, x3 and x4 hit (1, 3, 16), (0, 3, 0) and
        # (1, 3, 9) in Z/2 (+) Z/6 (+) Z/30.  16 - 9 = 7 is a unit mod 30, so
        # these span Z/2 (+) <3> (+) Z/30, leaving Z/6 / <3> = Z/3.
        f3 = FgAbMap(
            FgAbGroup(2, (2, 10)),
            FgAbGroup(1, (2, 6, 30)),
            ((-5, 6, 0, 0), (0, 1, 0, 1), (3, 3, 3, 3), (11, 2, 0, 9)),
        )
        assert map_kernel(f3) == Z
        assert map_cokernel(f3) == cyc(3)

    def test_rank_nullity_sweep(self):
        # over Q, rank ker - rank coker = rank source - rank target
        rng = random.Random(59)

        def rand_group():
            chain, d = [], 1
            for _ in range(rng.randint(0, 2)):
                d *= rng.choice((2, 3, 5))
                chain.append(d)
            return FgAbGroup(rng.randint(0, 2), tuple(chain))

        def entry(d, e):
            # a generator of order d goes to a multiple of e / gcd(d, e) in
            # an order-e coordinate, and to 0 in a free one unless d = 0
            if e == 0:
                return 0 if d else rng.randint(-12, 12)
            return e // gcd(d, e) * rng.randint(-12, 12)

        for _ in range(2000):
            src, tgt = rand_group(), rand_group()
            rows = tuple(
                tuple(entry(d, e) for d in src.gen_orders()) for e in tgt.gen_orders()
            )
            f = FgAbMap(src, tgt, rows)
            ker, coker = map_kernel(f), map_cokernel(f)
            assert ker.rank - coker.rank == src.rank - tgt.rank, f


class TestMultMapKerCoker:
    def test_brute_force_sweep(self):
        for n in range(1, 61):
            for m in range(1, n + 1):
                ker, coker = mult_map_ker_coker(m, n)
                g = gcd(m, n)
                kernel_size = sum(1 for x in range(n) if m * x % n == 0)
                image = {m * x % n for x in range(n)}
                assert ker == cyc(g) and kernel_size == g
                assert coker == cyc(g) and n // len(image) == g

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            mult_map_ker_coker(2, 0)

    def test_trivial_modulus(self):
        ker, coker = mult_map_ker_coker(5, 1)
        assert ker == FgAbGroup(0) and coker == FgAbGroup(0)


class TestAssembly:
    def test_requires_endomorphisms(self):
        ident = FgAbMap.identity(Z)
        other = FgAbMap.identity(Z2)
        with pytest.raises(ValueError):
            pv_assemble(Z, Z, ident, other)

    def test_torus_case(self):
        # both actions trivial on Z gives the K-theory of the 2-torus shape
        ident = FgAbMap.identity(Z)
        K0, K1 = pv_assemble(Z, Z, ident, ident)
        assert K0 == Z2 and K1 == Z2

    def test_worked_examples(self):
        res = k_theory_of_group(2, 3)
        assert res.K0 == Z2 and res.K1 == Z2
        assert res.torsion_gcd == 1 and res.matches
        res = k_theory_of_group(3, 5)
        want = FgAbGroup(2, (2,))
        assert res.K0 == want and res.K1 == want
        assert res.torsion_gcd == 2 and res.matches
        res = k_theory_of_group(7, 13)
        assert res.K0 == FgAbGroup(2, (6,)) and res.matches
        # 74-bit bases: the torsion is g = gcd(p - 1, q - 1) = 68719476767 *
        # 137438953481, which the assembly reaches without factoring
        p, q = 9444732970618373275928, 18889465941236746551855
        g = 68719476767 * 137438953481
        res = k_theory_of_group(p, q)
        assert res.K0 == FgAbGroup(2, (g,)) and res.K1 == FgAbGroup(2, (g,))
        assert res.torsion_gcd == g and res.matches

    def test_assembled_equals_closed_form_sweep(self):
        for p in range(2, 31):
            for q in range(2, 31):
                res = k_theory_of_group(p, q)
                assert res.matches, (p, q)
                assert res.K0 == res.closed_form and res.K1 == res.closed_form
                assert res.torsion_gcd == gcd(p - 1, q - 1)

    def test_gcd_identity(self):
        # the simplification behind the closed form
        for p in range(2, 200):
            for q in range(2, 200):
                assert gcd(p - 1, p * q - 1) == gcd(p - 1, q - 1)

    def test_out_of_range(self):
        # one rule refuses bases below 2, with one message naming the first
        # base refused, in both library calls
        for p, q, name, value in ((1, 3, "p", 1), (3, 1, "q", 1), (0, -2, "p", 0)):
            for call in (k_theory_of_group, multiplicative_dependence_witness):
                with pytest.raises(OutOfRange, match=rf"^{name} = {value} out of range; expected 2 <= {name}$"):
                    call(p, q)
