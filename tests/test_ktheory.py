import itertools
import random
from math import gcd

import pytest

from helpers import (
    int_det,
    mat_mul,
    product_group,
    quotient_type,
    subgroup_generated,
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
    pv_assemble,
    smith_normal_form,
)

Z = FgAbGroup.free(1)
Z2 = FgAbGroup.free(2)


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
        assert cyc(1) == FgAbGroup.trivial()
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

    def test_order_and_str(self):
        assert FgAbGroup.trivial().order() == 1
        assert cyc(12).order() == 12
        assert FgAbGroup(0, (2, 4)).order() == 8
        assert Z.order() is None
        assert str(FgAbGroup(2, (2,))) == "Z^2 + Z/2"
        assert str(FgAbGroup.trivial()) == "0"
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
        assert map_kernel(ident) == FgAbGroup.trivial()
        assert map_cokernel(ident) == FgAbGroup.trivial()
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

    def test_multiplication_on_z(self):
        f = FgAbMap(Z, Z, ((6,),))
        assert map_kernel(f) == FgAbGroup.trivial()
        assert map_cokernel(f) == cyc(6)

    def test_projection_and_inclusion(self):
        proj = FgAbMap(Z2, Z, ((1, 0),))
        assert map_kernel(proj) == Z
        assert map_cokernel(proj) == FgAbGroup.trivial()
        incl = FgAbMap(Z, Z2, ((1,), (2,)))
        assert map_kernel(incl) == FgAbGroup.trivial()
        assert map_cokernel(incl) == Z

    def test_diagonal(self):
        f = FgAbMap(Z2, Z2, ((2, 0), (0, 3)))
        assert map_kernel(f) == FgAbGroup.trivial()
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
        assert ker == FgAbGroup.trivial() and coker == FgAbGroup.trivial()


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
        with pytest.raises(OutOfRange):
            k_theory_of_group(1, 3)
