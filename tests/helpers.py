"""Brute-force oracles and random-data builders shared by the tests.

Everything here is deliberately independent of the library internals:
plain integer arithmetic, dictionary BFS, and order counting, so a bug
in the package cannot hide in its own oracle.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

from xpq import (
    CanonicalTrace,
    Cyclotomic,
    FiniteOrbitTrace,
    GroupAlgebraElement,
    GroupElement,
    OutOfRange,
    PqRational,
    StabilizerLattice,
    SystemParams,
    group_mul,
    multiplicative_order,
    root_of_unity,
)
from xpq.dynamics import MAX_STABILIZER_ORDER


def naive_order(base: int, r: int) -> int:
    acc = base % r
    k = 1
    while acc != 1:
        acc = acc * base % r
        k += 1
    return k


def naive_orbit(p: int, q: int, r: int, start: int) -> frozenset[int]:
    """BFS closure of start under multiplication by p and q mod r."""
    seen = {start % r}
    queue = [start % r]
    while queue:
        a = queue.pop()
        for nxt in (a * p % r, a * q % r):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return frozenset(seen)


def _powers(g: int, n: int, r: int) -> list[int]:
    """[g^0, ..., g^(n-1)] mod r, doubling the list at each step."""
    out = [1 % r]
    while len(out) < n:
        step = pow(g, len(out), r)
        out += [step * x % r for x in out[: n - len(out)]]
    return out


# The oracle for dynamics.stabilizer_lattice: a dict of all ord_r(q) powers
# of q and a scan over the powers of p, as the library computed it before
# baby-step giant-step.
def reference_stabilizer_lattice(params: SystemParams, r: int) -> StabilizerLattice:
    """The lattice L_r = {(m, n) : p^m q^n = 1 mod r} in Hermite form.

    The second basis vector is (0, ord_r(q)); the first is (m, b) where m
    is least positive with p^m in <q> mod r.  The index a*c equals the
    order of <p, q> in (Z/rZ)^*.  OutOfRange is raised when ord_r(q), or
    the least such m, exceeds MAX_STABILIZER_ORDER, before the powers of q
    are built in the first case.
    """
    if r < 1:
        raise OutOfRange(f"denominator {r} out of range; expected r >= 1")
    params.require_coprime(r)
    if r == 1:
        return StabilizerLattice(((1, 0), (0, 1)), 1)
    p, q = params.p, params.q
    dq = multiplicative_order(q, r)
    if dq > MAX_STABILIZER_ORDER:
        raise OutOfRange(
            f"denominator {r}: ord_r(q) = {dq} exceeds the stabilizer limit {MAX_STABILIZER_ORDER}"
        )
    qpow_index = {v: j for j, v in enumerate(_powers(q, dq, r))}
    m, pm = 1, p % r
    while pm not in qpow_index:
        m += 1
        if m > MAX_STABILIZER_ORDER:
            raise OutOfRange(
                f"denominator {r}: no p^m with m <= {MAX_STABILIZER_ORDER} lies in <q> "
                f"(ord_r(q) = {dq}); {MAX_STABILIZER_ORDER} is the stabilizer limit"
            )
        pm = pm * p % r
    # q^j = p^m means p^m q^(dq - j) = 1, so the lattice point is (m, dq - j)
    j = qpow_index[pm]
    b = (dq - j) % dq
    return StabilizerLattice(((m, b), (0, dq)), m * dq)


def int_det(matrix) -> int:
    """Bareiss fraction-free determinant."""
    A = [list(row) for row in matrix]
    n = len(A)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[-1][-1]


def mat_mul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


# ---------------------------------------------------------------------------
# finite abelian groups by order statistics
# ---------------------------------------------------------------------------


def _prime_factors(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def _chain_from_counts(n: int, count_killed) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group of order n, where
    count_killed(k) = #{h : k*h = 0}.  Kill counts per prime determine
    the partition of exponents, and the chain merges the primes."""
    per_prime: dict[int, list[int]] = {}
    for p in _prime_factors(n):
        counts = [1]
        while True:
            c = count_killed(p ** len(counts))
            if c == counts[-1]:
                break
            counts.append(c)
        heights = []
        for j in range(1, len(counts)):
            ratio = counts[j] // counts[j - 1]
            m = 0
            while p**m < ratio:
                m += 1
            heights.append(m)  # number of parts of size >= j
        sizes = []
        for j, h in enumerate(heights):
            nxt = heights[j + 1] if j + 1 < len(heights) else 0
            sizes.extend([j + 1] * (h - nxt))
        per_prime[p] = sorted(sizes, reverse=True)
    if not per_prime:
        return ()
    depth = max(len(v) for v in per_prime.values())
    chain = []
    for j in range(depth):
        d = 1
        for p, sizes in per_prime.items():
            if j < len(sizes):
                d *= p ** sizes[j]
        chain.append(d)
    chain.reverse()
    return tuple(d for d in chain if d > 1)


def product_group(orders) -> list[tuple[int, ...]]:
    """All elements of Z/d1 x ... x Z/dk."""
    elems = [()]
    for d in orders:
        elems = [e + (a,) for e in elems for a in range(d)]
    return elems


def element_order(vec, orders) -> int:
    return lcm(*(d // gcd(a, d) for a, d in zip(vec, orders))) if vec else 1


def subgroup_type(elements, orders) -> tuple[int, ...]:
    """Invariant factors of a subgroup of prod Z/orders given by its
    explicit element tuples."""
    elems = list(elements)

    def killed(k: int) -> int:
        return sum(1 for h in elems if k % element_order(h, orders) == 0)

    return _chain_from_counts(len(elems), killed)


def quotient_type(orders, image: set) -> tuple[int, ...]:
    """Invariant factors of (prod Z/orders) / image, counting kill rates
    through the quotient map: k kills a coset iff k*h lands in image."""
    total = prod(orders) if orders else 1
    n = total // len(image)

    def killed(k: int) -> int:
        hits = 0
        for h in product_group(orders):
            scaled = tuple(k * a % d for a, d in zip(h, orders))
            if scaled in image:
                hits += 1
        return hits // len(image)

    return _chain_from_counts(n, killed)


def subgroup_generated(vectors, orders) -> set:
    """All elements of the subgroup of prod Z/orders generated by vectors."""
    zero = tuple(0 for _ in orders)
    seen = {zero}
    queue = [zero]
    vecs = [tuple(a % d for a, d in zip(v, orders)) for v in vectors]
    while queue:
        u = queue.pop()
        for v in vecs:
            w = tuple((a + b) % d for a, b, d in zip(u, v, orders))
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return seen


# ---------------------------------------------------------------------------
# Z[1/pq] by valuations at the primes of p and q
# ---------------------------------------------------------------------------


def _factor_pairs(n: int) -> list[tuple[int, int]]:
    out = []
    for f in _prime_factors(n):
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        out.append((f, e))
    return out


def _valuation(n: int, ell: int) -> int:
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


def reference_pq_rational(value, p: int, q: int) -> tuple[int, int, int] | None:
    """(num, a, b) with value = num / (p^a q^b), minimal b first and then
    minimal a, read off the valuations at the primes of p and of q; None
    when value is not in Z[1/pq]."""
    value = Fraction(value)
    if value == 0:
        return (0, 0, 0)
    d = value.denominator
    b = 0
    for ell, fl in _factor_pairs(q):
        if p % ell == 0:
            continue  # p covers this prime, keep b minimal
        v = _valuation(d, ell)
        if v:
            b = max(b, -(-v // fl))
    db = (value * Fraction(q) ** b).denominator
    a = 0
    for ell, fl in _factor_pairs(p):
        v = _valuation(db, ell)
        if v:
            a = max(a, -(-v // fl))
    scaled = value * Fraction(p) ** a * Fraction(q) ** b
    if scaled.denominator != 1:
        return None
    return (int(scaled), a, b)


# ---------------------------------------------------------------------------
# cyclotomic polynomials by dense long division
# ---------------------------------------------------------------------------


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # den is monic; division of integer polynomials with zero remainder
    num = list(num)
    d = len(den) - 1
    out = []
    while len(num) - 1 >= d:
        c = num.pop()
        out.append(c)
        if c:
            off = len(num) - d
            for j in range(d):
                num[off + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    out.reverse()
    return out


@lru_cache(maxsize=None)
def dense_cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Phi_n, low degree first: x^n - 1 divided exactly by Phi_d for every
    proper divisor d of n."""
    if n == 1:
        return (-1, 1)
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, dense_cyclotomic_polynomial(d))
    return tuple(poly)


def dense_reduce_mod_cyclotomic(vec: list[int], n: int) -> list[int]:
    """The remainder of vec mod Phi_n by long division, top coefficient
    first, padded to phi(n) coefficients."""
    phi = dense_cyclotomic_polynomial(n)
    d = len(phi) - 1
    vec = list(vec)
    if len(vec) <= d:
        return vec + [0] * (d - len(vec))
    for i in range(len(vec) - 1, d - 1, -1):
        c = vec[i]
        if c:
            vec[i] = 0
            base = i - d
            for j in range(d):
                pj = phi[j]
                if pj:
                    vec[base + j] -= c * pj
    del vec[d:]
    return vec


# ---------------------------------------------------------------------------
# random builders
# ---------------------------------------------------------------------------


def random_group_element(rng: random.Random, params: SystemParams, span: int = 3) -> GroupElement:
    den = params.p ** rng.randint(0, 2) * params.q ** rng.randint(0, 2)
    x = PqRational.from_fraction(Fraction(rng.randint(-12, 12), den), params.p, params.q)
    return GroupElement(x, rng.randint(-span, span), rng.randint(-span, span))


def random_algebra_element(
    rng: random.Random, params: SystemParams, support: int = 2
) -> GroupAlgebraElement:
    terms = []
    for _ in range(rng.randint(1, support)):
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        terms.append((random_group_element(rng, params), c))
    return GroupAlgebraElement.from_terms(params, terms)


# ---------------------------------------------------------------------------
# reference Q[G] product and trace evaluation
# ---------------------------------------------------------------------------


def reference_product(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    """a * b by the plain Fraction loop: one group_mul and one Fraction
    multiply-and-add per pair of terms, zero sums dropped, the result
    built by from_terms."""
    acc: dict[GroupElement, Fraction] = {}
    for g1, c1 in a.terms:
        for g2, c2 in b.terms:
            g = group_mul(a.params, g1, g2)
            s = acc.get(g, Fraction(0)) + c1 * c2
            if s:
                acc[g] = s
            else:
                acc.pop(g, None)
    return GroupAlgebraElement.from_terms(a.params, acc.items())


def _merged(params, terms) -> GroupAlgebraElement:
    # the plain Fraction merge: add coefficients per group element, drop
    # zero sums, and rebuild from the survivors
    acc: dict[GroupElement, Fraction] = {}
    for g, c in terms:
        acc[g] = acc.get(g, Fraction(0)) + c
    return GroupAlgebraElement.from_terms(params, [(g, c) for g, c in acc.items() if c])


def reference_sum(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    """a + b by adding Fraction coefficients per group element."""
    return _merged(a.params, list(a.terms) + list(b.terms))


def reference_scaled(a: GroupAlgebraElement, c) -> GroupAlgebraElement:
    """c a by multiplying each Fraction coefficient by c."""
    c = Fraction(c)
    return _merged(a.params, [(g, k * c) for g, k in a.terms])


def reference_star(a: GroupAlgebraElement) -> GroupAlgebraElement:
    """a* = sum c_g u_(g^-1), with g^-1 = (-p^-m q^-n x, -m, -n) computed
    through Fractions and put in canonical form by reference_pq_rational."""
    p, q = a.params.p, a.params.q
    terms = []
    for g, c in a.terms:
        y = -Fraction(g.x.num, p**g.x.a * q**g.x.b) / (Fraction(p) ** g.m * Fraction(q) ** g.n)
        terms.append((GroupElement(PqRational(*reference_pq_rational(y, p, q)), -g.m, -g.n), c))
    return _merged(a.params, terms)


def reference_trace_eval(spec, a: GroupAlgebraElement) -> Cyclotomic:
    """The trace of a as a per-term sum: the value on each unitary u_g is
    built on its own as a Cyclotomic, scaled by its Fraction coefficient
    and added in term order.  On a unitary u_(y, m, n) a finite-orbit
    trace gives chi(m, n) times the mean of zeta_r^(a w) over the orbit
    numerators a, w = y mod r, or 0 off the stabilizer lattice; the orbit
    measure is the untwisted mean on m = n = 0 only; the canonical trace
    is 1 on the identity only."""
    p, q = a.params.p, a.params.q
    total = None
    for g, c in a.terms:
        if isinstance(spec, CanonicalTrace):
            if not g.is_identity():
                continue
            v = Cyclotomic.one()
        else:
            if isinstance(spec, FiniteOrbitTrace):
                if not spec.orbit.stabilizer.contains(g.m, g.n):
                    continue
                twist = spec.chi.exponent(g.m, g.n)
            elif (g.m, g.n) != (0, 0):
                continue
            else:
                twist = None
            orbit = spec.orbit
            r = orbit.denominator
            w = g.x.num * pow(p**g.x.a * q**g.x.b, -1, r) % r
            counts = [0] * r
            for num in orbit.numerators:
                counts[w * num % r] += 1
            v = Cyclotomic(r, counts, orbit.size)
            if twist is not None and not twist.is_zero():
                v = root_of_unity(twist) * v
        v = v.scaled(c)
        total = v if total is None else total + v
    return Cyclotomic.zero() if total is None else total
