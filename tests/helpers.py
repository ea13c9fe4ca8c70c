"""Brute-force oracles and random-data builders shared by the tests.

Everything here is deliberately independent of the library internals:
plain integer arithmetic, dictionary BFS, and order counting, so a bug
in the package cannot hide in its own oracle.
"""

from __future__ import annotations

import cmath
import random
from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, lcm, prod
from unittest import mock

import numpy as np
import pytest

from xpq import (
    CanonicalTrace,
    Character,
    Cyclotomic,
    FiniteOrbitTrace,
    GroupAlgebraElement,
    GroupElement,
    OrbitMeasureTrace,
    OutOfRange,
    PqRational,
    QmodZ,
    StabilizerLattice,
    SystemParams,
    euler_phi,
    group_inv,
    group_mul,
    multiplicative_order,
    root_of_unity,
)
from xpq import dynamics, traces
from xpq.dynamics import MAX_STABILIZER_ORDER
from xpq.serialize import cyclotomic_to_json


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
        return StabilizerLattice(((1, 0), (0, 1)))
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
    return StabilizerLattice(((m, b), (0, dq)))


def reference_meet(lat1: StabilizerLattice, lat2: StabilizerLattice) -> StabilizerLattice:
    """The Hermite basis of the intersection of two lattices, by search: c
    is the least n > 0 with (0, n) in both, a the least m > 0 with some
    (m, n), 0 <= n < c, in both, and b the least such n for m = a."""
    def both(m, n):
        return lat1.coords(m, n) is not None and lat2.coords(m, n) is not None

    c = next(n for n in count(1) if both(0, n))
    a = next(m for m in count(1) if any(both(m, n) for n in range(c)))
    b = next(n for n in range(c) if both(a, n))
    return StabilizerLattice(((a, b), (0, c)))


def sympy_stabilizer_lattice(params: SystemParams, r: int) -> StabilizerLattice:
    """L_r from sympy's n_order and discrete_log, a second oracle: c is
    ord_r(q), a the least divisor m of ord_r(p) with p^m in <q> (the m with
    p^m in <q> form aZ, which holds ord_r(p)), and b = -log_q(p^a) mod c.
    Skips the calling test where sympy is not installed."""
    sympy = pytest.importorskip("sympy")
    from sympy.ntheory import discrete_log, n_order

    p, q = params.p, params.q
    c = n_order(q, r)

    def log_q(x: int) -> int | None:
        try:
            return discrete_log(r, x, q)
        except ValueError:  # "Log does not exist": x is not in <q>
            return None

    a, j = next((m, j) for m in sympy.divisors(n_order(p, r))
                if (j := log_q(pow(p, m, r))) is not None)
    return StabilizerLattice(((a, -j % c), (0, c)))


def orbit_mismatches(params: SystemParams, max_denominator: int) -> list[int]:
    """The r at which the orbits of census(params, max_denominator) differ
    from the partition of the units mod r into BFS closures (naive_orbit),
    each sorted, listed in increasing order of least numerator; r = 0 is
    reported when the census count differs from the number of orbits."""
    total, orbits = dynamics.census(params, max_denominator)
    by_r: dict[int, list[tuple[int, ...]]] = {}
    for orbit in orbits:
        by_r.setdefault(orbit.denominator, []).append(orbit.numerators)
    bad = [r for r in by_r if gcd(r, params.pq) != 1]
    for r in range(1, max_denominator + 1):
        if gcd(r, params.pq) != 1:
            continue
        if by_r.get(r) != naive_partition(params, r):
            bad.append(r)
    return bad + [0] * (total != sum(map(len, by_r.values())))


def naive_partition(params: SystemParams, r: int) -> list[tuple[int, ...]]:
    """The units mod r (0 at r = 1) split into BFS closures (naive_orbit),
    each sorted, listed in increasing order of least numerator."""
    parts, covered = [], set()
    for a in range(r):
        if gcd(a, r) == 1 and a not in covered:
            orbit = naive_orbit(params.p, params.q, r, a)
            covered |= orbit
            parts.append(tuple(sorted(orbit)))
    return parts


def census_mismatches(params: SystemParams, max_denominator: int) -> list[int]:
    """The r at which census(params, max_denominator) differs from the
    reference: a lattice other than reference_stabilizer_lattice, an orbit
    count other than phi(r) / index, prime factors other than those of r, a
    wrong list of r, or a wrong total (reported as r = 0).  _orbits_mod is
    replaced while the census is read, so no orbit is built."""
    with mock.patch.object(dynamics, "_orbits_mod", lambda params, *row: [row]):
        total, rows = dynamics.census(params, max_denominator)
        rows = list(rows)
    listed = [r for r, _, _, _ in rows]
    if listed != [r for r in range(1, max_denominator + 1) if gcd(r, params.pq) == 1]:
        return listed
    bad = [r for r, stab, k, primes in rows
           if stab != reference_stabilizer_lattice(params, r) or k * stab.index != euler_phi(r)
           or primes != tuple(_prime_factors(r))]
    return bad + [0] * (total != sum(k for _, _, k, _ in rows))


def reference_point_numerator(text, r: int) -> int:
    """The numerator of the one-point orbit list [text] mod r, decoded with
    plain int() and gcd by the text rule: the only texts of points with
    denominator r are f"{a}/{r}" with 0 <= a < r and gcd(a, r) = 1 ("0/1"
    at r = 1).  Raises ValueError with the messages orbit_from_json gives:
    a non-string; text other than "a/b" or "a" in the characters
    "-/0123456789" that int() reads on each side of the first "/", or with
    b < 1; a reduced denominator other than r; and any other text."""
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {type(text).__name__}")
    try:
        if text.strip("-/0123456789") or text.endswith("/"):
            raise ValueError
        num, _, den = text.partition("/")
        n, d = int(num), int(den) if den else 1
        if d <= 0:
            raise ValueError
    except ValueError:
        raise ValueError(f"bad rational {text!r}") from None
    g = gcd(n, d)
    if d // g != r:
        raise ValueError(f"{text!r} is not a point with denominator {r}")
    points = {f"{a}/{r}": a for a in range(r) if gcd(a, r) == 1}
    if text not in points:
        raise ValueError(f"{text!r} is not a point of the orbit of {n // g % r}/{r}, written a/{r}")
    return points[text]


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


def dense_reducer_mod_cyclotomic(n: int, count: int) -> Callable[[list[int]], list[int]]:
    """A function taking an integer vector of length <= count, low degree
    first, to its remainder mod Phi_n, padded to phi(n) coefficients.

    It reads x^k mod Phi_n off a table of count int64 rows, each x times
    the row before with its top coefficient removed by one step of long
    division by Phi_n, and takes one dot product per vector, after checking
    that no partial sum can leave int64."""
    phi = dense_cyclotomic_polynomial(n)
    d = len(phi) - 1
    row = [1] + [0] * (d - 1)
    rows = []
    for _ in range(count):
        rows.append(row)
        c = row[-1]
        row = [0] + row[:-1]
        if c:
            row = [x - c * pj for x, pj in zip(row, phi)]
    table = np.array(rows, dtype=np.int64).reshape(count, d)
    top = int(np.abs(table).max(initial=0))

    def reduce(vec: list[int]) -> list[int]:
        assert len(vec) <= count
        v = np.array(vec, dtype=np.int64)
        bound = int(np.abs(v).max(initial=0)) * top * len(vec)
        assert bound < 2**63, f"int64 dot could overflow: |sum| <= {bound}"
        return (v @ table[: len(vec)]).tolist()

    return reduce


def _dense_level_mismatches(n: int, rng: random.Random):
    # the checks of cyclotomic_mismatches at one level n; a reference value
    # is (nums, den), all phi(n) numerators over den > 0, content coprime to den
    phi, m = euler_phi(n), 2 * n
    reduce_n = dense_reducer_mod_cyclotomic(n, max(n + 1, 2 * phi - 1))
    reduce_m = dense_reducer_mod_cyclotomic(m, 2 * phi)

    def dense(vec, den, reduce=reduce_n):
        nums = reduce(list(vec))
        g = gcd(den, *nums)
        return [c // g for c in nums], den // g

    def fracs(ref):
        return tuple(Fraction(c, ref[1]) for c in ref[0])

    def sum_of(r1, r2):
        d = lcm(r1[1], r2[1])
        return dense([a * (d // r1[1]) + b * (d // r2[1]) for a, b in zip(r1[0], r2[0])], d)

    def product_of(r1, r2):
        out = [0] * (2 * phi - 1)
        for i, a in enumerate(r1[0]):
            for j, b in enumerate(r2[0]):
                out[i + j] += a * b
        return dense(out, r1[1] * r2[1])

    def approx_of(ref):
        out = 0j  # every coordinate in index order, zeros skipped
        for i, c in enumerate(ref[0]):
            if c:
                out += c * cmath.exp(2j * cmath.pi * i / n)
        return out / ref[1]

    def rand():
        return [rng.randint(-9, 9) for _ in range(phi)]

    top = rand()
    den = rng.randint(2, 6)
    cancel = [rng.randint(-9, 9) for _ in range(phi - 1)] + [-top[-1]]
    specs = [
        ([], 1),  # zero
        ([0] * phi, 7),  # zero written out
        ([rng.randint(-9, 9)], rng.randint(1, 6)),  # rational
        ([rng.randint(1, 9), rng.randint(1, 9)], rng.randint(1, 6)),  # irrational when phi > 1
        (rand(), rng.randint(1, 6)),
        (rand(), 1),
        (top, den),
        (cancel, den),  # top + cancel loses its top coordinate
        ([3] + [0] * (n - 1) + [-3], 5),  # 3 (1 - z^n) = 0
    ]
    values = [(Cyclotomic(n, vec, d), dense(vec, d)) for vec, d in specs]
    f = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    others = values + [(Cyclotomic.from_fraction(f), dense([f.numerator], f.denominator))]

    for x, rx in values:
        want = fracs(rx)
        rational = not any(rx[0][1:])
        if x.level != n or x.coeffs != want:
            yield "coeffs"
        if x.vec[-1:] == (0,) or len(x.vec) > phi:
            yield "trailing zero"
        if x.is_zero() != (not any(rx[0])):
            yield "is_zero"
        if x.is_rational() != rational:
            yield "is_rational"
        try:
            if x.to_fraction() != want[0] or not rational:
                yield "to_fraction"
        except ValueError:  # the one outcome for an irrational value
            if rational:
                yield "to_fraction"
        if x.approx() != approx_of(rx):
            yield "approx"
        if cyclotomic_to_json(x)["coeffs"] != [str(c) for c in want]:
            yield "json"
        mirrored = [0] * n
        for i, c in enumerate(rx[0]):
            mirrored[(n - i) % n] += c
        y = x.conj()
        if y.level != n or y.coeffs != fracs(dense(mirrored, rx[1])):
            yield "conj"
        spread = [0] * (2 * phi - 1)
        spread[::2] = rx[0]
        y = x.lifted(m)
        if y.level != m or y.coeffs != fracs(dense(spread, rx[1], reduce_m)) or y != x or x != y:
            yield "lifted"
        for z, rz in others:
            if (x + z).level != n or (x + z).coeffs != fracs(sum_of(rx, rz)):
                yield "+"
            if (x * z).level != n or (x * z).coeffs != fracs(product_of(rx, rz)):
                yield "*"
            if (x == z) != (want == fracs(rz)) or (y == z) != (want == fracs(rz)):
                yield "=="


def cyclotomic_mismatches(levels, seed: int = 0) -> list[tuple[int, str]]:
    """The (level, check) pairs at which Cyclotomic differs from a dense
    reference that holds every value as all phi(n) numerators, reduced by
    dense_reducer_mod_cyclotomic.  At each level n it builds zero (empty
    and written out), a rational, a + b z, random values, a pair whose sum
    cancels the top coordinate and 3 (1 - z^n), and checks coeffs, the
    stored vector (no trailing zero, at most phi(n) entries), is_zero,
    is_rational, to_fraction, approx (bit for bit against the sum over
    all coordinates in index order), the JSON coefficients, conj, lifted
    to 2n, and +, * and == with every value and a level-1 rational."""
    rng = random.Random(seed)
    return [(n, what) for n in levels for what in _dense_level_mismatches(n, rng)]


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


def algebra_mismatches(params: SystemParams, count: int, seed: int = 0) -> list[tuple[int, str]]:
    """The (i, operation) pairs at which the i-th random pair a, b gives an
    a * b, a.star() or a + b whose terms differ from reference_product, from
    the adjoint built through group_inv term by term, or from reference_sum,
    and the i at which a term of a * b, a view of a stored row, differs from
    GroupElement(g.x, g.m, g.n) or has an x that PqRational.canonical
    changes ("a * b rows").  b takes minus some of a's terms, so that a + b
    cancels and merges."""
    rng = random.Random(seed)
    p, q = params.p, params.q
    bad = []
    for i in range(count):
        a = random_algebra_element(rng, params, support=6)
        b = random_algebra_element(rng, params, support=6)
        b = GroupAlgebraElement.from_terms(params, [*b.terms, *((g, -c) for g, c in a.terms if rng.random() < 0.5)])
        star = GroupAlgebraElement.from_terms(params, [(group_inv(params, g), c) for g, c in a.terms])
        prod = a * b
        for name, got, want in (
            ("a * b", prod, reference_product(a, b)),
            ("a.star()", a.star(), star),
            ("a + b", a + b, reference_sum(a, b)),
        ):
            if got.terms != want.terms:
                bad.append((i, name))
        for g, _ in prod.terms:
            x = g.x
            if g != GroupElement(x, g.m, g.n) or PqRational.canonical(x.num, p**x.a * q**x.b, p, q) != x:
                bad.append((i, "a * b rows"))
                break
    return bad


def reference_orbit_mean(orbit, w: int) -> Cyclotomic:
    """The mean of zeta_r^(w a) over the orbit numerators a, r the orbit
    denominator, summed point by point at level r."""
    r = orbit.denominator
    counts = [0] * r
    for num in orbit.numerators:
        counts[w * num % r] += 1
    return Cyclotomic(r, counts, orbit.size)


def reference_periods(params: SystemParams, r: int) -> list[int]:
    """The least positive member of the <p, q>-orbit of each w mod r (r for
    the orbit {0}), by BFS over multiplication by p and q on Z/r."""
    least = [0] * r
    for w in range(r):
        if least[w]:
            continue
        seen, todo = {w}, [w]
        while todo:
            x = todo.pop()
            for y in (x * params.p % r, x * params.q % r):
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        low = min((x or r) for x in seen)
        for x in seen:
            least[x] = low
    return least


def orbit_mean_mismatches(params: SystemParams, max_denominator: int) -> list[tuple[int, int, int]]:
    """The (r, least numerator, w) at which traces._orbit_mean at w or at the
    period that traces._periods gives w differs from reference_orbit_mean at
    w in level, den or vec, or that period is not the one reference_periods
    finds, for every w mod r on every census orbit up to the bound: single
    orbits (the Ramanujan sum) and orbits of several cosets alike."""
    bad = []
    for orbit in dynamics.census(params, max_denominator)[1]:
        r, a0 = orbit.denominator, orbit.numerators[0]
        period, least = traces._periods(orbit), reference_periods(params, r)
        for w in range(r):
            want = reference_orbit_mean(orbit, w)
            want = (want.level, want.den, want.vec)
            got = [traces._orbit_mean(orbit, v) for v in (w, period(w))]
            if period(w) != least[w] or any((g.level, g.den, g.vec) != want for g in got):
                bad.append((r, a0, w))
    return bad


def orbit_specs(orbit) -> list:
    """The orbit measure and the finite-orbit traces of the trivial
    character and of (1/2, 1/3) on the orbit."""
    return [OrbitMeasureTrace(orbit)] + [
        FiniteOrbitTrace(orbit, Character(orbit.stabilizer, t1, t2))
        for t1, t2 in ((QmodZ(0, 1), QmodZ(0, 1)), (QmodZ(1, 2), QmodZ(1, 3)))
    ]


def unit_moment_mismatches(spec, n_max: int) -> list[int]:
    """The n at which traces.moments(spec, n_max).value(n) differs from
    trace_eval on the unit u_(n,0,0) in level, den or vec."""
    bad = []
    for n, got in traces.moments(spec, n_max).items():
        u = GroupAlgebraElement.unit(spec.params, GroupElement(PqRational(n, 0, 0), 0, 0))
        want = traces.trace_eval(spec, u)
        if (got.level, got.den, got.vec) != (want.level, want.den, want.vec):
            bad.append(n)
    return bad


def moment_mismatches(params: SystemParams, max_denominator: int) -> list[tuple[str, int, int, int]]:
    """The (trace type, r, least numerator, n) at which unit_moment_mismatches
    finds a moment that is not its unit evaluation: the canonical trace
    (r = 1, numerator 0) with n_max = 4, and every census orbit up to the
    bound under its orbit_specs, with n_max = r // 2, so that n meets every
    residue mod r."""
    bad = [("CanonicalTrace", 1, 0, n) for n in unit_moment_mismatches(CanonicalTrace(params), 4)]
    for orbit in dynamics.census(params, max_denominator)[1]:
        r, a0 = orbit.denominator, orbit.numerators[0]
        for spec in orbit_specs(orbit):
            bad += [(type(spec).__name__, r, a0, n) for n in unit_moment_mismatches(spec, r // 2)]
    return bad


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
                if spec.orbit.stabilizer.coords(g.m, g.n) is None:
                    continue
                twist = spec.chi.exponent(g.m, g.n)
            elif (g.m, g.n) != (0, 0):
                continue
            else:
                twist = None
            r = spec.orbit.denominator
            v = reference_orbit_mean(spec.orbit, g.x.num * pow(p**g.x.a * q**g.x.b, -1, r) % r)
            if twist is not None and twist.num != 0:
                v = root_of_unity(twist) * v
        v = v.scaled(c)
        total = v if total is None else total + v
    return Cyclotomic.zero() if total is None else total


def trace_mismatches(params: SystemParams, max_denominator: int, count: int,
                     seed: int = 0) -> list[tuple[int, int, int, int]]:
    """The (r, least numerator, trace index, element index) at which
    trace_eval differs from reference_trace_eval in level, den or vec, on
    count random elements a and on a.star() * a, over every census orbit up
    to the bound that is not every unit mod r or whose r is composite.  The
    traces are the orbit measure (index 0) and the characters (0, 0),
    (1/2, 0) and (1/3, 1/4), of orders 1, 2 and 12.  Most terms lie on the
    stabilizer lattice, some at (0, 0) and some off it.  Half the terms c
    u_(y, m, n) come with -c u_(y', m, n) for y' one of y + r (the same
    pairing factor), p y and q y (the same period), so that keys summing to
    0, twisted ones included, occur."""
    p, q = params.p, params.q
    rng = random.Random(seed)
    bad = []
    for orbit in dynamics.census(params, max_denominator)[1]:
        r, a0 = orbit.denominator, orbit.numerators[0]
        if orbit.size == euler_phi(r) and _prime_factors(r) == [r]:
            continue
        specs = [OrbitMeasureTrace(orbit)] + [
            FiniteOrbitTrace(orbit, Character(orbit.stabilizer, t1, t2))
            for t1, t2 in ((QmodZ(0, 1), QmodZ(0, 1)), (QmodZ(1, 2), QmodZ(0, 1)), (QmodZ(1, 3), QmodZ(1, 4)))
        ]
        (ba, bb), (_, bc) = orbit.stabilizer.basis
        for i in range(count):
            terms = []
            for _ in range(rng.randint(1, 5)):
                u = rng.random()
                if u < 0.25:
                    m, n = 0, 0
                elif u < 0.85:
                    j, k = rng.randint(-2, 2), rng.randint(-2, 2)
                    m, n = j * ba, j * bb + k * bc
                else:
                    m, n = rng.randint(-3, 3), rng.randint(-3, 3)
                y = Fraction(rng.randint(-2 * r, 2 * r), p ** rng.randint(0, 2) * q ** rng.randint(0, 2))
                c = Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
                terms.append((y, m, n, c))
                if rng.random() < 0.5:
                    terms.append((rng.choice((y + r, p * y, q * y)), m, n, -c))
            a = GroupAlgebraElement.from_terms(
                params, [(GroupElement(PqRational.from_fraction(y, p, q), m, n), c) for y, m, n, c in terms]
            )
            for el in (a, a.star() * a):
                for j, spec in enumerate(specs):
                    got, want = traces.trace_eval(spec, el), reference_trace_eval(spec, el)
                    if (got.level, got.den, got.vec) != (want.level, want.den, want.vec):
                        bad.append((r, a0, j, i))
    return bad
