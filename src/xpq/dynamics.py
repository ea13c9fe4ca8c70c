"""The times-p, times-q action on rational points of the circle.

A pair of multiplicatively independent integers p, q >= 2 acts on R/Z by
multiplication.  On the pq-adic solenoid the pair of maps becomes a
Z^2-action beta, where (m, n) acts by multiplication with p^(-m) q^(-n);
in particular (1, 1) is the shift that divides by pq.  A rational point
a/r with gcd(r, pq) = 1 determines (and is determined by) a finite orbit:
the orbit of the subgroup <p, q> of (Z/rZ)^* acting on numerators.

This module computes those orbits, each stored as its sorted integer
numerators mod r, the stabilizer lattices

    L_r = { (m, n) in Z^2 : p^m q^n = 1 mod r },

presented by a canonical row Hermite basis [[a, b], [0, c]], their
characters with rational coordinates in that basis, the finite
minimal invariant sets up to a denominator bound, fixed-point data of
individual group elements, and backward orbits along the pq-division map.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from math import gcd, isqrt

from .errors import IdentityElement, NotCoprime, OutOfRange
from .exact import (
    Cyclotomic, QmodZ, _factorize_cached, euler_phi, is_multiplicatively_independent,
    multiplicative_order, root_of_unity,
)

# Largest |exponent| of p or q accepted from a caller.  Powers are exact
# integers, so p**e costs time and memory that grow with e: at e = 10**5
# a single power of 2 and 3 already takes seconds.
MAX_EXPONENT = 10_000

# Most fixed points fixed_points lists, with or without a denominator bound.
MAX_FIXED_LISTING = 100_000

# Most candidate denominators fixed_points scans under a denominator bound:
# the scan runs over d <= min(max_denominator, count), one division each.
MAX_DENOMINATOR_SCAN = 10**6

# Largest denominator bound census and enumerate_minimal_sets accept.  The
# census up to N holds sum phi(r) over r <= N coprime to pq, of order N^2
# points: at N = 5000, 3.8 million at (2, 3) and 5.5 million at (5, 7),
# which `xpq orbits` writes as 79 and 116 MB of JSON.  census builds them r
# by r, so its memory is O(N + largest orbit); the bound caps time and
# output, which grow as N^2.
MAX_ORBIT_DENOMINATOR = 5_000

# Largest ord_r(q), and largest least m with p^m in <q>, that
# stabilizer_lattice accepts.  The lattice holds only ceil(sqrt(ord_r(q)))
# powers of q, so the limit is not what keeps it cheap (with the limit
# lifted, r = 10000019, where ord_r(3) = 5000009, takes about 1 ms); it
# bounds the diagonal entries a and c of every basis.
MAX_STABILIZER_ORDER = 10**6

# Longest backward orbit lift_sequence builds: one point per step, about
# 11 bytes of JSON each.
MAX_LIFT_DEPTH = 10**6


def check_exponent(name: str, value: int) -> None:
    """Refuse an exponent beyond MAX_EXPONENT before any power is computed."""
    if abs(value) > MAX_EXPONENT:
        raise OutOfRange(f"exponent {name} = {value} out of range; |{name}| must be <= {MAX_EXPONENT}")


def int_text(n: int) -> str:
    """n in decimal, or "about 2^k" from 4096 bits on, where str() may refuse it."""
    return str(n) if n.bit_length() < 4096 else f"about 2^{n.bit_length() - 1}"


@dataclass(frozen=True, slots=True)
class SystemParams:
    """The pair of multiplication bases, with independence precomputed.

    Operations that need multiplicative independence state so; everything
    else runs for any p, q >= 2 (the CLI warns on dependent pairs).
    """

    p: int
    q: int
    mult_indep: bool = field(init=False)

    def __post_init__(self):
        if self.p < 2 or self.q < 2:
            raise OutOfRange(f"bases ({self.p}, {self.q}) must both be >= 2")
        object.__setattr__(self, "mult_indep", is_multiplicatively_independent(self.p, self.q))

    @property
    def pq(self) -> int:
        return self.p * self.q

    def require_coprime(self, den: int) -> None:
        if gcd(den, self.pq) != 1:
            raise NotCoprime(f"denominator {den} shares a factor with pq = {self.pq}")


@dataclass(frozen=True, slots=True)
class SolenoidPoint:
    """A rational point of the solenoid, identified by its circle coordinate.

    Rational points with denominator coprime to pq lift uniquely to the
    solenoid, so the single coordinate is faithful.
    """

    coord: QmodZ

    @classmethod
    def of(cls, num: int, den: int) -> SolenoidPoint:
        return cls(QmodZ(num, den))

    def __str__(self) -> str:
        return str(self.coord)


@dataclass(frozen=True, slots=True)
class StabilizerLattice:
    """A finite-index sublattice of Z^2 in row Hermite form.

    basis = ((a, b), (0, c)) with a, c > 0 and 0 <= b < c; the index in
    Z^2 is a*c.
    """

    basis: tuple[tuple[int, int], tuple[int, int]]
    index: int

    def __post_init__(self):
        (a, b), (z, c) = self.basis
        if z != 0 or a <= 0 or c <= 0 or not 0 <= b < c:
            raise ValueError(f"basis {self.basis} is not in row Hermite form")
        if self.index != a * c:
            raise ValueError(f"index {self.index} != {a}*{c}")

    def coords(self, m: int, n: int) -> tuple[int, int] | None:
        """Coordinates of (m, n) in the basis, or None if outside the lattice."""
        (a, b), (_, c) = self.basis
        if m % a != 0:
            return None
        c1 = m // a
        rest = n - c1 * b
        if rest % c != 0:
            return None
        return c1, rest // c

    def contains(self, m: int, n: int) -> bool:
        return self.coords(m, n) is not None


@dataclass(frozen=True, slots=True)
class Character:
    """A character of a stabilizer lattice with rational coordinates.

    (t1, t2) are the values (as elements of Q/Z, i.e. exponents) on the
    two Hermite basis vectors of the lattice.
    """

    lattice: StabilizerLattice
    t1: QmodZ
    t2: QmodZ

    @classmethod
    def trivial(cls, lattice: StabilizerLattice) -> Character:
        return cls(lattice, QmodZ(0, 1), QmodZ(0, 1))

    def is_trivial(self) -> bool:
        return self.t1.is_zero() and self.t2.is_zero()

    def exponent(self, m: int, n: int) -> QmodZ:
        """chi(m, n) as an exponent in Q/Z; (m, n) must lie in the lattice."""
        coords = self.lattice.coords(m, n)
        if coords is None:
            raise OutOfRange(f"({m}, {n}) is not in the lattice {self.lattice.basis}")
        c1, c2 = coords
        return self.t1.mul_int(c1) + self.t2.mul_int(c2)

    def value(self, m: int, n: int) -> Cyclotomic:
        return root_of_unity(self.exponent(m, n))


@dataclass(frozen=True, slots=True)
class OrbitData:
    """A finite orbit: the sorted numerators a of all points a/r in lowest
    terms reachable from one of them under multiplication by p and q,
    together with the common stabilizer lattice.  len(numerators) equals
    stabilizer.index."""

    params: SystemParams
    denominator: int
    numerators: tuple[int, ...]
    stabilizer: StabilizerLattice

    @property
    def size(self) -> int:
        return len(self.numerators)


@dataclass(frozen=True, slots=True)
class FixedPoints:
    """Fixed-point data of one group element: the exact count and the
    points themselves (possibly restricted to a denominator bound)."""

    count: int
    sample: tuple[SolenoidPoint, ...]


def beta_apply(params: SystemParams, g: tuple[int, int], x: SolenoidPoint) -> SolenoidPoint:
    """Apply beta_(m,n): multiplication by p^(-m) q^(-n) on the solenoid.

    beta_(1,1) is the shift; beta_(-1,0) is plain multiplication by p.

    >>> beta_apply(SystemParams(2, 3), (1, 0), SolenoidPoint.of(1, 5))
    SolenoidPoint(coord=QmodZ(num=3, den=5))
    """
    m, n = g
    r = x.coord.den
    params.require_coprime(r)
    w = pow(params.p, -m, r) * pow(params.q, -n, r) % r
    return SolenoidPoint(x.coord.mul_int(w))


def _powers(g: int, n: int, r: int) -> list[int]:
    """[g^0, ..., g^(n-1)] mod r, doubling the list at each step."""
    out = [1 % r]
    while len(out) < n:
        step = pow(g, len(out), r)
        out += [step * x % r for x in out[: n - len(out)]]
    return out


def _discrete_log(g: int, c: int, r: int) -> Callable[[int], int | None]:
    """The discrete log to the base g mod r, where c = ord_r(g), by baby-step
    giant-step (Shanks 1971): a function taking x to the j in [0, c) with
    g^j = x mod r, or to None when x is not in <g>.  It tables the baby
    steps g^j, j < s = ceil(sqrt(c)), and takes at most ceil(c / s) giant
    steps by g^-s; the first step i that meets a baby step g^j gives
    j + s i, which is below c."""
    s = isqrt(c - 1) + 1
    baby = {v: j for j, v in enumerate(_powers(g, s, r))}
    giant = pow(g, -s, r)
    steps = -(-c // s)

    def log(x: int) -> int | None:
        for i in range(steps):
            j = baby.get(x)
            if j is not None:
                return j + s * i
            x = x * giant % r
        return None

    return log


def stabilizer_lattice(params: SystemParams, r: int) -> StabilizerLattice:
    """The lattice L_r = {(m, n) : p^m q^n = 1 mod r} in Hermite form.

    The second basis vector is (0, c) with c = ord_r(q); the first is
    (a, b) where a is least positive with p^a in <q> mod r, and q^-b = p^a.
    The m with p^m in <q> form aZ, which holds ord_r(p), so a is found by
    order descent: start at m = ord_r(p) and strip each prime factor l
    while p^(m/l) stays in <q>.  Membership and the log that gives b are
    baby-step giant-step over ceil(sqrt(c)) powers of q.  The index a*c
    equals the order of <p, q> in (Z/rZ)^*.  OutOfRange is raised when c,
    or a, exceeds MAX_STABILIZER_ORDER, before any power of q is tabled in
    the first case.

    >>> stabilizer_lattice(SystemParams(2, 3), 5).basis
    ((1, 1), (0, 4))
    """
    if r < 1:
        raise OutOfRange(f"denominator {r} out of range; expected r >= 1")
    params.require_coprime(r)
    if r == 1:
        return StabilizerLattice(((1, 0), (0, 1)), 1)
    p, q = params.p, params.q
    c = multiplicative_order(q, r)
    if c > MAX_STABILIZER_ORDER:
        raise OutOfRange(
            f"denominator {r}: ord_r(q) = {c} exceeds the stabilizer limit {MAX_STABILIZER_ORDER}"
        )
    log_q = _discrete_log(q, c, r)
    a = multiplicative_order(p, r)
    for ell in _factorize_cached(a).primes:
        while a % ell == 0 and log_q(pow(p, a // ell, r)) is not None:
            a //= ell
    if a > MAX_STABILIZER_ORDER:
        raise OutOfRange(
            f"denominator {r}: no p^m with m <= {MAX_STABILIZER_ORDER} lies in <q> "
            f"(ord_r(q) = {c}); {MAX_STABILIZER_ORDER} is the stabilizer limit"
        )
    b = -log_q(pow(p, a, r)) % c
    return StabilizerLattice(((a, b), (0, c)), a * c)


def _units(r: int) -> list[int]:
    """The units mod r in increasing order ([0] at r = 1): a bytearray mask
    with the multiples of each prime factor of r cleared, read by compress."""
    mask = bytearray(b"\x01") * r
    for ell in _factorize_cached(r).primes:
        mask[::ell] = bytes((r - 1) // ell + 1)
    return list(compress(range(r), mask))


def _subgroup(params: SystemParams, r: int, stab: StabilizerLattice, count: int) -> list[int]:
    """The subgroup <p, q> of (Z/rZ)^*, sorted: the numerators of the orbit
    of 1/r (of 0/1 at r = 1), given the orbit count phi(r) / index(stab).

    With one orbit, <p, q> is the whole unit group, read off by _units
    with no products and no sort.  Otherwise it is {p^i q^j : (i, j) in
    [0, a) x [0, c)}, where ((a, b), (0, c)) is the Hermite basis of its
    stabilizer lattice.  These a*c elements are distinct (p^i q^j =
    p^i' q^j' with |i - i'| < a puts p^(i - i') in <q>, so i = i', and
    then j = j' below c = ord_r(q)), and there are index(L_r) = |<p, q>|
    of them.
    """
    if count == 1:
        return _units(r)
    (a, _), (_, c) = stab.basis
    q_powers = _powers(params.q, c, r)
    return sorted([u * x % r for u in _powers(params.p, a, r) for x in q_powers])


def orbit_of(params: SystemParams, x: SolenoidPoint) -> OrbitData:
    """The finite orbit of a rational point under multiplication by p and q.

    The orbit of a/r is the coset a<p, q> of the subgroup built from the
    stabilizer basis, or all units mod r when <p, q> is the whole unit
    group; numerators are sorted.
    """
    r = x.coord.den
    params.require_coprime(r)
    stab = stabilizer_lattice(params, r)
    count = euler_phi(r) // stab.index
    subgroup = _subgroup(params, r, stab, count)
    if count > 1:
        a0 = x.coord.num
        subgroup = sorted([a0 * h % r for h in subgroup])
    return OrbitData(params, r, tuple(subgroup), stab)


def _orbits_mod(params: SystemParams, r: int, stab: StabilizerLattice, count: int) -> Iterator[OrbitData]:
    """Every orbit with denominator r, in order of least numerator, given
    the stabilizer lattice stab of r and the orbit count phi(r) / index(stab).

    The first orbit is the sorted subgroup <p, q> itself, the orbit of 1;
    with count 1 it is all the units and the only orbit.  Each later one
    is the coset a0<p, q> of the least unit a0 not yet covered; a0 times
    the sorted subgroup, reduced mod r, is a few ascending runs, which
    sorted() merges cheaply.  The scan stops after count orbits.
    """
    subgroup = _subgroup(params, r, stab, count)
    yield OrbitData(params, r, tuple(subgroup), stab)
    if count == 1:
        return
    left = count - 1
    seen = set(subgroup)
    a0 = 1
    while left:
        a0 += 1
        if a0 in seen or gcd(a0, r) != 1:
            continue
        nums = tuple(sorted([a0 * h % r for h in subgroup]))
        yield OrbitData(params, r, nums, stab)
        left -= 1
        seen.update(nums)


def census(params: SystemParams, max_denominator: int) -> tuple[int, Iterator[OrbitData]]:
    """The number of finite minimal invariant sets with denominator <= the
    bound, and an iterator over them in the order of enumerate_minimal_sets.

    A bound outside [1, MAX_ORBIT_DENOMINATOR] is refused before any
    lattice is built.  The stabilizer lattices of all r come first, and the
    count is the sum of phi(r) / index(L_r) over them; the orbits are then
    built r by r as the iterator is read, so at most one denominator's
    orbits are held at a time.
    """
    if not 1 <= max_denominator <= MAX_ORBIT_DENOMINATOR:
        raise OutOfRange(
            f"max_denominator = {max_denominator} out of range; "
            f"expected 1 <= max_denominator <= {MAX_ORBIT_DENOMINATOR}"
        )
    per_r = []
    for r in range(1, max_denominator + 1):
        if gcd(r, params.pq) == 1:
            stab = stabilizer_lattice(params, r)
            per_r.append((r, stab, euler_phi(r) // stab.index))
    count = sum(k for _, _, k in per_r)
    return count, (orbit for r, stab, k in per_r for orbit in _orbits_mod(params, r, stab, k))


def enumerate_minimal_sets(params: SystemParams, max_denominator: int) -> list[OrbitData]:
    """All finite minimal invariant sets with denominator <= the bound.

    These are exactly the <p, q>-orbits on lowest-terms numerators mod r
    for each r coprime to pq, plus the fixed point {0} (the r = 1 entry).
    Ordered by (r, least numerator); numerators within an orbit are sorted.
    This is the census of the bound as a list; a bound above
    MAX_ORBIT_DENOMINATOR is refused before any orbit is built.
    """
    return list(census(params, max_denominator)[1])


def is_invariant_set(params: SystemParams, points) -> bool:
    """Whether a finite set of SolenoidPoints is invariant, i.e. both
    multiplication by p and by q permute it."""
    b = {x.coord for x in points}
    return {x.mul_int(params.p) for x in b} == b and {x.mul_int(params.q) for x in b} == b


def fixed_points(
    params: SystemParams, g: tuple[int, int], max_denominator: int | None = None
) -> FixedPoints:
    """Rational fixed points of beta_(m,n) on the solenoid.

    a/r is fixed exactly when r divides p^m q^n - 1 (as an element of
    Z[1/pq]; equivalently r divides the pq-free part of its numerator t).
    The fixed set is therefore { a/count : 0 <= a < count } where count is
    the largest divisor of |t| coprime to pq.

    With a denominator bound, sample keeps only the fixed points whose
    lowest-terms denominator is within the bound; count is exact either
    way.  OutOfRange is raised for |m| or |n| above MAX_EXPONENT, for a
    listing of more than MAX_FIXED_LISTING points, and for a bound whose
    scan min(max_denominator, count) exceeds MAX_DENOMINATOR_SCAN.

    >>> fixed_points(SystemParams(2, 3), (1, 1)).count
    5
    """
    m, n = g
    check_exponent("m", m)
    check_exponent("n", n)
    if (m, n) == (0, 0):
        raise IdentityElement("(0, 0) fixes every point")
    w = Fraction(params.p) ** m * Fraction(params.q) ** n - 1
    if w == 0:
        raise IdentityElement(
            f"p^{m} q^{n} = 1, so the element acts trivially and Fix is all of X"
        )
    t = abs(w.numerator)
    g_ = gcd(t, params.pq)
    while g_ > 1:
        t //= g_
        g_ = gcd(t, params.pq)
    count = t
    if max_denominator is None:
        if count > MAX_FIXED_LISTING:
            raise OutOfRange(
                f"{int_text(count)} fixed points exceed the listing limit {MAX_FIXED_LISTING}; "
                "a denominator bound (--max-den) gives the exact count with a bounded list"
            )
        sample = tuple(SolenoidPoint(QmodZ(a, count)) for a in range(count))
    else:
        # every fixed denominator divides count, so none lies above it
        scan = min(max_denominator, count)
        if scan > MAX_DENOMINATOR_SCAN:
            raise OutOfRange(
                f"max_denominator = {max_denominator} would scan {scan} denominators; "
                f"the scan limit is {MAX_DENOMINATOR_SCAN}"
            )
        pts = []
        for d in range(1, scan + 1):
            if count % d == 0:
                pts.extend(QmodZ(a, d) for a in range(d) if gcd(a, d) == 1)
                if len(pts) > MAX_FIXED_LISTING:
                    raise OutOfRange(
                        f"more than {MAX_FIXED_LISTING} fixed points have a denominator <= "
                        f"{max_denominator}, the listing limit; lower max_denominator"
                    )
        pts.sort(key=QmodZ.to_fraction)
        sample = tuple(SolenoidPoint(x) for x in pts)
    return FixedPoints(count, sample)


def lift_sequence(params: SystemParams, x: SolenoidPoint, depth: int) -> tuple[SolenoidPoint, ...]:
    """The backward orbit (x_0, ..., x_depth) along division by pq:
    x_0 = x and pq * x_(i+1) = x_i on the circle.

    On denominators coprime to pq the division is the multiplication by
    the inverse of pq mod r, so the lift is unique and stays rational.
    """
    if not 0 <= depth <= MAX_LIFT_DEPTH:
        raise OutOfRange(f"depth = {depth} out of range; expected 0 <= depth <= {MAX_LIFT_DEPTH}")
    r = x.coord.den
    params.require_coprime(r)
    w = pow(params.pq, -1, r)
    out = [x]
    a = x.coord.num
    for _ in range(depth):
        a = a * w % r
        out.append(SolenoidPoint(QmodZ(a, r)))
    return tuple(out)
