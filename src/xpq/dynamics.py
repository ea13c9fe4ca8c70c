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

import sys
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from itertools import compress, islice
from math import gcd, isqrt, lcm

from .errors import IdentityElement, NotCoprime, OutOfRange, ParamsMismatch, check_range, int_text
from .exact import (
    Cyclotomic, QmodZ, Record, _descend, _gcd_steps, carmichael, euler_phi, factorize,
    multiplicative_dependence_witness, root_of_unity,
)

# Largest |exponent| of p or q accepted from a caller.  Powers are exact
# integers, so p**e costs time and memory that grow with e: at e = 10**5
# a single power of 2 and 3 already takes seconds.
MAX_EXPONENT = 10_000

# Largest |m| bit_length(p) + |n| bit_length(q), a bound on the bits of
# p^|m| q^|n|, that fixed_points accepts: at p = 10^4299 and m = 10000 the
# power has 1.4 * 10^8 bits, while |m|, |n| <= MAX_EXPONENT at (2, 3) need 40000.
MAX_POWER_BITS = 2**16

# Most fixed points fixed_points lists, with or without a denominator bound.
MAX_FIXED_LISTING = 100_000

# Most candidate denominators fixed_points scans under a denominator bound:
# the scan runs over d <= min(max_denominator, count), one division each.
MAX_DENOMINATOR_SCAN = 10**6

# Largest denominator bound census and enumerate_minimal_sets accept.  The
# census up to N holds sum phi(r) over r <= N coprime to pq, of order N^2
# points: at N = 5000, 3.8 million at (2, 3) and 5.5 million at (5, 7),
# which `xpq orbits` writes as 79 and 116 MB of JSON.  The bound caps time
# and output, which grow as N^2; census states its memory.
MAX_ORBIT_DENOMINATOR = 5_000

# Every numerator a census point can have, 0 <= a < MAX_ORBIT_DENOMINATOR.
_NUMERATORS = tuple(range(MAX_ORBIT_DENOMINATOR))

# Largest diagonal entry c = ord_r(q) or a of a stabilizer basis that
# stabilizer_lattice and census accept, each checked where
# stabilizer_lattice states.  It bounds the size of a basis, not the work
# of building it.
MAX_STABILIZER_ORDER = 10**6

# Longest backward orbit lift_sequence builds: one point per step, about
# 11 bytes of JSON each.
MAX_LIFT_DEPTH = 10**6


def str_digit_limit() -> tuple[int, int | None]:
    """(digits, 10**digits): the most decimal digits str() writes of an int,
    sys.get_int_max_str_digits(), and the least int with more; (0, None) if none."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    return digits, 10**digits if digits else None


class SystemParams(Record):
    """The pair of multiplication bases, with independence precomputed.

    Operations that need multiplicative independence state so; everything
    else runs for any p, q >= 2 (the CLI warns on dependent pairs).
    """

    __slots__ = ("p", "q", "mult_indep")

    def __init__(self, p: int, q: int):
        # the witness refuses p or q < 2 before any field is set
        super().__init__(p, q, multiplicative_dependence_witness(p, q) is None)

    @property
    def pq(self) -> int:
        return self.p * self.q

    def require_coprime(self, den: int) -> None:
        if gcd(den, self.pq) != 1:
            raise NotCoprime(f"denominator {int_text(den)} shares a factor with pq = {int_text(self.pq)}")


class SolenoidPoint(Record):
    """A rational point of the solenoid, identified by its circle coordinate.

    Rational points with denominator coprime to pq lift uniquely to the
    solenoid, so the single coordinate is faithful.
    """

    __slots__ = ("coord",)

    @classmethod
    def of(cls, num: int, den: int) -> SolenoidPoint:
        return cls(QmodZ(num, den))

    def __str__(self) -> str:
        return str(self.coord)


class StabilizerLattice(Record):
    """A finite-index sublattice of Z^2 in row Hermite form:
    basis = ((a, b), (0, c)) with a, c > 0 and 0 <= b < c."""

    __slots__ = ("basis",)

    def __init__(self, basis: tuple[tuple[int, int], tuple[int, int]]):
        (a, b), (z, c) = basis
        if z != 0 or a <= 0 or c <= 0 or not 0 <= b < c:
            raise ValueError(f"basis {basis} is not in row Hermite form")
        (set_basis,) = self._setters
        set_basis(self, basis)

    @property
    def index(self) -> int:
        """The index a*c in Z^2."""
        (a, _), (_, c) = self.basis
        return a * c

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


class Character(Record):
    """A character of a stabilizer lattice with rational coordinates.

    (t1, t2) are the values (as elements of Q/Z, i.e. exponents) on the
    two Hermite basis vectors of the lattice.
    """

    __slots__ = ("lattice", "t1", "t2")

    def __init__(self, lattice: StabilizerLattice, t1: QmodZ, t2: QmodZ):
        set_lattice, set_t1, set_t2 = self._setters
        set_lattice(self, lattice)
        set_t1(self, t1)
        set_t2(self, t2)

    @classmethod
    def trivial(cls, lattice: StabilizerLattice) -> Character:
        return cls(lattice, QmodZ(0, 1), QmodZ(0, 1))

    def exponent(self, m: int, n: int) -> QmodZ:
        """chi(m, n) as an exponent in Q/Z; (m, n) must lie in the lattice."""
        coords = self.lattice.coords(m, n)
        if coords is None:
            raise OutOfRange(f"({m}, {n}) is not in the lattice {self.lattice.basis}")
        c1, c2 = coords
        return self.t1.mul_int(c1) + self.t2.mul_int(c2)

    def value(self, m: int, n: int) -> Cyclotomic:
        return root_of_unity(self.exponent(m, n))


class OrbitData(Record):
    """A finite orbit: the sorted numerators a of all points a/r in lowest
    terms reachable from one of them under multiplication by p and q,
    together with the common stabilizer lattice.  len(numerators) equals
    stabilizer.index."""

    __slots__ = ("params", "denominator", "numerators", "stabilizer")

    def __init__(self, params: SystemParams, denominator: int, numerators: tuple[int, ...],
                 stabilizer: StabilizerLattice):
        set_params, set_denominator, set_numerators, set_stabilizer = self._setters
        set_params(self, params)
        set_denominator(self, denominator)
        set_numerators(self, numerators)
        set_stabilizer(self, stabilizer)

    @property
    def size(self) -> int:
        return len(self.numerators)

    def require_character(self, chi: Character) -> None:
        """Refuse a character of any lattice but this orbit's stabilizer."""
        if chi.lattice != self.stabilizer:
            raise ParamsMismatch(f"character lattice differs from the orbit stabilizer mod {self.denominator}")


class FixedPoints(Record):
    """Fixed-point data of one group element: the exact count and the
    points themselves (possibly restricted to a denominator bound)."""

    __slots__ = ("count", "sample")


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


def _discrete_log(g: int, c: int, r: int) -> Callable[[int], int | None]:
    """The discrete log to the base g mod r, where c = ord_r(g), by baby-step
    giant-step (Shanks 1971): a function taking x to the j in [0, c) with
    g^j = x mod r, or to None when x is not in <g>.  It tables the baby
    steps g^j, j < s = ceil(sqrt(c)), by one loop of multiplications by g,
    and takes at most ceil(c / s) giant steps by g^-s; the first step i
    that meets a baby step g^j gives j + s i, which is below c."""
    s = isqrt(c - 1) + 1
    baby, x = {}, 1 % r
    for j in range(s):
        baby[x] = j
        x = x * g % r
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


def _meet(lat1: StabilizerLattice, lat2: StabilizerLattice) -> StabilizerLattice:
    """The intersection of two lattices in Hermite form, in Hermite form.

    With L_i = <(a_i, b_i), (0, c_i)>, (m, n) lies in both when m is a
    multiple t A of A = lcm(a1, a2) and n = t (A/a_i) b_i mod c_i for both
    i.  Those congruences agree mod g = gcd(c1, c2) exactly when g divides
    t D, D = (A/a1) b1 - (A/a2) b2, so the least t is g / gcd(g, D), which
    gives a; c = lcm(c1, c2), and b is the common solution mod c of
    n = (a/a1) b1 mod c1 and n = (a/a2) b2 mod c2.  For coprime r1, r2,
    L_(r1 r2) is the meet of L_r1 and L_r2 by the Chinese remainder theorem.
    """
    (a1, b1), (_, c1) = lat1.basis
    (a2, b2), (_, c2) = lat2.basis
    big = lcm(a1, a2)
    g = gcd(c1, c2)
    a = big * g // gcd(g, big // a1 * b1 - big // a2 * b2)
    c = c1 // g * c2
    x1, x2 = a // a1 * b1 % c1, a // a2 * b2 % c2
    # n = x1 + c1 k with c1 k = x2 - x1 mod c2; g divides x2 - x1 by the choice of a
    k = (x2 - x1) // g * pow(c1 // g, -1, c2 // g) % (c2 // g)
    return StabilizerLattice(((a, (x1 + c1 * k) % c), (0, c)))


def _check_stabilizer_limit(r: int, c: int, a: int = 1) -> None:
    """Refuse the lattice of r when c = ord_r(q), or the least a with p^a in
    <q>, exceeds MAX_STABILIZER_ORDER."""
    if c > MAX_STABILIZER_ORDER:
        raise OutOfRange(
            f"denominator {int_text(r)}: ord_r(q) = {int_text(c)} exceeds the stabilizer limit "
            f"{MAX_STABILIZER_ORDER}"
        )
    if a > MAX_STABILIZER_ORDER:
        raise OutOfRange(
            f"denominator {int_text(r)}: no p^m with m <= {MAX_STABILIZER_ORDER} lies in <q> "
            f"(ord_r(q) = {c}); {MAX_STABILIZER_ORDER} is the stabilizer limit"
        )


def stabilizer_lattice(params: SystemParams, r: int) -> StabilizerLattice:
    """The lattice L_r = {(m, n) : p^m q^n = 1 mod r} in Hermite form.

    The second basis vector is (0, c) with c = ord_r(q); the first is
    (a, b) where a is least positive with p^a in <q> mod r, and q^-b = p^a.
    The index a*c equals the order of <p, q> in (Z/rZ)^*.

    L_r is the meet (_meet) of the lattices of the prime powers s = l^k
    that make up r (of r itself at r = 1).  Each of those is built from
    lambda(s), the exponent of (Z/sZ)^*: c = ord_s(q) by order descent,
    from m = lambda stripping each prime factor while q^(m/l) = 1.  For
    odd s the unit group is cyclic, so p^m lies in <q> exactly when
    (p^m)^c = 1, and a = ord_s(p) / gcd(ord_s(p), c), with ord_s(p) by the
    same descent.  For s = 2^k, whose unit group is not cyclic from k = 3
    on, the m with p^m in <q> form aZ, which holds lambda, so a is the
    descent that strips a prime factor while p^(m/l) stays in <q>, tested
    by baby-step giant-step over ceil(sqrt(c)) powers of q.  The one log
    that gives b is that baby-step giant-step.

    OutOfRange, naming r, is raised when c or a of r itself exceeds
    MAX_STABILIZER_ORDER: c = ord_r(q), the lcm of the prime powers'
    orders, before any power of q is tabled, and a after the meet.

    >>> stabilizer_lattice(SystemParams(2, 3), 5).basis
    ((1, 1), (0, 4))
    """
    check_range("r", r, 1)
    params.require_coprime(r)
    p, q = params.p, params.q
    parts = []
    for s in [ell**k for ell, k in factorize(r)] or [1]:
        lam = carmichael(s)
        parts.append((s, lam, _descend(lam, lambda m: pow(q, m, s) == 1)))
    c = lcm(*[cs for _, _, cs in parts])
    _check_stabilizer_limit(r, c)
    lat = None
    for s, lam, cs in parts:
        log_q = _discrete_log(q, cs, s)
        if s % 2:
            order_p = _descend(lam, lambda m: pow(p, m, s) == 1)
            a = order_p // gcd(order_p, cs)
        else:
            a = _descend(lam, lambda m: log_q(pow(p, m, s)) is not None)
        part = StabilizerLattice(((a, -log_q(pow(p, a, s)) % cs), (0, cs)))
        lat = part if lat is None else _meet(lat, part)
    _check_stabilizer_limit(r, c, lat.basis[0][0])
    return lat


def _unit_mask(r: int, primes: Iterable[int]) -> bytearray:
    """A bytearray of length r holding 1 at each unit mod r (at 0 when r = 1)
    and 0 elsewhere: the multiples of each prime factor of r, given in
    primes, cleared."""
    mask = bytearray(b"\x01") * r
    for ell in primes:
        mask[::ell] = bytes((r - 1) // ell + 1)
    return mask


def _label_coset(params: SystemParams, r: int, stab: StabilizerLattice, a0: int, mask: bytearray | dict) -> None:
    """Write 2 at each point of the coset a0<p, q> of (Z/rZ)^* in mask, a
    bytearray of length r or a dict.

    The coset is {a0 p^i q^j : (i, j) in [0, a) x [0, c)}, where
    ((a, b), (0, c)) is the Hermite basis of the stabilizer lattice stab.
    These a*c elements are distinct (p^i q^j = p^i' q^j' with |i - i'| < a
    puts p^(i - i') in <q>, so i = i', and then j = j' below c = ord_r(q)),
    and there are index(L_r) = |<p, q>| of them.  Row i is walked from
    a0 p^i by plain multiplications by q.
    """
    p, q = params.p, params.q
    (a, _), (_, c) = stab.basis
    for _ in range(a):
        x = a0
        for _ in range(c):
            mask[x] = 2
            x = x * q % r
        a0 = a0 * p % r


def orbit_of(params: SystemParams, x: SolenoidPoint) -> OrbitData:
    """The finite orbit of a rational point a/r under multiplication by p
    and q: the coset a<p, q> of (Z/rZ)^*, its numerators sorted
    (_build_orbit)."""
    return _build_orbit(params, x.coord, stabilizer_lattice(params, x.coord.den))


def _build_orbit(params: SystemParams, x: QmodZ, stab: StabilizerLattice) -> OrbitData:
    """The orbit of the point x = a/r of Q/Z, given the stabilizer lattice
    stab of r (orbit_of).  Where <p, q> is the whole unit group it is all
    units, read off the unit mask.  Otherwise _label_coset labels a<p, q>
    in a dict, whose keys are sorted: r may lie far above the orbit's size
    (at (2, 4) the orbit of 1/(2^61 - 1) has 61 points)."""
    r = x.den
    if stab.index == euler_phi(r):
        nums = compress(range(r), _unit_mask(r, [ell for ell, _ in factorize(r)]))
    else:
        found: dict[int, int] = {}
        _label_coset(params, r, stab, x.num, found)
        nums = sorted(found)
    return OrbitData(params, r, tuple(nums), stab)


# Tables for bytearray.translate on a census unit mask, whose entries are 0
# (no unit, or a unit already listed), 1 (a unit not yet covered) or 2 (an
# element of <p, q>): _SUBGROUP keeps the 2s, as 1, and _UNCOVERED the 1s.
_SUBGROUP = bytes.maketrans(b"\x01\x02", b"\x00\x01")
_UNCOVERED = bytes.maketrans(b"\x02", b"\x00")


def _orbits_mod(
    params: SystemParams, r: int, stab: StabilizerLattice, count: int, primes: tuple[int, ...]
) -> Iterator[OrbitData]:
    """Every orbit with denominator r, in order of least numerator, given
    the stabilizer lattice stab of r, the orbit count phi(r) / index(stab)
    and the prime factors of r.

    One unit mask of r holds every label.  With count 1 the orbit is all
    the units, read off the mask.  Otherwise _label_coset writes 2 at each
    element of <p, q> as it generates it, and the first orbit, the orbit
    of 1, is read off the 2s in increasing order, with no sort.  Each
    middle orbit is the coset a0<p, q> of the least unit a0 still labelled
    1; a0 times the sorted subgroup, reduced mod r, is a few ascending
    runs, which sorted() merges cheaply, and its points are cleared in the
    mask.  The last orbit is the units still labelled 1.  Orbits are read
    off the mask from _NUMERATORS, so r <= MAX_ORBIT_DENOMINATOR and their
    points share its ints instead of one new int per point.
    """
    mask = _unit_mask(r, primes)
    if count > 1:
        _label_coset(params, r, stab, 1, mask)
        subgroup = tuple(compress(_NUMERATORS, mask.translate(_SUBGROUP)))
        yield OrbitData(params, r, subgroup, stab)
        a0 = 1
        for _ in range(count - 2):
            a0 = mask.find(1, a0)
            nums = sorted([a0 * h % r for h in subgroup])
            for x in nums:
                mask[x] = 0
            yield OrbitData(params, r, tuple(nums), stab)
        mask = mask.translate(_UNCOVERED)
    yield OrbitData(params, r, tuple(compress(_NUMERATORS, mask)), stab)


def census(params: SystemParams, max_denominator: int) -> tuple[int, Iterator[OrbitData]]:
    """The number of finite minimal invariant sets with denominator <= the
    bound, and an iterator over them in the order of enumerate_minimal_sets.

    The bound, 1 to MAX_ORBIT_DENOMINATOR, is checked first.  The lattices
    of all r come next, each held to the stabilizer limit as
    stabilizer_lattice holds its own, and the count is the sum of
    phi(r) / index(L_r) over them.  The orbits are built r by r as the
    iterator is read, each r's read off one labelled unit mask of r bytes
    (_orbits_mod), so at most one denominator's orbits and mask are held at
    a time: memory is O(N + largest orbit) at the bound N.

    A smallest-prime-factor sieve splits each r into l^k m, l its least
    prime factor and m coprime to l.  r = 1 and the prime powers go to
    stabilizer_lattice; any other r takes the _meet of the lattices of l^k
    and m, built before it, and its phi and primes from theirs, so no r is
    factored.
    """
    check_range("max_denominator", max_denominator, 1, MAX_ORBIT_DENOMINATOR)
    spf = list(range(max_denominator + 1))
    for i in range(isqrt(max_denominator), 1, -1):  # the least divisor i > 1 is written last
        spf[i * i :: i] = [i] * len(range(i * i, max_denominator + 1, i))
    table: list[tuple[StabilizerLattice, int, tuple[int, ...]] | None] = [None] * (max_denominator + 1)
    table[1] = (stabilizer_lattice(params, 1), 1, ())
    per_r = [(1, table[1][0], 1, ())]
    for r in range(2, max_denominator + 1):
        if gcd(r, params.pq) != 1:
            continue
        ell = s = spf[r]
        while r // s % ell == 0:
            s *= ell
        if s == r:
            stab, phi, primes = stabilizer_lattice(params, r), r - r // ell, (ell,)
        else:
            (lat1, phi1, _), (lat2, phi2, rest) = table[s], table[r // s]
            stab, phi, primes = _meet(lat1, lat2), phi1 * phi2, (ell, *rest)
            _check_stabilizer_limit(r, stab.basis[1][1], stab.basis[0][0])
        table[r] = stab, phi, primes
        per_r.append((r, stab, phi // stab.index, primes))
    count = sum(k for _, _, k, _ in per_r)
    return count, (orbit for row in per_r for orbit in _orbits_mod(params, *row))


def enumerate_minimal_sets(params: SystemParams, max_denominator: int) -> list[OrbitData]:
    """All finite minimal invariant sets with denominator <= the bound, the
    orbits of the module docstring with {0} as the r = 1 entry, ordered by
    (r, least numerator): the census of the bound as a list."""
    return list(census(params, max_denominator)[1])


def fixed_points(
    params: SystemParams, g: tuple[int, int], max_denominator: int | None = None
) -> FixedPoints:
    """Rational fixed points of beta_(m,n) on the solenoid.

    a/r is fixed exactly when r divides p^m q^n - 1 (as an element of
    Z[1/pq]; equivalently r divides the pq-free part of its numerator t).
    The fixed set is therefore { a/count : 0 <= a < count } where count is
    the largest divisor of |t| coprime to pq.

    The sample is one scan over the divisors d <= min(bound, count) of
    count, each giving its lowest-terms a/d, so with no bound it lists all
    count points.  OutOfRange is raised for |m| or |n| above MAX_EXPONENT,
    for a max_denominator below 1, and for |m| bit_length(p) +
    |n| bit_length(q) above MAX_POWER_BITS, all before any power is built;
    then for a listing of more than MAX_FIXED_LISTING points and for a scan
    min(max_denominator, count) above MAX_DENOMINATOR_SCAN.

    >>> fixed_points(SystemParams(2, 3), (1, 1)).count
    5
    """
    m, n = g
    check_range("m", m, -MAX_EXPONENT, MAX_EXPONENT)
    check_range("n", n, -MAX_EXPONENT, MAX_EXPONENT)
    if max_denominator is not None:
        check_range("max_denominator", max_denominator, 1)
    if (bits := abs(m) * params.p.bit_length() + abs(n) * params.q.bit_length()) > MAX_POWER_BITS:
        raise OutOfRange(f"|m| bit_length(p) + |n| bit_length(q) = {bits} exceeds MAX_POWER_BITS = {MAX_POWER_BITS}")
    if (m, n) == (0, 0):
        raise IdentityElement("(0, 0) fixes every point")
    w = Fraction(params.p) ** m * Fraction(params.q) ** n - 1
    if w == 0:
        raise IdentityElement(
            f"p^{m} q^{n} = 1, so the element acts trivially and Fix is all of X"
        )
    count = _gcd_steps(abs(w.numerator), params.pq)[1]
    if max_denominator is None:
        if count > MAX_FIXED_LISTING:
            raise OutOfRange(
                f"{int_text(count)} fixed points exceed the listing limit {MAX_FIXED_LISTING}; "
                "a denominator bound (--max-den) gives the exact count with a bounded list"
            )
        max_denominator = count
    # every fixed denominator divides count, so none lies above it
    scan = min(max_denominator, count)
    if scan > MAX_DENOMINATOR_SCAN:
        raise OutOfRange(
            f"max_denominator = {int_text(max_denominator)} would scan {int_text(scan)} denominators; "
            f"the scan limit is {MAX_DENOMINATOR_SCAN}"
        )
    pts = []
    for d in range(1, scan + 1):
        if count % d == 0:
            # at most one point past the limit is built
            pts.extend(islice((QmodZ(a, d) for a in range(d) if gcd(a, d) == 1), MAX_FIXED_LISTING + 1 - len(pts)))
            if len(pts) > MAX_FIXED_LISTING:
                raise OutOfRange(
                    f"more than {MAX_FIXED_LISTING} fixed points have a denominator <= "
                    f"{int_text(max_denominator)}, the listing limit; lower max_denominator"
                )
    pts.sort(key=lambda x: x.num * (count // x.den))
    return FixedPoints(count, tuple(SolenoidPoint(x) for x in pts))


def lift_sequence(params: SystemParams, x: SolenoidPoint, depth: int) -> tuple[SolenoidPoint, ...]:
    """The backward orbit (x_0, ..., x_depth) along division by pq:
    x_0 = x and pq * x_(i+1) = x_i on the circle.

    On denominators coprime to pq the division is the multiplication by
    the inverse of pq mod r, so the lift is unique and stays rational.
    """
    check_range("depth", depth, 0, MAX_LIFT_DEPTH)
    r = x.coord.den
    params.require_coprime(r)
    w = pow(params.pq, -1, r)
    out = [x]
    a = x.coord.num
    for _ in range(depth):
        a = a * w % r
        out.append(SolenoidPoint(QmodZ(a, r)))
    return tuple(out)
