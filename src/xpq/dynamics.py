"""The times-p, times-q action on rational points of the circle.

A pair of multiplicatively independent integers p, q >= 2 acts on R/Z by
multiplication.  On the pq-adic solenoid the pair of maps becomes a
Z^2-action beta, where (m, n) acts by multiplication with p^(-m) q^(-n);
in particular (1, 1) is the shift that divides by pq.  A rational point
a/r with gcd(r, pq) = 1 determines (and is determined by) a finite orbit:
the orbit of the subgroup <p, q> of (Z/rZ)^* acting on numerators.

This module computes those orbits, the stabilizer lattices

    L_r = { (m, n) in Z^2 : p^m q^n = 1 mod r },

presented by a canonical row Hermite basis [[a, b], [0, c]], the finite
minimal invariant sets up to a denominator bound, fixed-point data of
individual group elements, and backward orbits along the pq-division map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import IdentityElement, NotCoprime, OutOfRange
from .exact import QmodZ, is_multiplicatively_independent, multiplicative_order


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
class OrbitData:
    """A finite orbit: all points a/r in lowest terms reachable from one
    of them under multiplication by p and q, together with the common
    stabilizer lattice.  len(points) equals stabilizer.index."""

    params: SystemParams
    denominator: int
    points: tuple[SolenoidPoint, ...]
    stabilizer: StabilizerLattice

    @property
    def size(self) -> int:
        return len(self.points)

    def numerators(self) -> tuple[int, ...]:
        return tuple(pt.coord.num for pt in self.points)


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


def stabilizer_lattice(params: SystemParams, r: int) -> StabilizerLattice:
    """The lattice L_r = {(m, n) : p^m q^n = 1 mod r} in Hermite form.

    The second basis vector is (0, ord_r(q)); the first is (m, b) where m
    is least positive with p^m in <q> mod r.  The index a*c equals the
    order of <p, q> in (Z/rZ)^*.

    >>> stabilizer_lattice(SystemParams(2, 3), 5).basis
    ((1, 1), (0, 4))
    """
    if r < 1:
        raise OutOfRange(f"denominator {r} out of range; expected r >= 1")
    params.require_coprime(r)
    if r == 1:
        return StabilizerLattice(((1, 0), (0, 1)), 1)
    p, q = params.p, params.q
    dq = multiplicative_order(q, r)
    qpow_index = {}
    v = 1
    for j in range(dq):
        qpow_index[v] = j
        v = v * q % r
    m, pm = 1, p % r
    while pm not in qpow_index:
        m += 1
        pm = pm * p % r
    # q^j = p^m means p^m q^(dq - j) = 1, so the lattice point is (m, dq - j)
    j = qpow_index[pm]
    b = (dq - j) % dq
    return StabilizerLattice(((m, b), (0, dq)), m * dq)


def _orbit_numerators(params: SystemParams, a0: int, r: int) -> list[int]:
    """The sorted numerators of the orbit of a0/r.

    <p, q> is a subgroup of the finite unit group mod r, so closing under
    multiplication by p and q alone already yields the full group orbit.
    """
    p, q = params.p, params.q
    seen = {a0}
    frontier = [a0]
    while frontier:
        a = frontier.pop()
        for step in (a * p % r, a * q % r):
            if step not in seen:
                seen.add(step)
                frontier.append(step)
    return sorted(seen)


def orbit_of(params: SystemParams, x: SolenoidPoint) -> OrbitData:
    """The finite orbit of a rational point under multiplication by p and q."""
    r = x.coord.den
    params.require_coprime(r)
    points = tuple(SolenoidPoint(QmodZ(a, r)) for a in _orbit_numerators(params, x.coord.num, r))
    stab = stabilizer_lattice(params, r)
    assert len(points) == stab.index
    return OrbitData(params, r, points, stab)


def _orbits_mod(params: SystemParams, r: int) -> list[OrbitData]:
    stab = stabilizer_lattice(params, r)
    out = []
    visited = bytearray(r)
    for a0 in range(r):
        if visited[a0] or gcd(a0, r) != 1:
            continue
        nums = _orbit_numerators(params, a0, r)
        for a in nums:
            visited[a] = 1
        points = tuple(SolenoidPoint(QmodZ(a, r)) for a in nums)
        out.append(OrbitData(params, r, points, stab))
    return out


def enumerate_minimal_sets(params: SystemParams, max_denominator: int) -> list[OrbitData]:
    """All finite minimal invariant sets with denominator <= the bound.

    These are exactly the <p, q>-orbits on lowest-terms numerators mod r
    for each r coprime to pq, plus the fixed point {0} (the r = 1 entry).
    Ordered by (r, least numerator); points within an orbit are sorted.
    """
    if max_denominator < 1:
        raise OutOfRange(f"bound {max_denominator} out of range; expected >= 1")
    return [
        orbit
        for r in range(1, max_denominator + 1)
        if gcd(r, params.pq) == 1
        for orbit in _orbits_mod(params, r)
    ]


def is_invariant_set(params: SystemParams, points) -> bool:
    """Whether a finite set of rational points is invariant, i.e. both
    multiplication by p and by q permute it.  Accepts SolenoidPoint or
    bare QmodZ entries."""
    b = {x.coord if isinstance(x, SolenoidPoint) else x for x in points}
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
    way.

    >>> fixed_points(SystemParams(2, 3), (1, 1)).count
    5
    """
    m, n = g
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
        sample = tuple(SolenoidPoint(QmodZ(a, count)) for a in range(count))
    else:
        pts = []
        for d in range(1, max_denominator + 1):
            if count % d == 0:
                pts.extend(QmodZ(a, d) for a in range(d) if gcd(a, d) == 1)
        pts.sort(key=QmodZ.to_fraction)
        sample = tuple(SolenoidPoint(x) for x in pts)
    return FixedPoints(count, sample)


def lift_sequence(params: SystemParams, x: SolenoidPoint, depth: int) -> tuple[SolenoidPoint, ...]:
    """The backward orbit (x_0, ..., x_depth) along division by pq:
    x_0 = x and pq * x_(i+1) = x_i on the circle.

    On denominators coprime to pq the division is the multiplication by
    the inverse of pq mod r, so the lift is unique and stays rational.
    """
    if depth < 0:
        raise OutOfRange(f"depth {depth} out of range; expected >= 0")
    r = x.coord.den
    params.require_coprime(r)
    w = pow(params.pq, -1, r)
    out = [x]
    a = x.coord.num
    for _ in range(depth):
        a = a * w % r
        out.append(SolenoidPoint(QmodZ(a, r)))
    return tuple(out)
