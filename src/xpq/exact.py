"""Exact arithmetic kernel.

Everything downstream (orbits, traces, K-theory) reduces to computations
with four kinds of exact values:

* ``QmodZ``        -- rational points of the circle R/Z,
* ``PqRational``   -- elements of the ring Z[1/pq] in the form num/(p^a q^b),
* ``Cyclotomic``   -- elements of Q(zeta_N) in the power basis mod Phi_N,
* plain integers   -- orders, indices, lattice data.

plus the small amount of multiplicative number theory needed to work in
(Z/rZ)^*: factorization, Euler phi, Carmichael lambda, multiplicative
orders, and multiplicative independence of two integer bases.

All values are immutable and all arithmetic is arbitrary precision; the
only approximate operation in the whole module is ``Cyclotomic.approx``,
which embeds into the complex numbers at zeta_N = e^(2*pi*i/N) in double
precision and is documented as approximate only.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import FactorizationTooHard, NonInvertible, OutOfRange

_TRIAL_LIMIT = 1 << 16
_RHO_LIMIT = 1 << 64

# deterministic Miller-Rabin witness set, valid for all n < 3.317e24
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


# ---------------------------------------------------------------------------
# factorization and multiplicative structure of (Z/rZ)^*
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Factorization:
    """Prime factorization n = prod(prime^exp), pairs sorted by prime."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.pairs)


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Return a nontrivial factor of odd composite n (Floyd's cycle detection)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x, y, d = 2, 2, 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise FactorizationTooHard(f"pollard rho failed on {n}")


def _factor_into(n: int, acc: dict[int, int]) -> None:
    if n == 1:
        return
    if _is_probable_prime(n):
        acc[n] = acc.get(n, 0) + 1
        return
    d = _pollard_rho(n)
    _factor_into(d, acc)
    _factor_into(n // d, acc)


def factorize(n: int) -> Factorization:
    """Factor a positive integer.

    Trial division up to 2^16, then Pollard rho on the cofactor.  A
    cofactor still larger than 2^64 after trial division raises
    FactorizationTooHard rather than attempting a hard factorization.
    """
    if n < 1:
        raise OutOfRange(f"cannot factor {n}; expected a positive integer")
    acc: dict[int, int] = {}
    m = n
    f = 2
    while f <= _TRIAL_LIMIT and f * f <= m:
        while m % f == 0:
            acc[f] = acc.get(f, 0) + 1
            m //= f
        f += 1 if f == 2 else 2
    if m > 1:
        if f * f > m:
            acc[m] = acc.get(m, 0) + 1  # no factor below sqrt(m): prime
        elif m > _RHO_LIMIT:
            raise FactorizationTooHard(
                f"cofactor {m} exceeds 2^64 after trial division"
            )
        else:
            _factor_into(m, acc)
    return Factorization(n, tuple(sorted(acc.items())))


_factorize_cached = lru_cache(maxsize=4096)(factorize)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted increasingly."""
    out = [1]
    for p, e in _factorize_cached(n).pairs:
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in _factorize_cached(n).pairs:
        phi *= p ** (e - 1) * (p - 1)
    return phi


def carmichael(n: int) -> int:
    """Exponent of the unit group (Z/nZ)^* (Carmichael's lambda)."""
    lam = 1
    for p, e in _factorize_cached(n).pairs:
        if p == 2:
            comp = 1 if e == 1 else 2 if e == 2 else 1 << (e - 2)
        else:
            comp = p ** (e - 1) * (p - 1)
        lam = lcm(lam, comp)
    return lam


def multiplicative_order(k: int, r: int) -> int:
    """Order of k in (Z/rZ)^*.

    Computed by taking the group exponent lambda(r) and stripping prime
    factors while the power still lands on 1, so no order search is done.

    >>> multiplicative_order(2, 5)
    4
    >>> multiplicative_order(3, 7)
    6
    """
    if r < 1:
        raise OutOfRange(f"modulus {r} out of range; expected r >= 1")
    if r == 1:
        return 1
    if gcd(k, r) != 1:
        raise NonInvertible(f"{k} is not a unit mod {r}")
    e = carmichael(r)
    for p, _ in _factorize_cached(e).pairs:
        while e % p == 0 and pow(k, e // p, r) == 1:
            e //= p
    return e


def multiplicative_dependence_witness(p: int, q: int) -> tuple[int, int] | None:
    """Minimal (r, s) with r, s > 0 and p^r = q^s, or None if independent.

    p and q are dependent exactly when their prime supports agree and the
    exponent vectors are proportional.

    >>> multiplicative_dependence_witness(4, 8)
    (3, 2)
    >>> multiplicative_dependence_witness(2, 3) is None
    True
    """
    if p < 2 or q < 2:
        raise OutOfRange(f"bases ({p}, {q}) out of range; expected both >= 2")
    fp = _factorize_cached(p)
    fq = _factorize_cached(q)
    if fp.primes != fq.primes:
        return None
    e = dict(fp.pairs)
    f = dict(fq.pairs)
    ratio: Fraction | None = None
    for ell in fp.primes:
        this = Fraction(f[ell], e[ell])
        if ratio is None:
            ratio = this
        elif ratio != this:
            return None
    assert ratio is not None
    r, s = ratio.numerator, ratio.denominator
    assert p**r == q**s
    return (r, s)


def is_multiplicatively_independent(p: int, q: int) -> bool:
    """True iff p^r = q^s has no solution with r, s > 0."""
    return multiplicative_dependence_witness(p, q) is None


# ---------------------------------------------------------------------------
# rational points of the circle
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class QmodZ:
    """A rational point of R/Z in lowest terms, 0 <= num < den.

    The constructor canonicalizes, so QmodZ(7, 5) == QmodZ(2, 5) and the
    zero class is always stored as 0/1.

    >>> QmodZ(7, 5)
    QmodZ(num=2, den=5)
    >>> QmodZ(3, 5) + QmodZ(4, 5)
    QmodZ(num=2, den=5)
    """

    num: int
    den: int

    def __post_init__(self):
        if self.den <= 0:
            raise OutOfRange(f"denominator {self.den} out of range; expected >= 1")
        n = self.num % self.den
        g = gcd(n, self.den)
        object.__setattr__(self, "num", n // g)
        object.__setattr__(self, "den", self.den // g)

    @classmethod
    def from_fraction(cls, x) -> QmodZ:
        x = Fraction(x)
        return cls(x.numerator, x.denominator)

    @classmethod
    def parse(cls, text: str) -> QmodZ:
        """Parse "a/b" (or a bare integer, meaning the zero class)."""
        num, _, den = text.partition("/")
        return cls(int(num), int(den) if den else 1)

    def to_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __add__(self, other: QmodZ) -> QmodZ:
        d = lcm(self.den, other.den)
        return QmodZ(self.num * (d // self.den) + other.num * (d // other.den), d)

    def __neg__(self) -> QmodZ:
        return QmodZ(-self.num, self.den)

    def __sub__(self, other: QmodZ) -> QmodZ:
        return self + (-other)

    def mul_int(self, k: int) -> QmodZ:
        """The class of k*x; multiplication by k on R/Z."""
        return QmodZ(self.num * k, self.den)

    def mul_inverse(self, k: int) -> QmodZ:
        """The class y with k*y = x, for k invertible mod den.

        >>> QmodZ(1, 7).mul_inverse(6)
        QmodZ(num=6, den=7)
        """
        try:
            w = pow(k, -1, self.den)
        except ValueError:
            raise NonInvertible(f"{k} is not invertible mod {self.den}") from None
        return QmodZ(self.num * w, self.den)

    def is_zero(self) -> bool:
        return self.num == 0

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


# ---------------------------------------------------------------------------
# the ring Z[1/pq]
# ---------------------------------------------------------------------------


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@dataclass(frozen=True, slots=True)
class PqRational:
    """Element num / (p^a * q^b) of Z[1/pq].

    Canonical form: a = 0 or p does not divide num, and b = 0 or q does
    not divide num.  When p and q share prime factors the canonical form
    is not unique, so the builders fix a deterministic choice: minimal b
    first, then minimal a.  Construct through from_fraction / from_int;
    the raw constructor trusts its inputs.
    """

    num: int
    a: int
    b: int

    @classmethod
    def from_int(cls, n: int) -> PqRational:
        return cls(n, 0, 0)

    @classmethod
    def from_fraction(cls, value, p: int, q: int) -> PqRational:
        value = Fraction(value)
        if value == 0:
            return cls(0, 0, 0)
        d = value.denominator
        b = 0
        for ell, fl in _factorize_cached(q).pairs:
            if p % ell == 0:
                continue  # p covers this prime, keep b minimal
            v = _valuation(d, ell)
            if v:
                b = max(b, -(-v // fl))
        db = (value * Fraction(q) ** b).denominator
        a = 0
        for ell, fl in _factorize_cached(p).pairs:
            v = _valuation(db, ell)
            if v:
                a = max(a, -(-v // fl))
        scaled = value * Fraction(p) ** a * Fraction(q) ** b
        if scaled.denominator != 1:
            raise OutOfRange(f"{value} is not an element of Z[1/{p * q}]")
        return cls(int(scaled), a, b)

    def to_fraction(self, p: int, q: int) -> Fraction:
        return Fraction(self.num, p**self.a * q**self.b)

    def is_zero(self) -> bool:
        return self.num == 0


# ---------------------------------------------------------------------------
# cyclotomic fields
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
def cyclotomic_polynomial(N: int) -> tuple[int, ...]:
    """Coefficients of the N-th cyclotomic polynomial Phi_N, low degree first.

    Computed by exact division of x^N - 1 by the product of Phi_d over the
    proper divisors d of N.

    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    >>> cyclotomic_polynomial(5)
    (1, 1, 1, 1, 1)
    """
    if N < 1:
        raise OutOfRange(f"cyclotomic level {N} out of range; expected N >= 1")
    if N == 1:
        return (-1, 1)
    poly = [-1] + [0] * (N - 1) + [1]
    for d in divisors(N):
        if d < N:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _reduce_mod_cyclotomic(vec: list[int], level: int) -> list[int]:
    phi = cyclotomic_polynomial(level)
    d = len(phi) - 1
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


class Cyclotomic:
    """Element of Q(zeta_N), written in the power basis 1, z, ..., z^(phi(N)-1)
    modulo Phi_N, where z = zeta_N = e^(2*pi*i/N).

    The level N is part of the value and is never descended to the
    conductor: a fifth root of unity built at level 10 stays at level 10.
    Arithmetic between different levels lifts both operands to the lcm
    level, and equality compares after such a lift, so values that agree
    as complex numbers compare equal even when constructed at different
    levels.  Because of that, instances are intentionally unhashable.

    Coordinates are stored as an integer vector over a common positive
    denominator with content coprime to it; `coeffs` exposes them as
    Fractions.
    """

    __slots__ = ("level", "den", "vec")

    def __init__(self, level: int, vec, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        v = _reduce_mod_cyclotomic(list(vec), level)
        if den < 0:
            den = -den
            v = [-c for c in v]
        g = den
        for c in v:
            g = gcd(g, c)
            if g == 1:
                break
        if g > 1:
            den //= g
            v = [c // g for c in v]
        self.level = level
        self.den = den
        self.vec = tuple(v)

    # --- constructors ----------------------------------------------------

    @classmethod
    def from_fraction(cls, x, level: int = 1) -> Cyclotomic:
        x = Fraction(x)
        return cls(level, [x.numerator], x.denominator)

    @classmethod
    def zero(cls) -> Cyclotomic:
        return cls(1, [0])

    @classmethod
    def one(cls) -> Cyclotomic:
        return cls(1, [1])

    # --- structure --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.vec)

    def is_zero(self) -> bool:
        return not any(self.vec)

    def is_rational(self) -> bool:
        return not any(self.vec[1:])

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.vec[0], self.den)

    def lifted(self, level: int) -> Cyclotomic:
        """The same value rewritten at a multiple of the current level."""
        if level == self.level:
            return self
        if level % self.level != 0:
            raise OutOfRange(f"cannot lift level {self.level} to {level}")
        k = level // self.level
        out = [0] * ((len(self.vec) - 1) * k + 1)
        for i, c in enumerate(self.vec):
            if c:
                out[i * k] = c
        return Cyclotomic(level, out, self.den)

    # --- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Cyclotomic):
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic.from_fraction(other)
        return None

    def _pair(self, other: Cyclotomic) -> tuple[Cyclotomic, Cyclotomic]:
        L = lcm(self.level, other.level)
        return self.lifted(L), other.lifted(L)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._pair(other)
        d = lcm(a.den, b.den)
        ka, kb = d // a.den, d // b.den
        return Cyclotomic(a.level, [x * ka + y * kb for x, y in zip(a.vec, b.vec)], d)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.level, [-c for c in self.vec], self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_rational():
            return self.scaled(other.to_fraction())
        if self.is_rational():
            return other.scaled(self.to_fraction())
        a, b = self._pair(other)
        out = [0] * (len(a.vec) + len(b.vec) - 1)
        for i, x in enumerate(a.vec):
            if x:
                for j, y in enumerate(b.vec):
                    if y:
                        out[i + j] += x * y
        return Cyclotomic(a.level, out, a.den * b.den)

    __rmul__ = __mul__

    def scaled(self, x) -> Cyclotomic:
        """Multiply by a rational scalar."""
        x = Fraction(x)
        return Cyclotomic(
            self.level, [c * x.numerator for c in self.vec], self.den * x.denominator
        )

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not supported")
        out = Cyclotomic.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> Cyclotomic:
        """Complex conjugate; sends zeta_N to zeta_N^(N-1)."""
        N = self.level
        out = [0] * N
        for i, c in enumerate(self.vec):
            if c:
                out[(N - i) % N] += c
        return Cyclotomic(N, out, self.den)

    # --- comparison and display --------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.level == other.level:
            return self.den == other.den and self.vec == other.vec
        a, b = self._pair(other)
        return a.den == b.den and a.vec == b.vec

    __hash__ = None  # equal values at different levels would hash apart

    def approx(self) -> complex:
        """Double-precision embedding at zeta_N = e^(2*pi*i/N).

        Approximate only; every exact statement in this package is made
        through the exact representation, never through this embedding.
        """
        N = self.level
        out = 0j
        for i, c in enumerate(self.vec):
            if c:
                out += c * cmath.exp(2j * cmath.pi * i / N)
        return out / self.den

    def __repr__(self):
        return f"Cyclotomic(level={self.level}, coeffs={self.coeffs!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        terms = []
        for i, c in enumerate(self.vec):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{i}")
        body = " + ".join(terms).replace("+ -", "- ")
        if self.den != 1:
            return f"({body})/{self.den} at level {self.level}"
        return f"{body} at level {self.level}"


def root_of_unity(t: QmodZ) -> Cyclotomic:
    """The exact point e^(2*pi*i*t) as an element of Q(zeta_den(t)).

    >>> root_of_unity(QmodZ(1, 2)).to_fraction()
    Fraction(-1, 1)
    """
    return Cyclotomic(t.den, [0] * t.num + [1])
