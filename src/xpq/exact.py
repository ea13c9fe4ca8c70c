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

All values are immutable records on the Record base, and all arithmetic
is arbitrary precision; the only approximate operation in the whole
module is ``Cyclotomic.approx``.
"""

from __future__ import annotations

import cmath
from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, zip_longest
from math import gcd, lcm
from numbers import Rational
from operator import add, attrgetter, sub

from .errors import FactorizationTooHard, NonInvertible, OutOfRange, check_range, int_text

_TRIAL_LIMIT = 1 << 16
_RHO_LIMIT = 1 << 64

# Largest cyclotomic level N a value may have.  A value at level N is built
# from dense vectors of length up to N, so a level from a character such as
# 1/1000000007 would ask for 10^9 entries.  Phi_N and the reduction mod Phi_N
# take one strided pass over such a vector per squarefree divisor of N.
MAX_CYCLOTOMIC_LEVEL = 10**6

# deterministic Miller-Rabin witness set, valid for all n < 3.317e24
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class Record:
    """Base of the immutable value records: the fields are __slots__.
    Records of one class are equal when their field tuples are, the hash is
    that tuple's, and repr is Name(field=value!r, ...).  A field is set
    once, by __init__, through its slot's own setter: _setters holds the
    member descriptors' __set__, bound once per class in __slots__ order.
    The shared __init__ takes exactly the fields; a record that validates
    or has defaults writes its own, which validates before the first set.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        fields = cls.__slots__
        cls._setters = tuple(cls.__dict__[name].__set__ for name in fields)
        get = attrgetter(*fields) if fields else lambda self: ()
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._key = staticmethod(get if len(fields) != 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs):
        fields = self.__slots__
        if kwargs:  # the fields after the positional ones, in order, while given
            args += tuple(kwargs.pop(name) for name in fields[len(args):] if name in kwargs)
        if len(args) != len(fields) or kwargs:
            raise TypeError(f"{type(self).__name__}() takes exactly the fields {fields}")
        for set_field, value in zip(self._setters, args):
            set_field(self, value)

    def __eq__(self, other):
        key = self._key
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# factorization and multiplicative structure of (Z/rZ)^*
# ---------------------------------------------------------------------------


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


@lru_cache(maxsize=4096)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of a positive integer, sorted by prime.

    Trial division up to 2^16, then Pollard rho on the cofactor.  A
    cofactor still larger than 2^64 after trial division raises
    FactorizationTooHard rather than attempting a hard factorization.
    Results are cached for the last 4096 arguments, so callers share one
    immutable tuple per n; a refusal is not cached.

    >>> factorize(360)
    ((2, 3), (3, 2), (5, 1))
    """
    check_range("n", n, 1)
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
                f"cofactor {int_text(m)} exceeds 2^64 after trial division"
            )
        else:
            _factor_into(m, acc)
    return tuple(sorted(acc.items()))


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n):
        phi *= p ** (e - 1) * (p - 1)
    return phi


def carmichael(n: int) -> int:
    """Exponent of the unit group (Z/nZ)^* (Carmichael's lambda)."""
    lam = 1
    for p, e in factorize(n):
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
    check_range("r", r, 1)
    if gcd(k, r) != 1:
        raise NonInvertible(f"{k} is not a unit mod {r}")
    return _descend(carmichael(r), lambda m: pow(k, m, r) == 1)


def _descend(e: int, holds: Callable[[int], bool]) -> int:
    """e with each prime factor l stripped while holds(e / l): the divisor g
    of e when holds(m) means g | m, as k^m = 1 does for g = ord(k)."""
    for ell, _ in factorize(e):
        while e % ell == 0 and holds(e // ell):
            e //= ell
    return e


def check_bases(p: int, q: int) -> None:
    """Refuse bases p or q below 2."""
    check_range("p", p, 2)
    check_range("q", q, 2)


def multiplicative_dependence_witness(p: int, q: int) -> tuple[int, int] | None:
    """Minimal (r, s) with r, s > 0 and p^r = q^s, or None if independent.

    p and q are dependent exactly when both are powers of one integer c.
    Euclid's algorithm on their exponents finds c without factoring: divide
    the larger of the pair by the smaller until they agree, and answer
    "independent" at the first inexact division.  Each value is carried
    with its exponent vector over (p, q); those vectors form a unimodular
    matrix, so their difference at the end is the minimal witness.

    >>> multiplicative_dependence_witness(4, 8)
    (3, 2)
    >>> multiplicative_dependence_witness(2, 3) is None
    True
    """
    check_bases(p, q)
    # x = p^ex[0] q^ex[1] and y = p^ey[0] q^ey[1] throughout
    x, ex, y, ey = p, (1, 0), q, (0, 1)
    while x != y:
        if x > y:
            x, ex, y, ey = y, ey, x, ex
        y, rem = divmod(y, x)
        if rem:
            return None
        ey = (ey[0] - ex[0], ey[1] - ex[1])
    r, s = ex[0] - ey[0], ey[1] - ex[1]
    return (r, s) if r > 0 else (-r, -s)


# ---------------------------------------------------------------------------
# rational points of the circle
# ---------------------------------------------------------------------------


class QmodZ(Record):
    """A rational point of R/Z in lowest terms, 0 <= num < den.

    The constructor canonicalizes, so QmodZ(7, 5) == QmodZ(2, 5) and the
    zero class is always stored as 0/1.

    >>> QmodZ(7, 5)
    QmodZ(num=2, den=5)
    >>> QmodZ(3, 5) + QmodZ(4, 5)
    QmodZ(num=2, den=5)
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        check_range("denominator", den, 1)
        num %= den
        g = gcd(num, den)
        set_num, set_den = self._setters
        set_num(self, num // g)
        set_den(self, den // g)

    @classmethod
    def parse(cls, text: str) -> QmodZ:
        """The class of "a/b", or of "a" read as a/1, in ASCII digits each after
        an optional "-", so "6/5" is 1/5.  Other text, such as "1/", "+1/5" or
        " 1/5", is a ValueError "bad rational", and b <= 0 is OutOfRange."""
        num, slash, den = text.partition("/")
        try:
            if text.strip("-/0123456789"):  # int() alone takes "+", "_", spaces, other digits
                raise ValueError
            n, d = int(num), int(den) if slash else 1
        except ValueError:
            raise ValueError(f"bad rational {text!r}") from None
        return cls(n, d)

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

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"


# ---------------------------------------------------------------------------
# the ring Z[1/pq]
# ---------------------------------------------------------------------------


def _gcd_steps(t: int, k: int) -> tuple[int, int]:
    """Divide t by gcd(t, k) until that gcd is 1; return (steps, what is left).

    Each step lowers the valuation of t at a prime ell of k by up to
    v_ell(k), so when nothing is left the step count is the least e with
    t | k^e, found without factoring k.
    """
    steps = 0
    while (g := gcd(t, k)) > 1:
        t //= g
        steps += 1
    return steps, t


def _den_form(den: int, p: int, q: int) -> tuple[int, int, int] | None:
    """(f, a, b) with 1/den = f / (p^a q^b) in canonical form for every
    numerator coprime to den, or None when den divides no power of pq."""
    # the part of den prime to p needs q^b, and b is minimal
    b, rest = _gcd_steps(_gcd_steps(den, p)[1], q)
    if rest != 1:
        return None
    qb = q**b
    g = gcd(qb, den)
    den //= g
    a, _ = _gcd_steps(den, p)  # what q^b leaves of den divides a power of p
    return (qb // g) * (p**a // den), a, b


def as_fraction(x) -> Fraction:
    """x as a Fraction, for an exact rational x such as an int or a Fraction.

    A float is refused: Fraction(0.1) is its binary expansion
    3602879701896397/36028797018963968, not 1/10.
    """
    if not isinstance(x, Rational):
        raise TypeError(f"{x!r} is not an exact rational; expected an int or a Fraction")
    return Fraction(x)


class PqRational(Record):
    """Element num / (p^a * q^b) of Z[1/pq].

    Canonical form: a = 0 or p does not divide num, and b = 0 or q does
    not divide num.  When p and q share prime factors the canonical form
    is not unique, so the builders fix a deterministic choice: minimal b
    first, then minimal a.  Construct through canonical or from_fraction, or
    an integer n as PqRational(n, 0, 0); the raw constructor trusts its inputs.
    """

    __slots__ = ("num", "a", "b")

    def __init__(self, num: int, a: int, b: int):
        set_num, set_a, set_b = self._setters
        set_num(self, num)
        set_a(self, a)
        set_b(self, b)

    @classmethod
    def canonical(cls, num: int, den: int, p: int, q: int) -> PqRational:
        """The canonical form of num/den, for den >= 1.

        Decided by gcd steps alone, so p and q are never factored.  Raises
        OutOfRange when den, reduced, does not divide a power of pq.

        >>> PqRational.canonical(3, 8, 4, 6)
        PqRational(num=6, a=2, b=0)
        """
        if num == 0:
            return cls(0, 0, 0)
        g = gcd(num, den)
        num //= g
        den //= g
        form = _den_form(den, p, q)
        if form is None:
            raise OutOfRange(f"{int_text(num)}/{int_text(den)} is not an element of Z[1/{int_text(p * q)}]")
        f, a, b = form
        return cls(num * f, a, b)

    @classmethod
    def from_fraction(cls, value, p: int, q: int) -> PqRational:
        value = Fraction(value)
        return cls.canonical(value.numerator, value.denominator, p, q)

    def to_fraction(self, p: int, q: int) -> Fraction:
        return Fraction(self.num, p**self.a * q**self.b)


# ---------------------------------------------------------------------------
# cyclotomic fields
# ---------------------------------------------------------------------------


def check_level(N: int) -> None:
    """Refuse a cyclotomic level outside 1..MAX_CYCLOTOMIC_LEVEL before any
    vector of that length is built."""
    check_range("cyclotomic level", N, 1, MAX_CYCLOTOMIC_LEVEL)


@lru_cache(maxsize=4096)
def _binomial_factors(N: int) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    # (phi(N), mul, div) with Phi_N = prod (1 - x^d), d in mul, over prod
    # (1 - x^d), d in div, for N > 1: the d = N/s for squarefree s | N, in
    # mul when mu(s) = 1.  The level is checked before N is factored.
    check_level(N)
    mul, div = [N], []
    for p, _ in factorize(N):
        mul, div = mul + [d // p for d in div], div + [d // p for d in mul]
    return euler_phi(N), tuple(mul), tuple(div)


def _binomials(poly: list[int], mul: tuple[int, ...], div: tuple[int, ...]) -> list[int]:
    # poly * prod (1 - x^d), d in mul, / prod (1 - x^d), d in div, as power
    # series truncated at len(poly), in place: one strided pass per factor
    n = len(poly)
    for d in mul:
        if d < n:
            poly[d:] = map(sub, poly[d:], poly[: n - d])
    for d in div:
        # 1/(1 - x^d) = sum of x^(jd): a running sum over each class mod d,
        # by n/d block adds when d > sqrt(n), else by d strided accumulates
        if d * d > n:
            for j in range(d, n, d):
                poly[j : j + d] = map(add, poly[j : j + d], poly[j - d : j])
            continue
        for k in range(min(d, n - d)):
            poly[k::d] = accumulate(poly[k::d])
    return poly


def cyclotomic_polynomial(N: int) -> tuple[int, ...]:
    """Coefficients of the N-th cyclotomic polynomial Phi_N, low degree first.

    For N > 1, Phi_N = prod over d | N of (1 - x^d)^mu(N/d), expanded as a
    power series to degree phi(N): one strided pass per squarefree divisor
    (Arnold and Monagan, Math. Comp. 80, 2011).

    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    >>> cyclotomic_polynomial(5)
    (1, 1, 1, 1, 1)
    """
    if N == 1:
        return (-1, 1)
    phi, mul, div = _binomial_factors(N)
    return tuple(_binomials([1] + [0] * phi, mul, div))


def _reduce_mod_cyclotomic(vec: list[int], level: int) -> list[int]:
    # the remainder of vec mod Phi_level, as at most phi(level) coefficients
    if level == 1:
        return [sum(vec)]
    phi, mul, div = _binomial_factors(level)
    extra = len(vec) - phi
    if extra <= 0:
        return vec
    # Phi_N is palindromic, so reversing vec = quo * Phi_N + rem turns the
    # quotient into the power series rev(vec) / Phi_N, truncated at its length
    quo = _binomials(vec[phi:][::-1], div, mul)[::-1]
    low = _binomials(quo[:phi] + [0] * (phi - extra), mul, div)
    return list(map(sub, vec[:phi], low))


class Cyclotomic(Record):
    """Element of Q(zeta_N), written in the power basis 1, z, ..., z^(phi(N)-1)
    modulo Phi_N, where z = zeta_N = e^(2*pi*i/N).

    The level N is part of the value and is never descended to the
    conductor: a fifth root of unity built at level 10 stays at level 10.
    Arithmetic between different levels lifts both operands to the lcm
    level, and equality compares after such a lift, so values that agree
    as complex numbers compare equal even when constructed at different
    levels.  Because of that, instances are intentionally unhashable: the
    Record base gives them frozen slots, and equality, hash and repr are
    their own.

    Coordinates are stored as an integer vector `vec` over a common
    positive denominator with content coprime to it.  `vec` has no trailing
    zero and len(vec) <= phi(level), so a rational value is (c,) and zero
    is (); `coeffs` gives all phi(level) coordinates as Fractions.
    """

    __slots__ = ("level", "den", "vec")

    def __init__(self, level: int, vec, den: int = 1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        v = _reduce_mod_cyclotomic(list(vec), level)
        while v and not v[-1]:
            v.pop()
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
        set_level, set_den, set_vec = self._setters
        set_level(self, level)
        set_den(self, den)
        set_vec(self, tuple(v))

    # --- constructors ----------------------------------------------------

    @classmethod
    def from_fraction(cls, x) -> Cyclotomic:
        x = as_fraction(x)
        return cls(1, [x.numerator], x.denominator)

    @classmethod
    def zero(cls) -> Cyclotomic:
        return cls(1, [0])

    @classmethod
    def one(cls) -> Cyclotomic:
        return cls(1, [1])

    # --- structure --------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        pad = (Fraction(0),) * (euler_phi(self.level) - len(self.vec))
        return tuple(Fraction(c, self.den) for c in self.vec) + pad

    def is_zero(self) -> bool:
        return not self.vec

    def is_rational(self) -> bool:
        return len(self.vec) <= 1

    def to_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(sum(self.vec), self.den)

    def lifted(self, level: int) -> Cyclotomic:
        """The same value rewritten at a multiple of the current level."""
        if level == self.level:
            return self
        if level % self.level != 0:
            raise OutOfRange(f"cannot lift level {self.level} to {level}")
        check_level(level)
        k = level // self.level
        out = [0] * ((len(self.vec) - 1) * k + 1)
        out[::k] = self.vec
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
        return Cyclotomic(a.level, [x * ka + y * kb for x, y in zip_longest(a.vec, b.vec, fillvalue=0)], d)

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
        """A rational factor acts as a scalar: the product keeps the other
        factor's level (the left one's when both are rational).  Otherwise
        both factors are lifted to the lcm of their levels."""
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
        x = as_fraction(x)
        if x == 1:
            return self  # instances are never mutated after __init__
        num = x.numerator
        return Cyclotomic(self.level, [c * num for c in self.vec], self.den * x.denominator)

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
        vec = self.vec
        if len(vec) <= 1:
            return self  # a rational value is its own conjugate
        return Cyclotomic(self.level, [vec[0], *[0] * (self.level - len(vec)), *vec[:0:-1]], self.den)

    # --- comparison and display --------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._pair(other)
        return a.den == b.den and a.vec == b.vec

    __hash__ = None  # equal values at different levels would hash apart

    def approx(self) -> complex:
        """Double-precision embedding at zeta_N = e^(2*pi*i/N).

        Approximate only; every exact statement in this package is made
        through the exact representation, never through this embedding.
        A coordinate or den too large for a float is handled by dividing
        each coordinate by den exactly (int / int rounds correctly) before
        it scales its root; OverflowError remains for a coordinate whose
        quotient is past the float range or rounds a nonzero value to 0.
        """
        N, den = self.level, self.den
        out = 0j
        try:
            for i, c in enumerate(self.vec):
                if c:
                    out += c * cmath.exp(2j * cmath.pi * i / N)
            return out / den
        except OverflowError:
            out = 0j
        for i, c in enumerate(self.vec):
            if c:
                if not (x := c / den):
                    raise OverflowError(f"coordinate {i} of the value rounds to 0.0")
                out += x * cmath.exp(2j * cmath.pi * i / N)
        return out

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
    check_level(t.den)
    return Cyclotomic(t.den, [0] * t.num + [1])


def twisted_level(d: int, c: Cyclotomic) -> int:
    """The level of root_of_unity(t) * c for t of order d >= 2, by the
    level rule of ``Cyclotomic.__mul__``: the root is rational (it is -1)
    for d = 2, so the level is c's own for d = 2 over an irrational c, d
    over a rational c, and lcm(d, c.level) otherwise.
    """
    if c.is_rational():
        return d
    return c.level if d == 2 else lcm(d, c.level)
