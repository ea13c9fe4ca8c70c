"""The group G = Z[1/pq] x| Z^2 and its rational group algebra.

Elements are triples (x, m, n) with x in Z[1/pq]; the Z^2 part acts on
the normal subgroup by (m, n): x -> p^m q^n x, so

    (x1, m1, n1) (x2, m2, n2) = (x1 + p^m1 q^n1 x2, m1 + m2, n1 + n2).

Ring parts are computed in integers: both summands are written over one
denominator p^a q^b (a negative power of p or q multiplies the numerator
instead), the numerators are added, and PqRational.canonical brings the
sum to canonical form by gcd steps, so neither p nor q is ever factored.
Products in Q[G], and trace sums in traces, run on integer numerators
over one denominator; a Fraction is built only for each nonzero result.

For multiplicatively independent p, q every nontrivial conjugacy class
is infinite; icc_witness produces arbitrarily many distinct conjugates
from the two closed-form families used to see that.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .dynamics import SystemParams
from .errors import DependentParams, IdentityElement, OutOfRange, ParamsMismatch
from .exact import PqRational

# Most conjugates icc_witness lists.  The k-th conjugate of (x, m, n) with
# x != 0 is (p^k x, m, n), so the listing grows quadratically with count.
MAX_CONJUGATES = 1000


@dataclass(frozen=True, slots=True)
class GroupElement:
    x: PqRational
    m: int
    n: int

    @classmethod
    def identity(cls) -> GroupElement:
        return cls(PqRational(0, 0, 0), 0, 0)

    def is_identity(self) -> bool:
        return self.x.is_zero() and self.m == 0 and self.n == 0

    def sort_key(self):
        return (self.x.num, self.x.a, self.x.b, self.m, self.n)


def _times_pq(params: SystemParams, x: PqRational, m: int, n: int) -> tuple[int, int, int]:
    # x p^m q^n as (num, a, b) meaning num / (p^a q^b) with a, b >= 0, not
    # yet canonical; a negative exponent multiplies num instead of dividing
    num, a, b = x.num, x.a - m, x.b - n
    if a < 0:
        num *= params.p**-a
        a = 0
    if b < 0:
        num *= params.q**-b
        b = 0
    return num, a, b


def _canonical(params: SystemParams, num: int, a: int, b: int) -> PqRational:
    p, q = params.p, params.q
    return PqRational.canonical(num, p**a * q**b, p, q)


def alpha_apply(params: SystemParams, mn: tuple[int, int], x: PqRational) -> PqRational:
    """The Z^2-action on Z[1/pq]: (m, n) sends x to p^m q^n x."""
    return _canonical(params, *_times_pq(params, x, *mn))


def _ring_sum(params: SystemParams, x1: PqRational, x2: PqRational, m: int, n: int) -> PqRational:
    # x1 + p^m q^n x2, the ring part of (x1, m, _) (x2, _, _)
    p, q = params.p, params.q
    n1, a1, b1 = x1.num, x1.a, x1.b
    n2, a2, b2 = _times_pq(params, x2, m, n)
    a, b = max(a1, a2), max(b1, b2)
    num = n1 * p ** (a - a1) * q ** (b - b1) + n2 * p ** (a - a2) * q ** (b - b2)
    return _canonical(params, num, a, b)


def group_mul(params: SystemParams, g: GroupElement, h: GroupElement) -> GroupElement:
    return GroupElement(_ring_sum(params, g.x, h.x, g.m, g.n), g.m + h.m, g.n + h.n)


def group_inv(params: SystemParams, g: GroupElement) -> GroupElement:
    num, a, b = _times_pq(params, g.x, -g.m, -g.n)
    return GroupElement(_canonical(params, -num, a, b), -g.m, -g.n)


def conjugated(params: SystemParams, h: GroupElement, g: GroupElement) -> GroupElement:
    """h g h^(-1)."""
    return group_mul(params, group_mul(params, h, g), group_inv(params, h))


def icc_witness(params: SystemParams, g: GroupElement, count: int) -> list[GroupElement]:
    """count pairwise distinct conjugates of a nontrivial element.

    For x != 0, conjugating by (0, k, 0) scales the ring part: the
    conjugates are (p^k x, m, n).  For x = 0 and (m, n) != 0,
    conjugating by (k, 0, 0) gives ((1 - p^m q^n) k, m, n); this needs
    p^m q^n != 1, which multiplicative independence guarantees.  The listing
    stops with OutOfRange at the first numerator too long to print, so no
    conjugate is built much past that length.
    """
    if not 0 <= count <= MAX_CONJUGATES:
        raise OutOfRange(f"count = {count} out of range; expected 0 <= count <= {MAX_CONJUGATES}")
    if g.is_identity():
        raise IdentityElement("the identity has a one-element conjugacy class")
    if not g.x.is_zero():
        def nth(k: int) -> PqRational:
            return alpha_apply(params, (k, 0), g.x)
    else:
        # p^m q^n = num / den, so the factor 1 - p^m q^n is (den - num) / den
        num, a, b = _times_pq(params, PqRational.from_int(1), g.m, g.n)
        den = params.p**a * params.q**b
        if num == den:
            raise DependentParams(
                f"p^{g.m} q^{g.n} = 1: the conjugates by (k, 0, 0) collapse; "
                "this cannot happen for multiplicatively independent p, q"
            )

        def nth(k: int) -> PqRational:
            return PqRational.canonical((den - num) * k, den, params.p, params.q)

    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    limit = 10**digits if digits else None
    out = []
    for k in range(1, count + 1):
        x = nth(k)
        if limit and abs(x.num) >= limit:
            raise OutOfRange(
                f"count = {count}: conjugate {k} has a numerator of more than {digits} decimal "
                "digits, the limit for printing an integer (sys.get_int_max_str_digits())"
            )
        out.append(GroupElement(x, g.m, g.n))
    return out


@dataclass(frozen=True, slots=True)
class GroupAlgebraElement:
    """Finitely supported rational combination sum c_g u_g in Q[G].

    terms is kept sorted with nonzero coefficients, so equal elements
    compare equal structurally.  Build through unit / from_terms or the
    arithmetic operators.
    """

    params: SystemParams
    terms: tuple[tuple[GroupElement, Fraction], ...]

    @classmethod
    def from_terms(cls, params: SystemParams, terms) -> GroupAlgebraElement:
        acc: dict[GroupElement, Fraction] = {}
        for g, c in terms:
            c = Fraction(c)
            if c:
                s = acc.get(g, Fraction(0)) + c
                if s:
                    acc[g] = s
                else:
                    acc.pop(g, None)
        ordered = tuple(sorted(acc.items(), key=lambda t: t[0].sort_key()))
        return cls(params, ordered)

    @classmethod
    def unit(cls, params: SystemParams, g: GroupElement) -> GroupAlgebraElement:
        return cls(params, ((g, Fraction(1)),))

    @classmethod
    def zero(cls, params: SystemParams) -> GroupAlgebraElement:
        return cls(params, ())

    def coefficient(self, g: GroupElement) -> Fraction:
        for h, c in self.terms:
            if h == g:
                return c
        return Fraction(0)

    def integer_terms(self) -> tuple[int, list[tuple[GroupElement, int]]]:
        """(d, [(g, k_g)]) with c_g = k_g / d: integer numerators over the
        lcm d of the coefficient denominators."""
        d = lcm(*(c.denominator for _, c in self.terms))
        return d, [(g, c.numerator * (d // c.denominator)) for g, c in self.terms]

    def support_size(self) -> int:
        return len(self.terms)

    def _check_params(self, other: GroupAlgebraElement) -> None:
        if self.params != other.params:
            raise ParamsMismatch(
                f"cannot combine elements over ({self.params.p}, {self.params.q}) "
                f"and ({other.params.p}, {other.params.q})"
            )

    def __add__(self, other: GroupAlgebraElement) -> GroupAlgebraElement:
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        self._check_params(other)
        return self.from_terms(self.params, list(self.terms) + list(other.terms))

    def __neg__(self) -> GroupAlgebraElement:
        return GroupAlgebraElement(self.params, tuple((g, -c) for g, c in self.terms))

    def __sub__(self, other: GroupAlgebraElement) -> GroupAlgebraElement:
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, GroupAlgebraElement):
            return NotImplemented
        self._check_params(other)
        params = self.params
        d1, left = self.integer_terms()
        d2, right = other.integer_terms()
        right = [(g.x, g.m, g.n, k) for g, k in right]
        # keyed by (num, a, b, m, n), which is GroupElement.sort_key()
        acc: dict[tuple[int, int, int, int, int], int] = {}
        for g1, k1 in left:
            x1, m1, n1 = g1.x, g1.m, g1.n
            for x2, m2, n2, k2 in right:
                x = _ring_sum(params, x1, x2, m1, n1)
                key = (x.num, x.a, x.b, m1 + m2, n1 + n2)
                acc[key] = acc.get(key, 0) + k1 * k2
        d = d1 * d2
        return GroupAlgebraElement(params, tuple(
            (GroupElement(PqRational(num, a, b), m, n), Fraction(k, d))
            for (num, a, b, m, n), k in sorted(acc.items()) if k
        ))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, c) -> GroupAlgebraElement:
        c = Fraction(c)
        if not c:
            return self.zero(self.params)
        return GroupAlgebraElement(self.params, tuple((g, k * c) for g, k in self.terms))

    def star(self) -> GroupAlgebraElement:
        """The adjoint: sum conj(c_g) u_(g^-1); rational conjugation is trivial."""
        return self.from_terms(
            self.params, ((group_inv(self.params, g), c) for g, c in self.terms)
        )
